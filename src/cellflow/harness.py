"""Experiment orchestration: datasets in, trace CSVs out.

Repetition seeding: each repetition seed ``r`` spawns two independent
streams, ``default_rng([r, 0])`` for dataset generation (unless the synth
config pins its own seed, which freezes the dataset across repetitions)
and ``default_rng([r, 1])`` for the algorithm.  With ``timing`` disabled
the recorded seconds are all zero and trace files are byte-reproducible.

Trace CSV: header ``iteration,cells_total,loss,cumulative_seconds,
cumulative_solver_calls,cumulative_solver_iterations``; floats carry
9 significant digits (``format(x, '.9g')``, so 0.0 prints as ``0``).
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, fields, replace
from pathlib import Path
from typing import NamedTuple, get_type_hints

import numpy as np

from . import fileio
from .baselines import SphConfig, infer_random, infer_sph
from .complexes import CellComplex, InvalidCell
from .fileio import InvariantViolation, ParseError
from .mfci import InferenceConfig, infer_mfci, make_timer
from .synth import SynthConfig, random_complex, reference_loss, sample_flows, save_dataset


class DegenerateReference(Exception):
    """Relative performance is undefined when the random baseline is not
    strictly worse than the reference algorithm."""


# Each algorithm's inference function and the ``ExperimentConfig`` field
# that holds its config (the function's third argument).
ALGORITHMS = {"mfci": (infer_mfci, "mfci"), "sph": (infer_sph, "sph"),
              "random": (infer_random, "random_cells")}


@dataclass(frozen=True)
class DatasetPaths:
    edges: Path
    flows: Path
    cells: Path | None = None


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: a data source, an algorithm, and repetition seeds."""

    algo: str
    seeds: tuple
    out_dir: Path
    synth: SynthConfig | None = None
    data: DatasetPaths | None = None
    mfci: InferenceConfig | None = None
    sph: SphConfig | None = None
    random_cells: int | None = None
    timing: bool = True

    def __post_init__(self):
        if self.algo not in ALGORITHMS:
            raise ValueError(f"algo must be one of {tuple(ALGORITHMS)}, got {self.algo!r}")
        if (self.synth is None) == (self.data is None):
            raise ValueError("exactly one of synth config and data paths is required")
        if not self.seeds:
            raise ValueError("at least one repetition seed is required")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError("repetition seeds must be distinct")
        if min(self.seeds) < 0:
            raise ValueError(f"run.seeds must be non-negative, got {min(self.seeds)}")
        if getattr(self, ALGORITHMS[self.algo][1]) is None:
            raise ValueError(f"missing configuration for algorithm {self.algo!r}")
        if self.random_cells is not None and self.random_cells < 1:
            raise ValueError("random.total_cells must be >= 1")


class TraceRecord(NamedTuple):
    """One trace CSV row as ``read_trace`` returns it."""

    iteration: int
    cells_total: int
    loss: float
    cumulative_seconds: float
    cumulative_solver_calls: int
    cumulative_solver_iterations: int


TRACE_HEADER = ",".join(TraceRecord._fields)
_TRACE_TYPES = tuple(get_type_hints(TraceRecord).values())  # int or float, per column


def _trace_row(r):
    return ",".join(format(getattr(r, name), ".9g") if kind is float else str(getattr(r, name))
                    for name, kind in zip(TraceRecord._fields, _TRACE_TYPES))


def write_trace(records, path):
    """Write trace records (``TraceRecord`` or ``IterationRecord``) as CSV
    (see module docstring for the format)."""
    if not records:
        raise ValueError("no records to write")
    lines = [TRACE_HEADER] + [_trace_row(r) for r in records]
    Path(path).write_text("\n".join(lines) + "\n")


def read_trace(path):
    lines = fileio.numbered_lines(path)
    head_no, head = next(lines, (1, None))
    if head != TRACE_HEADER:
        raise ParseError(f"{path}:{head_no}: bad trace header")
    out = []
    for i, line in lines:
        parts = line.split(",")
        if len(parts) != len(_TRACE_TYPES):
            raise ParseError(f"{path}:{i}: expected {len(_TRACE_TYPES)} fields")
        try:
            out.append(TraceRecord._make(kind(text) for kind, text in zip(_TRACE_TYPES, parts)))
        except ValueError:
            raise ParseError(f"{path}:{i}: non-numeric field in {line!r}") from None
    return out


def relative_performance(random_err, algo_err, reference_err):
    """Normalized error position: 0 means as good as random cells, 1 as good
    as the reference algorithm, above 1 better than the reference.
    Computed as (r - a) / (r - b).

    Raises
    ------
    DegenerateReference
        When the random baseline is not strictly worse than the reference.
    """
    if random_err <= reference_err:
        raise DegenerateReference(
            f"random error {random_err} must exceed reference error {reference_err}")
    return (random_err - algo_err) / (random_err - reference_err)


def load_dataset(paths):
    """Load ``(graph, flows, ground_truth_cells_or_None)`` from dataset files,
    validating every structural invariant.

    Raises
    ------
    ParseError, InvariantViolation
    """
    graph = fileio.read_edge_list(paths.edges)
    flows = fileio.read_flows(paths.flows, edge_count=graph.edge_count)
    truth = None
    if paths.cells is not None:
        cells = fileio.read_cells(paths.cells, graph)
        try:
            truth = CellComplex(graph, cells)
        except InvalidCell as exc:
            raise InvariantViolation(f"{paths.cells}: {exc}") from exc
    return graph, flows, truth


def _materialize(cfg, seed):
    """Dataset for one repetition: load files, or generate synthetically."""
    if cfg.data is not None:
        graph, flows, _ = load_dataset(cfg.data)
        return graph, flows
    synth = cfg.synth
    if synth.seed is not None:
        data_rng = np.random.default_rng(synth.seed)
    else:
        data_rng = np.random.default_rng([seed, 0])
    complex_ = random_complex(synth, data_rng)
    flows = sample_flows(complex_, synth.flow_count, synth.cell_std, synth.noise_std, data_rng)
    return complex_.graph, flows


def run_one(cfg, seed):
    """Run a single repetition and return its InferenceTrace."""
    graph, flows = _materialize(cfg, seed)
    infer, field = ALGORITHMS[cfg.algo]
    _, trace = infer(graph, flows, getattr(cfg, field), np.random.default_rng([seed, 1]),
                     make_timer(cfg.timing))
    return trace


def run_experiment(cfg, echo=print):
    """Run every repetition, write one trace CSV per repetition plus a
    summary line, and return the traces."""
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    traces = []
    for seed in cfg.seeds:
        trace = run_one(cfg, seed)
        path = out_dir / f"trace_{cfg.algo}_seed{seed}.csv"
        write_trace(trace.records, path)
        final = trace.final
        echo(f"algo={cfg.algo} seed={seed} cells={final.cells_total} "
             f"loss={format(final.loss, '.9g')} seconds={format(final.cumulative_seconds, '.9g')} "
             f"solver_calls={final.cumulative_solver_calls} -> {path}")
        traces.append(trace)
    return traces


def run_bench(cfg, algos, echo=print):
    """Sweep algorithms x seeds and write one combined CSV with ``algo`` and
    ``seed`` columns prepended to the trace columns.  Every algorithm's
    config is checked before the first seed runs, so an unknown or
    repeated algorithm or a missing ``*.total_cells`` fails with nothing
    run or written."""
    repeated = sorted({algo for algo in algos if algos.count(algo) > 1})
    if repeated:
        raise ValueError(f"bench algorithms must be distinct, got {', '.join(repeated)} "
                         "more than once")
    algo_cfgs = [replace(cfg, algo=algo) for algo in algos]
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = ["algo,seed," + TRACE_HEADER]
    for algo_cfg in algo_cfgs:
        algo = algo_cfg.algo
        for seed in cfg.seeds:
            trace = run_one(algo_cfg, seed)
            lines.extend(f"{algo},{seed}," + _trace_row(r) for r in trace.records)
            echo(f"bench: algo={algo} seed={seed} final_loss={format(trace.final.loss, '.9g')}")
    path = out_dir / "bench.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


# ---------------------------------------------------------------------------
# Config-file binding

# The config object that each ``fileio.CONFIG_SECTIONS`` section binds, by
# the name of its ``ExperimentConfig`` field.
CONFIG_CLASSES = {"synth": SynthConfig, "data": DatasetPaths, "mfci": InferenceConfig,
                  "sph": SphConfig}

CONFIG_KEYS = frozenset({"algo", "run.seeds", "run.out", "run.timing", "bench.algos",
                         "random.total_cells"}).union(*fileio.CONFIG_SECTIONS.values())


def read_config(path, flags=None):
    """Parse a flat config file, rejecting any key outside ``CONFIG_KEYS``
    (so a typo fails instead of silently leaving a default in place).
    ``flags`` maps keys to the values of the CLI flags that set them; each
    value but None replaces, as text, the file's value of its key."""
    raw = fileio.parse_config(path)
    unknown = sorted(set(raw) - CONFIG_KEYS)
    if unknown:
        raise ValueError(f"{path}: unknown config key {', '.join(map(repr, unknown))}")
    raw.update((key, str(value)) for key, value in (flags or {}).items() if value is not None)
    return raw


def _value(raw, key, cast, default):
    """``cast`` of the value ``raw`` gives ``key``; ``default`` when the key
    is unset or empty, where a ``default`` of ``MISSING`` means the key is
    required."""
    text = raw.get(key, "")
    if text == "":
        if default is MISSING:
            raise ValueError(f"missing config key {key!r}")
        return default
    try:
        return cast(text)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"config key {key!r}: {exc}") from exc


def _as_bool(text):
    lowered = text.strip().lower()
    if lowered in ("1", "true", "on", "yes"):
        return True
    if lowered in ("0", "false", "off", "no"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def section_from_raw(raw, name):
    """The config object of section ``name`` of ``fileio.CONFIG_SECTIONS``
    (``CONFIG_CLASSES[name]``), or None when ``raw`` holds none of the
    section's keys.  Each field takes its key's cast value, or the class
    default when the key is unset or empty; a field without a default
    raises ``ValueError`` naming its missing key."""
    keys = fileio.CONFIG_SECTIONS[name]
    if raw.keys().isdisjoint(keys):
        return None
    cls = CONFIG_CLASSES[name]
    defaults = {field.name: field.default for field in fields(cls)}
    return cls(**{field: _value(raw, key, cast, defaults[field])
                  for key, (field, cast) in keys.items()})


def _experiment(raw, algo):
    return ExperimentConfig(
        algo=algo,
        seeds=_value(raw, "run.seeds", lambda text: tuple(map(int, text.split())), (0,)),
        out_dir=_value(raw, "run.out", Path, Path(".")),
        **{name: section_from_raw(raw, name) for name in CONFIG_CLASSES},
        random_cells=_value(raw, "random.total_cells", int, None),
        timing=_value(raw, "run.timing", _as_bool, True),
    )


def experiment_from_config(path, out_dir=None, seed=None, algo=None):
    """Build an ExperimentConfig from a flat config file; the CLI flags
    --out, --seed and --algo set the ``run.out``, ``run.seeds`` and
    ``algo`` keys."""
    raw = read_config(path, {"run.out": out_dir, "run.seeds": seed, "algo": algo})
    return _experiment(raw, _value(raw, "algo", str, MISSING))


def bench_from_config(path, out_dir=None, seed=None):
    """The ``bench`` subcommand's ``(experiment, algorithms)``: the
    algorithms of ``bench.algos`` (every algorithm when unset), and the
    experiment bound to the first of them, so no ``algo`` key is needed.
    The CLI flags --out and --seed set ``run.out`` and ``run.seeds``."""
    raw = read_config(path, {"run.out": out_dir, "run.seeds": seed})
    algos = _value(raw, "bench.algos", str.split, tuple(ALGORITHMS))
    return _experiment(raw, algos[0]), algos


def synth_dataset_from_config(path, out_dir, seed=None):
    """The ``synth`` subcommand: generate one dataset and write it out;
    the CLI flag --seed sets the ``synth.seed`` key."""
    synth = section_from_raw(read_config(path, {"synth.seed": seed}), "synth")
    if synth is None:
        raise ValueError("config has no synth.* section")
    rng = np.random.default_rng(synth.seed)
    complex_ = random_complex(synth, rng)
    flows = sample_flows(complex_, synth.flow_count, synth.cell_std, synth.noise_std, rng)
    return save_dataset(out_dir, complex_, flows, synth)


def evaluate_cells_from_config(path):
    """The ``eval`` subcommand: exact loss of a cell file against flows."""
    raw = read_config(path)
    data = section_from_raw(raw, "data")
    if data is None or data.cells is None:
        raise ValueError("eval requires data.edges, data.flows and data.cells")
    _, flows, truth = load_dataset(data)
    return reference_loss(truth, flows)
