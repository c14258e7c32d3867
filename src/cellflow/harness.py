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

from dataclasses import dataclass, replace
from pathlib import Path
from typing import NamedTuple

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


ALGORITHMS = ("mfci", "sph", "random")


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
            raise ValueError(f"algo must be one of {ALGORITHMS}, got {self.algo!r}")
        if (self.synth is None) == (self.data is None):
            raise ValueError("exactly one of synth config and data paths is required")
        if not self.seeds:
            raise ValueError("at least one repetition seed is required")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError("repetition seeds must be distinct")
        if min(self.seeds) < 0:
            raise ValueError(f"run.seeds must be non-negative, got {min(self.seeds)}")
        needed = {"mfci": self.mfci, "sph": self.sph, "random": self.random_cells}[self.algo]
        if needed is None:
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


TRACE_HEADER = "iteration,cells_total,loss,cumulative_seconds,cumulative_solver_calls,cumulative_solver_iterations"


def _trace_row(r):
    return ",".join([
        str(r.iteration),
        str(r.cells_total),
        format(r.loss, ".9g"),
        format(r.cumulative_seconds, ".9g"),
        str(r.cumulative_solver_calls),
        str(r.cumulative_solver_iterations),
    ])


def write_trace(records, path):
    """Write trace records (``TraceRecord`` or ``IterationRecord``) as CSV
    (see module docstring for the format)."""
    if not records:
        raise ValueError("no records to write")
    lines = [TRACE_HEADER] + [_trace_row(r) for r in records]
    Path(path).write_text("\n".join(lines) + "\n")


def read_trace(path):
    path = Path(path)
    if not path.exists():
        raise ParseError(f"{path}: file not found")
    lines = [(i, l) for i, l in enumerate(path.read_text().splitlines(), start=1)
             if l.strip()]
    if not lines or lines[0][1] != TRACE_HEADER:
        raise ParseError(f"{path}:{lines[0][0] if lines else 1}: bad trace header")
    out = []
    for i, line in lines[1:]:
        parts = line.split(",")
        if len(parts) != 6:
            raise ParseError(f"{path}:{i}: expected 6 fields")
        try:
            out.append(TraceRecord(int(parts[0]), int(parts[1]), float(parts[2]),
                                   float(parts[3]), int(parts[4]), int(parts[5])))
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
    rng = np.random.default_rng([seed, 1])
    timer = make_timer(cfg.timing)
    if cfg.algo == "mfci":
        _, trace = infer_mfci(graph, flows, cfg.mfci, rng, timer)
    elif cfg.algo == "sph":
        _, trace = infer_sph(graph, flows, cfg.sph, rng, timer)
    else:
        _, trace = infer_random(graph, flows, cfg.random_cells, rng, timer)
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
    config is checked before the first seed runs, so an unknown algorithm
    or a missing ``*.total_cells`` fails with nothing run or written."""
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

CONFIG_KEYS = frozenset({
    "algo", "run.seeds", "run.out", "run.timing", "bench.algos",
    "synth.nodes", "synth.edge_probability", "synth.cells", "synth.flows",
    "synth.cell_std", "synth.noise_std", "synth.seed",
    "data.edges", "data.flows", "data.cells",
    "mfci.total_cells", "mfci.candidates", "mfci.added", "mfci.rank", "mfci.method",
    "mfci.discretization", "mfci.projection",
    "sph.total_cells", "sph.candidates", "random.total_cells",
})


def read_config(path):
    """Parse a flat config file, rejecting any key outside ``CONFIG_KEYS``
    (so a typo fails instead of silently leaving a default in place)."""
    raw = fileio.parse_config(path)
    unknown = sorted(set(raw) - CONFIG_KEYS)
    if unknown:
        raise ValueError(f"{path}: unknown config key {', '.join(map(repr, unknown))}")
    return raw


def _need(raw, key, cast, default=None):
    if key not in raw:
        if default is not None:
            return default
        raise ValueError(f"missing config key {key!r}")
    try:
        return cast(raw[key])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"config key {key!r}: {exc}") from exc


def _opt(raw, key, cast, default=None):
    if key not in raw or raw[key] == "":
        return default
    try:
        return cast(raw[key])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"config key {key!r}: {exc}") from exc


def _as_bool(text):
    lowered = text.strip().lower()
    if lowered in ("1", "true", "on", "yes"):
        return True
    if lowered in ("0", "false", "off", "no"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _as_seeds(text):
    seeds = tuple(int(tok) for tok in text.split())
    if not seeds:
        raise ValueError("empty seed list")
    return seeds


def _given(raw, fields):
    """Keyword arguments for the optional ``fields`` (config key ->
    (field name, cast)) that ``raw`` sets to a non-empty value, so the
    config dataclass's own defaults apply to the rest."""
    return {name: _opt(raw, key, cast) for key, (name, cast) in fields.items()
            if raw.get(key, "") != ""}


def synth_from_raw(raw):
    if "synth.nodes" not in raw:
        return None
    return SynthConfig(
        node_count=_need(raw, "synth.nodes", int),
        edge_probability=_need(raw, "synth.edge_probability", float),
        planted_cells=_need(raw, "synth.cells", int),
        flow_count=_need(raw, "synth.flows", int),
        **_given(raw, {"synth.cell_std": ("cell_std", float),
                       "synth.noise_std": ("noise_std", float),
                       "synth.seed": ("seed", int)}),
    )


def data_from_raw(raw):
    if "data.edges" not in raw:
        return None
    cells = _opt(raw, "data.cells", Path, None)
    return DatasetPaths(
        edges=_need(raw, "data.edges", Path),
        flows=_need(raw, "data.flows", Path),
        cells=cells,
    )


def mfci_from_raw(raw):
    if "mfci.total_cells" not in raw:
        return None
    return InferenceConfig(
        total_cells=_need(raw, "mfci.total_cells", int),
        **_given(raw, {"mfci.candidates": ("candidates_per_iteration", int),
                       "mfci.added": ("added_per_iteration", int),
                       "mfci.rank": ("factorization_rank", int),
                       "mfci.method": ("method", str),
                       "mfci.discretization": ("discretization", str),
                       "mfci.projection": ("projection", str)}),
    )


def sph_from_raw(raw):
    if "sph.total_cells" not in raw:
        return None
    return SphConfig(
        total_cells=_need(raw, "sph.total_cells", int),
        **_given(raw, {"sph.candidates": ("candidates_per_iteration", int)}),
    )


def experiment_from_config(path, out_dir=None, seed=None, algo=None):
    """Build an ExperimentConfig from a flat config file; the CLI flags
    --out/--seed/--algo override the corresponding keys."""
    raw = read_config(path)
    chosen_algo = algo or raw.get("algo")
    if chosen_algo is None:
        raise ValueError("missing config key 'algo' (or --algo flag)")
    seeds = (seed,) if seed is not None else _opt(raw, "run.seeds", _as_seeds, (0,))
    out = Path(out_dir) if out_dir is not None else Path(_need(raw, "run.out", str, "."))
    return ExperimentConfig(
        algo=chosen_algo,
        seeds=tuple(seeds),
        out_dir=out,
        synth=synth_from_raw(raw),
        data=data_from_raw(raw),
        mfci=mfci_from_raw(raw),
        sph=sph_from_raw(raw),
        random_cells=_opt(raw, "random.total_cells", int, None),
        timing=_opt(raw, "run.timing", _as_bool, True),
    )


def synth_dataset_from_config(path, out_dir, seed=None):
    """The ``synth`` subcommand: generate one dataset and write it out."""
    raw = read_config(path)
    synth = synth_from_raw(raw)
    if synth is None:
        raise ValueError("config has no synth.* section")
    if seed is not None:
        synth = replace(synth, seed=seed)
    rng = np.random.default_rng(synth.seed)
    complex_ = random_complex(synth, rng)
    flows = sample_flows(complex_, synth.flow_count, synth.cell_std, synth.noise_std, rng)
    return save_dataset(out_dir, complex_, flows, synth)


def evaluate_cells_from_config(path):
    """The ``eval`` subcommand: exact loss of a cell file against flows."""
    raw = read_config(path)
    data = data_from_raw(raw)
    if data is None or data.cells is None:
        raise ValueError("eval requires data.edges, data.flows and data.cells")
    _, flows, truth = load_dataset(data)
    return reference_loss(truth, flows)
