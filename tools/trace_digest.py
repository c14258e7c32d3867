"""Write a digest of inference outputs, one directory per run group, so two
checkouts can be compared with ``diff -r``.

Usage::

    PYTHONPATH=<checkout>/src python3 tools/trace_digest.py OUT_DIR

An OUT_DIR that starts with ``-`` (``--help``, say) is refused with the
usage line, and nothing is written.

The cellflow package is taken from PYTHONPATH when it is set, so the same
script digests any checkout; otherwise from the ``src`` next to this
directory.  Every run has the clock off and writes four files named after
it:

- ``<run>.cells``: the canonical key of each cell, in the order added, one
  iteration per line (``edge+``/``edge-`` up to a global sign);
- ``<run>.losses``: ``repr`` of each record's loss;
- ``<run>.notes``: each record's notes;
- ``<run>.csv``: the trace as ``harness.write_trace`` writes it.

Groups:

- ``dense``: the five benchmark configs (fast, exact, best1of8, sph,
  random) on n=40, p=0.9, k=50, s=64, noise 0.3, seeds 0-4;
- ``small``: the same configs on n=20, p=0.5, k=16, s=16, seeds 0-7;
  data from ``default_rng([seed, 0])``, the algorithm from
  ``default_rng([seed, 1])``;
- ``criterion3``: the 50 runs of the acceptance criterion-3 sweep;
- ``criterion6``: the criterion-6 MFCI, SPH and random runs (noise 0.1 and
  2.0, seeds 0-6);
- ``cli``: the config-file path.  One config binding every key is written
  to a scratch directory; ``harness.experiment_from_config`` and
  ``harness.run_experiment`` run mfci, sph and random on it (seeds 0-2,
  ``run.timing = off``), writing ``trace_<algo>_seed<r>.csv``, and
  ``harness.evaluate_cells_from_config`` scores the planted cells of a
  dataset that ``harness.synth_dataset_from_config`` wrote from the same
  config (``eval.loss``, a ``repr``).

A full digest takes about half a minute on two cores.  It also writes
``OUT_DIR/environment.txt``: numpy's BLAS name, version and thread count,
read as ``perfbench/bench.py``'s ``environment`` reads them.  The file is
no part of the comparison: the traces' last bits may move with the BLAS
build and thread count, and the file records which ones a digest used.

Compare two digests with::

    python3 tools/trace_digest.py --compare A B

It prints, per group, how many files differ, how many of them belong to
each run (the file name without its suffix and a trailing ``_seed<N>``,
so ``dense: 100 files, 36 differ (exact 19, fast 17)`` counts seeds
together), and the largest relative gap between matching losses, and
lists every failing file; a differing
``.csv`` is listed with the header columns it differs in (``FAIL
dense/sph_seed0.csv: differs in cumulative_solver_iterations``).  It
It first prints each side's environment lines and, when they differ, a
``WARN`` line; that alone does not change the exit status.  It
exits 1 if a file exists on one side only, if any file but a ``.losses``
file (the ``.cells``, ``.notes`` and ``.csv`` files and the ``cli`` group)
differs by a byte, or if any loss differs by more than ``LOSS_TOLERANCE``
relative.

The test suite applies the same rule to a subset (``gate_subset``: the
whole ``small`` group, ``dense`` seed 0 and the ``cli`` group, a few
seconds) against ``tests/data/digest_manifest.json``, which holds the
sha256 of each file and the loss reprs of each ``.losses`` file.  A change
that means to alter the traces regenerates it with::

    PYTHONPATH=src python3 tools/trace_digest.py --manifest tests/data/digest_manifest.json

so the change shows in its diff.  The manifest pins bytes as this
package's numpy and BLAS produce them; another BLAS build may move last
bits and need a regenerated manifest.
"""

from __future__ import annotations

import hashlib
import json
import re
import sys
import tempfile
from pathlib import Path

sys.path.append(str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from cellflow.baselines import SphConfig, infer_random, infer_sph  # noqa: E402
from cellflow import harness  # noqa: E402
from cellflow.harness import write_trace  # noqa: E402
from cellflow.mfci import InferenceConfig, infer_mfci  # noqa: E402
from cellflow.synth import SynthConfig, random_complex, sample_flows  # noqa: E402

ENVIRONMENT = "environment.txt"
CONFIGS = ("fast", "exact", "best1of8", "sph", "random")
DENSE = SynthConfig(40, 0.9, 50, 64, 1.0, 0.3)
SMALL = SynthConfig(20, 0.5, 16, 16, 1.0, 0.3)
LOSS_TOLERANCE = 1e-12


def _no_clock():
    return 0.0


def _cell_key(cell):
    edges, signs = cell.canonical()[1:]
    return " ".join(f"{e}{'+' if s > 0 else '-'}" for e, s in zip(edges, signs))


def write_run(directory, name, trace):
    directory.mkdir(parents=True, exist_ok=True)
    records = trace.records
    (directory / f"{name}.cells").write_text(
        "".join(" | ".join(_cell_key(c) for c in r.cells_added) + "\n" for r in records))
    (directory / f"{name}.losses").write_text("".join(f"{r.loss!r}\n" for r in records))
    (directory / f"{name}.notes").write_text("".join(f"{' '.join(r.notes)}\n" for r in records))
    write_trace(records, directory / f"{name}.csv")


def run_config(name, graph, flows, cells, rng):
    if name == "fast":
        cfg = InferenceConfig(cells, 8, 8, method="ica", projection="approximate")
    elif name == "exact":
        cfg = InferenceConfig(cells, 8, 8, method="ica", projection="exact")
    elif name == "best1of8":
        cfg = InferenceConfig(cells, 8, 1, method="svd", projection="exact")
    elif name == "sph":
        return infer_sph(graph, flows, SphConfig(cells, 11), rng, _no_clock)[1]
    else:
        return infer_random(graph, flows, cells, rng, _no_clock)[1]
    return infer_mfci(graph, flows, cfg, rng, _no_clock)[1]


def tier(out, group, synth, seeds):
    for seed in seeds:
        rng = np.random.default_rng([seed, 0])
        cpx = random_complex(synth, rng)
        flows = sample_flows(cpx, synth.flow_count, synth.cell_std, synth.noise_std, rng)
        for name in CONFIGS:
            trace = run_config(name, cpx.graph, flows, synth.planted_cells,
                               np.random.default_rng([seed, 1]))
            write_run(out / group, f"{name}_seed{seed}", trace)


def criterion3(out):
    """The acceptance criterion-3 sweep, drawn in the same order."""
    rng = np.random.default_rng(777)
    for i in range(50):
        n = int(rng.integers(10, 21))
        planted = int(rng.integers(3, 9))
        noise = float(rng.uniform(0.1, 0.6))
        cpx = random_complex(SynthConfig(n, 0.5 if i % 2 else 0.8, planted, 1, seed=3000 + i))
        flows = sample_flows(cpx, int(rng.integers(4, 11)), 1.0, noise, rng)
        if i % 3 == 2:
            _, trace = infer_sph(cpx.graph, flows, SphConfig(planted, 4), timer=_no_clock)
        else:
            cfg = InferenceConfig(planted, 3, 1, method="svd", projection="exact")
            _, trace = infer_mfci(cpx.graph, flows, cfg, np.random.default_rng([i, 5]), _no_clock)
        write_run(out / "criterion3", f"run{i:02d}", trace)


def criterion6(out):
    """The acceptance criterion-6 runs: best-1-of-5 approximate MFCI, SPH
    and three random draws per seed and noise level."""
    for noise in (0.1, 2.0):
        for seed in range(7):
            synth = SynthConfig(20, 0.9, 30, 64, 1.0, noise)
            rng = np.random.default_rng([seed, 0, int(noise * 10)])
            cpx = random_complex(synth, rng)
            flows = sample_flows(cpx, 64, 1.0, noise, rng)
            graph = cpx.graph
            tag = f"noise{noise}_seed{seed}"
            cfg = InferenceConfig(30, 5, 1, method="svd", projection="approximate")
            _, trace = infer_mfci(graph, flows, cfg, np.random.default_rng([seed, 1]), _no_clock)
            write_run(out / "criterion6", f"mfci_{tag}", trace)
            _, trace = infer_sph(graph, flows, SphConfig(30, 11), timer=_no_clock)
            write_run(out / "criterion6", f"sph_{tag}", trace)
            for rep in range(3):
                _, trace = infer_random(graph, flows, 30, np.random.default_rng([seed, 2, rep]),
                                        _no_clock)
                write_run(out / "criterion6", f"random{rep}_{tag}", trace)


CLI_CONFIG = """\
synth.nodes = 14
synth.edge_probability = 0.6
synth.cells = 6
synth.flows = 12
synth.cell_std = 1.0
synth.noise_std = 0.3
mfci.total_cells = 6
mfci.candidates = 4
mfci.added = 2
mfci.rank = 5
mfci.method = svd
mfci.discretization = deterministic
mfci.projection = approximate
sph.total_cells = 6
sph.candidates = 5
random.total_cells = 6
run.seeds = 0 1 2
run.timing = off
bench.algos = mfci sph random
"""


def cli(out):
    """The config-file binding: experiments and an eval driven by one config."""
    directory = out / "cli"
    with tempfile.TemporaryDirectory() as scratch:
        config = Path(scratch) / "run.cfg"
        config.write_text(CLI_CONFIG)
        for algo in ("mfci", "sph", "random"):
            cfg = harness.experiment_from_config(config, directory, algo=algo)
            harness.run_experiment(cfg, echo=lambda *_: None)
        data = Path(scratch) / "data"
        harness.synth_dataset_from_config(config, data, seed=5)
        eval_config = Path(scratch) / "eval.cfg"
        eval_config.write_text(
            "".join(f"data.{name} = {data / name}.{ext}\n"
                    for name, ext in (("edges", "txt"), ("flows", "csv"), ("cells", "txt"))))
        loss = harness.evaluate_cells_from_config(eval_config)
    (directory / "eval.loss").write_text(f"{loss!r}\n")


def write_environment(out):
    """``out/environment.txt``: the BLAS entries of the benchmark's
    environment record, one ``key = value`` line each."""
    sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))
    from bench import environment

    env = environment()
    out.mkdir(parents=True, exist_ok=True)
    (out / ENVIRONMENT).write_text(
        "".join(f"{key} = {env[key]}\n" for key in ("blas", "blas_version", "blas_threads")))


def gate_subset(out):
    """The runs the test suite checks against the committed manifest."""
    tier(out, "dense", DENSE, range(1))
    tier(out, "small", SMALL, range(8))
    cli(out)


def manifest(directory):
    """``{relative name: entry}`` for every file of a digest: the list of
    loss reprs for a ``.losses`` file, the sha256 of its bytes otherwise.
    ``environment.txt`` is left out."""
    entries = {}
    for path in sorted(p for p in directory.rglob("*")
                       if p.is_file() and p != directory / ENVIRONMENT):
        name = path.relative_to(directory).as_posix()
        if path.suffix == ".losses":
            entries[name] = path.read_text().split()
        else:
            entries[name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return entries


def _loss_gap(left, right):
    """Largest relative gap between two lists of loss reprs, or None when
    their lengths differ."""
    if len(left) != len(right):
        return None
    gap = 0.0
    for x, y in zip(map(float, left), map(float, right)):
        if x != y:
            gap = max(gap, abs(x - y) / max(abs(x), abs(y)))
    return gap


def _csv_difference(left, right):
    """``"in <columns>"``: the header columns in which two CSV files differ
    in some row; None when their headers or row counts differ."""
    tables = [[line.split(",") for line in path.read_text().splitlines()]
              for path in (left, right)]
    if tables[0][:1] != tables[1][:1] or len(tables[0]) != len(tables[1]):
        return None
    columns = [name for j, name in enumerate(tables[0][0])
               if any(a[j:j + 1] != b[j:j + 1] for a, b in zip(tables[0][1:], tables[1][1:]))]
    return f"in {', '.join(columns)}" if columns else None


def _run_of(name):
    """The run a digest file belongs to: its name without the group, the
    suffix and a trailing ``_seed<N>`` (``dense/fast_seed3.csv`` -> ``fast``)."""
    return re.sub(r"_seed\d+$", "", name.rsplit("/", 1)[-1].rsplit(".", 1)[0])


def compare_manifests(left, right, labels, detail=None):
    """Apply the comparison rule (see the module docstring) to two
    manifests, named by ``labels`` in messages; returns ``(groups,
    failures)``: per top-level group the file count, the differing files
    (also per run, under ``"runs"``) and the largest loss gap, and one
    message per failing file.
    ``detail(name)``, when given, may return a few words on how a
    differing non-loss file differs, which its message then carries."""
    failures = []
    groups = {}
    for name in sorted(left.keys() | right.keys()):
        group = groups.setdefault(name.split("/")[0],
                                  {"files": 0, "differ": 0, "runs": {}, "gap": 0.0})
        group["files"] += 1
        if name not in left or name not in right:
            failures.append(f"{name}: only in {labels[0] if name in left else labels[1]}")
            continue
        if left[name] == right[name]:
            continue
        group["differ"] += 1
        run = _run_of(name)
        group["runs"][run] = group["runs"].get(run, 0) + 1
        gap = _loss_gap(left[name], right[name]) if name.endswith(".losses") else None
        if gap is None:
            how = detail(name) if detail else None
            failures.append(f"{name}: differs{f' {how}' if how else ''}")
            continue
        group["gap"] = max(group["gap"], gap)
        if gap > LOSS_TOLERANCE:
            failures.append(f"{name}: loss gap {gap:.3g} above {LOSS_TOLERANCE:g}")
    return groups, failures


def compare(a, b):
    """Compare digest directories ``a`` and ``b``; returns the exit status.
    A differing ``.csv`` is listed with the header columns it differs in."""
    def detail(name):
        return _csv_difference(a / name, b / name) if name.endswith(".csv") else None

    environments = []
    for side in (a, b):
        path = side / ENVIRONMENT
        environments.append(path.read_text().splitlines() if path.exists() else ["none"])
        print(f"environment {side}: {', '.join(environments[-1])}")
    if environments[0] != environments[1]:
        print("WARN the environments differ: BLAS builds and thread counts may move last bits")
    groups, failures = compare_manifests(manifest(a), manifest(b), (a, b), detail)
    for name, group in groups.items():
        runs = ", ".join(f"{run} {count}" for run, count in sorted(group["runs"].items()))
        print(f"{name}: {group['files']} files, {group['differ']} differ"
              f"{f' ({runs})' if runs else ''}, largest relative loss gap {group['gap']:.3g}")
    for failure in failures:
        print(f"FAIL {failure}")
    return 1 if failures else 0


def write_manifest(path):
    """Regenerate ``gate_subset`` and write its manifest as JSON."""
    with tempfile.TemporaryDirectory() as scratch:
        gate_subset(Path(scratch))
        entries = manifest(Path(scratch))
    Path(path).write_text(json.dumps(entries, indent=1, sort_keys=True) + "\n")


def main(argv):
    if len(argv) == 3 and argv[0] == "--compare":
        sys.exit(compare(Path(argv[1]), Path(argv[2])))
    if len(argv) == 2 and argv[0] == "--manifest":
        write_manifest(argv[1])
        return
    if len(argv) != 1 or argv[0].startswith("-"):
        sys.exit("usage: trace_digest.py OUT_DIR | trace_digest.py --compare A B"
                 " | trace_digest.py --manifest FILE")
    out = Path(argv[0])
    write_environment(out)
    tier(out, "dense", DENSE, range(5))
    tier(out, "small", SMALL, range(8))
    criterion3(out)
    criterion6(out)
    cli(out)


if __name__ == "__main__":
    main(sys.argv[1:])
