#!/usr/bin/env python3
# The on-disk story: dataset files, flat config files, and the command-line
# entry points (synth / infer / eval / bench).  Everything here also works
# from a shell; this script drives the CLI in-process to stay self-contained.

import tempfile
from pathlib import Path

from cellflow import cli

# The working directory is removed when the script ends, even on an error.
scratch = tempfile.TemporaryDirectory(prefix="cellflow-demo-")
workdir = Path(scratch.name)
print("working in", workdir)

# 1. Generate a dataset.  A dataset is three plain-text files plus a meta
#    echo of the generating parameters.
synth_cfg = workdir / "synth.cfg"
synth_cfg.write_text("""\
synth.nodes = 12
synth.edge_probability = 0.7
synth.cells = 4
synth.flows = 8
synth.cell_std = 1.0
synth.noise_std = 0.2
synth.seed = 21
""")
cli.main(["synth", "--config", str(synth_cfg), "--out", str(workdir / "data")])

print("\nedges.txt starts with:")
print("\n".join((workdir / "data" / "edges.txt").read_text().splitlines()[:4]))
print("\ncells.txt starts with (edge_id cell_id sign):")
print("\n".join((workdir / "data" / "cells.txt").read_text().splitlines()[:4]))
print("\nflows.csv starts with:")
print((workdir / "data" / "flows.csv").read_text().splitlines()[0][:72], "...")

# 2. Run inference on the files.  One flat config drives everything; the
#    --algo/--seed/--out flags override individual keys.
run_cfg = workdir / "run.cfg"
run_cfg.write_text(f"""\
data.edges = {workdir}/data/edges.txt
data.flows = {workdir}/data/flows.csv
data.cells = {workdir}/data/cells.txt

algo = mfci
mfci.total_cells = 4
mfci.candidates = 3
mfci.added = 1
mfci.method = svd
mfci.projection = exact

sph.total_cells = 4
sph.candidates = 5
random.total_cells = 4

run.seeds = 1 2
run.out = {workdir}/out
bench.algos = mfci sph random
""")
print("\n$ cellflow infer --config run.cfg")
cli.main(["infer", "--config", str(run_cfg)])

print("\ntrace CSV for seed 1:")
print((workdir / "out" / "trace_mfci_seed1.csv").read_text())

# 3. Score the ground-truth cell file against the flows (the noise floor).
print("$ cellflow eval --config run.cfg")
cli.main(["eval", "--config", str(run_cfg)])

# 4. Sweep all three algorithms over the seeds into one combined table.
print("\n$ cellflow bench --config run.cfg")
cli.main(["bench", "--config", str(run_cfg), "--out", str(workdir / "bench")])
print("\nbench.csv starts with:")
print("\n".join((workdir / "bench" / "bench.csv").read_text().splitlines()[:4]))

scratch.cleanup()
