#!/usr/bin/env python3
"""cellflow benchmark: per-config inference time and loss, plus a layer trace.

Run from the repository root:

    python3 perfbench/run.py --workload dense --seed 0 --seconds 45 --trace 0

``--workload all`` (the default) runs every workload one after another,
each in its own child process, so that each workload's set-up time and
peak memory are its own; their results are merged.  With ``--trace 0``
the run prints the end-to-end metrics of ``BENCHMARK.json``: set-up time,
peak memory, and per config the median wall time of one warm, untraced
``infer_*`` call and the median final loss over the planted complex's
loss.  With ``--trace 1`` it prints the per-layer
metrics instead: every traced call is paired with an untraced call of the
same config and instance, and the layers' self times plus
``unattributed.s`` add up to the traced wall time.

The program is imported from ``src/`` next to this directory; only public
cellflow functions are called.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it carries the environment and sample counts.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    spec_path = ROOT / "BENCHMARK.json"
    package = ROOT / "src" / "cellflow" / "__init__.py"
    for required in (spec_path, package):
        if not required.is_file():
            print(f"error: {required.relative_to(ROOT)} not found", file=sys.stderr)
            return 2
    spec = json.loads(spec_path.read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    # A terminated run still removes its scratch directory and stops its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.workload == "all":
        return run_all(spec, args.seed, seconds, args.trace)
    return run_one(spec, args.workload, args.seed, seconds, args.trace)


def run_one(spec, name, seed, seconds, trace):
    """Measure one workload in this process and print its result."""
    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import bench  # imports cellflow, numpy and scipy: part of set-up

    import_s = time.perf_counter() - start
    if name not in bench.WORKLOADS:
        print(f"error: unknown workload {name!r}; choose from "
              f"{', '.join(bench.WORKLOADS)} or all", file=sys.stderr)
        return 2

    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="run-", dir=work_root)
    try:
        run, metrics, details = bench.run_workload(name, seed, seconds, trace, spec, work_dir,
                                                   import_s)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass
    print(f"workload {name} (seed {seed}, trace {trace}): "
          f"{run.attempted} calls checked, {run.failed} failed")
    for problem in run.problems:
        print(f"  FAILED {problem}")
    for metric, entry in metrics.items():
        print(f"  {metric} = {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({"environment": bench.environment(), "runs": [details]}))
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


def run_all(spec, seed, seconds, trace):
    """Run every workload of ``spec`` in a child process, one after another,
    and print the merged result with metric names prefixed by workload."""
    environment, runs, metrics = None, [], {}
    correct, attempted, failed = True, 0, 0
    for workload in spec["workloads"]:
        child = subprocess.Popen(
            [sys.executable, __file__, "--workload", workload["name"], "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            output, _ = child.communicate()
        finally:
            if child.poll() is None:
                child.terminate()
                child.wait()
        if child.returncode != 0:
            print(f"error: workload {workload['name']} exited with {child.returncode}",
                  file=sys.stderr)
            return child.returncode or 1
        lines = output.strip().splitlines()
        print("\n".join(lines[:-2]))
        details, result = json.loads(lines[-2]), json.loads(lines[-1])
        environment = details["environment"]
        runs += details["runs"]
        for metric, entry in result["metrics"].items():
            metrics[f"{workload['name']}.{metric}"] = entry
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
    print(json.dumps({"environment": environment, "runs": runs}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0

if __name__ == "__main__":
    sys.exit(main())
