#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, against their bounds.

Runs ``perfbench/run.py`` once per seed, one process after another, and
prints for every end-to-end metric the median of the runs and the spread:
the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median.  A metric
is steady when its spread stays below a third of its bound.

    python3 perfbench/spread.py --workload dense --seeds 0 1 2 3 4

Use it before changing the benchmark's run length, ordering or bounds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(10)))
    parser.add_argument("--seconds", type=float, default=None)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds

    results = []
    for seed in args.seeds:
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True)
        lines = out.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        results.append(result)
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)

    print(f"{'metric':16s} {'median':>12s} {'spread':>8s} {'bound':>6s}  steady")
    for entry in spec["end_to_end"]:
        values = [r["metrics"][entry["name"]]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median
        steady = "yes" if spread < entry["bound"] / 3 else "NO"
        print(f"{entry['name']:16s} {median:12.6g} {spread:8.4f} {entry['bound']:6.2f}  {steady}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
