#!/usr/bin/env python3
"""Run the benchmark in alternating pairs on two checkouts and judge a claim.

Usage::

    python3 tools/bench_pairs.py PARENT CHANGE --workload small --seed 41 \\
        --pairs 10 [--claim fast_s] --out BENCH_hotpath.json

PARENT and CHANGE are two checkouts of the repository.  Pair i runs
``python3 <checkout>/perfbench/run.py --workload W --seed S --trace 0`` in
each of them, the parent first when i is even and the change first when i
is odd, so that neither side always runs first.

The report (JSON, written to ``--out``) holds every pair's end-to-end
metrics, ``[failed, attempted]`` counts and ``correct`` flags, and per
metric each side's
quartiles ``[q1, median, q3]`` and the number of pairs in which the change
was lower.  When the runs report ``sph_s`` and ``fast_s``, it also holds
each side's median of the per-run ratio ``sph_s / fast_s``, the paper's
headline comparison of the spanning-tree baseline against fast MFCI, and
the summary line prints it.

Two rules are applied.  The regression rule covers every end-to-end metric
that ``PARENT/BENCHMARK.json`` lists: the change regresses a metric when its
median is worse than the parent's by more than the metric's relative
``bound`` (above ``(1 + bound)`` times the parent's median where lower is
better, below ``(1 - bound)`` times it where higher is better).  A metric
whose parent runs spread wider than its bound (interquartile range over
median) is reported as unresolved rather than unchanged, unless every
change run is better than every parent run: the report and the summary
line name it, and the exit status does not change.  The claim rule
applies only when ``--claim`` names a metric, which must be one where lower
is better (as every end-to-end metric of ``BENCHMARK.json`` is): it passes
when the change is lower in at least 9 of every 10 pairs and the
gap between the medians is larger than the parent's interquartile range.
The exit status is 0 when no metric regressed, the claim (if any) passes,
no run failed a call and every run reports ``correct`` (a run that stops
producing a metric fails no call but is not correct), 1 otherwise.  Stdlib
only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--claim", help="end-to-end metric claimed to fall (none: no claim)")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be >= 2")
    return args


def commit_of(checkout):
    """The checkout's HEAD commit, or None when it is not a git checkout."""
    done = subprocess.run(["git", "-C", str(checkout), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else None


def run_once(checkout, workload, seed):
    """One benchmark run; returns (environment, result) from its last two
    output lines."""
    command = [sys.executable, str(checkout / "perfbench" / "run.py"),
               "--workload", workload, "--seed", str(seed), "--trace", "0"]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        sys.exit(f"error: {' '.join(command)} exited with {done.returncode}\n{done.stderr}")
    return json.loads(lines[-2])["environment"], json.loads(lines[-1])


def values(pairs, side, metric):
    return [pair[side][metric] for pair in pairs]


def quartiles(data):
    """[q1, median, q3] by the inclusive method."""
    return statistics.quantiles(data, n=4, method="inclusive")


def summarize(pairs, metric):
    parent, change = values(pairs, "parent", metric), values(pairs, "change", metric)
    return {
        "parent_q1_median_q3": [round(v, 4) for v in quartiles(parent)],
        "change_q1_median_q3": [round(v, 4) for v in quartiles(change)],
        "change_lower_in": f"{sum(c < p for p, c in zip(parent, change))}/{len(pairs)}",
    }


def sph_per_fast(pairs):
    """Each side's median of the per-run ratio ``sph_s / fast_s``, or None
    when the runs do not report both."""
    if not all(name in pair[side] for pair in pairs for side in SIDES
               for name in ("sph_s", "fast_s")):
        return None
    return {side: round(statistics.median(pair[side]["sph_s"] / pair[side]["fast_s"]
                                          for pair in pairs), 4) for side in SIDES}


def judge(pairs, metric):
    """The claim rule: the change lower in >= 9/10 of the pairs, and the
    median gap larger than the parent's interquartile range."""
    parent, change = values(pairs, "parent", metric), values(pairs, "change", metric)
    wins = sum(c < p for p, c in zip(parent, change))
    q1, median, q3 = quartiles(parent)
    gap = median - statistics.median(change)
    return dict(summarize(pairs, metric), median_gap=round(gap, 4),
                parent_quartile_spread=round(q3 - q1, 4),
                passes=wins * 10 >= 9 * len(pairs) and gap > q3 - q1)


def bounds(benchmark):
    """End-to-end metric name -> (relative bound, better) from a
    ``BENCHMARK.json``."""
    spec = json.loads(benchmark.read_text())
    return {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}


def regression(pairs, metric, bound, better):
    """The regression rule: the change's median worse than the parent's by
    more than ``bound``, relative to the parent's median.  ``unresolved``:
    the parent's interquartile range exceeds ``bound`` times its median,
    and some change run is no better than some parent run."""
    parent_runs, change_runs = values(pairs, "parent", metric), values(pairs, "change", metric)
    parent, change = statistics.median(parent_runs), statistics.median(change_runs)
    q1, _, q3 = quartiles(parent_runs)
    limit = parent * (1 + bound if better == "lower" else 1 - bound)
    worse = change > limit if better == "lower" else change < limit
    separated = (max(change_runs) < min(parent_runs) if better == "lower"
                 else min(change_runs) > max(parent_runs))
    return {"parent_median": round(parent, 4), "change_median": round(change, 4),
            "bound": bound, "better": better, "limit": round(limit, 4), "regressed": worse,
            "unresolved": q3 - q1 > bound * abs(parent) and not separated}


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    limits = bounds(checkouts["parent"] / "BENCHMARK.json")
    if args.claim is not None and args.claim not in limits:
        sys.exit(f"error: {args.claim!r} is not an end-to-end metric of BENCHMARK.json")
    shown = args.claim or next(iter(limits))
    pairs, environment = [], None
    for i in range(args.pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {"pair": i, "first": order[0]}
        for side in order:
            environment, result = run_once(checkouts[side], args.workload, args.seed)
            pair[side] = {name: entry["value"] for name, entry in result["metrics"].items()}
            pair[f"{side}_failed"] = [result["failed"], result["attempted"]]
            pair[f"{side}_correct"] = result["correct"]
        missing = [name for name in limits
                   if name not in pair["parent"] or name not in pair["change"]]
        if missing:
            sys.exit(f"error: end-to-end metrics {missing} not reported on both sides")
        pairs.append(pair)
        print(f"pair {i}: {shown} parent {pair['parent'][shown]:.4g} "
              f"change {pair['change'][shown]:.4g}", flush=True)

    summary = {name: summarize(pairs, name)
               for name in pairs[0]["parent"] if name in pairs[0]["change"]}
    checked = {name: regression(pairs, name, *limits[name]) for name in limits}
    regressed = [name for name, check in checked.items() if check["regressed"]]
    unresolved = [name for name, check in checked.items() if check["unresolved"]]
    verdict = judge(pairs, args.claim) if args.claim else None
    ratio = sph_per_fast(pairs)
    failed = sum(p[f"{side}_failed"][0] for p in pairs for side in SIDES)
    incorrect = sum(not p[f"{side}_correct"] for p in pairs for side in SIDES)
    report = {
        "claim": f"{args.workload}.{args.claim}" if args.claim else None,
        "command": f"python3 perfbench/run.py --workload {args.workload} "
                   f"--seed {args.seed} --trace 0",
        "commits": {side: commit_of(path) for side, path in checkouts.items()},
        "protocol": f"{args.pairs} alternating pairs, each side run from its own checkout; "
                    "pair i runs the parent first when i is even and the change first "
                    "when i is odd",
        "rule": "the change is lower in at least 9 of every 10 pairs, and the median "
                "gap is larger than the parent's interquartile range",
        "regression_rule": "no end-to-end metric's median is worse than the parent's "
                           "by more than its relative bound in BENCHMARK.json",
        "unresolved_rule": "the parent's interquartile range exceeds the metric's bound "
                           "times its median, and not every change run is better than "
                           "every parent run",
        "environment": environment,
        "result": {f"{args.workload}.{args.claim}": verdict} if args.claim else {},
        "bounds": {f"{args.workload}.{name}": check for name, check in checked.items()},
        "regressed": [f"{args.workload}.{name}" for name in regressed],
        "unresolved": [f"{args.workload}.{name}" for name in unresolved],
        "failed_calls": failed,
        "incorrect_runs": incorrect,
        "workloads": {args.workload: {"summary": summary, "sph_s_per_fast_s": ratio,
                                      "pairs": pairs}},
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    if verdict:
        print(f"{args.workload}.{args.claim}: parent {verdict['parent_q1_median_q3']} -> "
              f"change {verdict['change_q1_median_q3']}, lower in "
              f"{verdict['change_lower_in']}, median gap {verdict['median_gap']:.4g} "
              f"against parent spread {verdict['parent_quartile_spread']:.4g}: "
              f"{'passes' if verdict['passes'] else 'fails'}")
    if ratio:
        print(f"{args.workload}: median sph_s / fast_s: parent {ratio['parent']:.4g}, "
              f"change {ratio['change']:.4g}")
    print(f"{args.workload}: regressed beyond bound: {', '.join(regressed) or 'none'}; "
          f"unresolved (parent spread beyond bound): {', '.join(unresolved) or 'none'}; "
          f"{failed} failed calls, {incorrect} incorrect runs")
    passes = verdict is None or verdict["passes"]
    return 0 if passes and not regressed and not failed and not incorrect else 1


if __name__ == "__main__":
    sys.exit(main())
