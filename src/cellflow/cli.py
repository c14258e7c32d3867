"""Command-line front end.

Subcommands:
    synth   generate a synthetic dataset (edges.txt / cells.txt / flows.csv / meta.txt)
    infer   run one algorithm on a dataset, writing per-seed trace CSVs
    eval    exact loss of a given cell file against a flow file
    bench   sweep algorithms x seeds into one combined CSV
"""

from __future__ import annotations

import argparse
import sys

from . import harness
from .fileio import ParseError, InvariantViolation


def _build_parser():
    parser = argparse.ArgumentParser(prog="cellflow",
                                     description="2-cell inference from edge flows")
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="generate a synthetic dataset")
    synth.add_argument("--config", required=True, help="flat key = value config file")
    synth.add_argument("--out", required=True, help="output directory")
    synth.add_argument("--seed", type=int, default=None, help="override synth.seed")

    infer = sub.add_parser("infer", help="run one inference algorithm")
    infer.add_argument("--config", required=True)
    infer.add_argument("--out", default=None, help="output directory (default: run.out key)")
    infer.add_argument("--seed", type=int, default=None, help="single repetition seed override")
    infer.add_argument("--algo", choices=harness.ALGORITHMS, default=None,
                       help="override the algo config key")

    evl = sub.add_parser("eval", help="loss of a cell file against flows")
    evl.add_argument("--config", required=True,
                     help="config with data.edges, data.flows, data.cells")

    bench = sub.add_parser("bench", help="sweep algorithms and seeds")
    bench.add_argument("--config", required=True)
    bench.add_argument("--out", default=None)
    bench.add_argument("--seed", type=int, default=None)
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "synth":
            out = harness.synth_dataset_from_config(args.config, args.out, args.seed)
            print(f"dataset written to {out}")
        elif args.command == "infer":
            cfg = harness.experiment_from_config(args.config, args.out, args.seed, args.algo)
            harness.run_experiment(cfg)
        elif args.command == "eval":
            value = harness.evaluate_cells_from_config(args.config)
            print(format(value, ".9g"))
        elif args.command == "bench":
            path = harness.run_bench(*harness.bench_from_config(args.config, args.out, args.seed))
            print(f"bench table written to {path}")
    except (ParseError, InvariantViolation, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
