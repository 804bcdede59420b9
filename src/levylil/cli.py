"""Command-line entry point.

    levylil <stage> --scenario FILE [--seed N] [--paths N] [--steps N]
            [--out DIR] [--canonical-output]

Stages: symbol, norming, classify, simulate, verify, report.  ``report`` runs
every analysis in dependency order; ``verify`` implies the simulate stage.
Exit codes: 0 success, 1 numeric failure, 2 schema or usage error.
"""

from __future__ import annotations

import argparse
import sys

from .errors import FAILURES
from .scenario import STAGES, SchemaError, run_scenario

# each stage runs alone, but verify also runs the simulate stage it reads
_STAGE_SETS = {**{stage: (stage,) for stage in STAGES}, "verify": STAGES[-2:], "report": None}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="levylil", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd in _STAGE_SETS:
        p = sub.add_parser(cmd, help=f"run the {cmd} stage of a scenario")
        p.add_argument("--scenario", required=True, help="scenario JSON file")
        p.add_argument("--seed", type=int, default=None, help="override the master seed")
        p.add_argument("--paths", type=int, default=None, help="override the ensemble size")
        p.add_argument("--steps", type=int, default=None, help="override the grid step count")
        p.add_argument("--out", default=None, help="override the output directory")
        p.add_argument("--canonical-output", action="store_true",
                       help="omit timestamps for byte-identical reruns")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        run_scenario(args.scenario, stages=_STAGE_SETS[args.command], seed=args.seed,
                     paths=args.paths, steps=args.steps, out=args.out,
                     canonical=args.canonical_output)
    except (SchemaError, OSError) as exc:   # a path it cannot use is a usage error
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FAILURES as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
