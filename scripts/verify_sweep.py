#!/usr/bin/env python3
"""Verification sweeps per arity, across several seeds.

Runs the same seeded random cross-checks as `denumerant verify`, but pinned
to one arity at a time so a regression in, say, the five-part closed form
shows up on its own row.  Exits nonzero if any identity ever disagrees with
the oracle.

Example:
    python scripts/verify_sweep.py --trials 200 --seeds 0,1,2
"""

import argparse
import sys

from denumerant.cli import format_failure, run_verify


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trials", type=int, default=200, help="trials per cell")
    parser.add_argument("--seeds", default="0,1,2", help="comma-separated seeds")
    parser.add_argument("--k-min", type=int, default=2)
    parser.add_argument("--k-max", type=int, default=5)
    parser.add_argument("--max-part", type=int, default=13)
    parser.add_argument("--max-product", type=int, default=100000)
    args = parser.parse_args()

    seeds = [int(piece) for piece in args.seeds.split(",")]
    print(f"{'k':>3} {'seed':>6} {'trials':>7} {'failures':>9} {'seconds':>8}")
    bad = []
    for k in range(args.k_min, args.k_max + 1):
        for seed in seeds:
            report = run_verify(
                trials=args.trials,
                seed=seed,
                k_min=k,
                k_max=k,
                max_part=args.max_part,
                max_product=args.max_product,
            )
            print(
                f"{k:>3} {seed:>6} {report.trials:>7}"
                f" {len(report.failures):>9} {report.elapsed:>8.2f}"
            )
            bad.extend(report.failures)
    if bad:
        print()
        for failure in bad:
            print(format_failure(failure))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
