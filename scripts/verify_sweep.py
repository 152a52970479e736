#!/usr/bin/env python3
"""Verification sweeps per arity, across several seeds.

Runs the same seeded random cross-checks as `denumerant verify`, but pinned
to one arity at a time so a regression in, say, the five-part closed form
shows up on its own row.  Exits 1 if any identity ever disagrees with the
oracle, 2 on a usage error and 3 on refused arguments, as `denumerant verify`
does.

Example:
    python scripts/verify_sweep.py --trials 200 --seeds 0,1,2
"""

import argparse
import sys
import time

from denumerant.cli import nonnegative_int, positive_int
from denumerant.errors import DomainError
from denumerant.verify import format_failure, run_verify


def seed_list(text: str) -> list:
    try:
        return [int(piece) for piece in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"seeds must be comma-separated integers, got {text!r}"
        )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--trials", type=nonnegative_int, default=200, help="trials per cell"
    )
    parser.add_argument(
        "--seeds", type=seed_list, default="0,1,2", help="comma-separated seeds"
    )
    parser.add_argument("--k-min", type=positive_int, default=2)
    parser.add_argument("--k-max", type=positive_int, default=5)
    parser.add_argument("--max-part", type=positive_int, default=13)
    parser.add_argument("--max-product", type=positive_int, default=100000)
    args = parser.parse_args()

    limits = dict(max_part=args.max_part, max_product=args.max_product)
    try:
        # k = k-max has the largest tables: refuse before the first cell runs.
        run_verify(trials=0, seed=0, k_min=args.k_min, k_max=args.k_max, **limits)
        print(f"{'k':>3} {'seed':>6} {'trials':>7} {'failures':>9} {'seconds':>8}")
        bad = []
        for k in range(args.k_min, args.k_max + 1):
            for seed in args.seeds:
                started = time.perf_counter()
                failures = run_verify(
                    trials=args.trials, seed=seed, k_min=k, k_max=k, **limits
                )
                elapsed = time.perf_counter() - started
                print(
                    f"{k:>3} {seed:>6} {args.trials:>7}"
                    f" {len(failures):>9} {elapsed:>8.2f}"
                )
                bad.extend(failures)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    if bad:
        print()
        for failure in bad:
            print(format_failure(failure))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
