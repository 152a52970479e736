#!/usr/bin/env python3
"""Tabulate both product-sum identities across their x domains.

For a pairwise coprime part set with product P and sum S, the count p(P - x)
has one expression on 1 <= x <= S - 1 and another on S <= x <= P, where the
second also involves p(x - S).  This script walks x across both ranges and
prints the oracle count next to the formula value so the switchover at x = S
is visible.  Exits 1 on a mismatch, 2 on a usage error and 3 on a refused
part set, as `denumerant` does.

Example:
    python scripts/boundary_table.py --parts 2,3,5 --step 1
"""

import argparse
import sys

from denumerant.cli import parse_parts, positive_int
from denumerant.errors import DomainError
from denumerant.oracle import oracle_table
from denumerant.partset import PartSet
from denumerant.reductions import theorem2_count, theorem3_rhs


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--parts", type=parse_parts, default="2,3,5", help="comma-separated parts"
    )
    parser.add_argument(
        "--step", type=positive_int, default=1, help="stride through x"
    )
    args = parser.parse_args()

    try:
        parts = PartSet(args.parts)
        parts.require_pairwise_coprime()
        counts = oracle_table(parts, parts.product)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    product = parts.product
    total = parts.total
    print(f"parts={list(parts.parts)}  product={product}  sum={total}")
    print(f"{'x':>6} {'n=P-x':>8} {'oracle':>10} {'formula':>10} {'domain':>8}")
    mismatches = 0
    for x in range(1, product + 1, args.step):
        n = product - x
        expected = counts[n]
        if x < total:
            value = theorem2_count(parts, x)
            domain = "low"
        else:
            correction = (-1) ** parts.k * counts[x - total]
            value = theorem3_rhs(parts, x) - correction
            domain = "high"
        marker = "" if value == expected else "  <-- MISMATCH"
        print(f"{x:>6} {n:>8} {expected:>10} {value:>10} {domain:>8}{marker}")
        if value != expected:
            mismatches += 1
    if mismatches:
        print(f"{mismatches} mismatches", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
