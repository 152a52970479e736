"""Command-line front end: argument parsing, dispatch and output.

Subcommands:

  count     p(n) for a part set, by any of five methods
  bb        Bernoulli-Barnes polynomials as coefficient lists
  bernoulli Bernoulli numbers (B_1 = +1/2 convention)
  theorem2  p(product - x) via the boundary identity, 1 <= x <= sum - 1
  theorem3  the two-sided boundary value for sum <= x <= product
  verify    seeded random cross-checks of every identity against the oracle
            (the engine is in verify.py)

Exit codes: 0 success, 1 verification failures, 2 usage error, 3 domain
error (bad part set, out-of-range argument, a result with more digits than
Python converts to text, and similar).

With --output json, every potentially large numeric value is emitted as a
decimal string so consumers that parse JSON numbers as floats cannot corrupt
it.  Output on stdout is byte-identical for identical argv and seed; wall
time goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from fractions import Fraction
from functools import cache
from typing import Callable, Dict, Optional, Sequence, Tuple, Union

from .bernoulli import bernoulli_barnes, bernoulli_numbers
from .errors import DomainError, ResourceLimitError
from .oracle import oracle_count
from .partset import PartSet
from .reductions import (
    closed_form_count,
    section3_count,
    theorem1_count,
    theorem2_count,
    theorem3_rhs,
)
from .verify import format_failure, run_verify
from .waves import waves_count


def parse_parts(text: str) -> Tuple[int, ...]:
    pieces = [piece.strip() for piece in text.split(",")]
    if not pieces or any(not piece for piece in pieces):
        raise argparse.ArgumentTypeError(
            "parts must be comma-separated positive integers, e.g. 2,3,5"
        )
    try:
        values = tuple(int(piece) for piece in pieces)
    except ValueError:
        raise argparse.ArgumentTypeError(f"parts must be integers, got {text!r}")
    if any(v < 1 for v in values):
        raise argparse.ArgumentTypeError("parts must be positive")
    return values


def nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {value}")
    return value


def positive_int(text: str) -> int:
    value = nonnegative_int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


@cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="denumerant",
        description="exact restricted-count computations and identity checks",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def with_output(p: argparse.ArgumentParser) -> None:
        p.add_argument("--output", choices=("text", "json"), default="text")

    count = sub.add_parser("count", help="count representations of n")
    count.add_argument("--parts", type=parse_parts, required=True)
    count.add_argument("--n", type=int, required=True)
    count.add_argument("--method", choices=tuple(_count_methods()), default="oracle")
    with_output(count)

    bb = sub.add_parser("bb", help="Bernoulli-Barnes polynomials")
    bb.add_argument("--parts", type=parse_parts, required=True)
    bb.add_argument("--max-index", type=nonnegative_int, required=True)
    with_output(bb)

    bernoulli = sub.add_parser("bernoulli", help="Bernoulli numbers")
    bernoulli.add_argument("--max-index", type=nonnegative_int, required=True)
    with_output(bernoulli)

    theorem2 = sub.add_parser("theorem2", help="count at product - x, small x")
    theorem2.add_argument("--parts", type=parse_parts, required=True)
    theorem2.add_argument("--x", type=int, required=True)
    with_output(theorem2)

    theorem3 = sub.add_parser("theorem3", help="two-sided boundary value at x")
    theorem3.add_argument("--parts", type=parse_parts, required=True)
    theorem3.add_argument("--x", type=int, required=True)
    with_output(theorem3)

    verify = sub.add_parser("verify", help="seeded random identity checks")
    verify.add_argument("--trials", type=nonnegative_int, default=500)
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--k-min", type=positive_int, default=2)
    verify.add_argument("--k-max", type=positive_int, default=5)
    verify.add_argument("--max-part", type=positive_int, default=13)
    verify.add_argument("--max-product", type=positive_int, default=100000)
    with_output(verify)

    return parser


def _count_methods() -> Dict[str, Callable[[PartSet, int], int]]:
    """The `count --method` choices, each mapped to its count function.

    Built on each call so that the functions are looked up in this module
    when used: rebinding a name here (a test's monkeypatch, or the span
    tracer in perfbench/spans.py) reaches `count` too.
    """
    return {
        "oracle": oracle_count,
        "theorem1": theorem1_count,
        "section3": section3_count,
        "closed-form": closed_form_count,
        "waves": waves_count,
    }


def _too_many_digits() -> ResourceLimitError:
    return ResourceLimitError(
        f"the result has more than {sys.get_int_max_str_digits()} digits,"
        " the limit of Python's int-to-str conversion"
    )


def _decimal(value: Union[int, Fraction]) -> str:
    """str(value), refusing a value past Python's int-to-str digit limit."""
    try:
        return str(value)
    except ValueError:
        raise _too_many_digits() from None


def _refuse_unprintable_bernoulli(max_index: int) -> None:
    """Refuse `bernoulli --max-index` before computing when B_m cannot be printed.

    For even m, |B_m| = 2 m! zeta(m) / (2 pi)^m, with zeta(m) taken as 1,
    which it nears fast (zeta(10) < 1.001); by von Staudt and Clausen the
    denominator of B_m is the product of the primes p with (p - 1) | m, and
    the numerator digits follow.  Only an estimate more than one digit over
    the limit is refused here; `_decimal` checks the rest after computing.
    """
    limit = sys.get_int_max_str_digits()
    # B_m vanishes for odd m >= 3.  Past 10^9, B_m has more digits than any
    # limit Python accepts (at most 2^31 - 1).
    m = min(max_index - max_index % 2, 10 ** 9)
    if not limit or m < 2:
        return
    log10 = (math.lgamma(m + 1) - m * math.log(2 * math.pi)) / math.log(10)
    log10 += math.log10(2)
    low = [d for d in range(1, math.isqrt(m) + 1) if m % d == 0]
    for p in {d + 1 for d in low} | {m // d + 1 for d in low}:
        if all(p % f for f in range(2, math.isqrt(p) + 1)):
            log10 += math.log10(p)
    if math.floor(log10) + 1 > limit + 1:
        raise _too_many_digits()


def _dispatch(args: argparse.Namespace) -> int:
    """Run one subcommand, then print its text lines or its JSON payload.

    The payload is built under --output json only: str() of a huge --n
    costs more than the count.
    """
    code, parts = 0, None
    if args.subcommand == "verify":
        started = time.perf_counter()
        failures = run_verify(
            args.trials, args.seed, args.k_min, args.k_max, args.max_part, args.max_product
        )
        elapsed = time.perf_counter() - started
        code = 1 if failures else 0
        lines = [f"trials: {args.trials}", f"seed: {args.seed}"]
        lines += [f"failures: {len(failures)}", *map(format_failure, failures)]
    elif args.subcommand == "bernoulli":
        _refuse_unprintable_bernoulli(args.max_index)
        given = args.max_index
        value = [_decimal(v) for v in bernoulli_numbers(given)]
        lines = [f"B_{i} = {v}" for i, v in enumerate(value)]
    elif args.subcommand == "bb":
        parts, given = PartSet(args.parts), args.max_index
        polys = bernoulli_barnes(parts, given)
        value = [[_decimal(c) for c in entry.coeffs] for entry in polys]
        lines = [f"B_{i} = [{', '.join(coeffs)}]" for i, coeffs in enumerate(value)]
    else:
        parts = PartSet(args.parts)
        if args.subcommand == "count":
            compute, given = _count_methods()[args.method], args.n
        else:
            compute = theorem2_count if args.subcommand == "theorem2" else theorem3_rhs
            given = args.x
        value = _decimal(compute(parts, given))
        lines = [value]

    if args.output == "json" and args.subcommand == "verify":
        failed = [
            {
                "check": failure.check,
                "parts": list(failure.parts.parts),
                "inputs": {name: str(val) for name, val in failure.inputs},
                "lhs": str(failure.lhs),
                "rhs": str(failure.rhs),
            }
            for failure in failures
        ]
        payload = {"trials": args.trials, "failures": failed, "seed": args.seed}
    elif args.output == "json":
        payload = {
            "subcommand": args.subcommand,
            "parts": list(parts.parts) if parts is not None else [],
            "input": str(given),
            "method": args.method if args.subcommand == "count" else None,
            "value": value,
        }
    print(json.dumps(payload) if args.output == "json" else "\n".join(lines))
    if args.subcommand == "verify":
        print(f"elapsed: {elapsed:.3f}s", file=sys.stderr)
    return code


def run(argv: Optional[Sequence[str]] = None) -> int:
    """Parse argv, execute, and return the exit code.

    The parser is built once per process, on the first call.  The count
    functions behind `count --method` are still looked up on every call.
    """
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv) if argv is not None else None)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return _dispatch(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run(sys.argv[1:]))
