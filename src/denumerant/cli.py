"""Command-line front end.

Subcommands:

  count     p(n) for a part set, by any of five methods
  bb        Bernoulli-Barnes polynomials as coefficient lists
  bernoulli Bernoulli numbers (B_1 = +1/2 convention)
  theorem2  p(product - x) via the boundary identity, 1 <= x <= sum - 1
  theorem3  the two-sided boundary value for sum <= x <= product
  verify    seeded random cross-checks of every identity against the oracle

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
import random
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from .bernoulli import bernoulli_barnes, bernoulli_numbers
from .errors import DomainError, ResourceLimitError, SamplingExhaustedError
from .oracle import oracle_count
from .partset import PartSet
from .reductions import (
    TheoremReport,
    closed_form_correction,
    closed_form_count,
    closed_form_theorem2,
    section3_count,
    theorem1_count,
    theorem2_count,
    theorem3_rhs,
)
from .waves import waves_count

@dataclass(frozen=True)
class VerifyReport:
    """Outcome of one verification sweep."""

    trials: int
    failures: Tuple[TheoremReport, ...]
    seed: int
    elapsed: float


def random_coprime_partset(
    k: int,
    max_part: int,
    rng: random.Random,
    max_attempts: int = 1000,
) -> PartSet:
    """Draw a pairwise-coprime set of k distinct parts from [1, max_part].

    Plain rejection sampling: draw k distinct values, accept iff pairwise
    coprime.  Deterministic given the rng state.
    """
    if k < 1:
        raise DomainError(f"need at least one part, got k={k}")
    if max_part < k:
        raise DomainError(f"cannot draw {k} distinct parts from [1, {max_part}]")
    population = range(1, max_part + 1)
    for _ in range(max_attempts):
        candidate = PartSet(tuple(rng.sample(population, k)))
        if candidate.pairwise_coprime:
            return candidate
    raise SamplingExhaustedError(
        f"no pairwise-coprime {k}-subset of [1, {max_part}] in {max_attempts} draws"
    )


def _sample_bounded_parts(
    rng: random.Random, k: int, max_part: int, max_product: int
) -> PartSet:
    for _ in range(1000):
        candidate = random_coprime_partset(k, max_part, rng)
        if candidate.product <= max_product:
            return candidate
    raise SamplingExhaustedError(
        f"no pairwise-coprime {k}-subset of [1, {max_part}]"
        f" with product <= {max_product}"
    )


def _check_trial(
    trial: int, parts: PartSet, n: int, q: int, r: int, rng: random.Random
) -> List[TheoremReport]:
    """All identity checks for one sampled instance, oracle on the left."""
    k = parts.k
    product = parts.product
    reports = []
    base_inputs = (("trial", trial), ("n", n), ("q", q), ("r", r))

    # One table serves the trial: its first lookup reaches every later one,
    # since r <= n and each boundary argument lies below the product.
    oracle_count(parts, max(n, product - 1))
    expected = oracle_count(parts, n)
    reports.append(
        TheoremReport(
            check="theorem1",
            parts=parts,
            inputs=base_inputs,
            lhs=expected,
            rhs=Fraction(theorem1_count(parts, n)),
        )
    )
    if k >= 2:
        reports.append(
            TheoremReport(
                check="section3",
                parts=parts,
                inputs=base_inputs,
                lhs=expected,
                rhs=Fraction(section3_count(parts, n)),
            )
        )
    if 2 <= k <= 5:
        true_correction = expected - oracle_count(parts, r)
        reports.append(
            TheoremReport(
                check="closed-form",
                parts=parts,
                inputs=base_inputs,
                lhs=true_correction,
                rhs=closed_form_correction(parts, n),
            )
        )
    if k >= 2:
        x = rng.randint(1, parts.total - 1)
        boundary = oracle_count(parts, product - x)
        x_inputs = (("trial", trial), ("x", x))
        reports.append(
            TheoremReport(
                check="theorem2",
                parts=parts,
                inputs=x_inputs,
                lhs=boundary,
                rhs=Fraction(theorem2_count(parts, x)),
            )
        )
        if k <= 5:
            reports.append(
                TheoremReport(
                    check="closed-form-theorem2",
                    parts=parts,
                    inputs=x_inputs,
                    lhs=boundary,
                    rhs=closed_form_theorem2(parts, x),
                )
            )
        if parts.total <= product:
            x3 = rng.randint(parts.total, product)
            two_sided = oracle_count(parts, product - x3) + (-1) ** k * oracle_count(
                parts, x3 - parts.total
            )
            reports.append(
                TheoremReport(
                    check="theorem3",
                    parts=parts,
                    inputs=(("trial", trial), ("x", x3)),
                    lhs=two_sided,
                    rhs=theorem3_rhs(parts, x3),
                )
            )
    return reports


def run_verify(
    trials: int,
    seed: int,
    k_min: int,
    k_max: int,
    max_part: int,
    max_product: int,
) -> VerifyReport:
    """Seeded random sweep of every identity against the oracle.

    Each trial draws a part set by rejection sampling (product capped so the
    oracle table stays small), then n = q * product + r with q in 0..3 and r
    uniform, then checks every identity applicable to the arity.  Failures
    come back in trial order.
    """
    if trials < 0:
        raise DomainError(f"trials must be nonnegative, got {trials}")
    if not 1 <= k_min <= k_max:
        raise DomainError(f"need 1 <= k-min <= k-max, got {k_min}..{k_max}")
    started = time.perf_counter()
    rng = random.Random(seed)
    failures = []
    for trial in range(trials):
        k = rng.randint(k_min, k_max)
        parts = _sample_bounded_parts(rng, k, max_part, max_product)
        q = rng.randint(0, 3)
        r = rng.randrange(parts.product)
        n = q * parts.product + r
        for report in _check_trial(trial, parts, n, q, r, rng):
            if not report.holds:
                failures.append(report)
    elapsed = time.perf_counter() - started
    return VerifyReport(
        trials=trials, failures=tuple(failures), seed=seed, elapsed=elapsed
    )


def _parse_parts(text: str) -> Tuple[int, ...]:
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


def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {value}")
    return value


def _positive_int(text: str) -> int:
    value = _nonnegative_int(text)
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
    count.add_argument("--parts", type=_parse_parts, required=True)
    count.add_argument("--n", type=int, required=True)
    count.add_argument("--method", choices=tuple(_count_methods()), default="oracle")
    with_output(count)

    bb = sub.add_parser("bb", help="Bernoulli-Barnes polynomials")
    bb.add_argument("--parts", type=_parse_parts, required=True)
    bb.add_argument("--max-index", type=_nonnegative_int, required=True)
    with_output(bb)

    bernoulli = sub.add_parser("bernoulli", help="Bernoulli numbers")
    bernoulli.add_argument("--max-index", type=_nonnegative_int, required=True)
    with_output(bernoulli)

    theorem2 = sub.add_parser("theorem2", help="count at product - x, small x")
    theorem2.add_argument("--parts", type=_parse_parts, required=True)
    theorem2.add_argument("--x", type=int, required=True)
    with_output(theorem2)

    theorem3 = sub.add_parser("theorem3", help="two-sided boundary value at x")
    theorem3.add_argument("--parts", type=_parse_parts, required=True)
    theorem3.add_argument("--x", type=int, required=True)
    with_output(theorem3)

    verify = sub.add_parser("verify", help="seeded random identity checks")
    verify.add_argument("--trials", type=_nonnegative_int, default=500)
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--k-min", type=_positive_int, default=2)
    verify.add_argument("--k-max", type=_positive_int, default=5)
    verify.add_argument("--max-part", type=_positive_int, default=13)
    verify.add_argument("--max-product", type=_positive_int, default=100000)
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


def _emit_value(
    args: argparse.Namespace, parts: Optional[PartSet], given, value
) -> None:
    """Print one computed value; `value` is a string or a list of strings."""
    if args.output == "text":
        if isinstance(value, str):
            print(value)
        else:
            for line in value:
                print(line)
        return
    payload = {
        "subcommand": args.subcommand,
        "parts": list(parts.parts) if parts is not None else [],
        "input": str(given),
        "method": args.method if args.subcommand == "count" else None,
        "value": value,
    }
    print(json.dumps(payload))


def _emit_verify(args: argparse.Namespace, report: VerifyReport) -> None:
    if args.output == "text":
        print(f"trials: {report.trials}")
        print(f"seed: {report.seed}")
        print(f"failures: {len(report.failures)}")
        for failure in report.failures:
            rendered = " ".join(f"{name}={val}" for name, val in failure.inputs)
            print(
                f"FAIL {failure.check} parts={list(failure.parts.parts)}"
                f" {rendered} lhs={failure.lhs} rhs={failure.rhs}"
            )
    else:
        payload = {
            "trials": report.trials,
            "failures": [
                {
                    "check": failure.check,
                    "parts": list(failure.parts.parts),
                    "inputs": {name: str(val) for name, val in failure.inputs},
                    "lhs": str(failure.lhs),
                    "rhs": str(failure.rhs),
                }
                for failure in report.failures
            ],
            "seed": report.seed,
        }
        print(json.dumps(payload))
    print(f"elapsed: {report.elapsed:.3f}s", file=sys.stderr)


def _dispatch(args: argparse.Namespace) -> int:
    if args.subcommand == "count":
        parts = PartSet(args.parts)
        value = _count_methods()[args.method](parts, args.n)
        _emit_value(args, parts, args.n, _decimal(value))
        return 0
    if args.subcommand == "theorem2":
        parts = PartSet(args.parts)
        value = theorem2_count(parts, args.x)
        _emit_value(args, parts, args.x, _decimal(value))
        return 0
    if args.subcommand == "theorem3":
        parts = PartSet(args.parts)
        rhs = theorem3_rhs(parts, args.x)
        _emit_value(args, parts, args.x, _decimal(rhs))
        return 0
    if args.subcommand == "bb":
        parts = PartSet(args.parts)
        polys = bernoulli_barnes(parts, args.max_index)
        if args.output == "text":
            lines = [
                "B_{} = [{}]".format(
                    entry.index, ", ".join(_decimal(c) for c in entry.poly.coeffs)
                )
                for entry in polys
            ]
            _emit_value(args, parts, args.max_index, lines)
        else:
            value = [[_decimal(c) for c in entry.poly.coeffs] for entry in polys]
            _emit_value(args, parts, args.max_index, value)
        return 0
    if args.subcommand == "bernoulli":
        _refuse_unprintable_bernoulli(args.max_index)
        table = bernoulli_numbers(args.max_index)
        if args.output == "text":
            lines = [f"B_{i} = {_decimal(v)}" for i, v in enumerate(table)]
            _emit_value(args, None, args.max_index, lines)
        else:
            _emit_value(args, None, args.max_index, [_decimal(v) for v in table])
        return 0
    report = run_verify(
        trials=args.trials,
        seed=args.seed,
        k_min=args.k_min,
        k_max=args.k_max,
        max_part=args.max_part,
        max_product=args.max_product,
    )
    _emit_verify(args, report)
    return 0 if not report.failures else 1


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
