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
error (bad part set, out-of-range argument, a request over one of the size
budgets in admission.py, and similar).

With --output json, every potentially large numeric value is emitted as a
decimal string so consumers that parse JSON numbers as floats cannot corrupt
it.  Output on stdout is byte-identical for identical argv and seed; wall
time goes to stderr.

Routes are reached through their modules, as in verify.py, and return ints.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from functools import cache, lru_cache
from typing import Callable, Dict, Optional, Sequence, Tuple

from . import admission, bernoulli, oracle, reductions, waves
from .errors import DomainError
from .partset import PartSet
from .verify import format_failure, run_verify


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


# The `count --method` choices.  Each looks its route up on the route's module
# when `count` runs, so rebinding a route there (a test's monkeypatch, or the
# span tracer in perfbench/spans.py) reaches `count` too, as in verify.py.
_COUNT_METHODS: Dict[str, Callable[[PartSet, int], int]] = {
    "oracle": lambda parts, n: oracle.oracle_count(parts, n),
    "theorem1": lambda parts, n: reductions.theorem1_count(parts, n),
    "section3": lambda parts, n: reductions.section3_count(parts, n),
    "closed-form": lambda parts, n: reductions.closed_form_count(parts, n),
    "waves": lambda parts, n: waves.waves_count(parts, n),
}


# The subcommand parsers by name, as `_build_parser` made them.
_SUBPARSERS: Dict[str, argparse.ArgumentParser] = {}


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
    count.add_argument("--method", choices=tuple(_COUNT_METHODS), default="oracle")
    with_output(count)

    bb = sub.add_parser("bb", help="Bernoulli-Barnes polynomials")
    bb.add_argument("--parts", type=parse_parts, required=True)
    bb.add_argument("--max-index", type=nonnegative_int, required=True)
    with_output(bb)

    numbers = sub.add_parser("bernoulli", help="Bernoulli numbers")
    numbers.add_argument("--max-index", type=nonnegative_int, required=True)
    with_output(numbers)

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

    _SUBPARSERS.update(sub.choices)
    return parser


@lru_cache(maxsize=16)
def _ten_to(exponent: int) -> int:
    return 10 ** exponent


# Python 3.11's int-to-str takes time quadratic in the digits, and so does a
# divmod by a power of ten, with a smaller constant.  Past 640 digits, the
# least limit Python's int-to-str takes, `_decimal` cuts a value by halves, at
# the powers 10^(_BASE_DIGITS * 2^j), into pieces of at most _BASE_DIGITS
# digits: the halving method of CPython 3.12's Lib/_pylong.py.  So a count
# prints at any length, under any such limit.
_BASE_DIGITS = 512


def _decimal(value: int) -> str:
    """str(value), the digits cut by halves past 640 digits."""
    if value.bit_length() <= 2126:  # under 10^640
        return str(value)
    return ("-" if value < 0 else "") + _zero_filled(abs(value), 0)


def _zero_filled(value: int, width: int) -> str:
    """The digits of 0 <= value, zero-filled to `width`.

    The cut 10^half is the first power on the ladder above the value's square
    root, so both halves are below it; the low half is filled to `half`.
    """
    if value < _ten_to(_BASE_DIGITS):
        return str(value).zfill(width)
    half = _BASE_DIGITS
    while value >= _ten_to(2 * half):
        half *= 2
    high, low = divmod(value, _ten_to(half))
    return _zero_filled(high, width - half) + _zero_filled(low, half)


def _dispatch(args: argparse.Namespace) -> int:
    """Run one subcommand, then print its text lines or its JSON payload.

    `bb` and `bernoulli` print each row as soon as it is formatted, so their
    memory does not grow with the output.  Their digit budgets are settled
    before any work (admission.py), so a refused run prints nothing.  The JSON
    payload, with --n written out as `input`, is formed under --output json
    only.
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
        given = args.max_index
        admission.admit_bernoulli(given)
        pairs = ((b.numerator, b.denominator) for b in bernoulli.bernoulli_numbers(given))
        value = (_decimal(n) if d == 1 else f"{_decimal(n)}/{_decimal(d)}" for n, d in pairs)
        lines = (f"B_{i} = {v}" for i, v in enumerate(value))
    elif args.subcommand == "bb":
        parts, given = PartSet(args.parts), args.max_index
        admission.admit_bb(parts, given)
        value = (
            [str(n) if d == 1 else f"{n}/{d}" for n, d in row]
            for row in bernoulli.lowest_terms(bernoulli.bernoulli_barnes(parts, given))
        )
        lines = (f"B_{i} = [{', '.join(coeffs)}]" for i, coeffs in enumerate(value))
    else:
        parts = PartSet(args.parts)
        if args.subcommand == "count":
            compute, given = _COUNT_METHODS[args.method], args.n
        elif args.subcommand == "theorem2":
            compute, given = reductions.theorem2_count, args.x
        else:
            compute, given = reductions.theorem3_rhs, args.x
        value = _decimal(compute(parts, given))
        lines = [value]

    write = sys.stdout.write
    if args.output == "text":
        for line in lines:
            write(f"{line}\n")
    elif args.subcommand == "verify":
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
        print(json.dumps({"trials": args.trials, "failures": failed, "seed": args.seed}))
    else:
        payload = {
            "subcommand": args.subcommand,
            "parts": list(parts.parts) if parts is not None else [],
            "input": _decimal(given),
            "method": args.method if args.subcommand == "count" else None,
        }
        if isinstance(value, str):
            payload["value"] = value
            print(json.dumps(payload))
        else:
            # "value" is the payload's last key: its rows follow the rest.
            write(f'{json.dumps(payload)[:-1]}, "value": [')
            for i, row in enumerate(value):
                write(f", {json.dumps(row)}" if i else json.dumps(row))
            write("]}\n")
    if args.subcommand == "verify":
        print(f"elapsed: {elapsed:.3f}s", file=sys.stderr)
    return code


def _bind(parser: argparse.ArgumentParser, tokens: Sequence[str]) -> Optional[argparse.Namespace]:
    """The Namespace `parser.parse_args(tokens)` returns, bound from the
    parser's own option table when the tokens are plain `--name value` pairs.

    Each name must be an exact option string of a plain store action, given
    once, no value may start with `-`, and each value must convert with the
    action's type and pass its choices; defaults are applied as argparse
    applies them to options that each have their own dest, as here.  Every
    other argv (abbreviations, `--name=value`, repeats, negative numbers,
    `-h`, a missing required option, any error) gives None, and argparse
    parses it and prints any usage or error itself.
    """
    if len(tokens) % 2 or parser._mutually_exclusive_groups:
        return None
    values: Dict[argparse.Action, object] = {}
    try:
        for name, text in zip(tokens[::2], tokens[1::2]):
            action = parser._option_string_actions.get(name)
            if type(action) is not argparse._StoreAction or action.nargs is not None:
                return None
            if action in values or text.startswith("-"):
                return None
            values[action] = value = parser._get_value(action, text)
            parser._check_value(action, value)
        namespace = argparse.Namespace(**parser._defaults)
        for action in parser._actions:
            if action in values:
                setattr(namespace, action.dest, values[action])
            elif action.required:
                return None
            elif action.dest is not argparse.SUPPRESS and action.default is not argparse.SUPPRESS:
                default = action.default
                if isinstance(default, str):
                    default = parser._get_value(action, default)
                setattr(namespace, action.dest, default)
    except argparse.ArgumentError:
        return None
    return namespace


def run(argv: Optional[Sequence[str]] = None) -> int:
    """Parse argv, execute, and return the exit code.

    The parsers are built once per process, on the first call.  An argv whose
    first token names a subcommand is read by that subcommand's parser alone:
    `_bind` takes plain `--name value` pairs from its option table, and
    argparse parses every other form, so each argv is parsed once.  The
    top-level parser takes every other argv (none, `-h`, an unknown name) and
    prints its usage.
    """
    argv = list(argv) if argv is not None else sys.argv[1:]
    parser = _build_parser()
    subparser = _SUBPARSERS.get(argv[0]) if argv else None
    try:
        if subparser is None:
            args = parser.parse_args(argv)
        else:
            args = _bind(subparser, argv[1:]) or subparser.parse_args(argv[1:])
            args.subcommand = argv[0]
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return _dispatch(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run(sys.argv[1:]))
