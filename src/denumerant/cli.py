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

`count`, `theorem2` and `theorem3` run the oracle or a row of ``verify.CHECKS``:
every other route the CLI runs is one that `verify` checks.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from functools import cache, lru_cache, partial
from typing import Callable, Dict, Optional, Sequence, Tuple

from . import admission, bernoulli, oracle
from .errors import DomainError
from .partset import PartSet
from .verify import CHECKS, format_failure, run_verify


def parse_parts(text: str) -> Tuple[int, ...]:
    pieces = [piece.strip() for piece in text.split(",")]
    if not all(pieces):
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


# The integer options' converters: each refuses text that is not an integer,
# then a value under its least.
def _int_at_least(least: int, word: str, text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < least:
        raise argparse.ArgumentTypeError(f"expected a {word} integer, got {value}")
    return value


nonnegative_int = partial(_int_at_least, 0, "nonnegative")
positive_int = partial(_int_at_least, 1, "positive")


# The routes by name: the oracle, then the formula side of each of verify's
# rows, so the CLI runs what `verify` checks.  Each looks its route up on the
# route's module when it runs, so rebinding a route there (a test's
# monkeypatch, or the span tracer in perfbench/spans.py) reaches the CLI too.
# `count --method` takes the oracle and the rows at n.
_ROUTES: Dict[str, Callable[[PartSet, int], int]] = {
    "oracle": lambda parts, n: oracle.oracle_count(parts, n),
    **{check: formula for check, *_, formula in CHECKS},
}


# Each subcommand's help line and options, in the order its help lists them:
# option -> (type, default).  A type is a converter or a tuple of choices, and
# a default of None marks the option required.  `_bind` binds plain argv from
# this table, and `_build_parser` makes the argparse parsers from it for every
# other argv.
_OUTPUT = {"--output": (("text", "json"), "text")}
_OPTIONS: Dict[str, Tuple[str, Dict[str, Tuple[object, object]]]] = {
    "count": ("count representations of n", {
        "--parts": (parse_parts, None), "--n": (int, None),
        "--method": (
            ("oracle", *(check for check, _, _, arg, *_ in CHECKS if arg == "n")), "oracle"),
        **_OUTPUT}),
    "bb": ("Bernoulli-Barnes polynomials", {
        "--parts": (parse_parts, None), "--max-index": (nonnegative_int, None), **_OUTPUT}),
    "bernoulli": ("Bernoulli numbers", {"--max-index": (nonnegative_int, None), **_OUTPUT}),
    "theorem2": ("count at product - x, small x", {
        "--parts": (parse_parts, None), "--x": (int, None), **_OUTPUT}),
    "theorem3": ("two-sided boundary value at x", {
        "--parts": (parse_parts, None), "--x": (int, None), **_OUTPUT}),
    "verify": ("seeded random identity checks", {
        "--trials": (nonnegative_int, 500), "--seed": (int, 0),
        "--k-min": (positive_int, 2), "--k-max": (positive_int, 5),
        "--max-part": (positive_int, 13), "--max-product": (positive_int, 100000),
        **_OUTPUT}),
}


@cache
def _build_parser() -> Tuple[argparse.ArgumentParser, Dict[str, argparse.ArgumentParser]]:
    """The top-level parser and the subcommand parsers by name, from _OPTIONS."""
    parser = argparse.ArgumentParser(
        prog="denumerant",
        description="exact restricted-count computations and identity checks",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (summary, options) in _OPTIONS.items():
        subparser = sub.add_parser(name, help=summary)
        for option, (kind, default) in options.items():
            choices = kind if isinstance(kind, tuple) else None
            subparser.add_argument(
                option, type=None if choices else kind, choices=choices,
                required=default is None, default=default,
            )
    return parser, sub.choices


@lru_cache(maxsize=16)
def _ten_to(exponent: int) -> int:
    return 10 ** exponent


# Python 3.11's int-to-str takes time quadratic in the digits, and so does a
# divmod by a power of ten, with a smaller constant.  Past _BASE_DIGITS digits,
# `_decimal` cuts a value by halves, at the powers 10^(_BASE_DIGITS * 2^j), into
# pieces of at most _BASE_DIGITS digits: the halving method of CPython 3.12's
# Lib/_pylong.py.  512 is under 640, the least int-to-str limit Python takes, so
# a count prints at any length, under any such limit.
_BASE_DIGITS = 512


def _decimal(value: int, width: int = 0) -> str:
    """str(value), zero-filled to `width`, the digits cut by halves past 512.

    The cut 10^half is the first power on the ladder above the value's square
    root, so both halves are below it; the low half is filled to `half`.
    """
    if value < 0:
        return "-" + _decimal(-value)
    if value < _ten_to(_BASE_DIGITS):
        return str(value).zfill(width)
    half = _BASE_DIGITS
    while value >= _ten_to(2 * half):
        half *= 2
    high, low = divmod(value, _ten_to(half))
    return _decimal(high, width - half) + _decimal(low, half)


def _dispatch(args: argparse.Namespace) -> int:
    """Run one subcommand, print its text lines or its JSON payload, and
    return its exit code.

    `verify` prints its report and its wall time, and returns 1 on a failure.
    `bb` and `bernoulli` print each row as soon as it is formatted, so their
    memory does not grow with the output.  Their digit budgets are settled
    before any work (admission.py), so a refused run prints nothing.  Counts
    print through `_decimal`, by halves past 512 digits.  The JSON payload,
    with --n written out as `input`, is formed under --output json only.
    """
    if args.subcommand == "verify":
        started = time.perf_counter()
        failures, _, _ = run_verify(
            args.trials, args.seed, args.k_min, args.k_max, args.max_part, args.max_product
        )
        elapsed = time.perf_counter() - started
        report = [f"trials: {args.trials}", f"seed: {args.seed}", f"failures: {len(failures)}"]
        if args.output == "text":
            print(*report, *map(format_failure, failures), sep="\n")
        else:
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
        print(f"elapsed: {elapsed:.3f}s", file=sys.stderr)
        return 1 if failures else 0

    if args.subcommand == "bernoulli":
        parts, given = (), args.max_index
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
        count = args.subcommand == "count"
        parts, given = PartSet(args.parts), args.n if count else args.x
        value = _decimal(_ROUTES[args.method if count else args.subcommand](parts, given))
        lines = [value]

    write = sys.stdout.write
    if args.output == "text":
        for line in lines:
            write(f"{line}\n")
        return 0
    payload = {
        "subcommand": args.subcommand,
        "parts": list(parts),
        "input": _decimal(given),
        "method": getattr(args, "method", None),
    }
    if isinstance(value, str):
        print(json.dumps(payload | {"value": value}))
    else:
        # "value" is the payload's last key: its rows follow the rest.
        write(f'{json.dumps(payload)[:-1]}, "value": [')
        for i, row in enumerate(value):
            write(f", {json.dumps(row)}" if i else json.dumps(row))
        write("]}\n")
    return 0


def _bind(subcommand: str, tokens: Sequence[str]) -> Optional[argparse.Namespace]:
    """The Namespace the subcommand's parser returns for tokens, bound from
    _OPTIONS when the tokens are plain `--name value` pairs.

    Each name must be an option of the subcommand, given once, no value may
    start with `-`, each value must convert by its type or be one of its
    choices, and every required option must be given.  Every other argv
    (abbreviations, `--name=value`, repeats, negative numbers, `-h`, any
    error) gives None, and argparse parses it and prints any usage or error.
    """
    options = _OPTIONS[subcommand][1]
    given = dict(zip(tokens[::2], tokens[1::2]))
    if len(tokens) != 2 * len(given) or not given.keys() <= options.keys():
        return None
    bound = argparse.Namespace()
    for name, (kind, default) in options.items():
        text, value = given.get(name), default
        if text is not None:
            if text.startswith("-") or isinstance(kind, tuple) and text not in kind:
                return None
            try:
                value = text if isinstance(kind, tuple) else kind(text)
            except (ValueError, argparse.ArgumentTypeError):
                return None
        if value is None:  # a required option left out
            return None
        setattr(bound, name[2:].replace("-", "_"), value)
    return bound


def run(argv: Optional[Sequence[str]] = None) -> int:
    """Parse argv, execute, and return the exit code.

    An argv whose first token names a subcommand is read by that subcommand
    alone: `_bind` takes plain `--name value` pairs from _OPTIONS, and that
    subcommand's argparse parser every other form, so each argv is parsed
    once.  The top-level parser takes every other argv (none, `-h`, an
    unknown name) and prints its usage.  The parsers are built once per
    process, on the first argv that `_bind` does not take, so a run of plain
    argv builds none.
    """
    argv = list(argv) if argv is not None else sys.argv[1:]
    name = argv[0] if argv and argv[0] in _OPTIONS else None
    try:
        if name is None:
            args = _build_parser()[0].parse_args(argv)
        else:
            args = _bind(name, argv[1:]) or _build_parser()[1][name].parse_args(argv[1:])
            args.subcommand = name
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return _dispatch(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run(sys.argv[1:]))
