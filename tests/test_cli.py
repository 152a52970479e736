"""Command-line behavior: outputs, exit codes, determinism, JSON."""

import argparse
import hashlib
import io
import json
import random
import sys
import tracemalloc
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from math import comb, lcm, prod
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from denumerant import admission, bernoulli, cli, oracle, reductions, verify, waves
from denumerant.cli import _build_parser, main, run
from denumerant.errors import (
    DomainError,
    RangeError,
    ResourceLimitError,
    SamplingExhaustedError,
    UnsupportedArityError,
)
from denumerant.partset import PartSet
from denumerant.reductions import theorem1_count
from denumerant.verify import format_failure, random_coprime_partset, run_verify
from denumerant.waves import waves_count

from helpers import bb_coeffs, brute_force_count, calls, forbid, kernel_calls, run_module

F = Fraction


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def sha16(text):
    """The first 16 hex digits of the sha256 of text, by which an output is pinned."""
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class TestCount:
    def test_table_free_methods_past_the_oracle_cap(self, capsys):
        # the product is about 1.1e8, so n mod the product may pass the cap
        argv = ("count", "--parts", "3,5,7,11,13,17,19,23", "--n", str(10 ** 30))
        outputs = set()
        for method in ("theorem1", "section3", "waves"):
            code, out, err = invoke(capsys, *argv, "--method", method)
            assert (code, err) == (0, "")
            outputs.add(out)
        assert len(outputs) == 1

    def test_text_mode_builds_no_json_only_value(self, capsys):
        # str() of this n passes the lowered digit limit, so a payload built
        # in text mode would raise; the count itself has 637 digits.
        args = argparse.Namespace(
            subcommand="count",
            parts=(1009, 1013),
            n=10 ** 643 + 17,
            method="waves",
            output="text",
        )
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            assert cli._dispatch(args) == 0
            value = waves_count(PartSet.of(1009, 1013), args.n)
            assert capsys.readouterr().out == f"{value}\n"
            assert len(str(value)) == 637
        finally:
            sys.set_int_max_str_digits(limit)


class TestOtherSubcommands:
    @settings(max_examples=300)
    @given(
        st.sets(st.integers(1, 40), min_size=1, max_size=6),
        st.integers(0, 30),
    )
    def test_bb_coefficients_print_as_fractions(self, combo, m):
        table = bernoulli.bernoulli_barnes(PartSet(tuple(combo)), m)
        assert list(bernoulli.lowest_terms(table)) == [
            [(f.numerator, f.denominator) for f in bb_coeffs(entry)] for entry in table
        ]

    def test_bb_coefficient_examples(self, capsys):
        # B_3(x; 1) = x^3 - 3/2 x^2 + 1/2 x, B_1(x; 2,3,5) = (x - 5)/30
        unit = list(bernoulli.lowest_terms(bernoulli.bernoulli_barnes(PartSet.of(1), 3)))
        assert unit[0] == [(1, 1)]
        assert unit[3] == [(0, 1), (1, 2), (-3, 2), (1, 1)]
        small = list(bernoulli.lowest_terms(bernoulli.bernoulli_barnes(PartSet.of(2, 3, 5), 1)))
        assert small[1] == [(-1, 6), (1, 30)]
        code, out, _ = invoke(capsys, "bb", "--parts", "1", "--max-index", "3")
        assert code == 0
        assert out.splitlines()[0] == "B_0 = [1]"
        assert out.splitlines()[3] == "B_3 = [0, 1/2, -3/2, 1]"

    def test_bb_refused_from_its_bound_before_the_table(self, capsys, monkeypatch):
        # the bound for (2,3,5,7) passes 4,300 digits from m = 873 on; at
        # m = 900 the table alone takes about 30 s to build
        forbid(monkeypatch, bernoulli, "_bernoulli_barnes")
        for output in ("text", "json"):
            code, out, err = invoke(
                capsys, "bb", "--parts", "2,3,5,7", "--max-index", "900", "--output", output
            )
            assert (code, out) == (3, "")
            assert err.count("\n") == 1 and err.startswith("error: ")
            assert "cap of 4300" in err
        admission.admit_bb(PartSet.of(2, 3, 5, 7), 800)  # --max-index 800 prints

    def test_bb_of_a_part_past_the_float_range(self, capsys):
        # a part of 10^400 passes any float, and the bound takes it
        big = str(10 ** 400)
        code, out, err = invoke(capsys, "bb", "--parts", big, "--max-index", "0")
        assert (code, out, err) == (0, f"B_0 = [1/{big}]\n", "")

    def test_bb_of_a_4300_digit_part_at_index_0(self, capsys):
        # D, the product of the primes up to m + 1, is 1 at m = 0, so B_0 = [1/P]
        # is bounded by P's own 4,300 digits; a D^k term of 0.441 digits per
        # part refused it
        part = str(4 * 10 ** 4299 + 1)
        code, out, err = invoke(capsys, "bb", "--parts", part, "--max-index", "0")
        assert (code, out, err) == (0, f"B_0 = [1/{part}]\n", "")

    @pytest.mark.parametrize("output", ["text", "json"])
    def test_bb_refused_past_a_lowered_int_to_str_limit(self, capsys, monkeypatch, output):
        # bb prints through str, so a lowered limit caps its bound too: the
        # bound on B_120(x; 10^6) is 949 digits, under 4,300 and over 640
        argv = ("bb", "--parts", "1000000", "--max-index", "120", "--output", output)
        assert invoke(capsys, *argv)[0] == 0
        forbid(monkeypatch, bernoulli, "_bernoulli_barnes")
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            code, out, err = invoke(capsys, *argv)
        finally:
            sys.set_int_max_str_digits(limit)
        assert (code, out) == (3, "")
        assert err.count("\n") == 1 and "may print 949-digit numbers, over the cap of 640" in err

    @settings(max_examples=100)
    @given(
        st.sets(st.integers(1, 30), min_size=1, max_size=5),
        st.integers(0, 30),
        st.integers(0, 60),
    )
    def test_streamed_output_matches_the_whole_payload(self, combo, m, index):
        # The rows are printed one at a time; the bytes are those of the
        # joined lines and of json.dumps of the whole payload, built here from
        # Fractions rather than from lowest_terms.
        parts = PartSet(tuple(combo))
        rows = [[str(c) for c in bb_coeffs(entry)] for entry in bernoulli.bernoulli_barnes(parts, m)]
        numbers = [str(b) for b in bernoulli.bernoulli_numbers(index)]
        cases = (
            (
                ["bb", "--parts", ",".join(map(str, sorted(combo))), "--max-index", str(m)],
                [f"B_{i} = [{', '.join(row)}]" for i, row in enumerate(rows)],
                ("bb", sorted(combo), str(m), None, rows),
            ),
            (
                ["bernoulli", "--max-index", str(index)],
                [f"B_{i} = {b}" for i, b in enumerate(numbers)],
                ("bernoulli", [], str(index), None, numbers),
            ),
        )
        for argv, lines, fields in cases:
            payload = dict(zip(("subcommand", "parts", "input", "method", "value"), fields))
            for output, expected in (
                ("text", "\n".join(lines) + "\n"),
                ("json", json.dumps(payload) + "\n"),
            ):
                out = io.StringIO()
                with redirect_stdout(out):
                    assert run([*argv, "--output", output]) == 0
                assert out.getvalue() == expected

    def test_bb_output_held_row_by_row(self):
        # memory gate: with stdout kept nowhere, printing (2,3,5,7) to index
        # 200 (2.8 MB of text) holds one row at a time; holding every line,
        # as a joined string, took over 9 MB
        class Discard:
            def write(self, text):
                return len(text)

            def flush(self):
                pass

        bernoulli._bernoulli_barnes.cache_clear()
        tracemalloc.start()
        try:
            with redirect_stdout(Discard()):
                code = run(["bb", "--parts", "2,3,5,7", "--max-index", "200"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 1 << 20

    def test_bb_prints_without_forming_numerators(self, capsys):
        # work gate: a bb table is one shared beta, and neither printing it
        # nor reading a polynomial at x leaves anything else in it
        bernoulli._bernoulli_barnes.cache_clear()
        code, _, _ = invoke(capsys, "bb", "--parts", "2,3,5,7", "--max-index", "40")
        assert code == 0
        table = bernoulli.bernoulli_barnes(PartSet.of(2, 3, 5, 7), 40)
        assert len(table[0].beta) == 41
        assert all(type(b) is int for b in table[0].beta)
        assert all(entry.beta is table[0].beta for entry in table)
        assert table[5].at(3) == sum(c * 3 ** j for j, c in enumerate(bb_coeffs(table[5])))
        assert all(set(vars(entry)) == {"beta", "index", "denominator"} for entry in table)

    def test_bb_rows_formed_as_read(self, monkeypatch):
        # work gate: the first row of the (2,3,5,7) table at index 40 takes one
        # binomial, not the 861 of all 41 rows
        table = bernoulli.bernoulli_barnes(PartSet.of(2, 3, 5, 7), 40)
        binomials = calls(monkeypatch, bernoulli, "comb")
        rows = iter(bernoulli.lowest_terms(table))
        assert next(rows) == [(1, 210)]  # B_0 = 1 / (2 * 3 * 5 * 7)
        assert binomials == [(0, 0)]

    def test_bb_at_a_large_index(self, capsys):
        # B_i(x; A) = sum_j C(i, j) beta_{i-j} x^j / P with beta the EGF of
        # prod_a a s / (e^{a s} - 1); each factor's coefficients are
        # B_n a^n / n! in the B_1 = -1/2 convention, so beta is built here
        # from the Bernoulli table, which the package's polynomials never read
        parts, m = (2, 3, 5, 7), 96
        bern = list(bernoulli.bernoulli_numbers(m))
        bern[1] = -bern[1]
        beta = [F(1)] + [F(0)] * m
        for a in parts:
            beta = [
                sum(comb(n, l) * beta[l] * bern[n - l] * a ** (n - l) for l in range(n + 1))
                for n in range(m + 1)
            ]
        expected = [
            f"B_{i} = [{', '.join(str(comb(i, j) * beta[i - j] / 210) for j in range(i + 1))}]"
            for i in range(m + 1)
        ]
        code, out, _ = invoke(capsys, "bb", "--parts", "2,3,5,7", "--max-index", str(m))
        assert code == 0
        assert out.splitlines() == expected


class TestExitCodes:
    # argv, exit code, and a fragment of stderr or None
    REFUSED = {
        "part-0": ("count --parts 0,3 --n 5", 2, None),
        "theorem1-coprime": ("count --parts 2,4 --n 5 --method theorem1", 3, "coprime"),
        "waves-coprime": ("count --parts 2,4 --n 5 --method waves", 3, "coprime"),
        "theorem2-x-at-S": ("theorem2 --parts 2,3,5 --x 10", 3, None),
        "duplicate-part": ("count --parts 2,2,3 --n 5", 3, None),
        "negative-n": ("count --parts 2,3 --n -4", 3, None),
        "six-parts": ("count --parts 1,2,3,5,7,11 --n 100 --method closed-form", 3, "error:"),
    }

    @pytest.mark.parametrize("argv, code, fragment", REFUSED.values(), ids=REFUSED)
    def test_refused_with_nothing_on_stdout(self, capsys, argv, code, fragment):
        done, out, err = invoke(capsys, *argv.split())
        assert (done, out) == (code, "")
        assert fragment is None or fragment in err

    def test_theorem3_refuses_a_set_whose_sum_passes_its_product(self, capsys):
        code, out, err = invoke(capsys, "theorem3", "--parts", "1,2", "--x", "3")
        assert (code, out) == (3, "")
        assert err == (
            "error: parts [1, 2] have no theorem3 domain:"
            " their sum 3 passes their product 2\n"
        )

    def test_oversized_table_refused_before_allocating(self, capsys):
        code, out, err = invoke(capsys, "count", "--parts", "2,3", "--n", str(10**12))
        assert code == 3
        assert out == ""
        assert err.startswith("error: ") and "cap" in err
        assert "waves" in err and "tabulates" not in err
        # the refusal names routes, not a flag: library callers have no --method
        assert "routes" in err and "--method" not in err
        assert "Traceback" not in err

    def test_unprintable_bernoulli_refused_before_computing(
        self, monkeypatch, capsys
    ):
        # at a 640-digit budget, B_448 is the first with too long a numerator
        tables = calls(monkeypatch, bernoulli, "bernoulli_numbers")
        monkeypatch.setattr(admission, "MAX_DIGITS", 640)
        for index in ("448", "449", "2600", str(10 ** 400)):
            code, out, err = invoke(capsys, "bernoulli", "--max-index", index)
            assert (code, out) == (3, "")
            assert err.startswith("error: ") and "cap of 640" in err
        assert tables == []
        code, out, _ = invoke(capsys, "bernoulli", "--max-index", "447")
        assert code == 0 and out.count("\n") == 448
        assert tables == [(447,)]

    @pytest.mark.parametrize("output", ["text", "json"])
    def test_count_prints_past_the_int_to_str_limit(self, capsys, output):
        # p(10^3000) for (2,3,5) has about 6,000 digits, past the 4,300 that
        # Python's int-to-str takes at once
        n = str(10 ** 3000)
        values = set()
        for method in ("waves", "theorem1", "section3", "closed-form"):
            code, out, err = invoke(
                capsys, "count", "--parts", "2,3,5", "--n", n, "--method", method,
                "--output", output,
            )
            assert (code, err) == (0, "")
            values.add(json.loads(out)["value"] if output == "json" else out[:-1])
        (value,) = values
        assert len(value) == 5999 and value.isdigit()
        assert value.startswith("1666666666")  # p(n) ~ n^2 / (2! * 30)


class TestParserBuiltOnce:
    def test_many_runs_build_one_parser(self, monkeypatch, capsys):
        builds = calls(monkeypatch, argparse.ArgumentParser, "add_subparsers")
        cli._build_parser.cache_clear()
        argvs = [
            ("count", "--parts", "2,3", "--n", "11", "--method", "waves"),
            ("count", "--parts", "2,x", "--n", "5"),
            ("theorem2", "--parts", "2,3,5", "--x", "3"),
            ("bernoulli", "--max-index", "4", "--output", "json"),
        ]
        codes = [run(list(argv)) for argv in argvs * 3]
        capsys.readouterr()
        assert codes == [0, 2, 0, 0] * 3
        assert [parser.prog for (parser,) in builds] == ["denumerant"]

    def test_plain_argv_build_no_parser(self, monkeypatch, capsys):
        # Work gate: _bind binds a plain argv of each subcommand, so none
        # builds the parsers; the first argv that only argparse parses builds
        # them, once
        builds = calls(monkeypatch, argparse.ArgumentParser, "add_subparsers")
        cli._build_parser.cache_clear()
        plain = [
            ("count", "--parts", "2,3", "--n", "11"),
            ("bb", "--parts", "2,3,5", "--max-index", "3"),
            ("bernoulli", "--max-index", "4"),
            ("theorem2", "--parts", "2,3,5", "--x", "3"),
            ("theorem3", "--parts", "3,5,7", "--x", "15"),
            ("verify", "--trials", "1"),
        ]
        assert [run(list(argv)) for argv in plain] == [0] * len(plain)
        assert builds == []
        assert run(["count", "--parts=2,3", "--n", "5"]) == 0
        capsys.readouterr()
        assert [parser.prog for (parser,) in builds] == ["denumerant"]

    def test_usage_error_then_valid_argv_match_a_fresh_process(
        self, monkeypatch, capsys
    ):
        monkeypatch.setenv("COLUMNS", "80")  # the usage text wraps at the width
        bad = ("count", "--parts", "2,3", "--n", "11", "--method", "nope")
        good = ("count", "--parts", "2,3,5", "--n", "59", "--method", "section3")
        # `=` is argparse's form alone, so the parser exists from here on
        assert run(["count", "--parts=2,3", "--n", "5"]) == 0
        assert run(list(good)) == 0
        capsys.readouterr()
        redirected = io.StringIO()
        with redirect_stderr(redirected):
            bad_code = run(list(bad))
        code, out, err = invoke(capsys, *good)
        fresh_bad, fresh_good = run_module(*bad), run_module(*good)
        # a failure shows both runs of each argv, exit codes and outputs
        shown = (
            f"\nin process: bad exit {bad_code}, stderr {redirected.getvalue()!r};"
            f" good exit {code}, stdout {out!r}, stderr {err!r}"
            f"\nfresh: bad exit {fresh_bad.returncode}, stdout {fresh_bad.stdout!r},"
            f" stderr {fresh_bad.stderr!r}; good exit {fresh_good.returncode},"
            f" stdout {fresh_good.stdout!r}, stderr {fresh_good.stderr!r}"
        )
        assert bad_code == 2, shown
        assert (fresh_bad.returncode, fresh_bad.stdout) == (2, ""), shown
        assert redirected.getvalue() == fresh_bad.stderr, shown
        assert redirected.getvalue().startswith("usage: denumerant count"), shown
        assert "invalid choice: 'nope'" in fresh_bad.stderr, shown
        assert (code, out, err) == (0, fresh_good.stdout, fresh_good.stderr), shown


# Written out, 1,301 digits; p(n) for (2,3,5,7) has 3,897, so printing it
# cuts at every power on `cli._decimal`'s ladder.
HUGE_N = 10 ** 1300 + 12345

# argv, exit code, and the first 16 hex digits of the sha256 of stdout.
# stdout is byte-stable: a digest changes only with a deliberate change to
# the output format.
PINNED = [
    ("count --parts 2,3,5,7 --n 1000", 0, "94681d287d243037"),
    ("count --parts 3,5,7,11 --n 12345 --method oracle", 0, "73af23fca083902f"),
    ("count --parts 3,5,7,11 --n 12345 --method waves", 0, "73af23fca083902f"),
    ("count --parts 3,5,7,11 --n 12345 --method theorem1", 0, "73af23fca083902f"),
    ("count --parts 3,5,7,11 --n 12345 --method section3", 0, "73af23fca083902f"),
    ("count --parts 3,5,7,11 --n 12345 --method closed-form", 0, "73af23fca083902f"),
    ("count --parts 3,5,7,11 --n 12345 --method oracle --output json", 0, "402c6e5cd1446f58"),
    ("count --parts 3,5,7,11 --n 12345 --method waves --output json", 0, "30e703ff588143e7"),
    ("count --parts 3,5,7,11 --n 12345 --method theorem1 --output json", 0, "1741c3e542ab4c9e"),
    ("count --parts 3,5,7,11 --n 12345 --method section3 --output json", 0, "6525eead70b68f25"),
    ("count --parts 3,5,7,11 --n 12345 --method closed-form --output json", 0, "0f8a0b8731622a47"),
    ("bb --parts 2,3,5 --max-index 3", 0, "25fee3241b0c5fb8"),
    ("bb --parts 2,3,5 --max-index 3 --output json", 0, "ae6bf374cee06ba3"),
    ("bernoulli --max-index 10", 0, "305fc60cad91cebe"),
    ("bernoulli --max-index 10 --output json", 0, "1eb3b80468859ec4"),
    ("theorem2 --parts 3,5,7 --x 4 --output json", 0, "0a739e183b302c95"),
    ("theorem3 --parts 3,5,7 --x 15 --output json", 0, "bc5fe0bd07b684aa"),
    ("verify --trials 30", 0, "cf6f904d425535e7"),
    ("verify --trials 30 --output json", 0, "372583c0e9643a3e"),
    (f"count --parts 2,3,5,7 --n {HUGE_N} --method theorem1", 0, "9422b7bde44f5202"),
    (
        f"count --parts 2,3,5,7 --n {HUGE_N} --method theorem1 --output json",
        0,
        "88c28d6121666378",
    ),
    # Refusals: nothing on stdout.
    ("count --parts 2,4 --n 10 --method theorem1 --output json", 3, "e3b0c44298fc1c14"),
    ("verify --k-min 4 --k-max 3", 3, "e3b0c44298fc1c14"),
]


class TestStdoutPinned:
    @pytest.mark.parametrize(
        "argv, code, digest",
        PINNED,
        ids=[r[0].replace(str(HUGE_N), "10**1300+12345") for r in PINNED],
    )
    def test_stdout_and_exit_code(self, capsys, argv, code, digest):
        done, out, _ = invoke(capsys, *argv.split())
        assert (done, sha16(out)) == (code, digest)


class TestDecimal:
    """`cli._decimal` prints an int as str() does, by halves past 512 digits."""

    LADDER = (512, 1024, 2048, 4096)

    @settings(max_examples=300)
    @given(
        st.integers(0, 4300).flatmap(
            lambda d: st.integers(10 ** (d - 1) if d > 1 else 0, 10 ** d - 1)
        ),
        st.booleans(),
    )
    def test_equals_str(self, value, negative):
        value = -value if negative else value
        assert cli._decimal(value) == str(value)

    def test_edge_values(self):
        values = [0, 1, -1, 10 ** 3000]  # 10^3000's low halves are all zeros
        for w in self.LADDER:
            values += [10 ** w - 1, 10 ** w, 10 ** w + 1]
        for value in values:
            assert cli._decimal(value) == str(value)
            assert cli._decimal(-value) == str(-value)

    @pytest.mark.parametrize(
        "value",
        [10 ** 640, 7 ** 1000, 10 ** 1023 - 1, 7 ** 4733],
        ids=["10^640", "7^1000", "10^1023-1", "7^4733"],
    )
    def test_pieces_under_a_lowered_limit(self, value):
        # str() refuses any piece past 640 digits, the least limit Python
        # takes, just above the 512-digit base width
        limit = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(0)
            expected = str(value)
            sys.set_int_max_str_digits(640)
            assert cli._decimal(value) == expected
        finally:
            sys.set_int_max_str_digits(limit)
        assert len(expected) > 640

    def test_power_cache_bounded(self):
        # work gate: every length up to 4,300 digits cuts at the same five
        # powers, 10^512 to 10^8192
        cli._ten_to.cache_clear()
        for digits in range(1, 4301):
            value = 10 ** digits - 1
            assert cli._decimal(value) == "9" * digits
        info = cli._ten_to.cache_info()
        assert info.misses == info.currsize == 5


# Per subcommand, each option with plain values and odd ones: values that fail
# to convert or miss its choices, or start with `-`.  "-1_000" converts, but
# argparse reads it as an option, not as a negative number; "9" * 4301 passes
# the int-to-str limit.
PARTS = (["2,3", "3,5,7"], ["2,,3", "0,2", "-2,3", ""])
INTS = (["11", "0", "1_000"], ["-5", "-1_000", "x1", "9" * 4301])
OUTPUT = (["text", "json"], ["xml", "-x"])
ARGV_OPTIONS = {
    "count": {
        "--parts": PARTS,
        "--n": INTS,
        "--method": (["oracle", "theorem1", "closed-form"], ["nope", "-x"]),
        "--output": OUTPUT,
    },
    "bb": {"--parts": PARTS, "--max-index": INTS, "--output": OUTPUT},
    "bernoulli": {"--max-index": INTS, "--output": OUTPUT},
    "theorem2": {"--parts": PARTS, "--x": INTS, "--output": OUTPUT},
    "theorem3": {"--parts": PARTS, "--x": INTS, "--output": OUTPUT},
    "verify": {
        name: INTS
        for name in ("--trials", "--seed", "--k-min", "--k-max", "--max-part", "--max-product")
    }
    | {"--output": OUTPUT},
}
LONE_TOKENS = ["-h", "--help", "--", "", "-5", "--frob", "7"]


@st.composite
def bind_argvs(draw):
    """A subcommand and its tokens: mostly plain `--name value` pairs, each
    option left out at times, and among them abbreviations, `--name=value`,
    repeats, odd values and lone tokens."""
    subcommand = draw(st.sampled_from(sorted(ARGV_OPTIONS)))
    options = ARGV_OPTIONS[subcommand]
    names = [name for name in draw(st.permutations(sorted(options))) if draw(st.integers(0, 5))]
    if draw(st.integers(0, 7)) == 0:
        names.append(draw(st.sampled_from(sorted(options))))  # a repeat
    tokens = []
    for name in names:
        plain, odd = options[name]
        value = draw(st.sampled_from(plain if draw(st.integers(0, 4)) else odd))
        form = draw(st.integers(0, 19))
        if form == 0:
            name = name[: draw(st.sampled_from([3, 5]))]
        if form == 1:
            tokens.append(f"{name}={value}")
        else:
            tokens += [name, value]
    if draw(st.integers(0, 7)) == 0:
        tokens.insert(draw(st.integers(0, len(tokens))), draw(st.sampled_from(LONE_TOKENS)))
    return subcommand, tokens


def outcome(call):
    """(the result or exit code of call(), its stdout, its stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            result = call()
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


class TestDispatch:
    """An argv that names a subcommand is parsed by that subcommand's parser."""

    VALID = [
        ("count", "--parts", "2,3", "--n", "11"),
        ("count", "--parts=2,3,5", "--n=59", "--meth", "waves", "--output=json"),
        ("count", "--parts", "2,3", "--n", "7", "--parts", "3,5"),
        ("bb", "--parts", "2,3,5", "--max-index", "3"),
        ("bernoulli", "--max-index=4", "--output", "json"),
        ("theorem2", "--parts", "2,3,5", "--x", "1"),
        ("theorem3", "--parts", "3,5,7", "--x=15", "--output", "text"),
        ("verify",),
        ("verify", "--trials", "3", "--seed", "4", "--k-max", "3", "--seed", "9"),
    ]

    PARSES = [0, 1, 1, 0, 1, 0, 1, 0, 1]

    @pytest.mark.parametrize(
        "argv, parses", list(zip(VALID, PARSES, strict=True)), ids=map(" ".join, VALID)
    )
    def test_one_parse_per_valid_run(self, monkeypatch, argv, parses):
        # the argv reaches _dispatch as the Namespace the top-level parser
        # gives it.  Work gate: plain `--name value` argv are bound from the
        # subcommand parser's option table with no argparse parse; `=`, the
        # `--meth` abbreviation or a repeated option is parsed once, by that
        # parser alone
        handed, expected = [], _build_parser()[0].parse_args(list(argv))
        parsed = calls(monkeypatch, argparse.ArgumentParser, "parse_known_args")
        monkeypatch.setattr(cli, "_dispatch", lambda args: handed.append(args) or 0)
        assert run(list(argv)) == 0
        assert [parser.prog for parser, *_ in parsed] == [f"denumerant {argv[0]}"] * parses
        assert handed == [expected]

    @settings(max_examples=400)
    @given(bind_argvs())
    @example(("theorem2", ["--parts", "2,3", "--x", "-1_000"]))  # a value read as an option
    @example(("count", ["--n", "11", "--method", "waves"]))  # --parts left out
    def test_bind_agrees_with_argparse(self, drawn):
        # _bind gives None or the Namespace parse_args gives, and run prints
        # and exits as it does when argparse parses every argv
        subcommand, tokens = drawn
        subparser = _build_parser()[1][subcommand]
        bound = cli._bind(subcommand, tokens)
        if bound is not None:
            assert outcome(lambda: subparser.parse_args(tokens)) == (bound, "", "")

        def echo(args):
            print(sorted(vars(args).items()))
            return 0

        argv = [subcommand, *tokens]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli, "_dispatch", echo)
            bound_run = outcome(lambda: run(argv))
            patch.setattr(cli, "_bind", lambda subcommand, tokens: None)
            assert outcome(lambda: run(argv)) == bound_run

    # exit code and the first 16 hex digits of the sha256 of stdout and of
    # stderr: the top-level argv as before subcommands were dispatched by name,
    # and each subcommand's help as before its parser was built from _OPTIONS
    @pytest.mark.parametrize(
        "argv, expected",
        [
            ((), (2, "e3b0c44298fc1c14", "0bb075338d82c58a")),
            (("-h",), (0, "7f367cb4456510a2", "e3b0c44298fc1c14")),
            (("nope",), (2, "e3b0c44298fc1c14", "ec2a94a6b1213552")),
            (
                ("--", "count", "--parts", "2,3", "--n", "11"),
                (2, "e3b0c44298fc1c14", "e2f2ac8285574d45"),
            ),
            (("count", "-h"), (0, "61b038e6153563c7", "e3b0c44298fc1c14")),
            (("bb", "-h"), (0, "fe2bbaffb2520b9a", "e3b0c44298fc1c14")),
            (("bernoulli", "-h"), (0, "9e99f5986ad2f2e4", "e3b0c44298fc1c14")),
            (("theorem2", "-h"), (0, "50e7a33fc054fe0f", "e3b0c44298fc1c14")),
            (("theorem3", "-h"), (0, "ee230140471e1344", "e3b0c44298fc1c14")),
            (("verify", "-h"), (0, "4377ab3ab081a51e", "e3b0c44298fc1c14")),
        ],
        ids=["none", "-h", "nope", "-- count"]
        + [f"{name} -h" for name in ("count", "bb", "bernoulli", "theorem2", "theorem3", "verify")],
    )
    def test_top_level_argv_unchanged(self, monkeypatch, capsys, argv, expected):
        monkeypatch.setenv("COLUMNS", "80")  # the usage text wraps at the width
        code, out, err = invoke(capsys, *argv)
        assert (code, sha16(out), sha16(err)) == expected

    def test_unknown_flag_reported_by_the_subcommand(self, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")
        code, out, err = invoke(capsys, "count", "--parts", "2,3", "--n", "5", "--frob", "1")
        assert (code, out) == (2, "")
        assert err.startswith("usage: denumerant count ")
        assert err.endswith("denumerant count: error: unrecognized arguments: --frob 1\n")


# Values for the run fuzz.  Parts are small, or so large that a step sized by
# a part rather than by n fails at once instead of filling memory.
HUGE_PARTS = (10 ** 18, 2 ** 64, 10 ** 30)
RUN_VALUES = {
    "--parts": st.lists(
        st.integers(1, 13) | st.sampled_from(HUGE_PARTS), min_size=1, max_size=5
    ).map(lambda values: ",".join(map(str, values))),
    "--n": st.integers(-2, 60),
    "--x": st.integers(-2, 60),
    "--trials": st.integers(0, 3),
    "--seed": st.integers(0, 9),
    "--k-min": st.integers(1, 4),
    "--k-max": st.integers(1, 4),
    "--max-part": st.integers(1, 13),
    "--max-product": st.integers(1, 20000),
}
MAX_INDEX = {"bb": 40, "bernoulli": 300}


@st.composite
def run_argvs(draw):
    """A subcommand and a value for each of its options from _OPTIONS, each
    optional one left out at times."""
    subcommand = draw(st.sampled_from(sorted(cli._OPTIONS)))
    argv = [subcommand]
    for name, (kind, default) in cli._OPTIONS[subcommand][1].items():
        if default is not None and draw(st.booleans()):
            continue
        if isinstance(kind, tuple):
            value = draw(st.sampled_from(kind))
        elif name == "--max-index":
            value = draw(st.integers(0, MAX_INDEX[subcommand]))
        else:
            value = draw(RUN_VALUES[name])
        argv += [name, str(value)]
    return argv


class TestRunFuzz:
    @settings(max_examples=200)
    @given(run_argvs())
    # a part far past n among the oracle's tabulated parts, not the largest
    @example(["count", "--parts", f"2,3,{10 ** 18},{2 ** 64}", "--n", "11"])
    @example(
        ["count", "--parts", f"2,3,{2 ** 64},{10 ** 30}", "--n", "0", "--method", "oracle"]
    )
    def test_every_argv_ends_in_its_exit_code(self, argv):
        # no traceback: 0, 2 (usage) or 3 (refused, nothing on stdout), and 1
        # only from verify's failures
        code, out, err = outcome(lambda: run(argv))
        assert code in ({0, 1, 2, 3} if argv[0] == "verify" else {0, 2, 3})
        assert "Traceback" not in err
        assert code in (0, 1) or out == ""


class TestVerify:
    def test_elapsed_goes_to_stderr_not_stdout(self, capsys):
        code, out, err = invoke(capsys, "verify", "--trials", "5")
        assert code == 0
        assert "elapsed" not in out
        assert "elapsed" in err

    ALL_CHECKS = (
        "theorem1", "section3", "closed-form", "waves",
        "theorem2", "closed-form-theorem2", "theorem3",
    )
    PAST_FIVE = ("theorem1", "section3", "waves", "theorem2", "theorem3")

    @pytest.mark.parametrize(
        "values, checks",
        [
            ((7,), ("theorem1", "waves")),
            ((1,), ("theorem1", "waves")),
            ((2, 3), ALL_CHECKS),
            ((1, 2), ALL_CHECKS[:6]),
            ((1, 2, 3), ALL_CHECKS),
            ((1, 2, 3, 5), ALL_CHECKS),
            ((1, 2, 3, 5, 7), ALL_CHECKS),
            ((1, 2, 3, 5, 7, 11), PAST_FIVE),
            ((1, 2, 3, 5, 7, 11, 13), PAST_FIVE),
        ],
        ids=lambda v: ",".join(map(str, v)) if isinstance(v[0], int) else "",
    )
    def test_rows_apply_where_their_routes_accept(self, values, checks):
        # every check applicable to the set runs once, counted at its arity,
        # in report order: section3 from k = 2, the closed forms up to k = 5,
        # theorem3 while the sum is at most the product: (1,2,3) has both 6,
        # and (1,2) a sum of 3 over a product of 2.  verify's arity domains
        # against the routes' own: every other row's route refuses the set at
        # an argument it would otherwise take (x = 1, or x3 = S)
        parts, ran = PartSet(values), Counter()
        n = 2 * parts.product + 1
        assert verify._check_trial(0, parts, n, random.Random(0), ran) == []
        assert list(ran.items()) == [((check, len(values)), 1) for check in checks]
        arguments = {"n": n, "x": 1, "x3": parts.total}
        for check, *_, arg, formula in verify.CHECKS:
            if check not in checks:
                with pytest.raises((UnsupportedArityError, RangeError)):
                    formula(parts, arguments[arg])

    def test_every_count_method_but_the_oracle_has_a_row_at_n(self):
        # a new `count --method` route cannot ship without its verify row
        methods = cli._OPTIONS["count"][1]["--method"][0]
        assert methods == ("oracle", "theorem1", "section3", "closed-form", "waves")
        rows = {check for check, _, _, arg, *_ in verify.CHECKS if arg == "n"}
        assert set(methods) - {"oracle"} <= rows

    ARGV_ROUTES = (
        (("count", "--n", "59", "--method", "oracle"), oracle, "oracle_count"),
        (("count", "--n", "59", "--method", "theorem1"), reductions, "theorem1_count"),
        (("count", "--n", "59", "--method", "section3"), reductions, "section3_count"),
        (("count", "--n", "59", "--method", "closed-form"), reductions, "closed_form_count"),
        (("count", "--n", "59", "--method", "waves"), waves, "waves_count"),
        (("theorem2", "--x", "7"), reductions, "theorem2_count"),
        (("theorem3", "--x", "12"), reductions, "theorem3_rhs"),
    )

    @pytest.mark.parametrize(
        "argv, module, route", ARGV_ROUTES, ids=[route for *_, route in ARGV_ROUTES]
    )
    def test_argv_routes_are_looked_up_when_they_run(
        self, capsys, monkeypatch, argv, module, route
    ):
        # a route rebound on its module after import and after a first run (a
        # test's monkeypatch, or the span tracer in perfbench/spans.py) is the
        # one the CLI runs
        assert invoke(capsys, *argv, "--parts", "2,3,5")[0] == 0
        monkeypatch.setattr(module, route, lambda parts, given: 10 ** 40 + given)
        code, out, _ = invoke(capsys, *argv, "--parts", "2,3,5")
        assert (code, out) == (0, f"{10 ** 40 + int(argv[2])}\n")

    def test_waves_row_reads_the_waves_at_n(self, monkeypatch):
        # a waves count off by one from n = P on: the other routes take the
        # waves only at r < P, so only the waves row sees it
        real = waves.waves_count
        monkeypatch.setattr(
            waves, "waves_count", lambda parts, n: real(parts, n) + (n >= parts.product)
        )
        failures, _, _ = run_verify(
            trials=50, seed=0, k_min=1, k_max=5, max_part=13, max_product=20000
        )
        assert failures and {failure.check for failure in failures} == {"waves"}

    def test_closed_form_row_reads_the_closed_form_count(self, monkeypatch):
        # count --method closed-form with its correction subtracted, not added
        def mutant(parts, n):
            _, r = reductions.decompose(parts, n)
            return waves_count(parts, r) - reductions.closed_form_correction(parts, n)

        monkeypatch.setattr(reductions, "closed_form_count", mutant)
        failures, _, _ = run_verify(
            trials=50, seed=0, k_min=2, k_max=5, max_part=13, max_product=20000
        )
        assert failures and {failure.check for failure in failures} == {"closed-form"}

    def test_as_many_parts_as_the_largest_part(self, capsys):
        argv = ("--trials", "5", "--k-max", "3", "--max-part", "3")
        code, out, _ = invoke(capsys, "verify", *argv)
        assert (code, out) == (0, "trials: 5\nseed: 0\nfailures: 0\n")

    @pytest.fixture(scope="class")
    def sweep_work(self):
        """75 50-trial sweeps from cold oracle caches: the kernel calls of the
        first ten, as entries filled per call, and of all 75; the calls each
        trial made; the first sweep's result; and the reports they built."""
        per_trial, check_trial = [], verify._check_trial

        def counting_check(*args):
            before = len(kernels)
            reports = check_trial(*args)
            per_trial.append(len(kernels) - before)
            return reports

        with pytest.MonkeyPatch.context() as patch, kernel_calls() as kernels:
            patch.setattr(verify, "_check_trial", counting_check)
            reports = calls(patch, verify, "TheoremReport")
            sweeps = [run_verify(50, seed, 2, 5, 13, 20000) for seed in range(10)]
            first_ten = [call.filled for call in kernels]
            sweeps += [run_verify(50, seed, 2, 5, 13, 20000) for seed in range(10, 75)]
        filled = [call.filled for call in kernels]
        return SimpleNamespace(first_ten=first_ten, filled=filled, per_trial=per_trial,
                               first=sweeps[0], reports=reports)

    def test_one_table_per_trial(self, sweep_work):
        assert len(sweep_work.per_trial) == 3750 and max(sweep_work.per_trial) == 1

    def test_sweep_work_bounded(self, sweep_work):
        """Work gate: the oracle cache keeps a sweep's tables across trials.

        These ten sweeps make 147 kernel calls filling 937,270 entries, as
        held tables are extended or serve the sets one part narrower (257
        filling 1,092,314 when each set's own table was built); their tables
        fit in the byte budget under 10 MiB and 16 MiB alike.  Rebuilding a short table from n = 0 at
        twice its length made 245 builds filling 1,630,479 entries, and
        extending a short table only to n, not by a quarter, 148 filling 913,874.
        """
        first_ten = sweep_work.first_ten
        assert 0 < len(first_ten) <= 160 and sum(first_ten) <= 1_000_000

    def test_working_set_held_across_a_long_sweep(self, sweep_work):
        """Work gate: 75 sweeps' tables stay held under the byte budget.

        Held to 16 MiB they make 271 kernel calls filling 1,651,150 entries,
        581 filling 2,209,961 when each set's own table was built.
        Under 10 MiB, short of their ~12.5 MiB working set, tables were dropped
        and built again: 726 calls filling 3,351,075 entries.  Extending a
        short table only to n, not by a quarter, made 302 calls filling
        1,626,995, past the bound on calls.
        """
        work = sweep_work.filled
        assert 0 < len(work) <= 290 and sum(work) <= 1_800_000

    def test_no_trial_discards_an_oracle_value(self, monkeypatch):
        """In every trial, the oracle lookups are distinct, the first is the
        largest, so one table serves them all, and together they are exactly
        the values its rows read.

        The rows read p(n) (theorem1, section3, closed-form), p(P - x)
        (theorem2, closed-form-theorem2), and p(P - x) and p(x - S) (theorem3):
        each oracle side the trial runs is recorded with its argument.
        """
        trials, sides, check_trial = [], [], verify._check_trial
        lookups = calls(monkeypatch, oracle, "oracle_count")

        def read(kind, parts, arg):
            if kind == "n":
                return {arg}
            if kind == "x3":
                return {parts.product - arg, arg - parts.total}
            return {parts.product - arg}

        def recording(kind, side):
            def recorded(p, parts, arg):
                sides.append(read(kind, parts, arg))
                return side(p, parts, arg)

            return recorded

        def counting_check(*args):
            before, read_before = len(lookups), len(sides)
            failures = check_trial(*args)
            trials.append(([n for _, n in lookups[before:]], set().union(*sides[read_before:])))
            return failures

        monkeypatch.setattr(verify, "_check_trial", counting_check)
        monkeypatch.setattr(
            verify,
            "_ORACLE_SIDES",
            {kind: recording(kind, side) for kind, side in verify._ORACLE_SIDES.items()},
        )
        for seed in range(5):
            run_verify(
                trials=50, seed=seed, k_min=1, k_max=6, max_part=13, max_product=20000
            )
        assert len(trials) == 250
        assert all(len(made) == len(set(made)) for made, _ in trials)
        assert all(made[0] == max(made) for made, _ in trials)
        assert all(set(made) == rows_read for made, rows_read in trials)
        # theorem3 reads two values and often shares none with the other rows
        assert any(len(made) >= 4 for made, _ in trials)

    def test_passing_sweep_counts_its_checks_and_reports_none(self, sweep_work):
        """The trials drawn at each arity, and the trials that ran each row at
        each arity, in run_verify(50, 0, 2, 5, 13, 20000): every row runs in
        every trial of k = 2..5 but theorem3, which 5 two-part sets skip,
        their sum past their product.

        Work gate: a report is built only for a check that fails, so these
        passing sweeps build none.  Building one for every row that ran made
        345 in the first.
        """
        failures, ran, arities = sweep_work.first
        assert failures == () and sweep_work.reports == []
        assert arities == {2: 14, 3: 17, 4: 5, 5: 14}
        expected = {(check, k): drawn for check in self.ALL_CHECKS for k, drawn in arities.items()}
        expected["theorem3", 2] = 9
        assert ran == expected and sum(ran.values()) == 345

    def test_more_parts_than_max_part_refused_before_any_draw(self, monkeypatch):
        forbid(monkeypatch, verify, "random_coprime_partset")
        message = r"cannot draw 3 distinct parts from \[1, 2\]"
        for trials in (0, 5):
            with pytest.raises(DomainError, match=message):
                run_verify(
                    trials=trials, seed=0, k_min=2, k_max=3, max_part=2, max_product=100
                )

    def test_unreachable_arity_refused_before_any_draw(self, monkeypatch, capsys):
        # no pairwise-coprime 2000-subset of [1, 2000] has a product up to 10^5:
        # the least product, 1 times the first 1999 primes, passes it by the 7th prime
        forbid(monkeypatch, verify, "random_coprime_partset")
        argv = ("--trials", "1", "--k-min", "2000", "--k-max", "2000", "--max-part", "2000")
        code, out, err = invoke(capsys, "verify", *argv)
        assert (code, out) == (3, "")
        assert err == "error: no pairwise-coprime 2000-subset of [1, 2000] has product <= 100000\n"

    @pytest.mark.parametrize(
        "argv, code",
        [
            # 1, 2, 3, 5, 7, 11, 13 is the one coprime 7-subset of [1, 13] under 30031
            (("--max-part", "13", "--max-product", "30030"), 0),
            (("--max-part", "13", "--max-product", "30029"), 3),
            # 7 parts need the 6 primes up to 13
            (("--max-part", "12", "--max-product", "1000000000"), 3),
        ],
    )
    def test_unreachable_arity_boundary(self, capsys, argv, code):
        done, out, _ = invoke(capsys, "verify", "--trials", "0", "--k-max", "7", *argv)
        assert (done, out) == (code, "trials: 0\nseed: 0\nfailures: 0\n" if code == 0 else "")

    @pytest.mark.parametrize(
        "argv, flag, message",
        [
            (["--seed", "a"], "--seed", "invalid int value: 'a'"),
            (["--trials", "x"], "--trials", "expected an integer, got 'x'"),
            (["--k-min", "0"], "--k-min", "expected a positive integer, got 0"),
            (["--k-max", "0"], "--k-max", "expected a positive integer, got 0"),
            (["--max-part", "0"], "--max-part", "expected a positive integer, got 0"),
            (["--max-product", "0"], "--max-product", "expected a positive integer, got 0"),
            # a value that starts with `-` needs the `=` form, or argparse
            # reads it as an option
            (["--k-max=-3"], "--k-max", "expected a positive integer, got -3"),
            (["--max-product=-1"], "--max-product", "expected a positive integer, got -1"),
            (["--trials=-1"], "--trials", "expected a nonnegative integer, got -1"),
            (["--trials", "-1"], "--trials", "expected a nonnegative integer, got -1"),
        ],
    )
    def test_bad_arguments_are_usage_errors(self, capsys, argv, flag, message):
        code, out, err = invoke(capsys, "verify", *argv)
        assert (code, out) == (2, "")
        assert err.startswith("usage: denumerant verify") and "Traceback" not in err
        assert err.splitlines()[-1].endswith(f"error: argument {flag}: {message}")

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_one_arity_per_run(self, monkeypatch, capsys, k):
        # --k-min k --k-max k pins every trial's part set to k parts
        trials = calls(monkeypatch, verify, "_check_trial")
        argv = ("--trials", "20", "--seed", "0", "--k-min", str(k), "--k-max", str(k))
        code, out, _ = invoke(capsys, "verify", *argv)
        assert (code, out) == (0, "trials: 20\nseed: 0\nfailures: 0\n")
        assert [parts.k for _, parts, *_ in trials] == [k] * 20

    def test_oversized_tables_refused_before_the_first_trial(self, monkeypatch):
        # a trial's table has at most 4 * product entries
        monkeypatch.setattr(admission, "MAX_TABLE_ENTRIES", 100)
        arguments = dict(trials=40, seed=0, k_min=2, k_max=3, max_part=13)
        with kernel_calls() as calls:
            with pytest.raises(ResourceLimitError, match="cap of 100"):
                run_verify(max_product=30, **arguments)
            assert calls == []
            failures, _, _ = run_verify(max_product=25, **arguments)
            builds = [call.upper for call in calls]
            assert failures == () and builds and max(builds) < 100
            # the k_max largest parts bound the product too: 4 * 5 * 4 = 80
            run_verify(
                trials=5, seed=0, k_min=2, k_max=2, max_part=5, max_product=10 ** 9
            )

    def test_oversized_tables_refused_at_the_command_line(self, capsys):
        code, out, err = invoke(
            capsys, "verify", "--max-part", "200", "--max-product", "1000000000"
        )
        assert (code, out) == (3, "")
        assert err.count("\n") == 1 and err.startswith("error: ") and "cap" in err
        assert "Traceback" not in err

    @pytest.fixture
    def theorem1_off_by_one(self, monkeypatch):
        def off_by_one(parts, n):
            return theorem1_count(parts, n) + 1

        monkeypatch.setattr(reductions, "theorem1_count", off_by_one)

    FAILING = ("verify", "--trials", "3", "--k-min", "2", "--k-max", "3")

    def test_failures_reported_as_text(self, theorem1_off_by_one, capsys):
        # the FAIL lines are format_failure's
        failures, _, _ = run_verify(
            trials=3, seed=0, k_min=2, k_max=3, max_part=13, max_product=100000
        )
        expected = [format_failure(f) for f in failures]
        assert len(expected) == 3 and all(
            line.startswith("FAIL theorem1 parts=[") for line in expected
        )
        code, out, _ = invoke(capsys, *self.FAILING)
        assert code == 1 and "failures: 3" in out and sha16(out) == "29229b9dbdf6cb7b"
        assert [line for line in out.splitlines() if line.startswith("FAIL")] == expected

    def test_failures_reported_as_json(self, theorem1_off_by_one, capsys):
        code, out, _ = invoke(capsys, *self.FAILING, "--output", "json")
        assert code == 1 and sha16(out) == "ef74b9f2a609ac3c"
        failures = json.loads(out)["failures"]
        assert [f["check"] for f in failures] == ["theorem1"] * 3
        for failure in failures:
            assert isinstance(failure["lhs"], str) and isinstance(failure["rhs"], str)
            assert int(failure["rhs"]) == int(failure["lhs"]) + 1

    @pytest.fixture
    def waves_off_by_one(self, monkeypatch):
        # reductions binds waves_count by name, so both bindings are rebound:
        # every route at n takes p(r) from the waves
        def off_by_one(parts, n):
            return waves_count(parts, n) + 1

        monkeypatch.setattr(waves, "waves_count", off_by_one)
        monkeypatch.setattr(reductions, "waves_count", off_by_one)

    AT_N = ("theorem1", "section3", "closed-form", "waves")

    @pytest.mark.parametrize(
        "output, digest", [("text", "acd999a99ddbf2f8"), ("json", "30df32860cc608c3")]
    )
    def test_rows_failing_together_keep_report_order(
        self, waves_off_by_one, capsys, output, digest
    ):
        # each trial fails its four rows at n, in CHECKS order, before the
        # next trial's; the digests pin that order in both outputs
        code, out, _ = invoke(capsys, *self.FAILING, "--output", output)
        assert code == 1 and sha16(out) == digest
        failures, _, _ = run_verify(3, 0, 2, 3, 13, 100000)
        assert [(f.check, f.inputs[0]) for f in failures] == [
            (check, ("trial", trial)) for trial in range(3) for check in self.AT_N
        ]

    def test_bernoulli_sources_disagreeing_at_one_index(self, monkeypatch, capsys):
        # B_6 off in the tangent numbers' table alone: one FAIL line, before
        # any trial, and exit 1
        numbers = bernoulli.bernoulli_numbers
        monkeypatch.setattr(
            bernoulli, "bernoulli_numbers", lambda m: numbers(m)[:6] + (F(1, 7),) + numbers(m)[7:]
        )
        code, out, _ = invoke(capsys, "verify", "--trials", "0")
        assert code == 1 and "failures: 1" in out
        fails = [line for line in out.splitlines() if line.startswith("FAIL")]
        assert fails == ["FAIL bernoulli parts=[1] index=6 lhs=1/7 rhs=1/42"]

    def test_draw_stream_pinned(self, theorem1_off_by_one):
        # Every trial fails theorem1 once, so the FAIL lines carry each
        # trial's parts, n, q and r, and through them the x draws between.
        # The digest is that of the two nested sampling loops the single
        # loop replaced: both must draw the same sets.
        failures, _, _ = run_verify(
            trials=200, seed=7, k_min=1, k_max=6, max_part=13, max_product=20000
        )
        lines = "\n".join(format_failure(f) for f in failures)
        assert len(failures) == 200
        assert hashlib.sha256(lines.encode()).hexdigest() == (
            "dcb36646e62707a3e4d21aff6b45cd846c38f8ab939fadabced1504d5c4f8973"
        )

    def test_routes_reached_through_their_modules(self, monkeypatch):
        # perfbench/spans.py and the tests rebind routes on their modules
        # only, so a name bound in verify by import would go unseen.
        names = ("theorem1_count", "section3_count", "closed_form_correction", "theorem2_count",
                 "closed_form_theorem2", "theorem3_rhs")
        made = {name: calls(monkeypatch, reductions, name) for name in names}
        made["oracle_count"] = calls(monkeypatch, oracle, "oracle_count")
        run_verify(trials=30, seed=0, k_min=2, k_max=5, max_part=13, max_product=20000)
        assert all(made.values()), {name: len(args) for name, args in made.items()}


class TestRandomCoprimePartset:
    def test_forced_pair(self):
        rng = random.Random(0)
        assert random_coprime_partset(2, 2, 13 ** 6, rng) == PartSet.of(1, 2)

    @pytest.mark.parametrize("max_part", [13, 100, 100_000, 10 ** 6])
    def test_same_sets_as_sampling_a_tuple(self, max_part):
        # rng.sample draws indices alone, so sampling the range picks the sets
        # that sampling a tuple of its values picked, and each seed checks the
        # same sets; building that tuple took ~3.4 ms a draw at 10^5
        values = tuple(range(1, max_part + 1))
        ours, tuples = random.Random(7), random.Random(7)
        for k in (1, 2, 3, 5, 2, 4):
            max_product = max_part ** k // 4
            draw = tuples.sample(values, k)
            while prod(draw) > max_product or lcm(*draw) != prod(draw):
                draw = tuples.sample(values, k)
            assert random_coprime_partset(k, max_part, max_product, ours) == PartSet(tuple(draw))
        assert ours.getstate() == tuples.getstate()

    def test_exhaustion(self):
        # [1,6] has no six pairwise-coprime values, so every draw is rejected
        rng = random.Random(1)
        with pytest.raises(SamplingExhaustedError):
            random_coprime_partset(6, 6, 13 ** 6, rng)

    def test_bad_arguments(self):
        rng = random.Random(0)
        with pytest.raises(DomainError):
            random_coprime_partset(0, 5, 13 ** 6, rng)
        with pytest.raises(DomainError):
            random_coprime_partset(4, 3, 13 ** 6, rng)


def test_config_defaults():
    parser, _ = _build_parser()
    verify = parser.parse_args(["verify"])
    assert verify.output == "text"
    assert verify.trials == 500
    assert verify.seed == 0
    count = parser.parse_args(["count", "--parts", "2,3", "--n", "5"])
    assert count.method == "oracle"


def test_main_exits(monkeypatch, capsys):
    monkeypatch.setattr(
        "sys.argv", ["denumerant", "count", "--parts", "2,3", "--n", "11"]
    )
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == 0
    assert capsys.readouterr().out == "2\n"


def test_module_entry_point():
    proc = run_module("count", "--parts", "2,3,5", "--n", "100")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == f"{brute_force_count((2, 3, 5), 100)}\n"

    proc = run_module("--help")
    assert proc.returncode == 0 and proc.stdout.startswith("usage: denumerant")
