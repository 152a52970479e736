"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Criteria 4-7 are property tests in test_reductions.py: theorem2 and
theorem3 totality are `TestTheorem2::test_total_on_its_domain` and
`TestTheorem3::test_total_on_its_domain`, with the fixed part sets as
explicit examples; the recursion equivalence is
`TestSection3::test_agrees_with_the_correction_sum`; and the closed-form
equivalence is `TestClosedForms::test_correction_equivalence` and
`TestClosedForms::test_theorem2_equivalence`.

Every check is exact equality or a bound on deterministic work; there are
no tolerances anywhere, and no check reads the clock.  The lines
are printed outside pytest's capture so they appear in the run log either
way.
"""

import json
import random
import time
from fractions import Fraction

from denumerant import oracle
from denumerant.bernoulli import bernoulli_barnes, bernoulli_numbers, log_coefficients
from denumerant.cli import run
from denumerant.oracle import oracle_count
from denumerant.partset import PartSet
from denumerant.reductions import theorem1_count, theorem2_count, theorem3_rhs

from helpers import bb_coeffs, bb_polys_by_factor_order, cold_caches, coprime_part_tuples

F = Fraction


def _report(capsys, name: str, ok: bool, detail: str = "") -> None:
    line = f"{'PASS' if ok else 'FAIL'} {name}"
    if detail:
        line += f" ({detail})"
    with capsys.disabled():
        print(line)
    assert ok, line


def test_criterion_1_constant_tables(capsys):
    started = time.perf_counter()
    numbers_ok = list(bernoulli_numbers(4)) == [F(1), F(1, 2), F(1, 6), F(0), F(-1, 30)]
    logs_ok = list(log_coefficients(4)) == [F(-1, 2), F(-1, 24), F(0), F(1, 2880)]
    elapsed = time.perf_counter() - started
    ok = numbers_ok and logs_ok
    _report(capsys, "criterion 1: constant tables", ok, f"{elapsed:.3f}s")


def test_criterion_2_corollary_spot_values(capsys):
    problems = []
    two_three = PartSet.of(2, 3)
    for x in range(1, 5):
        if theorem2_count(two_three, x) != 1:
            problems.append(f"k=2 formula at x={x}")
        if oracle_count(two_three, 6 - x) != 1:
            problems.append(f"k=2 oracle at x={x}")
    abc = PartSet.of(2, 3, 5)
    for x in range(1, 10):
        if theorem2_count(abc, x) != 20 - x:
            problems.append(f"k=3 formula at x={x}")
        if oracle_count(abc, 30 - x) != 20 - x:
            problems.append(f"k=3 oracle at x={x}")
    for combo, expected in (((2, 3, 5), 11), ((3, 5, 7), 46)):
        parts = PartSet(combo)
        p, s = parts.product, parts.total
        if (p - s) // 2 + 1 != expected:
            problems.append(f"identity value for {combo}")
        if oracle_count(parts, p - s) != expected:
            problems.append(f"oracle at product-sum for {combo}")
        if theorem3_rhs(parts, s) != expected - 1:  # minus the count at zero
            problems.append(f"two-sided route for {combo}")
    _report(
        capsys,
        "criterion 2: corollary spot values",
        not problems,
        "; ".join(problems) if problems else "4+9+2 values",
    )


def test_criterion_3_reduction_sweep(capsys, monkeypatch):
    # work gate: from cold caches the sweep's oracle fills 288,149 table
    # entries (2,574 kernel calls); a table rebuilt where a held one serves
    # passes the bound
    cold_caches()
    filled = []
    kernel = oracle._dp_counts

    def counted_kernel(*args):
        entries = kernel(*args)
        filled.append(len(entries))
        return entries

    monkeypatch.setattr(oracle, "_dp_counts", counted_kernel)
    started = time.perf_counter()
    rng = random.Random(0)
    combos = coprime_part_tuples(13, (2, 3, 4), max_product=3000)
    checked = 0
    mismatches = []
    for combo in combos:
        parts = PartSet(combo)
        product = parts.product
        residues = {0, 1, product // 2, product - 1}
        residues.update(rng.randrange(product) for _ in range(50))
        for q in (0, 1, 2):
            for r in sorted(residues):
                n = q * product + r
                checked += 1
                if theorem1_count(parts, n) != oracle_count(parts, n):
                    mismatches.append((combo, n))
    elapsed = time.perf_counter() - started
    ok = not mismatches and sum(filled) <= 300_000
    detail = (
        f"{len(combos)} part sets, {checked} instances, {len(filled)} kernel calls,"
        f" {sum(filled)} entries, {elapsed:.1f}s"
    )
    if mismatches:
        detail += f"; first mismatch {mismatches[0]}"
    _report(capsys, "criterion 3: reduction sweep", ok, detail)


def test_criterion_8_bernoulli_barnes_properties(capsys):
    rng = random.Random(0)
    problems = []
    pool = coprime_part_tuples(13, (1, 2, 3, 4))
    for _ in range(50):
        combo = rng.choice(pool)
        parts = PartSet(combo)
        p, s = parts.product, parts.total
        table = bernoulli_barnes(parts, 4)
        if bb_coeffs(table[0]) != (F(1, p),):
            problems.append(f"constant term for {combo}")
        if bb_coeffs(table[1]) != (F(-s, 2 * p), F(1, p)):
            problems.append(f"linear term for {combo}")
        if parts.k >= 2:
            for m in range(1, 5):
                for a_j in parts:
                    # both sides have degree at most m: m + 1 points decide
                    others = PartSet(tuple(a for a in parts if a != a_j))
                    smaller = bernoulli_barnes(others, m - 1)
                    for x in range(m + 1):
                        shifted = table[m].at(x + a_j) - table[m].at(x)
                        if shifted != m * smaller[m - 1].at(x):
                            problems.append(f"shift identity for {combo}, m={m}")
        shuffled = list(combo)
        rng.shuffle(shuffled)
        manual = bb_polys_by_factor_order(shuffled, 4)
        if [bb_coeffs(entry) for entry in table] != manual:
            problems.append(f"factor order for {combo}")
    _report(
        capsys,
        "criterion 8: polynomial properties",
        not problems,
        "; ".join(problems[:3]) if problems else "50 part sets, indices to 4",
    )


def test_criterion_9_cli_contract(capsys):
    problems = []
    rng = random.Random(0)
    pool = coprime_part_tuples(13, (2, 3, 4))

    def capture(*argv):
        code = run(list(argv))
        return code, capsys.readouterr().out

    for _ in range(50):
        combo = rng.choice(pool)
        parts = PartSet(combo)
        n = rng.randint(0, 3) * parts.product + rng.randrange(parts.product)
        outputs = set()
        for method in ("oracle", "theorem1", "section3", "closed-form", "waves"):
            code, out = capture(
                "count",
                "--parts",
                ",".join(map(str, combo)),
                "--n",
                str(n),
                "--method",
                method,
            )
            if code != 0:
                problems.append(f"exit {code} for {combo}, n={n}, {method}")
            outputs.add(out)
        if len(outputs) != 1:
            problems.append(f"methods disagree for {combo}, n={n}")

    code, out = capture(
        "count", "--parts", "2,3,5", "--n", "59", "--output", "json"
    )
    payload = json.loads(out)
    if int(payload["value"]) != 68 or payload["parts"] != [2, 3, 5]:
        problems.append("json payload mismatch")

    _report(
        capsys,
        "criterion 9: cli contract",
        not problems,
        "; ".join(problems[:3]) if problems else "5 methods x 50 inputs, json",
    )
