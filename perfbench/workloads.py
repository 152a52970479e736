"""Seeded argv generation, set-up and output checks for each workload.

Every workload is a deterministic function of (seed, op count): the same pair
always yields the same argv list, and the program under test sees only that
argv.  Input properties that drive cost (polynomial index, table size, digit
count of n, part count) are laid out on fixed strata across the op list, and
the seed only picks concrete part sets, jitter and order inside those strata.
That keeps the total work of a run nearly the same from seed to seed, so the
end-to-end medians are steady, while different seeds still give different
argv.

A Workload gives the argv list (``ops(seed, n_ops)``), does set-up work that
is not timed (``warm(ops)``), and after the run returns the ops whose output
is wrong, each with a reason (``check(ops, outputs)``).
"""

from __future__ import annotations

import contextlib
import io
import random
from fractions import Fraction
from itertools import combinations
from math import comb, factorial, gcd, prod
from typing import Callable, Dict, List, NamedTuple, Sequence, Tuple

Argv = List[str]
Failure = Tuple[int, str]

# Golden-ratio step of a low-discrepancy sequence: frac(offset + i * PHI)
# covers [0, 1) evenly for any offset, so a seeded offset moves every op
# without changing how the ops are spread over a stratum.
PHI = 0.6180339887498949


def _spread(rng: random.Random, count: int) -> List[float]:
    offset = rng.random()
    return [(offset + i * PHI) % 1.0 for i in range(count)]


def _coprime(parts: Sequence[int]) -> bool:
    return all(gcd(a, b) == 1 for a, b in combinations(parts, 2))


def _fmt(parts: Sequence[int]) -> str:
    return ",".join(str(a) for a in parts)


def _parse_parts(text: str) -> Tuple[int, ...]:
    return tuple(int(a) for a in text.split(","))


def _opt(argv: Argv, name: str) -> str:
    return argv[argv.index(name) + 1]


def _draw_coprime(
    rng: random.Random,
    k: int,
    lo: int,
    hi: int,
    accept: Callable[[Tuple[int, ...]], bool] = lambda parts: True,
) -> Tuple[int, ...]:
    population = range(lo, hi + 1)
    while True:
        parts = tuple(sorted(rng.sample(population, k)))
        if _coprime(parts) and accept(parts):
            return parts


def _no_warm(ops: List[Argv]) -> None:
    return None


def _one_unit(argv: Argv) -> int:
    return 1


class Workload(NamedTuple):
    name: str
    # Ops per second on the reference machine (2 vCPU, Python 3.11) at full
    # speed; the op count of a run is seconds * rate.
    rate: float
    ops: Callable[[int, int], List[Argv]]
    check: Callable[[List[Argv], List[str]], List[Failure]]
    warm: Callable[[List[Argv]], None] = _no_warm
    # Work units per op for ops_per_s (verify reports trials per second).
    units: Callable[[Argv], int] = _one_unit


# ---------------------------------------------------------------- bb-high-index

# Index levels.  Most ops share one plateau (k = 4, m = 40) that holds both
# the median op and the latency tail (ten ops beyond it): ranked by cost, the
# two fall inside it, never on a step between levels that a seed could push
# them over.  A few cheap ops cover k = 3, 5, 6 and a few climb to m = 96,
# where the m^2.8 cost growth shows.
BB_MAIN_M = 40
BB_LOW_M = 24
BB_LOW_KS = (3, 5, 6)
BB_TOP_M = (64, 80, 96)
BB_PART_MAX = 13
BB_BERNOULLI_INDEX = 400


def _bb_pools() -> Dict[int, List[Tuple[int, ...]]]:
    """Pairwise-coprime sets of k parts from 2..13, the middle half by product.

    A set's product sets the size of the rationals in its polynomials, and so
    the cost of an op; sets are kept sorted by it.  k = 6 has only six sets,
    all kept.
    """
    pools = {}
    for k in range(3, 7):
        sets = sorted(
            (p for p in combinations(range(2, BB_PART_MAX + 1), k) if _coprime(p)), key=prod
        )
        quarter = len(sets) // 4 if len(sets) > 8 else 0
        pools[k] = sets[quarter : len(sets) - quarter]
    return pools


def _bb_plan(n_bb: int) -> List[Tuple[int, int]]:
    """(m, k) of each bb op; a short run drops the top ops first."""
    low = [(BB_LOW_M, k) for k in BB_LOW_KS]
    top = [(m, 4) for m in BB_TOP_M]
    main = [(BB_MAIN_M, 4)] * max(n_bb - len(low) - len(top), 0)
    return (low + main + top)[:n_bb]


def _bb_ops(seed: int, n_ops: int) -> List[Argv]:
    rng = random.Random(f"bb-high-index:{seed}")
    pools = _bb_pools()
    plan = _bb_plan(n_ops - 1)
    # Part sets are drawn by stratified sampling: the g ops of a group (one
    # level and one k) each draw from their own slice of the pool sorted by
    # product, so every seed spreads the same costs over them.
    groups: Dict[Tuple[bool, int], List[int]] = {}
    for i, (m, k) in enumerate(plan):
        groups.setdefault((m in BB_TOP_M, k), []).append(i)
    ops: List[Argv] = [[] for _ in plan]
    used = set()
    for members in groups.values():
        for slot, i in enumerate(members):
            m, k = plan[i]
            pool = pools[k]
            lo = slot * len(pool) // len(members)
            hi = max((slot + 1) * len(pool) // len(members), lo + 1)
            parts = pool[rng.randrange(lo, hi)]
            while (parts, m) in used:
                m += 1
            used.add((parts, m))
            ops[i] = ["bb", "--parts", _fmt(parts), "--max-index", str(m)]
    rng.shuffle(ops)
    index = BB_BERNOULLI_INDEX + rng.randint(-5, 5)
    ops.insert(rng.randrange(len(ops) + 1), ["bernoulli", "--max-index", str(index)])
    return ops


def _poly_at(coeffs: Sequence[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _bernoulli_minus(m: int) -> List[Fraction]:
    """B_0..B_m with B_1 = -1/2, by the Akiyama-Tanigawa algorithm."""
    out, row = [], []
    for n in range(m + 1):
        row.append(Fraction(1, n + 1))
        for j in range(n, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
        out.append(row[0])
    if m >= 1:
        out[1] = -out[1]
    return out


def _bb_constant(parts: Sequence[int], i: int) -> Fraction:
    """B_i(0; parts): i!/P times [s^i] of prod_j a_j s / (e^{a_j s} - 1).

    Each factor's coefficients are B_n a_j^n / n!, so this multiplies series
    built from Bernoulli numbers, where the package inverts series instead.
    """
    bern = _bernoulli_minus(i)
    acc = [Fraction(1)] + [Fraction(0)] * i
    for a in parts:
        factor = [bern[n] * a ** n / factorial(n) for n in range(i + 1)]
        acc = [sum(acc[j] * factor[n - j] for j in range(n + 1)) for n in range(i + 1)]
    return acc[i] * factorial(i) / prod(parts)


def _check_bb(argv: Argv, text: str) -> str:
    parts = _parse_parts(_opt(argv, "--parts"))
    m = int(_opt(argv, "--max-index"))
    lines = text.splitlines()
    if len(lines) != m + 1:
        return f"expected {m + 1} polynomials, got {len(lines)}"
    product, total = prod(parts), sum(parts)
    # B_i has degree i and leading coefficient 1/P; the reflection
    # B_i(S - x) = (-1)^i B_i(x) holds for every i.  Checked on a few indices.
    for i in sorted({0, 1, m // 2, m - 1, m} - {-1}):
        head, _, body = lines[i].partition(" = ")
        if head != f"B_{i}":
            return f"line {i} is labelled {head!r}"
        coeffs = [Fraction(c) for c in body.strip("[]").split(", ")]
        if len(coeffs) != i + 1 or coeffs[-1] != Fraction(1, product):
            return f"B_{i} does not have degree {i} with leading coefficient 1/{product}"
        for x in (Fraction(0), Fraction(1, 2), Fraction(7, 3)):
            if _poly_at(coeffs, total - x) != (-1) ** i * _poly_at(coeffs, x):
                return f"B_{i} breaks the reflection identity at x={x}"
    # The reflection says nothing about constant terms; check B_m's (the
    # loop ended on it).
    if coeffs[0] != _bb_constant(parts, m):
        return f"B_{m}(0) differs from the Bernoulli-number product"
    return ""


def _check_bernoulli(argv: Argv, text: str) -> str:
    m = int(_opt(argv, "--max-index"))
    lines = text.splitlines()
    if len(lines) != m + 1:
        return f"expected {m + 1} Bernoulli numbers, got {len(lines)}"
    values = []
    for i, line in enumerate(lines):
        head, _, body = line.partition(" = ")
        if head != f"B_{i}":
            return f"line {i} is labelled {head!r}"
        values.append(Fraction(body))
    if values[:3] != [1, Fraction(1, 2), Fraction(1, 6)]:
        return "B_0..B_2 are not 1, 1/2, 1/6"
    if any(values[i] for i in range(3, m + 1, 2)):
        return "an odd-index Bernoulli number beyond B_1 is nonzero"
    # sum_{j<=t} C(t+1, j) B_j = t + 1 in the B_1 = +1/2 convention.
    for t in sorted({2, 10, m // 2, m} & set(range(2, m + 1))):
        if sum(comb(t + 1, j) * values[j] for j in range(t + 1)) != t + 1:
            return f"the recurrence for B_{t} fails"
    return ""


def _check_each(checker: Dict[str, Callable[[Argv, str], str]]):
    def check(ops: List[Argv], outputs: List[str]) -> List[Failure]:
        failures = []
        for i, (argv, text) in enumerate(zip(ops, outputs)):
            reason = checker[argv[0]](argv, text)
            if reason:
                failures.append((i, reason))
        return failures

    return check


# ----------------------------------------------------------- count-cold-product

COLD_TABLE_LO, COLD_TABLE_HI = 50_000, 150_000
COLD_P_LO, COLD_P_HI = 200_000, 1_200_000
COLD_PART_HI = {4: 64, 5: 32}
COLD_N = 10 ** 30
# Outputs of the last ops still have their table cached, so re-running them
# through the other routes costs no DP; that many are cross-checked.
COLD_CROSS_CHECKS = 48


def _cold_ops(seed: int, n_ops: int) -> List[Argv]:
    rng = random.Random(f"count-cold-product:{seed}")
    ops: List[Argv] = []
    used = set()
    for i, u in enumerate(_spread(rng, n_ops)):
        k = 4 + i % 2
        # r = n mod P sets the table size; drawn from fixed strata, so the DP
        # work per run is the same for every seed.
        r = COLD_TABLE_LO + round((COLD_TABLE_HI - COLD_TABLE_LO) * u)
        parts = _draw_coprime(
            rng,
            k,
            3,
            COLD_PART_HI[k],
            lambda p: COLD_P_LO <= prod(p) <= COLD_P_HI and p not in used,
        )
        used.add(parts)
        product = prod(parts)
        n = (COLD_N // product + rng.randrange(1000)) * product + r
        ops.append(["count", "--parts", _fmt(parts), "--n", str(n), "--method", "theorem1"])
    return ops


def _check_cold(ops: List[Argv], outputs: List[str]) -> List[Failure]:
    from denumerant.cli import run

    failures = []
    for i, (argv, text) in enumerate(zip(ops, outputs)):
        if not text.strip().isdigit():
            failures.append((i, f"output is not a count: {text[:40]!r}"))
    for i in range(max(0, len(ops) - COLD_CROSS_CHECKS), len(ops)):
        for method in ("closed-form", "section3"):
            other = _run_quiet(run, ops[i][:-1] + [method])
            if other != outputs[i]:
                failures.append((i, f"theorem1 and {method} disagree"))
    return failures


def _run_quiet(run, argv: Argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return out.getvalue() if code == 0 else f"exit {code}"


# ------------------------------------------------------------------ count-huge-n

HUGE_P_MAX = 31_000
HUGE_SETS_PER_K = 4
HUGE_E_LO = 20
# Python refuses to print an int of more than 4300 digits, and p(n) has about
# (k - 1) * e digits for n ~ 10^e, so e stays below this over (k - 1).
HUGE_VALUE_DIGITS = 3_900
HUGE_BOUNDARY_EVERY = 8


# Candidate parts per k: wide enough for several sets with P <= HUGE_P_MAX,
# narrow enough to enumerate quickly.  Six or seven pairwise-coprime parts
# fit under the product cap only with 1 among them.
HUGE_PART_RANGE = {2: (2, 40), 3: (2, 30), 4: (2, 24), 5: (1, 20), 6: (1, 16), 7: (1, 14)}


def _huge_sets(rng: random.Random) -> List[Tuple[int, ...]]:
    """Up to four sets per k, one from each quarter of the candidates by product.

    The product is the size of the set's warm table, so every seed holds
    about the same memory and pays about the same set-up.
    """
    sets = []
    for k, (lo, hi) in HUGE_PART_RANGE.items():
        candidates = sorted(
            (p for p in combinations(range(lo, hi), k) if prod(p) <= HUGE_P_MAX and _coprime(p)),
            key=prod,
        )
        n = min(HUGE_SETS_PER_K, len(candidates))
        for q in range(n):
            sets.append(candidates[rng.randrange(q * len(candidates) // n, (q + 1) * len(candidates) // n)])
    return sets


def _huge_ops(seed: int, n_ops: int) -> List[Argv]:
    rng = random.Random(f"count-huge-n:{seed}")
    sets = _huge_sets(rng)
    ops: List[Argv] = []
    group = 0
    spread_offset = rng.random()
    while len(ops) < n_ops:
        parts = sets[group % len(sets)]
        k, product, total = len(parts), prod(parts), sum(parts)
        if group % HUGE_BOUNDARY_EVERY == HUGE_BOUNDARY_EVERY - 1:
            x = rng.randint(1, total - 1)
            ops.append(["theorem2", "--parts", _fmt(parts), "--x", str(x)])
            ops.append(["count", "--parts", _fmt(parts), "--n", str(product - x), "--method", "theorem1"])
            if total <= product:
                ops.append(["theorem3", "--parts", _fmt(parts), "--x", str(rng.randint(total, product))])
        else:
            u = (spread_offset + group * PHI) % 1.0
            e_hi = HUGE_VALUE_DIGITS // (k - 1)
            e = HUGE_E_LO + round((e_hi - HUGE_E_LO) * u)
            n = rng.randrange(10 ** (e - 1), 10 ** e)
            methods = ["theorem1", "section3"] + (["closed-form"] if k <= 5 else [])
            for method in methods:
                ops.append(["count", "--parts", _fmt(parts), "--n", str(n), "--method", method])
        group += 1
    return ops


def _warm_huge(ops: List[Argv]) -> None:
    """Fill the oracle table and the Bernoulli-Barnes cache of every set.

    Cold, the first theorem1 op on each of the ~24 sets would build both, and
    those few ops, whose number and cost vary with the seed's sets, would be
    the latency tail.
    """
    from denumerant.bernoulli import bernoulli_barnes
    from denumerant.oracle import oracle_count
    from denumerant.partset import PartSet

    for text in dict.fromkeys(_opt(argv, "--parts") for argv in ops):
        parts = PartSet(_parse_parts(text))
        oracle_count(parts, parts.product - 1)
        bernoulli_barnes(parts, parts.k)


def _check_huge(ops: List[Argv], outputs: List[str]) -> List[Failure]:
    from denumerant.oracle import oracle_count
    from denumerant.partset import PartSet

    failures = []
    seen: Dict[Tuple[str, int], Tuple[int, str]] = {}
    for i, (argv, text) in enumerate(zip(ops, outputs)):
        parts_text = _opt(argv, "--parts")
        if argv[0] == "theorem3":
            # p(P - x) + (-1)^k p(x - S), both arguments below P: table lookups.
            parts = PartSet(_parse_parts(parts_text))
            x = int(_opt(argv, "--x"))
            expected = oracle_count(parts, parts.product - x) + (-1) ** parts.k * oracle_count(
                parts, x - parts.total
            )
            if text != f"{expected}\n":
                failures.append((i, "theorem3 disagrees with the oracle"))
            continue
        if argv[0] == "theorem2":
            parts = PartSet(_parse_parts(parts_text))
            n = parts.product - int(_opt(argv, "--x"))
        else:
            n = int(_opt(argv, "--n"))
        if not text.strip().isdigit():
            failures.append((i, f"output is not a count: {text[:40]!r}"))
            continue
        key = (parts_text, n)
        if key in seen and seen[key][1] != text:
            failures.append((i, f"routes disagree with op {seen[key][0]} on the same (parts, n)"))
        seen.setdefault(key, (i, text))
    return failures


# ----------------------------------------------------------------- verify-sweep

VERIFY_TRIALS = 50
# Caps the product of a trial's parts, so the oracle table of one trial has at
# most 4 * 20000 entries.  With the CLI's default cap of 10^5, a few huge-table
# trials decide a call's time and the median call moves by ~10% with the seed.
VERIFY_MAX_PRODUCT = 20_000


def _verify_ops(seed: int, n_ops: int) -> List[Argv]:
    rng = random.Random(f"verify-sweep:{seed}")
    seeds = rng.sample(range(2 ** 31), n_ops)
    return [
        ["verify", "--trials", str(VERIFY_TRIALS), "--seed", str(s), "--max-product", str(VERIFY_MAX_PRODUCT)]
        for s in seeds
    ]


def _check_verify(argv: Argv, text: str) -> str:
    expected = [f"trials: {_opt(argv, '--trials')}", f"seed: {_opt(argv, '--seed')}", "failures: 0"]
    if text.splitlines() != expected:
        return f"verify did not report a clean sweep: {text[:80]!r}"
    return ""


def _verify_units(argv: Argv) -> int:
    return int(_opt(argv, "--trials"))


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "bb-high-index",
            rate=6.0,
            ops=_bb_ops,
            check=_check_each({"bb": _check_bb, "bernoulli": _check_bernoulli}),
        ),
        Workload("count-cold-product", rate=38.0, ops=_cold_ops, check=_check_cold),
        Workload("count-huge-n", rate=820.0, ops=_huge_ops, check=_check_huge, warm=_warm_huge),
        Workload(
            "verify-sweep",
            rate=15.0,
            ops=_verify_ops,
            check=_check_each({"verify": _check_verify}),
            units=_verify_units,
        ),
    )
}
