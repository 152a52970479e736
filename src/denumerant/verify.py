"""Seeded random cross-checks of every identity against the oracle, after
the Bernoulli numbers' two sources are checked against each other.

Each check is one row of ``CHECKS``, in report order: name, least and most
arity, the drawn argument it reads, and its formula side.  The argument's
kind gives the oracle side, from the trial's lookups p (``_ORACLE_SIDES``).
A trial walks the rows once, counts each row it runs by arity, and reports
only a row whose two sides differ, so a sweep returns what it checked
beside what failed.  The CLI runs the formula sides: `count --method <name>` takes the rows at n,
and `theorem2` and `theorem3` their rows, so every method but the oracle has
a count row by construction.  The routes are reached through their modules
(``oracle.oracle_count``, ``reductions.theorem1_count``, ``waves.waves_count``),
not bound here by name, so that rebinding a route on its module (a test's
monkeypatch, or the span tracer in perfbench/spans.py) reaches the sweep and
the CLI too.
"""

from __future__ import annotations

import random
from collections import Counter
from math import inf, isqrt, lcm, prod
from typing import Dict, List, NamedTuple, Tuple

from . import admission, bernoulli, oracle, reductions, waves
from .errors import DomainError, SamplingExhaustedError
from .partset import PartSet


class TheoremReport(NamedTuple):
    """One checked identity instance: oracle side vs formula side."""

    check: str
    parts: PartSet
    inputs: Tuple[Tuple[str, int], ...]
    lhs: int
    rhs: int


def random_coprime_partset(
    k: int, max_part: int, max_product: int, rng: random.Random
) -> PartSet:
    """Draw a pairwise-coprime set of k distinct parts from [1, max_part].

    Plain rejection sampling: draw k distinct values, accept the first draw
    with product at most max_product that is pairwise coprime.  Only the
    accepted draw becomes a PartSet.  Deterministic given the rng state.
    """
    if k < 1:
        raise DomainError(f"need at least one part, got k={k}")
    if max_part < k:
        raise DomainError(f"cannot draw {k} distinct parts from [1, {max_part}]")
    population = range(1, max_part + 1)
    for _ in range(10_000):
        draw = rng.sample(population, k)
        product = prod(draw)
        if product <= max_product and lcm(*draw) == product:
            return PartSet(tuple(draw))
    raise SamplingExhaustedError(
        f"no pairwise-coprime {k}-subset of [1, {max_part}]"
        f" with product <= {max_product} in 10000 draws"
    )


# A row's oracle side, by the argument it reads: p(n), p(P - x), and for x3
# the two-sided p(P - x) + (-1)^k p(x - S).
_ORACLE_SIDES = {
    "n": lambda p, parts, n: p(n),
    "x": lambda p, parts, x: p(parts.product - x),
    "x3": lambda p, parts, x: p(parts.product - x) + (-1) ** parts.k * p(x - parts.total),
}

CHECKS = (
    ("theorem1", 1, inf, "n", lambda parts, n: reductions.theorem1_count(parts, n)),
    ("section3", 2, inf, "n", lambda parts, n: reductions.section3_count(parts, n)),
    ("closed-form", 2, 5, "n", lambda parts, n: reductions.closed_form_count(parts, n)),
    ("waves", 1, inf, "n", lambda parts, n: waves.waves_count(parts, n)),
    ("theorem2", 2, inf, "x", lambda parts, x: reductions.theorem2_count(parts, x)),
    ("closed-form-theorem2", 2, 5, "x",
     lambda parts, x: reductions.closed_form_theorem2(parts, x)),
    ("theorem3", 2, inf, "x3", lambda parts, x: reductions.theorem3_rhs(parts, x)),
)


def _check_bernoulli(top: int) -> List[TheoremReport]:
    """B_0..B_top from its two sources, the tangent numbers' table against the
    unit coefficients (bernoulli.py): one report at each index where they
    differ, on the one-part set {1}, whose Bernoulli-Barnes values at 0 they are."""
    pairs = zip(bernoulli.bernoulli_numbers(top), bernoulli.unit_numbers(top))
    return [
        TheoremReport("bernoulli", PartSet((1,)), (("index", i),), table, unit)
        for i, (table, unit) in enumerate(pairs)
        if table != unit
    ]


def _check_trial(
    trial: int, parts: PartSet, n: int, rng: random.Random, ran: Counter
) -> List[TheoremReport]:
    """Each row of CHECKS that covers k and whose argument was drawn: n, then
    x in [1, S - 1] for k >= 2, then x3 in [S, P] while S <= P.  A row run
    adds one to ran[row, k], and only a row whose two sides differ is
    reported, an n row with q and r (n = qP + r).  Each distinct argument is
    looked up once, the largest, max(n, P - x), first (theorem3's are below
    P - S), so one table serves the trial."""
    k, product, total = parts.k, parts.product, parts.total
    drawn = {"n": n}
    if k >= 2:
        drawn["x"] = rng.randint(1, total - 1)
        if total <= product:
            drawn["x3"] = rng.randint(total, product)
    # the trial's lookups, each distinct argument once
    looked: Dict[int, int] = {}
    p = lambda m: looked[m] if m in looked else looked.setdefault(m, oracle.oracle_count(parts, m))
    p(max(n, product - drawn.get("x", product)))
    failures = []
    for check, least, most, arg, formula in CHECKS:
        if least <= k <= most and arg in drawn:
            ran[check, k] += 1
            lhs, rhs = _ORACLE_SIDES[arg](p, parts, drawn[arg]), formula(parts, drawn[arg])
            if lhs != rhs:
                q, r = divmod(n, product)
                inputs = (("n", n), ("q", q), ("r", r)) if arg == "n" else (("x", drawn[arg]),)
                failures.append(TheoremReport(check, parts, (("trial", trial), *inputs), lhs, rhs))
    return failures


def run_verify(
    trials: int,
    seed: int,
    k_min: int,
    k_max: int,
    max_part: int,
    max_product: int,
) -> Tuple[Tuple[TheoremReport, ...], Counter, Counter]:
    """Seeded random sweep of every identity against the oracle.

    First the two sources of the Bernoulli numbers are compared up to index
    max(12, 2 k_max + 2), past what the trials' routes read; that draws
    nothing.  Then each trial draws a part set by rejection sampling (product
    capped so the oracle table stays small), then n = q * product + r with q
    in 0..3 and r uniform, then checks every identity applicable to the arity.
    Returns (failures, ran, arities): the failed checks, the Bernoulli
    indices first, then in trial order, each trial's in CHECKS order; the
    trials that ran each row at each arity, keyed (row, arity); and the
    trials drawn at each arity, so a row skipped arities[k] - ran[row, k]
    trials of arity k.

    A k_max over max_part, a k_max that no pairwise-coprime set from
    [1, max_part] with product at most max_product has, and trial tables that
    could pass the table cap (``admission.admit_sweep``) are refused before
    the first trial.
    """
    if trials < 0:
        raise DomainError(f"trials must be nonnegative, got {trials}")
    if not 1 <= k_min <= k_max:
        raise DomainError(f"need 1 <= k-min <= k-max, got {k_min}..{k_max}")
    if max_part < k_max:
        raise DomainError(f"cannot draw {k_max} distinct parts from [1, {max_part}]")
    # 1 and the first k_max - 1 primes are the pairwise-coprime k_max-set of
    # least product and least largest part; walk the primes until that settles
    primes, least, p = 0, 1, 1
    while primes < k_max - 1 and least <= max_product and p < max_part:
        p += 1
        if all(p % q for q in range(2, isqrt(p) + 1)):
            primes, least = primes + 1, least * p
    if primes < k_max - 1 or least > max_product:
        raise DomainError(
            f"no pairwise-coprime {k_max}-subset of [1, {max_part}]"
            f" has product <= {max_product}"
        )
    admission.admit_sweep(k_max, max_part, max_product)
    rng = random.Random(seed)
    failures, ran, arities = _check_bernoulli(max(12, 2 * k_max + 2)), Counter(), Counter()
    for trial in range(trials):
        k = rng.randint(k_min, k_max)
        parts = random_coprime_partset(k, max_part, max_product, rng)
        arities[k] += 1
        # q in 0..3, then r in [0, P): a seed's draws keep this order
        n = rng.randint(0, 3) * parts.product + rng.randrange(parts.product)
        failures.extend(_check_trial(trial, parts, n, rng, ran))
    return tuple(failures), ran, arities


def format_failure(failure: TheoremReport) -> str:
    """One failed check as a `FAIL {check} parts=... lhs=... rhs=...` line."""
    rendered = " ".join(f"{name}={val}" for name, val in failure.inputs)
    return (
        f"FAIL {failure.check} parts={list(failure.parts.parts)}"
        f" {rendered} lhs={failure.lhs} rhs={failure.rhs}"
    )
