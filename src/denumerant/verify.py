"""Seeded random cross-checks of every identity against the oracle.

The routes are reached through their modules (``oracle.oracle_count``,
``reductions.theorem1_count``), not bound here by name, so that rebinding a
route on its module (a test's monkeypatch, or the span tracer in
perfbench/spans.py) reaches the sweep too.
"""

from __future__ import annotations

import random
from math import isqrt, lcm, prod
from typing import List, NamedTuple, Tuple

from . import admission, oracle, reductions
from .errors import DomainError, SamplingExhaustedError
from .partset import PartSet


class TheoremReport(NamedTuple):
    """One checked identity instance: oracle side vs formula side."""

    check: str
    parts: PartSet
    inputs: Tuple[Tuple[str, int], ...]
    lhs: int
    rhs: int

    @property
    def holds(self) -> bool:
        return self.lhs == self.rhs


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


def _check_trial(
    trial: int, parts: PartSet, n: int, q: int, r: int, rng: random.Random
) -> List[TheoremReport]:
    """All identity checks for one sampled instance, oracle on the left."""
    k, product, total = parts.k, parts.product, parts.total
    n_inputs = (("trial", trial), ("n", n), ("q", q), ("r", r))

    # x is drawn first, so the first lookup is the largest, max(n, P - x): its
    # table holds r <= n and theorem3's arguments, below P - total < P - x, and
    # a row reads every lookup.  One part draws no x; x = P looks up n first.
    x = rng.randint(1, total - 1) if k >= 2 else product
    first = oracle.oracle_count(parts, max(n, product - x))
    expected = first if n >= product - x else oracle.oracle_count(parts, n)
    rows = [("theorem1", n_inputs, expected, reductions.theorem1_count(parts, n))]
    if k >= 2:
        value = reductions.section3_count(parts, n)
        rows.append(("section3", n_inputs, expected, value))
    if 2 <= k <= 5:
        true_correction = expected - oracle.oracle_count(parts, r)
        correction = reductions.closed_form_correction(parts, n)
        rows.append(("closed-form", n_inputs, true_correction, correction))
    if k >= 2:
        boundary = first if product - x > n else oracle.oracle_count(parts, product - x)
        x_inputs = (("trial", trial), ("x", x))
        value = reductions.theorem2_count(parts, x)
        rows.append(("theorem2", x_inputs, boundary, value))
        if k <= 5:
            value = reductions.closed_form_theorem2(parts, x)
            rows.append(("closed-form-theorem2", x_inputs, boundary, value))
        if total <= product:
            x3 = rng.randint(total, product)
            high = oracle.oracle_count(parts, product - x3)
            two_sided = high + (-1) ** k * oracle.oracle_count(parts, x3 - total)
            value = reductions.theorem3_rhs(parts, x3)
            rows.append(("theorem3", (("trial", trial), ("x", x3)), two_sided, value))
    return [
        TheoremReport(check, parts, inputs, lhs, rhs)
        for check, inputs, lhs, rhs in rows
    ]


def run_verify(
    trials: int,
    seed: int,
    k_min: int,
    k_max: int,
    max_part: int,
    max_product: int,
) -> Tuple[TheoremReport, ...]:
    """Seeded random sweep of every identity against the oracle.

    Each trial draws a part set by rejection sampling (product capped so the
    oracle table stays small), then n = q * product + r with q in 0..3 and r
    uniform, then checks every identity applicable to the arity.  Returns
    the failed checks in trial order.

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
    failures = []
    for trial in range(trials):
        k = rng.randint(k_min, k_max)
        parts = random_coprime_partset(k, max_part, max_product, rng)
        q = rng.randint(0, 3)
        r = rng.randrange(parts.product)
        n = q * parts.product + r
        reports = _check_trial(trial, parts, n, q, r, rng)
        failures.extend(report for report in reports if not report.holds)
    return tuple(failures)


def format_failure(failure: TheoremReport) -> str:
    """One failed check as a `FAIL {check} parts=... lhs=... rhs=...` line."""
    rendered = " ".join(f"{name}={val}" for name, val in failure.inputs)
    return (
        f"FAIL {failure.check} parts={list(failure.parts.parts)}"
        f" {rendered} lhs={failure.lhs} rhs={failure.rhs}"
    )
