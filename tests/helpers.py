"""Shared test utilities.

brute_force_count is fully independent of the package (plain nested
enumeration), so its agreement with the dynamic-programming oracle is
evidence rather than circularity.  The series helpers reuse the package's
exact arithmetic primitives but follow different algorithms than the code
under test (summing powers instead of the derivative recursion, caller-given
factor order instead of the sorted one).  exp_via_egf is the adapter that
reads the integer series_exp on a series of Fractions.  index_walk_wave is
Sylvester's wave by the plain index walk over a^k, the reference for the
sliced, reduced walk in waves._wave, and newton_by_binomials the binomial
formula for the Newton coefficients that waves._setup takes from a difference
triangle.  run_module runs the command line in a fresh interpreter,
cold_caches empties every cache the package keeps between calls,
kernel_calls records the oracle's DP kernel calls over fresh oracle caches,
calls records the arguments a patched function is called with and forbid
makes one raise, and held_ints makes a small held cache.
"""

import os
import subprocess
import sys
from contextlib import contextmanager
from fractions import Fraction
from itertools import accumulate, combinations
from math import comb, factorial, gcd, lcm, prod
from pathlib import Path
from typing import Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple
from unittest import mock

from denumerant import admission, bernoulli, cli, oracle, reductions, waves
from denumerant.series import series_exp, series_inv, series_mul

SRC = Path(__file__).resolve().parent.parent / "src"


def run_module(*argv: str) -> subprocess.CompletedProcess:
    """`python -m denumerant argv...` in a fresh process, output captured as text."""
    return subprocess.run(
        [sys.executable, "-m", "denumerant", *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        timeout=300,
    )


def cold_caches() -> None:
    """Empty every module-level cache in src, as in a fresh process."""
    oracle._TABLES.clear()
    oracle._WIDER.clear()
    waves._SETUPS.clear()
    for cached in (
        bernoulli._unit_coefficients,
        bernoulli._bernoulli_barnes,
        reductions._log_weights,
        cli._power,
        cli._build_parser,
    ):
        cached.cache_clear()


class KernelCall(NamedTuple):
    """One oracle._dp_counts call: the parts it tabulates, the length of the
    table it resumes, the entry it fills up to, and the entries it wrote past
    the held ones (None while it runs, and after it raises)."""

    parts: Tuple[int, ...]
    held: int
    upper: int
    filled: Optional[int]


@contextmanager
def kernel_calls() -> Iterator[List[KernelCall]]:
    """The oracle's DP kernel calls, recorded in order as they start, with
    fresh oracle._TABLES and oracle._WIDER installed; all three are restored
    on exit."""
    calls, kernel = [], oracle._dp_counts

    def spy(parts, upper, held=()):
        calls.append(KernelCall(tuple(parts), len(held), upper, None))
        at = len(calls) - 1
        table = kernel(parts, upper, held)
        calls[at] = calls[at]._replace(filled=len(table) - len(held))
        return table

    with mock.patch.multiple(
        oracle, _dp_counts=spy, _TABLES=admission.Held(), _WIDER=admission.Held()
    ):
        yield calls


def calls(monkeypatch, owner, name: str) -> List[tuple]:
    """The positional arguments of each call of owner.name, in order, as
    monkeypatch rebinds it to a wrapper that passes every call through."""
    recorded, real = [], getattr(owner, name)

    def spy(*args, **kwargs):
        recorded.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, spy)
    return recorded


def forbid(monkeypatch, owner, name: str) -> None:
    """Rebind owner.name, by monkeypatch, to raise AssertionError naming the call."""

    def refuse(*args, **kwargs):
        raise AssertionError(f"{owner.__name__}.{name} was called")

    monkeypatch.setattr(owner, name, refuse)


def held_ints(**entries: int) -> admission.Held:
    """A held cache of the entries, each an int that weighs itself, stored in
    turn by admission.hold."""
    cache = admission.Held()
    for key, value in entries.items():
        admission.hold(cache, key, value, int)
    return cache


def brute_force_count(parts: Sequence[int], n: int) -> int:
    """Count representations by direct nested enumeration."""
    if n < 0:
        return 0
    ordered = sorted(parts, reverse=True)
    if not ordered:
        return 1 if n == 0 else 0

    def go(remaining: int, idx: int) -> int:
        a = ordered[idx]
        if idx == len(ordered) - 1:
            return 1 if remaining % a == 0 else 0
        return sum(go(remaining - m * a, idx + 1) for m in range(remaining // a + 1))

    return go(n, 0)


def index_walk_wave(a: int, others: Sequence[int]) -> Tuple[int, ...]:
    """a^(len(others) + 1) * w on Z/a, the wave of part a against the others.

    Each factor walks 0, c, 2c, ... mod a by index, takes cumulative sums
    along the walk, and writes them back by residue, with no reduction.
    """
    wave = [a - 1] + [-1] * (a - 1)  # a * ([a divides n] - 1/a)
    for c in others:
        step = pow(c, -1, a)  # residue n comes at step n * c^-1 of the walk
        walked = list(accumulate(wave[(m * c) % a] for m in range(a)))
        total = sum(walked)
        wave = [a * walked[(n * step) % a] - total for n in range(a)]
    return tuple(wave)


def newton_by_binomials(values: Sequence[int]) -> List[int]:
    """f_i = sum_m (-1)^m C(i, m) values[m] / i! for i = 0..len(values) - 1.

    With values[m] = D Poly(-m), these are the coefficients of D Poly in the
    Newton form on the nodes 0, -1, -2, ...: the sum over i of
    f_i n (n+1) ... (n+i-1).  Each division must be exact.
    """
    out = []
    for i in range(len(values)):
        f, rest = divmod(sum((-1) ** m * comb(i, m) * values[m] for m in range(i + 1)), factorial(i))
        assert rest == 0
        out.append(f)
    return out


def pairwise_coprime(values: Iterable[int]) -> bool:
    return all(gcd(a, b) == 1 for a, b in combinations(tuple(values), 2))


def coprime_part_tuples(
    max_part: int, k_values: Iterable[int], max_product: int = None
) -> List[Tuple[int, ...]]:
    """All increasing pairwise-coprime k-tuples from [1, max_part]."""
    out = []
    for k in k_values:
        for combo in combinations(range(1, max_part + 1), k):
            if max_product is not None and prod(combo) > max_product:
                continue
            if pairwise_coprime(combo):
                out.append(combo)
    return out


def exp_by_powers(h: Tuple[Fraction, ...]) -> Tuple[Fraction, ...]:
    """e^h by summing h^m / m! directly (h must have zero constant term).

    Since h starts at s^1, the power h^m contributes nothing below s^m, so
    summing m = 0..order is exact at the truncation order.  This is the slow
    reference the fast recursion is checked against.
    """
    order = len(h) - 1
    one = (Fraction(1),) + (Fraction(0),) * order
    total = list(one)
    power = one
    for m in range(1, order + 1):
        power = series_mul(power, h)
        scale = Fraction(1, factorial(m))
        for i in range(order + 1):
            total[i] = total[i] + scale * power[i]
    return tuple(total)


def exp_via_egf(h: Tuple[Fraction, ...]) -> Tuple[Fraction, ...]:
    """e^h for an ordinary series of Fractions, through the integer series_exp.

    With D the lcm of the denominators of i! h_i, the ints u_i = D^i i! h_i
    are h(Ds) as an exponential generating function, so series_exp gives
    e^{h(Ds)} and [s^i] e^h = g_i / (D^i i!).
    """
    weights = [factorial(i) * c for i, c in enumerate(h)]
    d = lcm(*(w.denominator for w in weights))
    u = [w * d ** i for i, w in enumerate(weights)]
    assert all(c.denominator == 1 for c in u[1:])
    g = series_exp(tuple(c.numerator for c in u))
    return tuple(Fraction(c, d ** i * factorial(i)) for i, c in enumerate(g))


def bb_coeffs(poly) -> Tuple[Fraction, ...]:
    """A Bernoulli-Barnes polynomial's coefficients of x^0, x^1, ... in lowest
    terms: C(i, j) beta_{i-j} over the table's denominator."""
    i, beta = poly.index, poly.beta
    return tuple(Fraction(comb(i, j) * beta[i - j], poly.denominator) for j in range(i + 1))


def bb_polys_by_factor_order(
    parts_in_order: Sequence[int], max_index: int
) -> List[Tuple[Fraction, ...]]:
    """Bernoulli-Barnes coefficient tuples with the factors multiplied as given.

    A from-scratch expansion of s^k e^{xs} / prod(e^{a s} - 1) that honors
    the caller's factor order, used to show the packaged computation does
    not depend on part ordering.
    """
    order = max_index
    acc = (Fraction(1),) + (Fraction(0),) * order
    for a in parts_in_order:
        factor = tuple(Fraction(a ** m, factorial(m + 1)) for m in range(order + 1))
        acc = series_mul(acc, series_inv(factor))
    # B_i(x) = i! [s^i] acc(s) e^{xs} / P, so its x^j coefficient is
    # i!/j! * acc[i - j] / P
    product = prod(parts_in_order)
    return [
        tuple(
            Fraction(factorial(i), factorial(j) * product) * acc[i - j]
            for j in range(i + 1)
        )
        for i in range(max_index + 1)
    ]
