"""Counts for pairwise-coprime parts from Sylvester's waves, without a table.

For pairwise-coprime parts a_1..a_k with sum S, the count splits as

    p(n) = Poly(n) + sum_j w_j(n mod a_j)        for every n > -S,

a polynomial of degree k - 1 plus one periodic wave per part (Rubinstein and
Fel, "Restricted partition functions as Bernoulli and Eulerian polynomials of
higher order", 2006).  Wave w_j is the mean-zero function on Z/a_j solving

    prod_{i != j} (1 - E^{-a_i}) w_j = [a_j divides n] - 1/a_j,

where (E^{-c} w)(n) = w(n - c).  Since gcd(c, a_j) = 1, the walk 0, c, 2c, ...
mod a_j visits every residue once, and one factor is inverted by a cumulative
sum along that walk minus its mean.  Poly is then interpolated from p(0) = 1
and p(-1) = ... = p(-(k-1)) = 0, so neither the Bernoulli numbers, the
Bernoulli-Barnes polynomials nor the oracle are read.

Each inverted factor adds one 1/a_j, so a_j^k w_j is an integer wave whose
entries are sized by a_j, not by the product.  Set-up walks (k - 1) S steps
per part set, and a query costs O(k) integer operations: it scales each wave
entry by D / a_j^k onto the common denominator D = (k - 1)! P^k of the
polynomial.  A set whose walk steps, max(k - 1, 1) S, pass the table cap is
refused before anything is built (``admission.admit_waves``).
"""

from __future__ import annotations

import sys
from itertools import accumulate
from math import comb, factorial
from operator import itemgetter
from typing import Dict, Tuple

from . import admission
from .errors import DomainError, InternalInconsistencyError
from .partset import PartSet

# (bytes held, D, Newton coefficients of D * Poly, (a_j, D / a_j^k, a_j^k * w_j) per
# part).  Each wave has its own denominator a_j^k; its multiplier is applied per query.
_Setup = Tuple[int, int, Tuple[int, ...], Tuple[Tuple[int, int, Tuple[int, ...]], ...]]

# Recently used set-ups by parts tuple, held to admission.MAX_HELD_BYTES by
# admission's rule: the 75 seed-0 verify-sweep ops hold 422 in 0.55 MB, the 190
# count-cold-product ops 190 in 0.84 MB and count-huge-n 21, so none is built
# twice.  A set-up of the first 100 primes weighs 5.5 MB, so three fit.
_SETUPS: Dict[Tuple[int, ...], _Setup] = {}


def _wave(a: int, others: Tuple[int, ...]) -> Tuple[int, ...]:
    """a^(len(others) + 1) * w on Z/a, the wave of part a against the others."""
    wave = [a - 1] + [-1] * (a - 1)  # a * ([a divides n] - 1/a)
    for c in others:
        # Position n comes at step n * c^-1 of the walk 0, c, 2c, ... mod a.
        step = pow(c, -1, a)
        walked = list(accumulate(wave[(m * c) % a] for m in range(a)))
        total = sum(walked)
        wave = [a * walked[(n * step) % a] - total for n in range(a)]
    return tuple(wave)


def _setup(parts: PartSet) -> _Setup:
    a, k, product = parts.parts, parts.k, parts.product
    common = factorial(k - 1) * product ** k
    waves = tuple(
        (aj, common // aj ** k, _wave(aj, a[:j] + a[j + 1 :])) for j, aj in enumerate(a)
    )
    # common * Poly(-m) for m = 0..k-1, from p(0) = 1 and p(-m) = 0.
    values = [
        (common if m == 0 else 0)
        - sum(scale * wave[-m % aj] for aj, scale, wave in waves)
        for m in range(k)
    ]
    # Newton form on the nodes 0, -1, -2, ...: Poly(n) is the sum over i of
    # f_i n (n+1) ... (n+i-1), with f_i = sum_m (-1)^m C(i, m) Poly(-m) / i!.
    newton = tuple(
        sum((-1) ** m * comb(i, m) * values[m] for m in range(i + 1)) // factorial(i)
        for i in range(k)
    )
    # O(k), not O(S): a wave's entries are about as wide as its first.
    weight = sum(map(sys.getsizeof, (common, *newton))) + sum(
        sys.getsizeof(s) + sys.getsizeof(w) + len(w) * sys.getsizeof(w[0]) for _, s, w in waves
    )
    return weight, common, newton, waves


def waves_count(parts: PartSet, n: int) -> int:
    """p(n) for pairwise-coprime parts, as a polynomial plus one wave per part."""
    if n < 0:
        raise DomainError("counts are defined for nonnegative n only")
    parts.require_pairwise_coprime()
    admission.admit_waves(parts)
    _, common, newton, waves = admission.recall(_SETUPS, parts.parts) or admission.hold(
        _SETUPS, parts.parts, _setup(parts), itemgetter(0)
    )
    acc = 0
    for i in reversed(range(len(newton))):
        acc = acc * (n + i) + newton[i]
    acc += sum(scale * wave[n % aj] for aj, scale, wave in waves)
    count, rest = divmod(acc, common)
    if rest:
        raise InternalInconsistencyError(
            f"waves give a non-integer count at n = {n} for parts {list(parts)}"
        )
    return count
