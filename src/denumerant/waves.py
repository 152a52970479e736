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

Each inverted factor multiplies the denominator by a_j, and each new entry,
a_j times a cumulative sum minus their total T, is -T mod a_j, so the factor
divides its wave by gcd(a_j, T) as it goes.  Wave j is held as an integer
wave d_j w_j, d_j a divisor of a_j^k, with entries sized by a_j, not by the
product (33 bits at most on the first 60 primes).  The wave is kept in the
order of its last walk, so each factor gathers once (by slices for strides
up to 32), and a last gather puts it back in residue order.  Set-up walks
(k - 1) S steps per part set, and a query costs O(k) integer operations: it
scales each wave entry by D / d_j onto the common denominator D of the
polynomial, which the set-up reduces with the multipliers and the Newton
coefficients by their gcd.  A set whose walk steps, max(k - 1, 1) S, pass
the table cap is refused before anything is built (``admission.admit_waves``).
"""

from __future__ import annotations

import sys
from itertools import accumulate
from math import comb, factorial, gcd, prod
from operator import itemgetter
from typing import Dict, List, Tuple

from . import admission
from .errors import DomainError, InternalInconsistencyError
from .partset import PartSet

# (bytes held, D, Newton coefficients of D * Poly, (a_j, D / d_j, d_j * w_j) per
# part).  Each wave has its own denominator d_j, a divisor of a_j^k; its multiplier is
# applied per query.  D, the multipliers and the Newton coefficients share no factor.
_Setup = Tuple[int, int, Tuple[int, ...], Tuple[Tuple[int, int, Tuple[int, ...]], ...]]

# Recently used set-ups by parts tuple, held to admission.MAX_HELD_BYTES by
# admission's rule: the 75 seed-0 verify-sweep ops hold 422 in 0.54 MB, the 190
# count-cold-product ops 190 in 0.82 MB and count-huge-n 21, so none is built
# twice.  A set-up of the first 100 primes weighs 0.97 MB, so seventeen fit.
_SETUPS: Dict[Tuple[int, ...], _Setup] = {}


def _walk(wave: List[int], s: int) -> List[int]:
    """wave[m * s mod a] for m = 0..a-1, a = len(wave): wave read along the stride-s walk."""
    a = len(wave)
    t = min(s, a - s) or 1  # a = 1 has only the stride 0
    if t > 32:  # a slice copies ~a * t entries, an index step costs ~70 ns
        return [wave[m * s % a] for m in range(a)]
    walked = (wave * t)[::t]  # entry m is wave[m * t mod a]
    return walked if t == s else walked[:1] + walked[:0:-1]


def _wave(a: int, others: Tuple[int, ...]) -> Tuple[int, Tuple[int, ...]]:
    """(d, d * w) on Z/a: the wave w of part a against the others, d | a^(len(others) + 1)."""
    if not others:
        return a, (a - 1,) + (-1,) * (a - 1)  # a * ([a divides n] - 1/a)
    # The first walk reads a - 1 and then -1s, so its cumulative sums are
    # a - 1 - m, with mean (a - 1) / 2: w is (a - 1 - 2m) / 2a there.
    if a % 2:
        d, wave = a, list(range((a - 1) // 2, -(a + 1) // 2, -1))
    else:
        d, wave = 2 * a, list(range(a - 1, -a - 1, -2))
    # The wave is held in the order of the last walk: entry m is at residue m * c.
    for before, c in zip(others, others[1:]):
        partials = list(accumulate(_walk(wave, c * pow(before, -1, a) % a)))
        total = sum(partials)
        g = gcd(a, total)  # divides every a * partial - total
        d, a_g, total_g = d * a // g, a // g, total // g
        wave = [a_g * partial - total_g for partial in partials]
    return d, tuple(_walk(wave, pow(others[-1], -1, a)))


def _setup(parts: PartSet) -> _Setup:
    a, k = parts.parts, parts.k
    walked = [_wave(aj, a[:j] + a[j + 1 :]) for j, aj in enumerate(a)]
    # common is a multiple of each d_j, so the values below are integers, and of
    # (k - 1)!, so every Newton division is exact.
    common = factorial(k - 1) * prod(d for d, _ in walked)
    waves = [(aj, common // d, wave) for aj, (d, wave) in zip(a, walked)]
    # common * Poly(-m) for m = 0..k-1, from p(0) = 1 and p(-m) = 0.
    values = [
        (common if m == 0 else 0)
        - sum(scale * wave[-m % aj] for aj, scale, wave in waves)
        for m in range(k)
    ]
    # Newton form on the nodes 0, -1, -2, ...: Poly(n) is the sum over i of
    # f_i n (n+1) ... (n+i-1), with f_i = sum_m (-1)^m C(i, m) Poly(-m) / i!.
    newton = [
        sum((-1) ** m * comb(i, m) * values[m] for m in range(i + 1)) // factorial(i)
        for i in range(k)
    ]
    g = gcd(common, *newton, *(scale for _, scale, _ in waves))
    common, newton = common // g, tuple(f // g for f in newton)
    waves = tuple((aj, scale // g, wave) for aj, scale, wave in waves)
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
