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
Bernoulli-Barnes polynomials nor the oracle are read.  Poly is fitted to the
held waves, so it takes up any constant added to one: the last cumulative
sums are held uncentred, w_j plus a constant, and only sums that are walked
again are centred.

Centring a sum multiplies the denominator by a_j: each new entry, a_j times
a partial sum minus their total T, is -T mod a_j, so it divides the wave by
gcd(a_j, T) as it goes.  Wave j is held as an integer wave d_j (w_j + c_j),
c_j constant and d_j a divisor of a_j^k, with entries sized by a_j, not by
the product (33 bits at most on the first 60 primes).  The wave is kept in the
order of its last walk, c, so each factor but the first gathers once (by
slices for strides up to 32), and a count reads residue n at n c^-1 mod a_j.
Set-up walks (k - 1) S steps per part set, and a query costs O(k) integer
operations: it scales each wave entry by D / d_j onto the common denominator
D of the polynomial, which the set-up reduces with the multipliers and the
Newton coefficients by their gcd.  A set whose walk steps, max(k - 1, 1) S, pass
the table cap is refused before anything is built (``admission.admit_waves``).
"""

from __future__ import annotations

import sys
from itertools import accumulate
from math import factorial, gcd, prod
from operator import itemgetter
from typing import List, Tuple

from . import admission
from .errors import DomainError, InternalInconsistencyError
from .partset import PartSet

# (bytes held, D, Newton coefficients of D * Poly, (a_j, D / d_j, c^-1, d_j * w_j) per
# part), w_j up to a constant.  Each wave has its own denominator d_j, a divisor of
# a_j^k; its multiplier is applied per query.  D, the multipliers and the Newton
# coefficients share no factor.  Residue n of wave j is at index n c^-1 mod a_j, c the
# stride of its last walk.
_Setup = Tuple[int, int, Tuple[int, ...], Tuple[Tuple[int, int, int, Tuple[int, ...]], ...]]

# Recently used set-ups by parts tuple, held to admission.MAX_HELD_BYTES by
# admission's rule.  A set-up weighs about its parts' sum in small ints, so a
# run over sets of small parts holds every set it counts and builds none
# twice.  A set-up of the first 100 primes weighs 0.97 MB, so seventeen fit.
_SETUPS = admission.Held()


def _walk(wave: List[int], s: int) -> List[int]:
    """wave[m * s mod a] for m = 0..a-1, a = len(wave): wave read along the stride-s walk."""
    a = len(wave)
    t = min(s, a - s) or 1  # a = 1 has only the stride 0
    if t > 32:  # a slice copies ~a * t entries, an index step costs ~70 ns
        return [wave[m * s % a] for m in range(a)]
    walked = (wave * t)[::t]  # entry m is wave[m * t mod a]
    return walked if t == s else walked[:1] + walked[:0:-1]


def _wave(a: int, others: Tuple[int, ...]) -> Tuple[int, int, Tuple[int, ...]]:
    """(d, c^-1 mod a, d * w) on Z/a: the wave w of part a against the others, up
    to a constant, d | a^(len(others) + 1), read along the walk of stride c, the last
    of the others (1 if there are none), so residue n is at index n c^-1 mod a."""
    if not others:
        return a, 1, (a - 1,) + (-1,) * (a - 1)  # a * ([a divides n] - 1/a)
    # The first walk reads a - 1 and then -1s, so its cumulative sums are
    # a - 1 - m, with mean (a - 1) / 2: w is (a - 1 - 2m) / 2a there.
    if a % 2:
        d, wave = a, list(range((a - 1) // 2, -(a + 1) // 2, -1))
    else:
        d, wave = 2 * a, list(range(a - 1, -a - 1, -2))
    # Each later walk reads the wave centred; the last one's sums are held as
    # they are, in its order: entry m is at residue m * c.
    for before, c in zip(others, others[1:]):
        total = sum(wave)  # 0 for the first wave
        if total:
            g = gcd(a, total)  # divides every a * entry - total
            d, a_g, total_g = d * a // g, a // g, total // g
            wave = [a_g * entry - total_g for entry in wave]
        wave = list(accumulate(_walk(wave, c * pow(before, -1, a) % a)))
    return d, pow(others[-1], -1, a), tuple(wave)


def _setup(parts: PartSet) -> _Setup:
    a, k = parts.parts, parts.k
    walked = [_wave(aj, a[:j] + a[j + 1 :]) for j, aj in enumerate(a)]
    # common is a multiple of each d_j, so the values below are integers, and of
    # (k - 1)!, so every Newton division is exact.
    common = factorial(k - 1) * prod(d for d, _, _ in walked)
    waves = [(aj, common // d, inv, wave) for aj, (d, inv, wave) in zip(a, walked)]
    # common * Poly(-m) for m = 0..k-1, from p(0) = 1 and p(-m) = 0.
    row = [
        (common if m == 0 else 0)
        - sum(scale * wave[-m * inv % aj] for aj, scale, inv, wave in waves)
        for m in range(k)
    ]
    # Newton form on the nodes 0, -1, -2, ...: Poly(n) is the sum over i of
    # f_i n (n+1) ... (n+i-1), and i! f_i starts row i of the values'
    # difference triangle, whose row i + 1 is x - y over adjacent entries.
    newton = []
    for i in range(k):
        newton.append(row[0] // factorial(i))
        row = [x - y for x, y in zip(row, row[1:])]
    g = gcd(common, *newton, *(scale for _, scale, _, _ in waves))
    common, newton = common // g, tuple(f // g for f in newton)
    waves = tuple((aj, scale // g, inv, wave) for aj, scale, inv, wave in waves)
    # O(k), not O(S): a wave's entries are about as wide as its first.  Like
    # a_j, c^-1 is a small int below a_j and is not weighed.
    weight = sum(map(sys.getsizeof, (common, *newton))) + sum(
        sys.getsizeof(s) + sys.getsizeof(w) + len(w) * sys.getsizeof(w[0]) for _, s, _, w in waves
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
    acc += sum(scale * wave[n % aj * inv % aj] for aj, scale, inv, wave in waves)
    count, rest = divmod(acc, common)
    if rest:
        raise InternalInconsistencyError(
            f"waves give a non-integer count at n = {n} for parts {list(parts)}"
        )
    return count
