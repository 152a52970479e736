"""Bernoulli numbers and Bernoulli-Barnes polynomials, all exact.

Sign convention used throughout this package: B_1 = +1/2, i.e. the
generating function is read as

    s / (e^s - 1) = 1 - B_1 s + sum_{i >= 2} B_i s^i / i!

with the minus sign kept in front of the linear term.  The more common
convention puts B_1 = -1/2; every other entry agrees (odd indices from 3 on
vanish, B_2 = 1/6, B_4 = -1/30).  Tables from elsewhere must flip index 1
before being compared with these.

The Bernoulli-Barnes polynomial B_i(x; a_1..a_k) generalizes the ordinary
Bernoulli polynomial to a set of moduli: it is the degree-i polynomial in x
defined by

    s^k e^{xs} / prod_j (e^{a_j s} - 1) = sum_i B_i(x; a) s^i / i!

expanded around s = 0.  With k = 1 and a_1 = 1 this recovers the classical
Bernoulli polynomials (in the same B_1 = +1/2 reading).

Neither needs a series product, and each has its own source of Bernoulli
numbers:

- The table comes from the tangent numbers T_j (tan s =
  sum_j T_j s^(2j-1) / (2j-1)!), which Brent and Harvey's in-place integer
  recurrence ("Fast computation of Bernoulli, Tangent and Secant numbers",
  2011) yields in O(m^2) steps.  Then B_2j = (-1)^(j-1) 2j T_j / (4^j (4^j - 1)).
- The Bernoulli-Barnes polynomials come from one scalar sequence, built by
  integer binomial convolutions (see ``bernoulli_barnes``), and are kept as
  integer numerators over one denominator per table.  The sequence's
  building blocks c_n = n! [s^n] s/(e^s - 1) are the Bernoulli numbers again
  (with c_1 = -1/2), but they are found a second way, by inverting
  (e^s - 1)/s, and never read from the table.  theorem1 reads the
  polynomials and section3 reads the table, so the two routes check each
  other only while they share no values.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm
from typing import List, Tuple

from .errors import DomainError
from .partset import PartSet
from .series import poly_eval


# Grows monotonically; entries never change once computed.
_KNOWN: List[Fraction] = [Fraction(1)]


def _tangent_numbers(count: int) -> List[int]:
    """T_1..T_count by Brent and Harvey's in-place integer recurrence."""
    t = [0, 1] + [0] * (count - 1)
    for j in range(2, count + 1):
        t[j] = (j - 1) * t[j - 1]
    for k in range(2, count + 1):
        for j in range(k, count + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return t[1 : count + 1]


def _grow(m: int) -> None:
    if m < len(_KNOWN):
        return
    fresh = [Fraction(1), Fraction(1, 2)] + [Fraction(0)] * (m - 1)
    for j, t in enumerate(_tangent_numbers(m // 2), start=1):
        fresh[2 * j] = Fraction((-1) ** (j - 1) * 2 * j * t, 4 ** j * (4 ** j - 1))
    _KNOWN[:] = fresh[: m + 1]


def bernoulli_numbers(m: int) -> Tuple[Fraction, ...]:
    """B_0..B_m (see the module docstring for the convention)."""
    if m < 0:
        raise DomainError("table size must be nonnegative")
    _grow(m)
    return tuple(_KNOWN[: m + 1])


def log_coefficients(m: int) -> Tuple[Fraction, ...]:
    """The coefficients of s^1..s^m in ln(s/(e^s - 1)), i.e. -B_i/(i! * i)."""
    if m < 1:
        raise DomainError("need at least one coefficient")
    table = bernoulli_numbers(m)
    return tuple(-table[i] / (factorial(i) * i) for i in range(1, m + 1))


def power_sum(parts: PartSet, m: int) -> int:
    """Sum of the m-th powers of the parts; m = 0 counts the parts."""
    if m < 0:
        raise DomainError("power sum index must be nonnegative")
    return sum(a ** m for a in parts)


@dataclass(frozen=True)
class BBPoly:
    """One Bernoulli-Barnes polynomial, sum_j numerators[j] x^j / denominator.

    The numerators are integers, and every polynomial of one table shares the
    denominator D^k P (see ``bernoulli_barnes``), so a sum over a table stays
    in integers and divides once.
    """

    numerators: Tuple[int, ...]
    denominator: int

    @property
    def coeffs(self) -> Tuple[Fraction, ...]:
        """The coefficients of x^0, x^1, ... in lowest terms."""
        return tuple(Fraction(c, self.denominator) for c in self.numerators)

    def at(self, x) -> Fraction:
        return Fraction(poly_eval(self.numerators, x), self.denominator)


# c_0, c_1, ... with c_n = n! [s^n] s/(e^s - 1), the unit factor of every
# Bernoulli-Barnes product.  Kept apart from _KNOWN on purpose (see the module
# docstring).  Grows monotonically; entries never change once computed.
_UNIT: List[Fraction] = [Fraction(1)]


def _unit_coefficients(m: int) -> List[Fraction]:
    """c_0..c_m, inverting (e^s - 1)/s = sum_n s^n/(n+1)! one term at a time.

    Matching s^n in (e^s - 1)/s * s/(e^s - 1) = 1 and multiplying by (n+1)!
    gives sum_{l <= n} C(n+1, l) c_l = 0 for n >= 1, which solves for c_n
    from the terms before it, so the list extends without starting over.
    """
    for n in range(len(_UNIT), m + 1):
        acc = sum(comb(n + 1, l) * c for l, c in enumerate(_UNIT) if c)
        _UNIT.append(-acc / (n + 1))
    return _UNIT[: m + 1]


def bernoulli_barnes(parts: PartSet, max_index: int) -> Tuple[BBPoly, ...]:
    """B_0..B_max_index for the given parts, as polynomials in x.

    Rewrites the generating function as

        e^{xs} * prod_j [ a_j s / (e^{a_j s} - 1) ] / P,    P = prod_j a_j.

    Without e^{xs}, the product is the exponential generating function of a
    scalar sequence beta, so the coefficient of x^j in B_i is C(i, j)
    beta_{i-j}.  Factor a_j has EGF coefficients c_n a_j^n, with c_n from
    ``_unit_coefficients``, and beta is k binomial convolutions

        beta_n <- sum_l C(n, l) beta_l c_{n-l} a_j^(n-l).

    They run on integer numerators over D, the common denominator of
    c_0..c_max_index, so each polynomial keeps the integers C(i, j) beta_{i-j}
    over the one denominator D^k P.  Results are cached per (parts, max_index),
    for the 512 most recently used.
    """
    if max_index < 0:
        raise DomainError("polynomial index must be nonnegative")
    return _bernoulli_barnes(parts, max_index)


@lru_cache(maxsize=512)
def _bernoulli_barnes(parts: PartSet, max_index: int) -> Tuple[BBPoly, ...]:
    unit = _unit_coefficients(max_index)
    common = lcm(*(c.denominator for c in unit))
    numerators = [
        (n, c.numerator * (common // c.denominator)) for n, c in enumerate(unit) if c
    ]
    beta = [1] + [0] * max_index
    for a in parts:
        weights = [(n, c * a ** n) for n, c in numerators]
        beta = [
            sum(comb(n, l) * beta[n - l] * w for l, w in weights if l <= n)
            for n in range(max_index + 1)
        ]
    scale = common ** parts.k * parts.product
    return tuple(
        BBPoly(tuple(comb(i, j) * beta[i - j] for j in range(i + 1)), scale)
        for i in range(max_index + 1)
    )
