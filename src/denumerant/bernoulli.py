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
- The Bernoulli-Barnes polynomials come from one scalar sequence beta,
  built by integer binomial convolutions (see ``bernoulli_barnes``).  A
  table is that sequence, m + 1 integers over one denominator, and nothing
  else: ``numerators_at`` reads it at x and ``lowest_terms`` reduces it for
  printing, and neither forms the numerators C(i, j) beta_{i-j}.  The
  sequence's building blocks c_n = n! [s^n] s/(e^s - 1) are the Bernoulli
  numbers again (with c_1 = -1/2), but they are found a second way, by
  inverting (e^s - 1)/s in integer numerators over the product of the primes
  up to m + 1, one exact division per step, and never read from the table.
  theorem1 reads the polynomials and section3 reads the table, so the two
  routes check each other only while they share no values, and ``verify``
  compares the two sources index by index (``unit_numbers``).

The table is built afresh on each call; the unit coefficients and the
Bernoulli-Barnes tables are pure functions under bounded ``lru_cache``s.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, gcd, isqrt, prod
from typing import Iterator, List, Sequence, Tuple

from .errors import DomainError
from .partset import PartSet


def _tangent_numbers(count: int) -> List[int]:
    """T_1..T_count by Brent and Harvey's in-place integer recurrence."""
    t = [0, 1] + [0] * (count - 1)
    for j in range(2, count + 1):
        t[j] = (j - 1) * t[j - 1]
    for k in range(2, count + 1):
        for j in range(k, count + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return t[1 : count + 1]


def bernoulli_numbers(m: int) -> Tuple[Fraction, ...]:
    """B_0..B_m (see the module docstring for the convention)."""
    if m < 0:
        raise DomainError("table size must be nonnegative")
    table = [Fraction(1), Fraction(1, 2)] + [Fraction(0)] * (m - 1)
    for j, t in enumerate(_tangent_numbers(m // 2), start=1):
        table[2 * j] = Fraction((-1) ** (j - 1) * 2 * j * t, 4 ** j * (4 ** j - 1))
    return tuple(table[: m + 1])


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


class BBPoly:
    """B_index, sum_j C(index, j) beta[index - j] x^j / denominator.

    Every polynomial of one table shares the tuple beta and the denominator,
    D^k P over a gcd (see ``bernoulli_barnes``), so a table holds m + 1
    integers, not (m + 1)(m + 2)/2, and a sum over a table stays in integers
    and divides once.  A polynomial keeps nothing else: ``at`` reads it from
    beta through ``numerators_at``.  Equality is identity, so no comparison
    walks the shared beta.
    """

    def __init__(self, beta: Tuple[int, ...], index: int, denominator: int) -> None:
        self.beta, self.index, self.denominator = beta, index, denominator

    def at(self, x) -> Fraction:
        return Fraction(numerators_at(self.beta[: self.index + 1], x)[-1], self.denominator)


def numerators_at(beta: Sequence[int], x) -> List[int]:
    """The numerators of B_0(x)..B_m(x) over their table's denominator, m = len(beta) - 1.

    A difference triangle from row 0 = beta: entry l of row i is x times
    entry l of row i - 1 plus entry l + 1 of row i - 1, so it is
    sum_j C(i, j) beta_{l+i-j} x^j, and row i starts with the numerator of
    B_i(x).  Row i is written in place over places i..m, from the last down,
    so the first entries of the rows before it stay in front.  That is
    m(m + 1)/2 multiply-adds, as many as Horner's rule on every polynomial,
    and no numerator C(i, j) beta_{i-j} is formed.
    """
    row = list(beta)
    for i in range(1, len(row)):
        for l in range(len(row) - 1, i - 1, -1):
            row[l] = x * row[l - 1] + row[l]
    return row


def lowest_terms(table: Sequence[BBPoly]) -> Iterator[List[Tuple[int, int]]]:
    """Each polynomial's coefficients as (numerator, denominator) in lowest terms.

    The polynomials share beta and the denominator d, so each beta_l is
    reduced once, to b_l / s_l, and the coefficient C(i, j) b_{i-j} / s_{i-j}
    only needs the gcd of the binomial with s_{i-j}: b_l is already prime to
    s_l.  No numerator is formed, and each row is formed as it is read.
    """
    beta, d = table[0].beta, table[0].denominator
    reduced = [(b // g, d // g) for b, g in zip(beta, [gcd(b, d) for b in beta])]
    for entry in table:
        i, row = entry.index, []
        for j in range(i + 1):
            b, s = reduced[i - j]
            c = comb(i, j)
            h = gcd(c, s)
            row.append((c // h * b, s // h))
        yield row


def _primorial(m: int) -> int:
    """The product of the primes up to m."""
    return prod(p for p in range(2, m + 1) if all(p % q for q in range(2, isqrt(p) + 1)))


# Runs ask for few indices; the largest admitted, m = 1446 (bb), weighs 0.64 MB.
@lru_cache(maxsize=8)
def _unit_coefficients(m: int) -> Tuple[Tuple[int, ...], int]:
    """c_n = n! [s^n] s/(e^s - 1) for n <= m, the unit factor of every
    Bernoulli-Barnes product, as integer numerators over D, the product of the
    primes up to m + 1: by von Staudt and Clausen, the lcm of their denominators.

    Matching s^n in (e^s - 1)/s * s/(e^s - 1) = 1 times (n+1)! gives
    sum_{l <= n} C(n+1, l) c_l = 0 for n >= 1, so D c_n is one exact division
    by n + 1 away, from D c_0 = D.
    """
    common = _primorial(m + 1)
    unit = [common]
    for n in range(1, m + 1):
        odd = n % 2 and n > 1  # c_n = 0 for odd n >= 3, so its sum is not formed
        acc = 0 if odd else sum(comb(n + 1, l) * c for l, c in enumerate(unit) if c)
        unit.append(-acc // (n + 1))
    return tuple(unit), common


def unit_numbers(m: int) -> Tuple[Fraction, ...]:
    """B_0..B_m from the unit coefficients, the Bernoulli-Barnes tables' source:
    c_n over its denominator, with c_1 = -B_1."""
    unit, common = _unit_coefficients(m)
    return tuple(Fraction(-c if n == 1 else c, common) for n, c in enumerate(unit))


def bernoulli_barnes(parts: PartSet, max_index: int) -> Tuple[BBPoly, ...]:
    """B_0..B_max_index for the given parts, as polynomials in x.

    Rewrites the generating function as

        e^{xs} * prod_j [ a_j s / (e^{a_j s} - 1) ] / P,    P = prod_j a_j.

    Without e^{xs}, the product is the exponential generating function of a
    scalar sequence beta, so the coefficient of x^j in B_i is C(i, j)
    beta_{i-j}.  Factor a_j has EGF coefficients c_n a_j^n, with c_n from
    ``_unit_coefficients``.  beta starts as the first factor's coefficients,
    which needs no convolution, and each further factor is one binomial
    convolution

        beta_n <- sum_l C(n, l) beta_l c_{n-l} a_j^(n-l).

    They run on integer numerators over D, the common denominator of
    c_0..c_max_index, and after each convolution beta and its denominator
    are divided by their gcd: D^k is far wider than the values need (4,626
    against 458 bits over the first 60 primes at index 58).  So the table is
    the integers beta_0..beta_max_index over the one denominator, D^k P over
    that gcd, shared by every polynomial.  Results are cached per (parts,
    max_index), for the 512 most recently used.
    """
    if max_index < 0:
        raise DomainError("polynomial index must be nonnegative")
    return _bernoulli_barnes(parts, max_index)


# Bounded by tables, not bytes, but a table is only its m + 1 integers beta,
# and reading it keeps nothing more: (2,3,5,7) at index 400 holds 114,140
# bytes of beta.  The routes read a set's table at index k - 2, so a set's
# table is built once while fewer than 512 other keys are read after it: a
# verify trial's theorem1, theorem2 and theorem3 rows read one build, and a
# run over fewer than 512 sets builds none twice.
@lru_cache(maxsize=512)
def _bernoulli_barnes(parts: PartSet, max_index: int) -> Tuple[BBPoly, ...]:
    unit, common = _unit_coefficients(max_index)
    first, *rest = parts
    beta, scale = [c * first ** n for n, c in enumerate(unit)], common
    for a in rest:
        weights = [(n, c * a ** n) for n, c in enumerate(unit) if c]
        beta = [
            sum(comb(n, l) * beta[n - l] * w for l, w in weights if l <= n)
            for n in range(max_index + 1)
        ]
        g = gcd(scale * common, *beta)
        beta, scale = [b // g for b in beta], scale * common // g
    shared, scale = tuple(beta), scale * parts.product
    return tuple(BBPoly(shared, i, scale) for i in range(max_index + 1))
