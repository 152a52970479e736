"""Reduction identities for restricted counts with pairwise-coprime parts.

Throughout, A = {a_1 < ... < a_k} is a part set, P = a_1...a_k its product,
S = a_1 + ... + a_k its sum, and p(n) the count of nonnegative representations
of n by the parts.  Writing n = q*P + r with 0 <= r < P, the identities
implemented here express counts at large arguments through counts at small
ones plus a correction that is an explicit finite sum over Bernoulli-Barnes
polynomials:

  theorem1:  p(n) - p(r)  =  (-1)^k (n-r) * sum_{i=0}^{k-2}
                 (r-n)^i / ((i+1)! (k-i-2)!) * B_{k-i-2}(-r; A)

  theorem2:  p(P - x)     =  (-1)^k P * sum_{i=0}^{k-2}
                 (-P)^i / ((i+1)! (k-i-2)!) * B_{k-i-2}(x; A)
             valid for 1 <= x <= S - 1

  theorem3:  p(P - x) + (-1)^k p(x - S)  =  the same sum as theorem2,
             valid for S <= x <= P

  section3:  p(n) - p(r)  =  (-1)^k q f_{k-2}, where f = e^h and
             h(s) = -r s + sum_{i>=1} B_i/(i! i) ((r-n)^i - p_i(A)) s^i,
             with p_i the power sums of the parts

plus hard-coded expansions of the first two identities for k = 2..5.  The
general sums and the hard-coded forms are implemented independently on
purpose: agreement between them (and with the dynamic-programming oracle) is
the correctness argument.  The base count p(r) they all start from comes from
Sylvester's waves (waves.py), which need no table of r entries and read none
of the values the corrections are built from.

Pairwise coprimality is a genuine hypothesis, not an implementation
convenience, so every identity here rejects part sets that lack it instead
of returning numbers that may be wrong.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import factorial
from typing import Tuple

from .bernoulli import bernoulli_barnes, log_coefficients, power_sum
from .errors import (
    InternalInconsistencyError,
    RangeError,
    UnsupportedArityError,
)
from .partset import PartSet
from .series import TruncatedSeries, series_exp
from .waves import waves_count


def decompose(parts: PartSet, n: int) -> Tuple[int, int]:
    """(q, r) with n = q * product + r and 0 <= r < product."""
    if n < 0:
        raise RangeError(f"n must be nonnegative, got {n}")
    return divmod(n, parts.product)


def _as_integer(value: Fraction, what: str) -> int:
    if value.denominator != 1:
        raise InternalInconsistencyError(f"{what} is not an integer: {value}")
    return value.numerator


def theorem1_correction(parts: PartSet, n: int) -> Fraction:
    """The correction p(n) - p(r) as an exact rational.

    For k = 1 the sum is empty and the correction is 0, which is the right
    degenerate reading: with a single part, p(n) depends only on n mod a_1.
    """
    _, r = decompose(parts, n)
    parts.require_pairwise_coprime()
    k = parts.k
    if k == 1:
        return Fraction(0)
    table = bernoulli_barnes(parts, k)
    total = Fraction(0)
    for i in range(k - 1):
        weight = Fraction((r - n) ** i, factorial(i + 1) * factorial(k - i - 2))
        total += weight * table[k - i - 2].at(-r)
    return (-1) ** k * (n - r) * total


def theorem1_count(parts: PartSet, n: int) -> int:
    """p(n) via the base count at the residue plus the correction sum."""
    _, r = decompose(parts, n)
    correction = theorem1_correction(parts, n)
    return waves_count(parts, r) + _as_integer(correction, "reduction correction")


def closed_form_count(parts: PartSet, n: int) -> int:
    """p(n) via the base count at the residue plus the hard-coded correction."""
    _, r = decompose(parts, n)
    correction = closed_form_correction(parts, n)
    return waves_count(parts, r) + _as_integer(correction, "closed-form correction")


def _product_sum_rhs(parts: PartSet, x: int) -> Fraction:
    """Shared right-hand side of the theorem2/theorem3 identities at x."""
    k = parts.k
    product = parts.product
    table = bernoulli_barnes(parts, k)
    total = Fraction(0)
    for i in range(k - 1):
        weight = Fraction((-product) ** i, factorial(i + 1) * factorial(k - i - 2))
        total += weight * table[k - i - 2].at(x)
    return (-1) ** k * product * total


def _require_at_least_two_parts(parts: PartSet) -> None:
    if parts.k < 2:
        raise UnsupportedArityError(
            f"this identity needs at least two parts, got {parts.k}"
        )


def theorem2_count(parts: PartSet, x: int) -> int:
    """p(product - x) for x below the sum of the parts (1 <= x <= S - 1)."""
    _require_at_least_two_parts(parts)
    parts.require_pairwise_coprime()
    if not 1 <= x <= parts.total - 1:
        raise RangeError(
            f"x must lie in [1, {parts.total - 1}] for parts {list(parts)}, got {x}"
        )
    return _as_integer(_product_sum_rhs(parts, x), "product-minus-x count")


def theorem3_rhs(parts: PartSet, x: int) -> Fraction:
    """The value of p(product - x) + (-1)^k p(x - S) for S <= x <= product.

    Returned as a Fraction; an integrality check runs regardless, since a
    non-integer here can only mean an implementation bug.
    """
    _require_at_least_two_parts(parts)
    parts.require_pairwise_coprime()
    if not parts.total <= x <= parts.product:
        raise RangeError(
            f"x must lie in [{parts.total}, {parts.product}] for parts {list(parts)}, got {x}"
        )
    value = _product_sum_rhs(parts, x)
    _as_integer(value, "two-sided boundary count")
    return value


def section3_count(parts: PartSet, n: int) -> int:
    """p(n) via the exponential recursion instead of the correction sum.

    Builds h(s) from the coefficients of ln(s/(e^s - 1)), which are read off
    the Bernoulli number table, and power sums, exponentiates it with
    the series recursion, and reads the correction off one coefficient.
    Shares nothing with theorem1_count beyond the base count at the residue,
    so the two serve as independent checks of each other.

    The coefficient read is f_{k-2}, and the recursion i f_i = sum_{j<=i}
    j h_j f_{i-j} makes it depend on h_1..h_{k-2} only, so both series are
    truncated at order k - 2 and the value is exact.  The order is at least 1
    because the s term, -r s, is always built.
    """
    _require_at_least_two_parts(parts)
    parts.require_pairwise_coprime()
    q, r = decompose(parts, n)
    k = parts.k
    order = max(k - 2, 1)
    coeffs = [Fraction(0)] * (order + 1)
    coeffs[1] = Fraction(-r)
    shift = r - n
    for i, log_coeff in enumerate(log_coefficients(order), start=1):
        coeffs[i] -= log_coeff * (shift ** i - power_sum(parts, i))
    f = series_exp(TruncatedSeries(tuple(coeffs)))
    correction = Fraction((-1) ** k * q) * f.coeffs[k - 2]
    return waves_count(parts, r) + _as_integer(correction, "recursion correction")


def _pair_product_sum(parts: PartSet) -> int:
    return sum(a * b for a, b in combinations(parts.parts, 2))


def closed_form_correction(parts: PartSet, n: int) -> Fraction:
    """Hard-coded expansions of the theorem1 correction for k = 2..5.

    These are written out term by term, not derived from the general sum, so
    that agreement with theorem1_correction is a meaningful check on both.
    """
    if parts.k not in (2, 3, 4, 5):
        raise UnsupportedArityError(
            f"closed forms cover 2 to 5 parts, got {parts.k}"
        )
    parts.require_pairwise_coprime()
    q, r = decompose(parts, n)
    a = parts.parts
    s = parts.total
    if parts.k == 2:
        return Fraction(n - r, a[0] * a[1])
    if parts.k == 3:
        return Fraction(q * (n + r + s), 2)
    if parts.k == 4:
        body = (
            3 * (n + r) * s
            + 2 * (n + r) ** 2
            - 2 * n * r
            + s ** 2
            + _pair_product_sum(parts)
        )
        return Fraction(q * body, 12)
    body = (
        (n + r) * (n * n + r * r)
        + (2 * n * n + 2 * n * r + 2 * r * r) * s
        + (n + r) * power_sum(parts, 2)
        + sum(ai ** 2 * (s - ai) for ai in a)
        + 3 * (n + r) * _pair_product_sum(parts)
        + 3 * sum(parts.product // (ai * aj) for ai, aj in combinations(a, 2))
    )
    return Fraction(q * body, 24)


def closed_form_theorem2(parts: PartSet, x: int) -> Fraction:
    """Hard-coded expansions of theorem2 for k = 2..5 (same caveats as above)."""
    if parts.k not in (2, 3, 4, 5):
        raise UnsupportedArityError(
            f"closed forms cover 2 to 5 parts, got {parts.k}"
        )
    parts.require_pairwise_coprime()
    if not 1 <= x <= parts.total - 1:
        raise RangeError(
            f"x must lie in [1, {parts.total - 1}] for parts {list(parts)}, got {x}"
        )
    a = parts.parts
    s = parts.total
    if parts.k == 2:
        return Fraction(1)
    if parts.k == 3:
        return Fraction(parts.product + s, 2) - x
    n = parts.product - x
    if parts.k == 4:
        body = (
            3 * (n - x) * s
            + 2 * (n - x) ** 2
            + 2 * n * x
            + s ** 2
            + _pair_product_sum(parts)
        )
        return Fraction(body, 12)
    body = (
        (n - x) * (n * n + x * x)
        + (2 * n * n - 2 * n * x + 2 * x * x) * s
        + (n - x) * power_sum(parts, 2)
        + sum(ai ** 2 * (s - ai) for ai in a)
        + 3 * (n - x) * _pair_product_sum(parts)
        + 3 * sum(parts.product // (ai * aj) for ai, aj in combinations(a, 2))
    )
    return Fraction(body, 24)
