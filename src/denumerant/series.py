"""Exact arithmetic on plain coefficient tuples; nothing here touches a float.

A polynomial is a tuple of coefficients from degree 0 upward.  ``poly_eval``
evaluates one by Horner's rule, in ints when the coefficients and the point
are ints; no src path calls it, since a Bernoulli-Barnes table is read at x
from its beta (``bernoulli.numerators_at``).  A truncated power series in s
is a tuple of coefficients with order ``len(c) - 1``, and the series
functions keep the order they are given.
``series_exp`` works on integer exponential generating functions, where
``c[i]`` is the coefficient of s**i / i!, so it never divides.  ``series_mul``
and ``series_inv`` take ordinary series of Fractions, ``c[i]`` the coefficient
of s**i; they are the references the tests check the integer paths against,
and mixing two orders in ``series_mul`` raises DomainError.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Sequence, Tuple

from .errors import DomainError


def poly_eval(coeffs: Sequence, x):
    """sum_j coeffs[j] * x**j by Horner's rule."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def series_mul(a: Sequence[Fraction], b: Sequence[Fraction]) -> Tuple[Fraction, ...]:
    """Cauchy product truncated back to the common order."""
    if len(a) != len(b):
        orders = f"{len(a) - 1} and {len(b) - 1}"
        raise DomainError(f"cannot combine series of orders {orders}")
    return tuple(
        sum((a[j] * b[i - j] for j in range(i + 1)), Fraction(0)) for i in range(len(a))
    )


def series_inv(a: Sequence[Fraction]) -> Tuple[Fraction, ...]:
    """Multiplicative inverse of a series with nonzero constant term.

    Matching powers of s in a * b = 1 gives b[0] = 1 / a[0] and
    b[m] = -(1 / a[0]) * sum(a[k] * b[m - k] for k in 1..m), one at a time.
    """
    c0 = a[0]
    if c0 == 0:
        raise DomainError("series inversion needs a nonzero constant term")
    out = [Fraction(1) / c0]
    for m in range(1, len(a)):
        acc = sum((a[k] * out[m - k] for k in range(1, m + 1)), Fraction(0))
        out.append(-acc / c0)
    return tuple(out)


def series_exp(u: Sequence[int]) -> Tuple[int, ...]:
    """exp of an integer exponential generating function with zero constant term.

    Returns g with sum_i g[i] s^i / i! = exp(U), U = sum_j u[j] s^j / j!.
    Then g' = U' g, and in EGF coefficients that reads

        g[i] = sum(C(i - 1, j - 1) * u[j] * g[i - j] for j in 1..i)

    with g[0] = 1, so ints stay ints and zero terms of u are skipped.
    """
    if u[0] != 0:
        raise DomainError("series exp needs a zero constant term")
    out = [1]
    for i in range(1, len(u)):
        out.append(
            sum(comb(i - 1, j - 1) * u[j] * out[i - j] for j in range(1, i + 1) if u[j])
        )
    return tuple(out)
