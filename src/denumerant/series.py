"""Exact arithmetic on plain coefficient tuples; nothing here touches a float.

A polynomial is a tuple of coefficients from degree 0 upward.  ``poly_eval``
evaluates one by Horner's rule, in ints when the coefficients and the point
are ints.  A truncated power series in s is a tuple of Fractions: ``c[i]`` is
the coefficient of s**i and the order is ``len(c) - 1``.  The series functions
keep the order they are given; mixing two orders raises DomainError.
"""

from __future__ import annotations

from fractions import Fraction
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


def series_exp(a: Sequence[Fraction]) -> Tuple[Fraction, ...]:
    """exp of a series with zero constant term.

    If f = exp(h) then f' = h' * f, so matching coefficients gives

        i * f[i] = sum(j * h[j] * f[i - j] for j in 1..i)

    with f[0] = 1.  This never forms factorials of the truncation order and
    works coefficient-by-coefficient in exact arithmetic.
    """
    if a[0] != 0:
        raise DomainError("series exp needs a zero constant term")
    out = [Fraction(1)]
    for i in range(1, len(a)):
        terms = (j * a[j] * out[i - j] for j in range(1, i + 1))
        out.append(sum(terms, Fraction(0)) / i)
    return tuple(out)
