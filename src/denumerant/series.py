"""Exact arithmetic building blocks: polynomials and truncated series.

Every value is an int or a ``fractions.Fraction``: in lowest terms with a
positive denominator, zero is 0/1, and equality is structural.  Nothing in
this package ever touches a float.

Poly is a dense univariate polynomial over Fraction, kept as plain data.
The coefficients are stored from degree 0 upward with trailing zeros trimmed, so
the zero polynomial is the empty tuple and equal polynomials compare equal as
dataclasses.  ``poly_eval`` evaluates one at a rational point.

TruncatedSeries is a power series over Fraction in one formal variable s kept
to a fixed truncation order: ``coeffs[i]`` is the coefficient of s**i and the
order is ``len(coeffs) - 1``.  Operations never change the order silently;
combining series of different orders raises OrderMismatchError.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple, Union

from .errors import DomainError, NonInvertibleError, OrderMismatchError

Scalar = Union[int, Fraction]


def _as_rational(value: Scalar) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an int or Fraction, got {type(value).__name__}")


@dataclass(frozen=True)
class Poly:
    """Dense polynomial over Fraction; ``coeffs[i]`` multiplies x**i."""

    coeffs: Tuple[Fraction, ...] = ()

    def __post_init__(self) -> None:
        cleaned = [_as_rational(c) for c in self.coeffs]
        while cleaned and cleaned[-1] == 0:
            cleaned.pop()
        object.__setattr__(self, "coeffs", tuple(cleaned))


def poly_eval(p: Poly, x: Scalar) -> Fraction:
    """Evaluate p at a rational point by Horner's rule."""
    x = _as_rational(x)
    acc = Fraction(0)
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


@dataclass(frozen=True)
class TruncatedSeries:
    """Power series in s truncated at a fixed order; ``coeffs[i]`` is [s**i]."""

    coeffs: Tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if not self.coeffs:
            raise DomainError("a truncated series needs at least the s**0 term")
        cleaned = tuple(_as_rational(c) for c in self.coeffs)
        object.__setattr__(self, "coeffs", cleaned)

    @property
    def order(self) -> int:
        """Highest power of s retained."""
        return len(self.coeffs) - 1



def _check_orders(a: TruncatedSeries, b: TruncatedSeries) -> None:
    if a.order != b.order:
        raise OrderMismatchError(
            f"cannot combine series of orders {a.order} and {b.order}"
        )


def series_mul(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Cauchy product truncated back to the common order."""
    _check_orders(a, b)
    out = []
    for i in range(a.order + 1):
        terms = (a.coeffs[j] * b.coeffs[i - j] for j in range(i + 1))
        out.append(sum(terms, Fraction(0)))
    return TruncatedSeries(tuple(out))


def series_inv(a: TruncatedSeries) -> TruncatedSeries:
    """Multiplicative inverse of a series with nonzero constant term.

    Writing a * b = 1 and matching powers of s gives the recurrence

        b[0] = 1 / a[0]
        b[m] = -(1 / a[0]) * sum(a[k] * b[m - k] for k in 1..m)

    which fills in b one coefficient at a time.
    """
    c0 = a.coeffs[0]
    if c0 == 0:
        raise NonInvertibleError("series inversion needs a nonzero constant term")
    out = [1 / c0]
    for m in range(1, a.order + 1):
        acc = sum((a.coeffs[k] * out[m - k] for k in range(1, m + 1)), Fraction(0))
        out.append(-acc / c0)
    return TruncatedSeries(tuple(out))


def series_exp(a: TruncatedSeries) -> TruncatedSeries:
    """exp of a series with zero constant term.

    If f = exp(h) then f' = h' * f, so matching coefficients gives

        i * f[i] = sum(j * h[j] * f[i - j] for j in 1..i)

    with f[0] = 1.  This never forms factorials of the truncation order and
    works coefficient-by-coefficient in exact arithmetic.
    """
    if a.coeffs[0] != 0:
        raise DomainError("series exp needs a zero constant term")
    out = [Fraction(1)]
    for i in range(1, a.order + 1):
        terms = (j * a.coeffs[j] * out[i - j] for j in range(1, i + 1))
        out.append(sum(terms, Fraction(0)) / i)
    return TruncatedSeries(tuple(out))
