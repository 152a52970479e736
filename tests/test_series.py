"""Exact arithmetic layer: polynomials and truncated series over Fraction."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from denumerant.errors import DomainError, NonInvertibleError, OrderMismatchError
from denumerant.series import (
    Poly,
    TruncatedSeries,
    poly_eval,
    series_exp,
    series_inv,
    series_mul,
)

from helpers import exp_by_powers

F = Fraction


def ts(*values) -> TruncatedSeries:
    return TruncatedSeries(tuple(F(v) for v in values))


def add(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    return TruncatedSeries(tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))


rationals = st.fractions(min_value=-4, max_value=4, max_denominator=12)


def series_strategy(order: int, nonzero_constant=False, zero_constant=False):
    head = rationals
    if nonzero_constant:
        head = rationals.filter(lambda v: v != 0)
    if zero_constant:
        head = st.just(F(0))
    return st.tuples(head, *([rationals] * order)).map(TruncatedSeries)


class TestPoly:
    def test_trailing_zeros_trimmed(self):
        assert Poly((F(1), F(0), F(0))).coeffs == (F(1),)
        assert Poly((F(0), F(0))).coeffs == ()

    def test_eval_examples(self):
        assert poly_eval(Poly(()), F(7, 3)) == 0
        assert poly_eval(Poly((F(-1), F(0), F(1))), 3) == 8
        assert poly_eval(Poly((F(-5, 30), F(1, 30))), 2) == F(-1, 10)


class TestSeriesMul:
    def test_difference_of_squares(self):
        assert series_mul(ts(1, 1, 0), ts(1, -1, 0)) == ts(1, 0, -1)

    def test_annihilator(self):
        f = ts(3, F(1, 2), -2)
        assert series_mul(f, ts(0, 0, 0)) == ts(0, 0, 0)

    def test_hand_convolution(self):
        left = ts(1, F(1, 2), F(1, 12))
        right = ts(1, F(-1, 2), F(1, 12))
        assert series_mul(left, right) == ts(1, 0, F(-1, 12))

    def test_order_mismatch_rejected(self):
        with pytest.raises(OrderMismatchError):
            series_mul(ts(1, 0), ts(1, 0, 0))

    @given(series_strategy(4), series_strategy(4))
    def test_commutative(self, a, b):
        assert series_mul(a, b) == series_mul(b, a)

    @given(series_strategy(3), series_strategy(3), series_strategy(3))
    def test_associative(self, a, b, c):
        assert series_mul(series_mul(a, b), c) == series_mul(a, series_mul(b, c))


class TestSeriesInv:
    def test_identity(self):
        assert series_inv(ts(1, 0, 0, 0)) == ts(1, 0, 0, 0)

    def test_exponential_factor(self):
        # (e^s - 1)/s inverted
        e = ts(1, F(1, 2), F(1, 6))
        assert series_inv(e) == ts(1, F(-1, 2), F(1, 12))

    def test_geometric(self):
        assert series_inv(ts(1, 1, 0, 0)) == ts(1, -1, 1, -1)

    def test_zero_constant_rejected(self):
        with pytest.raises(NonInvertibleError):
            series_inv(ts(0, 1, 0))

    def test_polynomial_coefficients_rejected(self):
        # series are over Fraction only; a Poly coefficient is a type error
        with pytest.raises(TypeError):
            series_inv(TruncatedSeries((Poly((F(1),)), Poly((F(0), F(1))))))

    @settings(max_examples=500)
    @given(series_strategy(5, nonzero_constant=True))
    def test_mul_inv_is_identity(self, a):
        assert series_mul(a, series_inv(a)) == ts(1, 0, 0, 0, 0, 0)


class TestSeriesExp:
    def test_exp_zero(self):
        assert series_exp(ts(0, 0, 0, 0)) == ts(1, 0, 0, 0)

    def test_exp_s(self):
        assert series_exp(ts(0, 1, 0, 0)) == ts(1, 1, F(1, 2), F(1, 6))

    def test_exp_log_factor(self):
        # frozen from the slow power-sum expansion in helpers.exp_by_powers
        h = ts(0, F(-1, 2), F(-1, 24))
        expected = ts(1, F(-1, 2), F(1, 12))
        assert exp_by_powers(h) == expected
        assert series_exp(h) == expected

    def test_nonzero_constant_rejected(self):
        with pytest.raises(DomainError):
            series_exp(ts(1, 1))

    @given(series_strategy(5, zero_constant=True))
    def test_agrees_with_power_sum_expansion(self, h):
        assert series_exp(h) == exp_by_powers(h)

    @given(series_strategy(4, zero_constant=True), series_strategy(4, zero_constant=True))
    def test_exp_is_a_homomorphism(self, h1, h2):
        assert series_exp(add(h1, h2)) == series_mul(series_exp(h1), series_exp(h2))


class TestCanonicalForm:
    @given(series_strategy(4), series_strategy(4))
    def test_results_stay_reduced(self, a, b):
        for series in (
            series_mul(a, b),
            add(a, b),
        ):
            for c in series.coeffs:
                assert c.denominator > 0
                assert gcd(abs(c.numerator), c.denominator) == 1

    def test_zero_is_zero_over_one(self):
        product = series_mul(ts(0, 2), ts(0, 3))
        assert product.coeffs[0] == F(0)
        assert product.coeffs[0].denominator == 1

    def test_empty_series_rejected(self):
        with pytest.raises(DomainError):
            TruncatedSeries(())
