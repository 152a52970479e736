"""Exact arithmetic layer: polynomials and truncated series as coefficient tuples."""

from fractions import Fraction
from math import comb, gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from denumerant.errors import DomainError
from denumerant.series import poly_eval, series_exp, series_inv, series_mul

from helpers import exp_by_powers, exp_via_egf

F = Fraction


def ts(*values) -> tuple:
    return tuple(F(v) for v in values)


def add(a: tuple, b: tuple) -> tuple:
    return tuple(x + y for x, y in zip(a, b))


# Every value st.fractions(min_value=-4, max_value=4, max_denominator=12) can
# draw, simplest first, so that a failure shrinks toward 0 and small
# denominators; sampling them costs a fifth of building each fraction.
rationals = st.sampled_from(
    sorted(
        {F(n, d) for d in range(1, 13) for n in range(-4 * d, 4 * d + 1)},
        key=lambda v: (v.denominator, abs(v), v),
    )
)


def series_strategy(order: int, nonzero_constant=False, zero_constant=False):
    head = rationals
    if nonzero_constant:
        head = rationals.filter(lambda v: v != 0)
    if zero_constant:
        head = st.just(F(0))
    return st.tuples(head, *([rationals] * order))


class TestPoly:
    def test_eval_examples(self):
        assert poly_eval((), F(7, 3)) == 0
        assert poly_eval((F(-1), F(0), F(1)), 3) == 8
        assert poly_eval((F(-5, 30), F(1, 30)), 2) == F(-1, 10)

    def test_eval_stays_in_ints(self):
        value = poly_eval((-5, 0, 1), -4)
        assert value == 11 and type(value) is int
        assert poly_eval((7,), 10 ** 50) == 7


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
        with pytest.raises(DomainError, match="orders 1 and 2"):
            series_mul(ts(1, 0), ts(1, 0, 0))

    @given(series_strategy(4), series_strategy(4))
    @example(ts(0, 2, 0, 0, 0), ts(0, 3, 0, 0, 0))  # zero entries are 0/1
    def test_commutative(self, a, b):
        product = series_mul(a, b)
        assert product == series_mul(b, a)
        for c in product:  # Fractions in lowest terms, the sign on the numerator
            assert c.denominator > 0
            assert gcd(abs(c.numerator), c.denominator) == 1

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
        with pytest.raises(DomainError, match="nonzero constant term"):
            series_inv(ts(0, 1, 0))

    @settings(max_examples=500)
    @given(series_strategy(5, nonzero_constant=True))
    def test_mul_inv_is_identity(self, a):
        assert series_mul(a, series_inv(a)) == ts(1, 0, 0, 0, 0, 0)


def egf_mul(a: tuple, b: tuple) -> tuple:
    """Binomial product: the EGF coefficients of (sum a_i s^i/i!)(sum b_i s^i/i!)."""
    return tuple(
        sum(comb(i, j) * a[j] * b[i - j] for j in range(i + 1)) for i in range(len(a))
    )


def egf_strategy(order: int):
    return st.tuples(st.just(0), *([st.integers(-48, 48)] * order))


class TestSeriesExp:
    def test_exp_zero(self):
        assert series_exp(ts(0, 0, 0, 0)) == ts(1, 0, 0, 0)

    def test_exp_s(self):
        # e^s has EGF coefficients all 1, i.e. 1 + s + s^2/2 + s^3/6
        g = series_exp((0, 1, 0, 0))
        assert g == (1, 1, 1, 1) and all(type(c) is int for c in g)
        assert exp_via_egf(ts(0, 1, 0, 0)) == ts(1, 1, F(1, 2), F(1, 6))

    def test_bell_numbers(self):
        # exp(e^s - 1) is the EGF of the Bell numbers
        assert series_exp((0, 1, 1, 1, 1, 1)) == (1, 1, 2, 5, 15, 52)

    def test_exp_log_factor(self):
        # frozen from the slow power-sum expansion in helpers.exp_by_powers;
        # i! h_i = (0, -1/2, -1/12) share D = 12, so u = (0, -6, -12)
        h = ts(0, F(-1, 2), F(-1, 24))
        expected = ts(1, F(-1, 2), F(1, 12))
        assert exp_by_powers(h) == expected
        assert series_exp((0, -6, -12)) == (1, -6, 24)  # 24 / (12^2 2!) = 1/12
        assert exp_via_egf(h) == expected

    def test_nonzero_constant_rejected(self):
        with pytest.raises(DomainError):
            series_exp(ts(1, 1))

    @given(series_strategy(5, zero_constant=True))
    def test_agrees_with_power_sum_expansion(self, h):
        assert exp_via_egf(h) == exp_by_powers(h)

    @given(egf_strategy(4), egf_strategy(4))
    def test_exp_is_a_homomorphism(self, u1, u2):
        assert series_exp(add(u1, u2)) == egf_mul(series_exp(u1), series_exp(u2))
