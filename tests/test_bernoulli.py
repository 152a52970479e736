"""Bernoulli numbers and Bernoulli-Barnes polynomials.

The number table is cross-checked three independent ways: against sympy
(when installed), against the exponential-of-log identity (exp of the log
coefficients must invert (e^s - 1)/s) and against the k = 1, a = 1
specialization of the Bernoulli-Barnes machinery, which computes its own
coefficients and reproduces the classical table up to the sign flip at
index 1 that the +1/2 convention introduces.

The Bernoulli-Barnes polynomials are checked against a per-factor series
inversion and product (the algorithm the package used before its scalar
convolution), and a work gate keeps that slow path from coming back.  The
difference triangle that reads a table at x is checked against the
numerators it never forms, and a memory gate holds a table that the routes
have read to its beta.
"""

import random
import sys
from fractions import Fraction
from math import comb, factorial, lcm

import pytest
import denumerant.bernoulli as bernoulli_module
import denumerant.series as series_module
from hypothesis import given
from hypothesis import strategies as st

from denumerant.bernoulli import (
    BBPoly,
    bernoulli_barnes,
    bernoulli_numbers,
    log_coefficients,
    numerators_at,
    power_sum,
)
from denumerant.errors import DomainError
from denumerant.partset import PartSet
from denumerant.reductions import theorem1_count, theorem2_count, theorem3_rhs
from denumerant.series import series_mul

from helpers import (
    bb_coeffs,
    bb_polys_by_factor_order,
    cold_caches,
    coprime_part_tuples,
    exp_via_egf,
    run_module,
)

F = Fraction

ANY_SETS = [
    tuple(combo)
    for combo in coprime_part_tuples(13, (1, 2, 3, 4))
]


def test_table_matches_sympy():
    sympy = pytest.importorskip("sympy")
    # sympy uses the same B_1 = +1/2 convention
    expected = [F(int(b.p), int(b.q)) for b in map(sympy.bernoulli, range(301))]
    assert list(bernoulli_numbers(300)) == expected


def test_table_smallest_in_a_fresh_process():
    # the table here may already be grown; a new process reads the seed entry
    done = run_module("bernoulli", "--max-index", "0")
    assert (done.returncode, done.stdout, done.stderr) == (0, "B_0 = 1\n", "")


def test_odd_entries_vanish():
    table = bernoulli_numbers(7)
    assert table[3] == table[5] == table[7] == 0


def test_even_entries_alternate_in_sign():
    table = bernoulli_numbers(12)
    signs = [1 if table[i] > 0 else -1 for i in range(2, 13, 2)]
    assert signs == [1, -1, 1, -1, 1, -1]


def test_negative_size_rejected():
    with pytest.raises(DomainError):
        bernoulli_numbers(-1)


def test_log_coefficients_match_display():
    assert list(log_coefficients(4)) == [F(-1, 2), F(-1, 24), F(0), F(1, 2880)]
    assert list(log_coefficients(1)) == [F(-1, 2)]
    assert log_coefficients(3)[2] == 0
    with pytest.raises(DomainError):
        log_coefficients(0)


def test_log_coefficients_exponentiate_back():
    # exp of the log series must invert (e^s - 1)/s exactly
    order = 8
    recovered = exp_via_egf((F(0),) + log_coefficients(order))
    direct = tuple(F(1, factorial(j + 1)) for j in range(order + 1))
    assert series_mul(recovered, direct) == (F(1),) + (F(0),) * order


def test_power_sum():
    a = PartSet.of(2, 3, 5)
    assert power_sum(a, 1) == 10
    assert power_sum(a, 2) == 38
    assert power_sum(PartSet.of(7), 0) == 1
    assert power_sum(a, 0) == 3
    with pytest.raises(DomainError):
        power_sum(a, -1)


def test_unit_coefficients_match_the_fraction_recurrence():
    """c_0..c_200 as integers over D equal the Fraction recurrence
    sum_{l <= n} C(n+1, l) c_l = 0, in any order of m from a cold cache, and
    D is the lcm of their denominators; the number table, in the same order,
    is each time a prefix of the largest."""
    expected = [F(1)]
    for n in range(1, 201):
        acc = sum(comb(n + 1, l) * c for l, c in enumerate(expected))
        expected.append(-acc / (n + 1))
    largest = bernoulli_numbers(200)
    bernoulli_module._unit_coefficients.cache_clear()
    for m in (0, 1, 2, 3, 40, 200, 199, 60, 1, 0):
        numerators, common = bernoulli_module._unit_coefficients(m)
        assert [F(c, common) for c in numerators] == expected[: m + 1]
        assert common == lcm(*(c.denominator for c in expected[: m + 1]))
        assert bernoulli_numbers(m) == largest[: m + 1]


def test_unit_coefficients_skip_the_odd_rows(monkeypatch):
    """Work gate: c_n = 0 for odd n >= 3, so those rows form no sum.

    From a cold cache, m = 200 takes 5,151 binomials; summing every row took
    10,299."""
    calls = []

    def counting(n, k):
        calls.append(n)
        return comb(n, k)

    monkeypatch.setattr(bernoulli_module, "comb", counting)
    bernoulli_module._unit_coefficients.cache_clear()
    try:
        bernoulli_module._unit_coefficients(200)
    finally:
        bernoulli_module._unit_coefficients.cache_clear()
    assert 0 < len(calls) <= 5_664  # 55% of 10,299
    assert all(n % 2 == 1 or n == 2 for n in calls)


class TestBernoulliBarnes:
    def test_constant_for_two_parts(self):
        (b0,) = bernoulli_barnes(PartSet.of(2, 3), 0)
        assert bb_coeffs(b0) == (F(1, 6),)

    def test_linear_example(self):
        table = bernoulli_barnes(PartSet.of(2, 3, 5), 1)
        assert bb_coeffs(table[1]) == (F(-1, 6), F(1, 30))  # (x - 5)/30
        assert table[1].at(2) == F(-1, 10)

    def test_single_part(self):
        (b0,) = bernoulli_barnes(PartSet.of(4), 0)
        assert bb_coeffs(b0) == (F(1, 4),)

    def test_negative_index_rejected(self):
        with pytest.raises(DomainError):
            bernoulli_barnes(PartSet.of(2, 3), -1)

    def test_integer_numerators_over_one_denominator(self):
        for combo in ((1,), (3, 4), (2, 3, 5), (3, 4, 5, 7)):
            table = bernoulli_barnes(PartSet(combo), 6)
            assert all(isinstance(entry, BBPoly) for entry in table)
            assert [entry.index for entry in table] == list(range(7))
            assert all(entry.beta is table[0].beta for entry in table)
            assert len(table[0].beta) == 7 and all(type(b) is int for b in table[0].beta)
            assert len({entry.denominator for entry in table}) == 1
            for entry in table:
                for x in (-12, -3, -1, 0, 1, 4, 10 ** 20):
                    expected = sum(c * x ** j for j, c in enumerate(bb_coeffs(entry)))
                    assert entry.at(x) == expected

    @given(
        st.lists(st.integers(-10 ** 30, 10 ** 30), min_size=1, max_size=12),
        st.integers(-10 ** 6, 10 ** 6),
    )
    def test_numerators_at_reads_every_polynomial(self, beta, x):
        # the difference triangle against the numerators it never forms:
        # sum_j C(i, j) beta_{i-j} x^j for every i <= m
        values = numerators_at(beta, x)
        assert values == [
            sum(comb(i, j) * beta[i - j] * x ** j for j in range(i + 1))
            for i in range(len(beta))
        ]
        assert all(type(v) is int for v in values)

    def test_tables_keep_only_beta_after_every_route_reads_them(self):
        # memory gate: theorem1, theorem2 and theorem3 read the first 60
        # primes' table at index 58, and it stays one beta of 5.3 KB; kept
        # numerators made it ~144 KB
        primes = [p for p in range(2, 282) if all(p % q for q in range(2, p))]
        parts = PartSet(tuple(primes))
        cold_caches()
        theorem1_count(parts, 10 ** 30 + 12345)
        theorem2_count(parts, 1)
        theorem3_rhs(parts, parts.total)
        assert bernoulli_module._bernoulli_barnes.cache_info().currsize == 1
        table = bernoulli_barnes(parts, 58)
        assert all(set(vars(entry)) == {"beta", "index", "denominator"} for entry in table)
        beta = table[0].beta
        assert all(entry.beta is beta for entry in table)
        held = sys.getsizeof(table) + sys.getsizeof(beta) + sum(map(sys.getsizeof, beta))
        held += sum(sys.getsizeof(entry) + sys.getsizeof(vars(entry)) for entry in table)
        assert held < 16_000

    @given(st.sampled_from(ANY_SETS), st.integers(min_value=0, max_value=5))
    def test_degree_and_top_coefficient(self, combo, m):
        parts = PartSet(combo)
        entry = bernoulli_barnes(parts, m)[m]
        assert len(bb_coeffs(entry)) == m + 1
        assert bb_coeffs(entry)[-1] == F(1, parts.product)

    def test_factor_order_is_irrelevant(self):
        rng = random.Random(7)
        for combo in rng.sample(ANY_SETS, 25):
            shuffled = list(combo)
            rng.shuffle(shuffled)
            reference = bernoulli_barnes(PartSet(combo), 12)
            manual = bb_polys_by_factor_order(shuffled, 12)
            assert [bb_coeffs(entry) for entry in reference] == manual

    def test_matches_per_factor_inversion_at_high_index(self):
        reference = bernoulli_barnes(PartSet.of(3, 4, 5, 7), 40)
        manual = bb_polys_by_factor_order([7, 3, 5, 4], 40)
        assert [bb_coeffs(entry) for entry in reference] == manual

    def test_no_series_products_or_per_part_inversions(self, monkeypatch):
        # deterministic work gate: the polynomials come from one scalar
        # convolution, not from per-part series_inv and Poly-valued series_mul
        calls = {"series_inv": 0, "series_mul": 0}

        def counting(name):
            original = getattr(series_module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return wrapper

        for name in calls:
            wrapped = counting(name)
            monkeypatch.setattr(series_module, name, wrapped)
            monkeypatch.setattr(bernoulli_module, name, wrapped, raising=False)

        # and they keep their own coefficients, apart from the number table
        def table_read(m):
            raise AssertionError("theorem1's polynomials must not read section3's table")

        monkeypatch.setattr(bernoulli_module, "bernoulli_numbers", table_read)
        cache = bernoulli_module._bernoulli_barnes
        misses = cache.cache_info().misses
        bernoulli_barnes(PartSet.of(11, 17, 19, 23), 40)
        assert cache.cache_info().misses == misses + 1
        assert calls["series_mul"] == 0 and calls["series_inv"] <= 1
        calls.update(series_inv=0, series_mul=0)
        bernoulli_barnes(PartSet.of(13, 16, 19, 29), 37)
        assert cache.cache_info().misses == misses + 2
        assert calls == {"series_inv": 0, "series_mul": 0}

    def test_denominator_reduced_at_large_k(self):
        # Size gate: over the first 60 primes at index 58, beta and its
        # denominator lose their gcd after each convolution, 4,626 -> 458 bits
        primes = [p for p in range(2, 282) if all(p % q for q in range(2, p))]
        parts = PartSet(tuple(primes))
        table = bernoulli_barnes(parts, 58)
        assert len(primes) == 60 and table[0].denominator.bit_length() < 1_000
        assert bb_coeffs(table[0]) == (F(1, parts.product),)
        assert bb_coeffs(table[58])[-1] == F(1, parts.product)
        assert bb_coeffs(table[1]) == (F(-parts.total, 2 * parts.product), F(1, parts.product))

    def test_cache_is_bounded(self):
        # a long-running process must not hoard polynomials, while the ~30
        # keys a sweep revisits must all stay cached
        maxsize = bernoulli_module._bernoulli_barnes.cache_info().maxsize
        assert maxsize is not None and maxsize >= 128

    def test_classical_specialization(self):
        # with a single part 1, the polynomials are the classical Bernoulli
        # polynomials; at x = 0 they give the table up to the index-1 flip
        table = bernoulli_barnes(PartSet.of(1), 60)
        numbers = bernoulli_numbers(60)
        for i, entry in enumerate(table):
            expected = -numbers[i] if i == 1 else numbers[i]
            assert entry.at(0) == expected
