"""The reduction identities against the oracle and against each other."""

import importlib
import pkgutil
import random
from fractions import Fraction
from math import prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import denumerant
from denumerant import bernoulli, reductions
from denumerant.errors import CoprimalityError, DomainError, RangeError, UnsupportedArityError
from denumerant.oracle import oracle_count
from denumerant.partset import PartSet
from denumerant.reductions import (
    closed_form_correction,
    closed_form_count,
    closed_form_theorem2,
    decompose,
    section3_count,
    theorem1_correction,
    theorem1_count,
    theorem2_count,
    theorem3_rhs,
)
from denumerant.series import series_exp
from denumerant.waves import waves_count

from helpers import calls, cold_caches, coprime_part_tuples

F = Fraction

COPRIME_2_TO_4 = coprime_part_tuples(13, (2, 3, 4), max_product=4000)
COPRIME_2_TO_5 = coprime_part_tuples(13, (2, 3, 4, 5))

small_n = st.integers(min_value=0, max_value=2000)


def with_n(pool):
    """A part set from pool and an n: at most 2000, or below 4P as verify draws it."""
    return st.sampled_from(pool).flatmap(
        lambda combo: st.tuples(st.just(combo), small_n | st.integers(0, 4 * prod(combo) - 1))
    )


def case_ids(table):
    return [f"{route.__name__}-{','.join(map(str, parts))}-{arg}" for route, parts, arg, _ in table]


# (route, parts, n, value): small counts and corrections, each pinned on
# every route that computes it; n = 29 < P = 30 has q = 0
KNOWN = [
    (route, parts, n, value)
    for routes, parts, n, value in [
        ((theorem1_count, section3_count), (2, 3), 11, 2),
        ((theorem1_count, section3_count), (2, 3, 5), 59, 68),
        ((theorem1_count, section3_count), (2, 3, 5), 29, 19),
        ((theorem1_correction, closed_form_correction), (2, 3), 11, 1),
        ((theorem1_correction, closed_form_correction), (2, 3, 5), 59, 49),
        ((theorem1_correction,), (7,), 21, 0),
    ]
    for route in routes
]


@pytest.mark.parametrize("route, parts, n, value", KNOWN, ids=case_ids(KNOWN))
def test_known_values(route, parts, n, value):
    assert route(PartSet(parts), n) == value


# (route, parts, argument, error): each route refuses what its identity does
# not cover, with exactly this error; theorem2 takes 0 < x < S, theorem3
# S <= x <= P, section3 k >= 2 and the closed forms 2 <= k <= 5
REFUSED = [
    (theorem1_count, (2, 4), 10, CoprimalityError),
    (theorem1_correction, (6, 10), 100, CoprimalityError),
    (section3_count, (7,), 21, UnsupportedArityError),
    (section3_count, (2, 4), 10, CoprimalityError),
    (closed_form_correction, (7,), 21, UnsupportedArityError),
    (closed_form_correction, (1, 2, 3, 5, 7, 11), 100, UnsupportedArityError),
    (closed_form_correction, (2, 4), 10, CoprimalityError),
    (waves_count, (2, 4), 10, CoprimalityError),
    (waves_count, (2, 3), -1, DomainError),
    (theorem2_count, (2, 3, 5), 0, RangeError),
    (theorem2_count, (2, 3, 5), 10, RangeError),
    (theorem2_count, (7,), 3, UnsupportedArityError),
    (theorem2_count, (2, 4), 3, CoprimalityError),
    (closed_form_theorem2, (2, 3, 5), 10, RangeError),
    (closed_form_theorem2, (7,), 3, UnsupportedArityError),
    (closed_form_theorem2, (2, 4), 3, CoprimalityError),
    (theorem3_rhs, (2, 3, 5), 9, RangeError),
    (theorem3_rhs, (2, 3, 5), 31, RangeError),
    (theorem3_rhs, (7,), 7, UnsupportedArityError),
    (theorem3_rhs, (2, 6), 8, CoprimalityError),
]


@pytest.mark.parametrize("route, parts, arg, error", REFUSED, ids=case_ids(REFUSED))
def test_refuses_what_it_does_not_cover(route, parts, arg, error):
    with pytest.raises(error) as refused:
        route(PartSet(parts), arg)
    assert type(refused.value) is error


class TestDecompose:
    def test_examples(self):
        assert decompose(PartSet.of(2, 3), 11) == (1, 5)
        assert decompose(PartSet.of(2, 3, 5), 59) == (1, 29)
        assert decompose(PartSet.of(2, 3, 5), 29) == (0, 29)

    def test_negative_rejected(self):
        with pytest.raises(RangeError):
            decompose(PartSet.of(2, 3), -1)
        # the k = 1 shortcut comes after the decomposition
        for parts in (PartSet.of(7), PartSet.of(2, 3), PartSet.of(2, 3, 5)):
            with pytest.raises(RangeError):
                theorem1_correction(parts, -1)

    @given(st.sampled_from(COPRIME_2_TO_4), small_n)
    def test_roundtrip(self, combo, n):
        parts = PartSet(combo)
        q, r = decompose(parts, n)
        assert q * parts.product + r == n
        assert 0 <= r < parts.product


class TestTheorem1:
    def test_single_part(self):
        # empty correction sum: the count reduces to the residue
        for n in (0, 7, 20, 21, 1000001):
            assert theorem1_count(PartSet.of(7), n) == (1 if n % 7 == 0 else 0)

    @given(st.integers(min_value=1, max_value=40), small_n)
    def test_single_part_matches_oracle(self, a, n):
        # k = 1 reads no Bernoulli-Barnes polynomial: the correction is 0
        assert theorem1_count(PartSet.of(a), n) == oracle_count(PartSet.of(a), n)

    def test_single_part_holds_no_table(self):
        # from cold caches a one-part count builds, and so holds, no
        # Bernoulli-Barnes table and no unit coefficients; 10^30 = 1 mod 7
        cold_caches()
        assert theorem1_count(PartSet.of(7), 10 ** 30 + 13) == 1
        assert bernoulli._bernoulli_barnes.cache_info().currsize == 0
        assert bernoulli._unit_coefficients.cache_info().currsize == 0

    @given(st.sampled_from(COPRIME_2_TO_4), small_n)
    @settings(max_examples=200)
    def test_matches_oracle(self, combo, n):
        parts = PartSet(combo)
        expected = oracle_count(parts, n)
        for count in (theorem1_count, closed_form_count):
            assert count(parts, n) == expected


class TestTheorem2:
    @given(st.sampled_from(COPRIME_2_TO_4))
    @settings(max_examples=60)
    @example((2, 3))
    @example((2, 3, 5))
    @example((3, 4, 5))
    @example((2, 3, 5, 7))
    @example((1, 2, 3, 5, 7))
    def test_total_on_its_domain(self, combo):
        parts = PartSet(combo)
        for x in range(1, parts.total):
            assert theorem2_count(parts, x) == oracle_count(parts, parts.product - x)


class TestTheorem3:
    @given(st.sampled_from([c for c in COPRIME_2_TO_4 if sum(c) <= 150]))
    @settings(max_examples=40)
    @example((2, 3))
    @example((2, 3, 5))
    @example((3, 4, 5))
    @example((2, 3, 5, 7))
    def test_total_on_its_domain(self, combo):
        parts = PartSet(combo)
        if parts.total > parts.product:
            return
        sign = (-1) ** parts.k
        for x in range(parts.total, parts.product + 1):
            lhs = oracle_count(parts, parts.product - x) + sign * oracle_count(
                parts, x - parts.total
            )
            assert theorem3_rhs(parts, x) == lhs

    @given(st.sampled_from([c for c in COPRIME_2_TO_4 if len(c) == 3]))
    def test_linear_in_x_for_three_parts(self, combo):
        parts = PartSet(combo)
        if parts.total > parts.product:
            return
        expected = lambda x: F(parts.product + parts.total, 2) - x
        for x in (parts.total, (parts.total + parts.product) // 2, parts.product):
            assert theorem3_rhs(parts, x) == expected(x)


class TestSection3:
    @given(with_n(COPRIME_2_TO_5))
    @settings(max_examples=200)
    def test_agrees_with_the_correction_sum(self, drawn):
        combo, n = drawn
        parts = PartSet(combo)
        assert section3_count(parts, n) == theorem1_count(parts, n)

    @pytest.mark.parametrize(
        "combo",
        [(2, 3), (2, 3, 5), (3, 4, 5, 7), (2, 3, 5, 7, 11), (3, 5, 7, 11, 13, 16),
         (2, 3, 5, 7, 11, 13, 17)],
    )
    def test_series_truncated_at_the_coefficient_read(self, monkeypatch, combo):
        """Work gate: exps at order max(k - 2, 1) only, ints in and out; k = 2 is
        the clamp.  From cold caches the first call makes two, the unit
        exponential and e^C, and each later call makes one, e^C alone.
        """
        cold_caches()
        orders = []

        def spy(series):
            orders.append(len(series) - 1)
            assert all(type(c) is int for c in series)
            out = series_exp(series)
            assert all(type(c) is int for c in out)
            return out

        monkeypatch.setattr(reductions, "series_exp", spy)
        parts = PartSet(combo)
        for n in (10 ** 30 + 12345, 10 ** 30 + 7 * parts.product - 1):
            assert section3_count(parts, n) == waves_count(parts, n)
        assert orders == [max(parts.k - 2, 1)] * 3

    def test_series_ints_do_not_grow_with_n(self, monkeypatch):
        """Bit gate: every series exponentiated is n-free, so the widest int
        in or out of series_exp is the same at n ~ 10^30 P and 10^3000 P."""
        widest = []

        def spy(series):
            out = series_exp(series)
            widest[-1] = max(widest[-1], *(abs(c).bit_length() for c in series + out))
            return out

        monkeypatch.setattr(reductions, "series_exp", spy)
        parts = PartSet.of(2, 3, 5, 7, 11, 13, 17)
        for e in (30, 3000):
            cold_caches()
            widest.append(0)
            n = 10 ** e * parts.product + 12345
            assert section3_count(parts, n) == theorem1_count(parts, n)
        assert widest[0] == widest[1] < 200

    def test_unit_exponential_is_the_bernoulli_generating_function(self):
        """exp(ln((e^y - 1)/y)) = (e^y - 1)/y at y = Ds, so the unit
        exponential, built from the Bernoulli table, has (i + 1) E_i = D^i."""
        for order in range(1, 61):
            d, _, unit = reductions._log_weights(order)
            assert len(unit) == order + 1
            assert all((i + 1) * e == d ** i for i, e in enumerate(unit))


@pytest.mark.parametrize("combo", [(2, 3), (2, 3, 5, 7), (3, 5, 7, 11, 13, 16)])
def test_no_correction_is_built_at_q_zero(monkeypatch, combo):
    """Work gate: for n < P the correction is multiplied by q = 0, so neither
    theorem1 nor section3 builds it; at q = 1 both do."""
    tables = calls(monkeypatch, reductions, "bernoulli_barnes")
    exps = calls(monkeypatch, reductions, "series_exp")
    parts = PartSet(combo)
    for n in (0, parts.product // 2, parts.product - 1):
        assert theorem1_count(parts, n) == section3_count(parts, n) == waves_count(parts, n)
    assert tables == exps == []
    n = parts.product + parts.product // 2
    assert theorem1_count(parts, n) == section3_count(parts, n) == waves_count(parts, n)
    assert tables and exps


@pytest.mark.parametrize(
    "combo",
    [(7, 37), (5, 17, 29), (3, 5, 7, 23), (1, 3, 5, 7, 19), (1, 3, 5, 7, 11, 13),
     (1, 2, 3, 5, 7, 11, 13)],
)
def test_routes_agree_in_the_huge_n_regime(combo):
    """At n of about 3,900 / (k - 1) digits, as count-huge-n reads them, the
    general routes, the waves and (k <= 5) the closed forms give one value."""
    parts = PartSet(combo)
    e = 3900 // (parts.k - 1)
    n = random.Random(parts.k).randrange(10 ** (e - 1), 10 ** e)
    expected = waves_count(parts, n)
    assert theorem1_count(parts, n) == expected
    assert section3_count(parts, n) == expected
    if parts.k <= 5:
        assert closed_form_count(parts, n) == expected


class TestClosedForms:
    def test_theorem2_examples(self):
        assert closed_form_theorem2(PartSet.of(2, 3), 1) == 1
        assert closed_form_theorem2(PartSet.of(2, 3, 5), 5) == 15
        assert oracle_count(PartSet.of(2, 3, 5), 25) == 15
        # the r = -x reading at every boundary point, one set per arity
        for combo in ((3, 5), (3, 4, 5), (2, 3, 5, 7), (2, 3, 5, 7, 11)):
            parts = PartSet(combo)
            for x in range(1, parts.total):
                expected = oracle_count(parts, parts.product - x)
                assert closed_form_theorem2(parts, x) == expected

    @given(with_n(COPRIME_2_TO_5))
    @settings(max_examples=300)
    @example(((2, 3, 5, 7), 210))
    def test_correction_equivalence(self, drawn):
        combo, n = drawn
        parts = PartSet(combo)
        assert closed_form_correction(parts, n) == theorem1_correction(parts, n)

    @given(
        st.sampled_from(COPRIME_2_TO_5).flatmap(
            lambda combo: st.tuples(st.just(combo), st.integers(1, sum(combo) - 1))
        )
    )
    @settings(max_examples=300)
    @example(((2, 3, 5, 7), 16))
    def test_theorem2_equivalence(self, drawn):
        combo, x = drawn
        parts = PartSet(combo)
        assert closed_form_theorem2(parts, x) == theorem2_count(parts, x)


@pytest.mark.parametrize(
    "combo", [(3, 5), (3, 4, 5), (3, 4, 5, 7), (3, 4, 5, 7, 11), (3, 4, 5, 7, 11, 13)]
)
def test_bernoulli_barnes_routes_evaluate_k_minus_1_polynomials(monkeypatch, combo):
    """Work gate: theorem1, theorem2 and theorem3 read B_0..B_{k-2} of one table
    by one call of numerators_at at their x, on the table's beta, through
    reductions or through BBPoly.at; section3 reads no table and calls neither.
    """
    parts = PartSet(combo)
    k = parts.k
    tables = calls(monkeypatch, reductions, "bernoulli_barnes")
    reads = calls(monkeypatch, reductions, "numerators_at")
    reads_at = calls(monkeypatch, bernoulli, "numerators_at")
    n = 10 ** 30 + 12345
    routes = (
        (theorem1_count, n, -(n % parts.product)),
        (theorem2_count, parts.total - 1, parts.total - 1),
        (theorem3_rhs, parts.total, parts.total),
    )

    def made(route, arg):
        for recorded in (tables, reads, reads_at):
            recorded.clear()
        route(parts, arg)
        return tables, [(len(beta), at) for beta, at in reads + reads_at]

    for route, arg, x in routes:
        assert made(route, arg) == ([(parts, k - 2)], [(k - 1, x)])
    assert made(section3_count, n) == ([], [])


# The package functions each route may call, as module.name.  Everything else
# in the package raises while a route runs, oracle._dp_counts and
# oracle.oracle_count included: theorem1 reads the Bernoulli-Barnes
# polynomials, section3 the Bernoulli number table, the closed forms neither,
# and all three take p(r) from the waves, which read no other route.  The
# waves' size check in admission.py is policy, not a route.
WAVES = {"waves.waves_count", "waves._setup", "waves._wave", "waves._walk", "admission.hold"}
WAVES |= {"admission.recall", "admission.admit_waves"}
REDUCED = WAVES | {"reductions.decompose", "reductions._exact"}
ALLOWED = {
    "theorem1": REDUCED
    | {
        "reductions.theorem1_count",
        "reductions.theorem1_correction",
        "reductions._bb_sum",
        "bernoulli.bernoulli_barnes",
        "bernoulli._bernoulli_barnes",
        "bernoulli._unit_coefficients",
        "bernoulli._primorial",
        "bernoulli.numerators_at",
    },
    "section3": REDUCED
    | {
        "reductions.section3_count",
        "reductions._require_two_coprime_parts",
        "reductions._log_weights",
        "bernoulli.log_coefficients",
        "bernoulli.bernoulli_numbers",
        "bernoulli._tangent_numbers",
        "bernoulli.power_sum",
        "series.series_exp",
    },
    "closed-form": REDUCED
    | {
        "reductions.closed_form_count",
        "reductions.closed_form_correction",
        "reductions._require_closed_form",
        "reductions._closed_form",
        "reductions._pair_product_sum",
        "bernoulli.power_sum",
    },
    "waves": WAVES,
}
ROUTES = {
    "theorem1": ("theorem1_count", "bernoulli._unit_coefficients"),
    "section3": ("section3_count", "bernoulli._tangent_numbers"),
    "closed-form": ("closed_form_count", "reductions._closed_form"),
    "waves": ("waves_count", "waves._wave"),
}


def package_bindings():
    """(module, attribute, module.name) for every package function, at every
    module-level name it is bound to, imports by name included."""
    modules = [denumerant] + [
        importlib.import_module(f"denumerant.{info.name}")
        for info in pkgutil.iter_modules(denumerant.__path__)
        if info.name != "__main__"
    ]
    return [
        (module, attr, f"{value.__module__.rsplit('.', 1)[-1]}.{value.__name__}")
        for module in modules
        for attr, value in vars(module).items()
        if callable(value)
        and not isinstance(value, type)
        and getattr(value, "__module__", "").startswith("denumerant.")
    ]


@pytest.mark.parametrize("combo", [(2, 3, 5), (3, 4, 5, 7), (2, 3, 5, 7, 11)])
@pytest.mark.parametrize("route", sorted(ROUTES))
def test_routes_read_no_other_routes_source(monkeypatch, combo, route):
    """On cold caches, each route counts at n = 10^30 with every package
    function outside its allowed set made to raise, and reaches its own source."""
    parts, n = PartSet(combo), 10 ** 30
    name, source = ROUTES[route]
    (expected,) = {getattr(reductions, other)(parts, n) for other, _ in ROUTES.values()}
    bindings = package_bindings()
    names = {key for _, _, key in bindings}
    assert ALLOWED[route] <= names

    cold_caches()

    called = set()

    def reached(key, fn):
        def wrapper(*args, **kwargs):
            called.add(key)
            if key not in ALLOWED[route]:
                raise AssertionError(f"{route} reached {key}")
            return fn(*args, **kwargs)

        return wrapper

    for module, attr, key in bindings:
        monkeypatch.setattr(module, attr, reached(key, getattr(module, attr)))
    assert getattr(reductions, name)(parts, n) == expected
    assert source in called and called <= ALLOWED[route]


@pytest.mark.parametrize("combo", [(2, 3), (2, 3, 5), (3, 4, 5, 7), (2, 3, 5, 7, 11)])
def test_every_route_and_identity_returns_an_int(combo):
    """Counts, corrections and boundary values come back as int, not Fraction."""
    parts = PartSet(combo)
    n, x = 10 ** 30 + 12345, parts.total - 1
    at_n = (
        waves_count,
        theorem1_count,
        section3_count,
        closed_form_count,
        theorem1_correction,
        closed_form_correction,
    )
    values = [oracle_count(parts, 2 * parts.product + 1)]
    values += [route(parts, n) for route in at_n]
    values += [theorem2_count(parts, x), closed_form_theorem2(parts, x)]
    values.append(theorem3_rhs(parts, parts.total))
    assert [type(value) for value in values] == [int] * len(values)
