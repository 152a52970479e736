"""Sylvester's waves against the oracle, the reductions and their limits."""

import sys
from fractions import Fraction
from math import gcd, prod

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from denumerant import admission, waves
from denumerant.errors import (
    CoprimalityError,
    DomainError,
    InternalInconsistencyError,
    ResourceLimitError,
)
from denumerant.oracle import oracle_count
from denumerant.partset import PartSet
from denumerant.reductions import closed_form_count, section3_count, theorem1_count
from denumerant.waves import waves_count

from helpers import brute_force_count, coprime_part_tuples, index_walk_wave, newton_by_binomials

COPRIME_SETS = coprime_part_tuples(13, range(1, 7), max_product=5000)


@st.composite
def set_and_argument(draw):
    parts = PartSet(draw(st.sampled_from(COPRIME_SETS)))
    return parts, draw(st.integers(min_value=0, max_value=3 * parts.product - 1))


@given(set_and_argument())
def test_matches_oracle(case):
    parts, n = case
    assert waves_count(parts, n) == oracle_count(parts, n)


def test_every_arity_is_drawn():
    assert {len(parts) for parts in COPRIME_SETS} == set(range(1, 7))


@st.composite
def wide_set_and_argument(draw):
    """A pairwise-coprime set of up to six parts from 1..60, product <= 10^5."""
    chosen = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        room = min(60, 10 ** 5 // prod(chosen))
        fits = [
            a
            for a in range(1, room + 1)
            if a not in chosen and all(gcd(a, b) == 1 for b in chosen)
        ]
        if not fits:
            break
        chosen.append(draw(st.sampled_from(fits)))
    parts = PartSet(tuple(chosen))
    return parts, draw(st.integers(min_value=0, max_value=3 * parts.product - 1))


@given(wide_set_and_argument())
def test_matches_oracle_on_wide_parts(case):
    parts, n = case
    assert waves_count(parts, n) == oracle_count(parts, n)


FIRST_100_PRIMES = tuple(p for p in range(2, 542) if all(p % d for d in range(2, p)))
FIRST_30_PRIMES = FIRST_100_PRIMES[:30]


@pytest.mark.parametrize(
    "parts",
    [
        (2, 3),
        (1, 2, 3, 5, 7, 11),
        (11, 13, 17, 19, 23),
        (3, 5, 7, 11, 13, 17, 19, 23),
        FIRST_30_PRIMES,
    ],
)
def test_table_free_routes_agree_far_past_any_table(parts):
    # the fourth set has a product of about 1.1e8, over the oracle's table
    # cap, and the first 30 primes one of about 3.2e46
    parts = PartSet(parts)
    for n in (10 ** 30, 10 ** 30 + 7 * parts.product - 1, 10 ** 60 + 12345):
        value = waves_count(parts, n)
        assert theorem1_count(parts, n) == value
        assert section3_count(parts, n) == value
        if parts.k <= 5:
            assert closed_form_count(parts, n) == value


def test_rejects_what_the_identity_does_not_cover():
    with pytest.raises(CoprimalityError):
        waves_count(PartSet.of(2, 4), 10)
    with pytest.raises(DomainError):
        waves_count(PartSet.of(2, 3), -1)


def test_oversized_part_sum_refused_before_building(monkeypatch):
    def no_setup(parts):
        raise AssertionError("waves were built for a refused part set")

    monkeypatch.setattr(admission, "MAX_TABLE_ENTRIES", 30)
    monkeypatch.setattr(waves, "_SETUPS", {})
    # (k - 1) S walk steps: 2 * 15 = 30 fits the cap, 2 * 23 = 46 does not
    assert waves_count(PartSet.of(3, 5, 7), 29) == brute_force_count((3, 5, 7), 29)
    monkeypatch.setattr(waves, "_setup", no_setup)
    with pytest.raises(ResourceLimitError, match="46 walk steps, over the cap of 30"):
        waves_count(PartSet.of(5, 7, 11), 10 ** 30)


def test_held_waves_sized_by_the_parts(monkeypatch):
    # Scaled to D = (k - 1)! P^k instead, these waves hold ~7.2e6 bits.
    monkeypatch.setattr(waves, "_SETUPS", {})
    parts = PartSet(FIRST_30_PRIMES)
    waves_count(parts, 10 ** 60)
    _, _, _, held = waves._SETUPS[parts.parts]
    bits = sum(abs(v).bit_length() for _, scale, _, wave in held for v in (scale,) + wave)
    assert bits < 10 ** 6


@st.composite
def coprime_parts(draw):
    """Up to five pairwise-coprime parts from 1..300, so strides past 32 occur."""
    chosen = []
    for a in draw(st.lists(st.integers(min_value=1, max_value=300), min_size=1, max_size=5)):
        if all(gcd(a, b) == 1 and a != b for b in chosen):
            chosen.append(a)
    return tuple(chosen)


@given(coprime_parts())
@example((101, 103, 107, 109))  # both gathers, both directions
@example((2, 257, 263))
@example((1, 2, 3))
def test_waves_equal_the_index_walk(parts):
    """Each wave over d_j, less its mean, equals the unreduced index walk over a_j^k."""
    for j, a in enumerate(parts):
        others = parts[:j] + parts[j + 1 :]
        d, inv, wave = waves._wave(a, others)
        full = a ** len(parts)
        assert full % d == 0
        reference = index_walk_wave(a, others)
        mean = Fraction(sum(wave), a * d)
        by_residue = [Fraction(wave[n * inv % a], d) - mean for n in range(a)]
        assert by_residue == [Fraction(v, full) for v in reference]


class Probe(list):
    """A list that records which form of gather read it."""

    def __init__(self, values, forms):
        super().__init__(values)
        self.forms = forms

    def __mul__(self, times):
        self.forms.append("slices")
        return list(self) * times

    def __getitem__(self, i):
        if isinstance(i, int):
            self.forms.append("index")
        return super().__getitem__(i)


@pytest.mark.parametrize("a", [1, 2, 5, 64, 67, 101, 263])
def test_walk_gathers_by_slices_up_to_stride_32(a):
    """Stride s reads entry m * s mod a; by slices iff min(s, a - s) <= 32."""
    values = list(range(10 ** 6, 10 ** 6 + a))
    for s in (s for s in range(a) if gcd(s, a) == 1):
        forms = []
        walked = waves._walk(Probe(values, forms), s)
        assert walked == [values[m * s % a] for m in range(a)]
        assert set(forms) == {"index" if min(s, a - s) > 32 else "slices"}


@pytest.mark.parametrize("values", [(7,), (2, 3), (3, 5, 7), (2, 3, 5, 7, 11), FIRST_30_PRIMES[:6]])
def test_each_wave_walks_once_per_factor_but_the_first(monkeypatch, values):
    """Each factor but the first gathers once: k - 2 gathers, and none for residue order."""
    calls = []
    real_walk = waves._walk

    def counting(wave, s):
        calls.append(len(wave))
        return real_walk(wave, s)

    monkeypatch.setattr(waves, "_walk", counting)
    k = len(values)
    for j, a in enumerate(values):
        calls.clear()
        waves._wave(a, values[:j] + values[j + 1 :])
        assert calls == [a] * max(k - 2, 0)


def test_reduced_denominators_at_large_k():
    """First 60 primes: D is 23,266 bits and entries 506 bits over (k - 1)! P^k."""
    _, common, _, held = waves._setup(PartSet(FIRST_100_PRIMES[:60]))
    assert common.bit_length() < 1000
    assert max(abs(v).bit_length() for _, _, _, wave in held for v in wave) < 64


@pytest.mark.parametrize(
    "values", [(2, 3), (1, 2, 3, 5, 7, 11), (3, 7, 11, 13, 16), FIRST_30_PRIMES]
)
def test_setup_is_in_lowest_terms(values):
    """D, the multipliers and the Newton coefficients share no factor."""
    _, common, newton, held = waves._setup(PartSet(values))
    assert gcd(common, *newton, *(scale for _, scale, _, _ in held)) == 1


@st.composite
def coprime_sets_of_each_arity(draw):
    """k = 1..8 pairwise-coprime parts from 1..40."""
    chosen = []
    for _ in range(draw(st.integers(min_value=1, max_value=8))):
        fits = [a for a in range(1, 41) if all(gcd(a, b) == 1 and a != b for b in chosen)]
        chosen.append(draw(st.sampled_from(fits)))
    return tuple(chosen)


@given(coprime_sets_of_each_arity())
@example((1, 2, 3, 5, 7, 11, 13, 17))
@example((30, 7, 11, 13, 17, 19, 23, 29))
@example((4,))
def test_newton_coefficients_equal_the_binomial_formula(values):
    """The difference triangle gives sum_m (-1)^m C(i, m) D Poly(-m) / i!, reduced."""
    _, common, newton, held = waves._setup(PartSet(values))
    poly_values = [
        (common if m == 0 else 0)
        - sum(scale * wave[-m * inv % a] for a, scale, inv, wave in held)
        for m in range(len(values))
    ]
    assert list(newton) == newton_by_binomials(poly_values)


def test_large_k_setup_weighs_under_2_mib():
    """First 100 primes: 5.27 MiB over (k - 1)! P^k."""
    weight, _, _, _ = waves._setup(PartSet(FIRST_100_PRIMES))
    assert weight < 2 << 20


def test_one_wave_per_part_and_none_when_warm(monkeypatch):
    calls = []
    real_wave = waves._wave

    def counting(a, others):
        calls.append(a)
        return real_wave(a, others)

    monkeypatch.setattr(waves, "_wave", counting)
    monkeypatch.setattr(waves, "_SETUPS", {})
    parts = PartSet.of(3, 7, 11, 13, 16)
    waves_count(parts, 10 ** 30)
    assert calls == list(parts)
    calls.clear()
    waves_count(parts, 10 ** 30 + 1)
    assert calls == []


def test_cache_bounded_in_bytes(monkeypatch):
    """Past the byte budget the oldest set-ups go, never the one just used."""
    monkeypatch.setattr(waves, "_SETUPS", {})
    monkeypatch.setattr(admission, "MAX_HELD_BYTES", 3000)
    # a pair weighs under 1,200 bytes, the first 12 primes alone over 8,000
    pairs = [(2, a) for a in (3, 5, 7, 11, 13, 17, 19, 23)]
    used, held_counts, hits = [], set(), 0
    for values in pairs + [(2, 17), (2, 23), FIRST_30_PRIMES[:12], (3, 5, 7)] + pairs:
        held = waves._SETUPS.get(values)
        assert waves_count(PartSet(values), 100) == brute_force_count(values, 100)
        if held is not None:  # a hit moves to newest and builds nothing
            assert waves._SETUPS[values] is held
            hits += 1
        used = [key for key in used if key != values] + [values]
        *rest, newest = waves._SETUPS
        assert newest == values
        assert sum(waves._SETUPS[key][0] for key in rest) <= 3000
        assert list(waves._SETUPS) == used[-len(waves._SETUPS) :]  # oldest go first
        held_counts.add(len(waves._SETUPS))
    assert hits >= 2 and 1 in held_counts and max(held_counts) > 3


@pytest.mark.parametrize(
    "values",
    [(2, 3), (1, 2, 3, 5, 7, 11), (3, 7, 11, 13, 16), FIRST_30_PRIMES[:20], FIRST_30_PRIMES],
)
def test_recorded_weight_is_the_held_bytes(values):
    """A set-up weighs, within 5%, the sizes of the integers and tuples it holds."""
    weight, common, newton, held = waves._setup(PartSet(values))
    size = sum(map(sys.getsizeof, (common, *newton))) + sum(
        sys.getsizeof(scale) + sys.getsizeof(wave) + sum(map(sys.getsizeof, wave))
        for _, scale, _, wave in held
    )
    assert abs(weight - size) <= 0.05 * size


def test_non_integer_count_is_an_internal_error(monkeypatch):
    parts = PartSet.of(3, 5)
    waves_count(parts, 0)
    weight, common, newton, tables = waves._SETUPS[parts.parts]
    corrupted = (weight, common, (newton[0] + 1,) + newton[1:], tables)
    monkeypatch.setitem(waves._SETUPS, parts.parts, corrupted)
    with pytest.raises(InternalInconsistencyError):
        waves_count(parts, 8)
