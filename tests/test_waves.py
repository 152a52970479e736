"""Sylvester's waves against the oracle, the reductions and their limits."""

import sys
from math import gcd, prod

import pytest
from hypothesis import given
from hypothesis import strategies as st

from denumerant import admission, oracle, waves
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

from helpers import brute_force_count, coprime_part_tuples

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


FIRST_30_PRIMES = tuple(p for p in range(2, 114) if all(p % d for d in range(2, p)))


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


def test_reductions_build_no_count_table(monkeypatch):
    builds = []
    original = oracle._dp_counts

    def counting(parts, upper, held=()):
        builds.append(upper)
        return original(parts, upper, held)

    monkeypatch.setattr(oracle, "_dp_counts", counting)
    monkeypatch.setattr(oracle, "_TABLES", {})
    for parts in ((5, 7, 11, 13), (2, 3, 5, 7, 11), (3, 4, 5)):
        parts = PartSet(parts)
        n = 10 ** 30 + parts.product - 1  # the residue is the largest there is
        theorem1_count(parts, n)
        section3_count(parts, n)
        closed_form_count(parts, n)
    assert builds == []


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
    bits = sum(abs(v).bit_length() for _, scale, wave in held for v in (scale,) + wave)
    assert bits < 10 ** 6


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
    # a pair weighs under 1,200 bytes, the first 12 primes alone over 10,000
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
        for _, scale, wave in held
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
