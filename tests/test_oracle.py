"""The dynamic-programming oracle against independent enumeration."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from denumerant import oracle
from denumerant.errors import DomainError, ResourceLimitError
from denumerant.oracle import multiset_counts, oracle_count, oracle_table
from denumerant.partset import PartSet

from helpers import brute_force_count

small_partsets = st.lists(
    st.integers(min_value=1, max_value=12), min_size=1, max_size=4, unique=True
).map(lambda v: PartSet(tuple(v)))


def test_single_part_one():
    assert oracle_table(PartSet.of(1), 5).counts == (1, 1, 1, 1, 1, 1)


def test_two_three():
    assert oracle_table(PartSet.of(2, 3), 5).counts[5] == 1


def test_two_three_five_at_twenty():
    assert oracle_table(PartSet.of(2, 3, 5), 20).counts[20] == 11


def test_parity_gap():
    assert oracle_table(PartSet.of(2, 4), 7).counts[7] == 0


def test_count_values():
    assert oracle_count(PartSet.of(2, 3, 5), 29) == 19
    assert oracle_count(PartSet.of(7), 21) == 1
    assert oracle_count(PartSet.of(7), 20) == 0


def test_negative_arguments_rejected():
    with pytest.raises(DomainError):
        oracle_count(PartSet.of(2, 3), -1)
    with pytest.raises(DomainError):
        oracle_table(PartSet.of(2, 3), -1)


def test_table_shape():
    table = oracle_table(PartSet.of(3, 5), 11)
    assert table.upper == 11
    assert len(table.counts) == 12
    assert table.counts[0] == 1
    assert table.counts[1] == table.counts[2] == 0  # below the smallest part


@given(
    small_partsets,
    st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=6),
)
@example(PartSet.of(7), [40, 21, 14, 3, 0, 41, 84, 120, 170])
@example(PartSet.of(1, 4, 6), [40, 21, 14, 3, 0, 41, 84, 120, 170])
def test_matches_brute_force(parts, ns):
    """Lookups in any order agree, also across the cache's doubling growth.

    The explicit examples go down from 40 on a 41-entry table, then up: 41
    grows it to 82 entries, 84 to 164 and 170 to 328.
    """
    oracle._TABLES.pop(parts.parts, None)
    for n in ns:
        count = oracle_count(parts, n)
        assert count == oracle_table(parts, n).counts[n]
        assert count == brute_force_count(parts.parts, n)


@given(
    st.lists(st.integers(min_value=1, max_value=12), min_size=2, max_size=4, unique=True),
    st.integers(min_value=0, max_value=60),
)
def test_peel_largest_part(values, n):
    parts = PartSet(tuple(values))
    largest = parts.parts[-1]
    if n < largest:
        return
    peeled = parts.without(largest)
    assert oracle_count(parts, n) == oracle_count(peeled, n) + oracle_count(
        parts, n - largest
    )


@given(small_partsets, st.integers(min_value=0, max_value=50))
@settings(max_examples=60)
def test_generating_function_inverse(parts, upper):
    """Convolving the counts with prod(1 - t^a) gives (1, 0, ..., 0)."""
    counts = oracle_table(parts, upper).counts
    poly = [1]
    for a in parts:
        nxt = [0] * min(upper + 1, len(poly) + a)
        for i, c in enumerate(poly):
            nxt[i] += c
            if i + a <= upper:
                nxt[i + a] -= c
        poly = nxt
    out = [0] * (upper + 1)
    for i, c in enumerate(poly):
        for j in range(upper + 1 - i):
            out[i + j] += c * counts[j]
    assert out == [1] + [0] * upper


@given(st.integers(min_value=1, max_value=9), st.integers(min_value=0, max_value=60))
def test_single_part_is_divisibility(a, n):
    assert oracle_count(PartSet.of(a), n) == (1 if n % a == 0 else 0)


def test_non_coprime_parts_are_fine_here():
    # ground truth has no coprimality requirement
    assert oracle_count(PartSet.of(6, 10), 30) == 2  # 5*6 and 3*10
    assert oracle_count(PartSet.of(6, 10), 7) == 0


class TestMultisetCounts:
    def test_repeats_are_distinct_slots(self):
        # two separate 2-slots: 4 = 2+2 has three ordered slot assignments
        assert multiset_counts((2, 2), 4)[4] == 3
        assert multiset_counts((2, 2), 4) == (1, 0, 2, 0, 3)

    def test_empty_sequence(self):
        assert multiset_counts((), 3) == (1, 0, 0, 0)

    def test_agrees_with_partset_route_when_distinct(self):
        parts = PartSet.of(2, 3, 5)
        assert multiset_counts((5, 3, 2), 17) == oracle_table(parts, 17).counts

    def test_rejects_bad_entries(self):
        with pytest.raises(DomainError):
            multiset_counts((2, 0), 4)
        with pytest.raises(DomainError):
            multiset_counts((2, 3), -1)

    @given(
        st.lists(st.integers(min_value=1, max_value=7), min_size=1, max_size=3),
        st.integers(min_value=0, max_value=25),
    )
    def test_matches_brute_force(self, values, n):
        assert multiset_counts(tuple(values), n)[n] == brute_force_count(values, n)


def test_interleaved_queries_stay_consistent():
    # the shared table cache must never leak counts across part sets
    a, b = PartSet.of(2, 3), PartSet.of(2, 3, 5)
    pairs = [(a, 7), (b, 7), (a, 30), (b, 30), (a, 12), (b, 100), (a, 100)]
    for parts, n in pairs:
        assert oracle_count(parts, n) == brute_force_count(parts.parts, n)


@pytest.mark.parametrize("values", [(7,), (4, 9), (1, 5, 6), (3, 5, 7, 11)])
def test_count_tabulates_all_parts_but_the_largest(monkeypatch, values):
    """Work gate: one DP build per fresh set, over every part except a_max."""
    built = []
    real = oracle._dp_counts

    def spy(parts, upper):
        table = real(parts, upper)
        built.append((tuple(parts), len(table)))
        return table

    monkeypatch.setattr(oracle, "_dp_counts", spy)
    monkeypatch.setattr(oracle, "_TABLES", {})
    parts = PartSet(values)
    assert oracle_count(parts, 90) == brute_force_count(values, 90)
    assert built == [(parts.parts[:-1], 91)]
    for m in (90, 89, 45, 1, 0):
        assert oracle_count(parts, m) == brute_force_count(values, m)
    assert len(built) == 1

    # the full table is built directly, over all parts, and is not cached
    assert oracle_table(parts, 30).counts[30] == brute_force_count(values, 30)
    assert built[1:] == [(parts.parts, 31)]
    assert list(oracle._TABLES) == [parts.parts]
    assert len(oracle._TABLES[parts.parts]) == 91


def test_oversized_tables_refused_before_allocating(monkeypatch):
    monkeypatch.setattr(oracle, "_MAX_TABLE_ENTRIES", 100)
    monkeypatch.setattr(oracle, "_TABLES", {})
    parts = PartSet.of(2, 3, 5)
    assert oracle_count(parts, 60) == brute_force_count(parts.parts, 60)
    # doubling would ask for 122 entries; growth stops at the cap instead
    assert oracle_count(parts, 70) == brute_force_count(parts.parts, 70)
    assert len(oracle._TABLES[parts.parts]) == 100
    assert oracle_count(parts, 99) == brute_force_count(parts.parts, 99)
    with pytest.raises(ResourceLimitError, match="cap of 100"):
        oracle_count(parts, 100)
    with pytest.raises(ResourceLimitError):
        oracle_table(parts, 100)
    with pytest.raises(ResourceLimitError):
        multiset_counts((2, 3), 100)
    assert issubclass(ResourceLimitError, DomainError)


def test_cache_bounded_in_entries(monkeypatch):
    """The held tables never pass the single-table cap in total entries."""
    monkeypatch.setattr(oracle, "_MAX_TABLE_ENTRIES", 100)
    monkeypatch.setattr(oracle, "_TABLES", {})
    lookups = [
        (values, n)
        for values in [(2, 3), (3, 5, 7), (4, 9), (1, 5, 6), (2, 3, 5), (7, 11)]
        for n in (20, 45, 99, 60)
    ]
    for values, n in lookups + lookups[::-1]:
        assert oracle_count(PartSet(values), n) == brute_force_count(values, n)
        assert sum(map(len, oracle._TABLES.values())) <= 100
        assert values in oracle._TABLES  # the table just used is kept
