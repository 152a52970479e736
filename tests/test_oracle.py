"""The dynamic-programming oracle against independent enumeration."""

import functools
import tracemalloc
from itertools import accumulate
from operator import itemgetter
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from denumerant import admission, oracle, waves
from denumerant.errors import DomainError, ResourceLimitError
from denumerant.oracle import oracle_count, oracle_table
from denumerant.partset import PartSet
from denumerant.verify import run_verify
from denumerant.waves import waves_count

from helpers import brute_force_count, cold_caches

small_partsets = st.lists(
    st.integers(min_value=1, max_value=12), min_size=1, max_size=4, unique=True
).map(lambda v: PartSet(tuple(v)))


def test_negative_arguments_rejected():
    with pytest.raises(DomainError):
        oracle_count(PartSet.of(2, 3), -1)
    with pytest.raises(DomainError):
        oracle_table(PartSet.of(2, 3), -1)


@given(
    small_partsets,
    st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=6),
)
@example(PartSet.of(7), [40, 21, 14, 3, 0, 41, 84, 120, 170])
@example(PartSet.of(1, 4, 6), [40, 21, 14, 3, 0, 41, 84, 120, 170])
@example(PartSet.of(1), [5, 4, 3, 2, 1, 0])
@example(PartSet.of(2, 3), [5])
@example(PartSet.of(2, 3, 5), [20, 29])
@example(PartSet.of(3, 5), [11, 0, 1, 2])
@example(PartSet.of(2, 4), [7])  # no odd n
@example(PartSet.of(6, 10), [30, 7])  # the oracle needs no coprimality
def test_matches_brute_force(parts, ns):
    """Lookups in any order agree, also as the cache extends its tables.

    The first two examples go down from 40 on a 41-entry table, then up: 41
    extends it by a quarter, to 51 entries, and 84, 120 and 170, each more
    than a quarter past the table's end, extend it to n + 1 entries.  A
    one-part set reads no table.
    """
    oracle._TABLES.pop(parts.parts[:-1], None)
    for n in ns:
        count = oracle_count(parts, n)
        assert count == oracle_table(parts, n)[n]
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
    peeled = PartSet(parts.parts[:-1])
    assert oracle_count(parts, n) == oracle_count(peeled, n) + oracle_count(
        parts, n - largest
    )


@given(small_partsets, st.integers(min_value=0, max_value=50))
@settings(max_examples=60)
def test_generating_function_inverse(parts, upper):
    """Convolving the counts with prod(1 - t^a) gives (1, 0, ..., 0)."""
    counts = oracle_table(parts, upper)
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


@pytest.mark.parametrize("values", [(7,), (4, 9), (1, 5, 6), (3, 5, 7, 11)])
def test_count_tabulates_all_parts_but_the_largest(monkeypatch, values):
    """Work gate: one DP build per fresh set, over every part except a_max.

    A one-part count is [a | n] and builds no table.
    """
    built = []
    real = oracle._dp_counts

    def spy(parts, upper, held=()):
        table = real(parts, upper, held)
        built.append((tuple(parts), len(held), len(table)))
        return table

    monkeypatch.setattr(oracle, "_dp_counts", spy)
    monkeypatch.setattr(oracle, "_TABLES", {})
    parts = PartSet(values)
    key = parts.parts[:-1]
    fresh = [(key, 0, 91)] if key else []
    assert oracle_count(parts, 90) == brute_force_count(values, 90)
    assert built == fresh
    for m in (90, 89, 45, 1, 0):
        assert oracle_count(parts, m) == brute_force_count(values, m)
    assert built == fresh

    # the full table is built directly, over all parts, and is not cached
    assert oracle_table(parts, 30)[30] == brute_force_count(values, 30)
    assert built[len(fresh) :] == [(parts.parts, 0, 31)]
    assert {key: len(table) for key, table in oracle._TABLES.items()} == (
        {key: 91} if key else {}
    )


def test_one_part_counts_read_no_table(monkeypatch):
    """[a | n] at any n, past the table cap too, with no kernel call."""

    def refuse(*args):
        raise AssertionError("a one-part count called the DP kernel")

    monkeypatch.setattr(oracle, "_dp_counts", refuse)
    monkeypatch.setattr(oracle, "_TABLES", {})
    assert oracle_count(PartSet.of(7), 10 ** 7 - 3) == 1
    assert oracle_count(PartSet.of(7), 10 ** 7 - 2) == 0
    assert oracle_count(PartSet.of(1), 10 ** 30) == 1
    assert type(oracle_count(PartSet.of(7), 10 ** 30)) is int
    assert oracle._TABLES == {}


def test_oversized_tables_refused_before_allocating(monkeypatch):
    monkeypatch.setattr(admission, "MAX_TABLE_ENTRIES", 100)
    monkeypatch.setattr(oracle, "_TABLES", {})
    parts = PartSet.of(2, 3, 5)
    assert oracle_count(parts, 80) == brute_force_count(parts.parts, 80)
    # a quarter more would ask for 101 entries; growth stops at the cap instead
    assert oracle_count(parts, 82) == brute_force_count(parts.parts, 82)
    assert len(oracle._TABLES[parts.parts[:-1]]) == 100
    assert oracle_count(parts, 99) == brute_force_count(parts.parts, 99)
    with pytest.raises(ResourceLimitError, match="cap of 100"):
        oracle_count(parts, 100)
    with pytest.raises(ResourceLimitError):
        oracle_table(parts, 100)
    with pytest.raises(ResourceLimitError):
        oracle._dp_counts((2, 3), 100)
    with pytest.raises(ResourceLimitError):
        oracle._dp_counts((2, 3), 100, oracle._TABLES[(2, 3)])
    assert issubclass(ResourceLimitError, DomainError)


def test_cache_bounded_in_bytes(monkeypatch):
    """Past the byte budget the oldest tables go, never the one just used.
    Every count here is under 256, so each table is one plane, a byte an entry."""
    monkeypatch.setattr(admission, "MAX_TABLE_ENTRIES", 100)
    monkeypatch.setattr(admission, "MAX_HELD_BYTES", 150)
    monkeypatch.setattr(oracle, "_TABLES", {})
    lookups = [
        (values, n)
        for values in [(2, 3), (3, 5, 7), (4, 9), (1, 5, 6), (2, 3, 5), (7, 11)]
        for n in (20, 45, 99, 60)
    ]
    held_counts = set()
    for values, n in lookups + lookups[::-1]:
        assert oracle_count(PartSet(values), n) == brute_force_count(values, n)
        tables = list(oracle._TABLES.values())
        assert all(len(table.planes) == 1 for table in tables)
        held = sum(map(len, tables))
        assert held == sum(map(oracle._nbytes, tables))
        assert held <= 150 or len(tables) == 1
        assert list(oracle._TABLES)[-1] == values[:-1]  # the table just used is kept
        held_counts.add(len(tables))
    assert max(held_counts) > 1 and min(held_counts) < 6  # some kept, some dropped


def test_eviction_stops_once_the_held_bytes_fit(monkeypatch):
    """Past the budget the oldest entries go, one at a time, only until the rest fit."""
    monkeypatch.setattr(admission, "MAX_HELD_BYTES", 10)
    cache = {"a": 4, "b": 4, "c": 2}
    assert admission.hold(cache, "d", 4, int) == 4
    assert cache == {"b": 4, "c": 2, "d": 4}  # 14 held, dropping "a" leaves 10
    admission.hold(cache, "e", 11, int)
    assert cache == {"e": 11}  # an entry over the budget alone is still kept


def test_held_bytes_stay_under_the_budget(monkeypatch):
    """Gate: after verify sweeps and wide waves, the oracle tables and the wave
    set-ups each hold at most the budget, not counting their newest entry."""
    budget = 1 << 16
    monkeypatch.setattr(admission, "MAX_HELD_BYTES", budget)
    monkeypatch.setattr(oracle, "_TABLES", {})
    monkeypatch.setattr(waves, "_SETUPS", {})
    used, setups, dp_counts, setup = set(), [], oracle._dp_counts, waves._setup

    def counting_dp(parts, upper, held=()):
        used.add(tuple(parts))
        return dp_counts(parts, upper, held)

    def counting_setup(parts):
        setups.append(parts)
        return setup(parts)

    monkeypatch.setattr(oracle, "_dp_counts", counting_dp)
    monkeypatch.setattr(waves, "_setup", counting_setup)

    def held_but_newest(cache, weigh):
        *rest, _ = cache.values()
        return sum(map(weigh, rest))

    primes = [p for p in range(2, 114) if all(p % d for d in range(2, p))]
    for seed in range(10):
        run_verify(trials=50, seed=seed, k_min=2, k_max=5, max_part=13, max_product=20000)
        assert held_but_newest(oracle._TABLES, oracle._nbytes) <= budget
    for values in (primes[:20], primes[5:25], primes[:30], primes[:24]):
        waves_count(PartSet(tuple(values)), 10 ** 30)
        assert held_but_newest(waves._SETUPS, itemgetter(0)) <= budget
    # both caches dropped entries, so the bound was in force
    assert len(oracle._TABLES) < len(used) and len(waves._SETUPS) < len(setups)


def planes_for(table):
    """The planes a table's largest count needs, at least one."""
    return max(1, -(-max(table).bit_length() // 8))


def test_held_tables_take_the_bytes_their_counts_need():
    """Bytes gate: after a verify sweep from cold caches, each held table
    weighs its length times the bytes its largest count needs, at least one,
    and all of them less than 0.8 times what items of 4 bytes, or 8 past
    2^32 - 1, took: 1,949,578 bytes against 2,517,656."""
    cold_caches()
    assert run_verify(200, 0, 2, 5, 13, 20000) == ()
    tables = list(oracle._TABLES.values())
    counts = [table.ints() for table in tables]
    assert list(map(oracle._nbytes, tables)) == [len(c) * planes_for(c) for c in counts]
    items = sum(len(c) * (8 if max(c) >> 32 else 4) for c in counts)
    assert sum(map(oracle._nbytes, tables)) < 0.8 * items


# Counts over 1..20 pass 2^8 at n = 17, 2^32 at n = 141, 2^64 at n = 658.
WIDE = tuple(range(1, 22))


@pytest.mark.parametrize(
    "values, n, cap, planes",
    [((2, 3, 5), 60, 100, 1), (WIDE, 200, 700, 5), (WIDE, 680, 700, 9)],
)
def test_refused_extension_leaves_the_held_table_unchanged(
    monkeypatch, values, n, cap, planes
):
    """In one plane, five, and nine (past 2^64 - 1): the held object stays
    cached, same length, same planes, same counts, and a later lookup it
    covers builds nothing."""
    monkeypatch.setattr(admission, "MAX_TABLE_ENTRIES", cap)
    monkeypatch.setattr(oracle, "_TABLES", {})
    parts = PartSet(values)
    expected = oracle_table(parts, n - 10)[n - 10]
    oracle_count(parts, n)
    (table,) = oracle._TABLES.values()
    assert len(table.planes) == planes
    before = [bytes(plane) for plane in table.planes]
    with pytest.raises(ResourceLimitError, match=f"cap of {cap}"):
        oracle_count(parts, cap)
    assert oracle._TABLES == {values[:-1]: table}
    assert oracle._TABLES[values[:-1]] is table
    assert len(table) == n + 1 and [bytes(plane) for plane in table.planes] == before

    def no_build(*args):
        raise AssertionError("a lookup the held table covers built a table")

    monkeypatch.setattr(oracle, "_dp_counts", no_build)
    assert oracle_count(parts, n - 10) == expected


@settings(max_examples=40)
@given(
    st.lists(
        st.tuples(
            st.sampled_from([(2, 3, 5), (1, 4, 6, 9), (3, 5, 7, 11, 13), WIDE]),
            st.integers(min_value=0, max_value=700),
        ),
        min_size=1,
        max_size=8,
    ),
    st.integers(min_value=1, max_value=8),
)
@example([(WIDE, 100), (WIDE, 140), (WIDE, 200), (WIDE, 640), (WIDE, 700)], 3)
@example([((2, 3, 5), 700), (WIDE, 100), ((2, 3, 5), 10), (WIDE, 700), (WIDE, 5)], 1)
def test_extended_tables_equal_a_fresh_build(lookups, block):
    """Any lookups extend a table to what oracle_table builds over the covered
    parts, in as many planes as its largest count needs.  The explicit
    examples extend a held table from four planes to five, eight and nine,
    past 2^64 - 1, and build nine planes from one within a build, under a
    budget of a few tables' bytes, so tables are dropped in between.  The
    lookups fill their tables in blocks of `block` entries, whatever the
    parts, so a growth crosses many blocks and most parts are wider than a
    block; oracle_table builds at the kernel's own block size."""
    with mock.patch.object(admission, "MAX_HELD_BYTES", 300), mock.patch.object(
        oracle, "_TABLES", {}
    ):
        for values, n in lookups:
            parts, key = PartSet(values), values[:-1]
            with mock.patch.multiple(oracle, _BLOCK_ENTRIES=block, _BLOCK_SPANS=0):
                count = oracle_count(parts, n)
            assert type(count) is int and count == oracle_table(parts, n)[n]
            table = oracle._TABLES[key]
            assert len(table) > n
            counts = table.ints()
            assert tuple(counts) == oracle_table(PartSet(key), len(table) - 1)
            assert len(table.planes) == planes_for(counts)


def test_cold_build_peaks_near_its_packed_table(monkeypatch):
    """Memory gate: a build holds its packed entries and one block as ints, so
    a cold count's traced peak stays under 1.5 times the table it leaves held.
    The table over (1, 2, 3, 5) widens plane by plane to six during the build.
    Its peak is 1.39 times its 0.57 MiB; filling the whole growth as ints
    before packing it peaked at 7.01 times 'Q' items' 0.76 MiB."""
    monkeypatch.setattr(oracle, "_TABLES", {})
    parts, n = PartSet.of(1, 2, 3, 5, 7), 10 ** 5
    tracemalloc.start()
    try:
        count = oracle_count(parts, n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    (table,) = oracle._TABLES.values()
    assert peak < 1.5 * oracle._nbytes(table)
    assert oracle._nbytes(table) == 6 * (n + 1)
    assert count == waves_count(parts, n)


def test_wide_parts_fill_a_growth_in_few_accumulates(monkeypatch):
    """Work gate: a block spans at least 64 times the parts the passes stride
    by, so the table over (7, 50000) to n = 2*10^6 is one block, one
    accumulate per residue of 50000: 50,000 calls, and the bound is twice
    that.  Blocks of 16 times made 150,000 calls in 3 blocks, and blocks of a
    fixed 4,096 entries 24.2M."""
    calls = 0

    def counting(iterable):
        nonlocal calls
        calls += 1
        return accumulate(iterable)

    monkeypatch.setattr(oracle, "accumulate", counting)
    monkeypatch.setattr(oracle, "_TABLES", {})
    n = 2 * 10 ** 6
    count = sum(
        (n - 99991 * i - 50000 * j) % 7 == 0
        for i in range(n // 99991 + 1)
        for j in range((n - 99991 * i) // 50000 + 1)
    )
    assert oracle_count(PartSet.of(7, 50000, 99991), n) == count
    assert calls <= 2 * 50_000


def test_sweep_extends_one_table(monkeypatch):
    """Work gate: n = 0..20,000 in turn build one table and extend it in place.

    Growth by a quarter makes 44 kernel calls filling 20,218 entries.
    Rebuilding at twice the length made 16 builds filling 65,535.
    """
    calls = []
    real = oracle._dp_counts

    def spy(parts, upper, held=()):
        table = real(parts, upper, held)
        calls.append((len(held), len(table)))
        return table

    monkeypatch.setattr(oracle, "_dp_counts", spy)
    monkeypatch.setattr(oracle, "_TABLES", {})
    parts = PartSet.of(2, 3, 5, 7)
    full = oracle_table(parts, 20_000)
    calls.clear()
    for n in range(20_001):
        assert oracle_count(parts, n) == full[n]
    assert [held for held, _ in calls].count(0) == 1
    assert 0 < len(calls) <= 50
    assert sum(filled for _, filled in calls) <= 1.25 * 20_001


def test_sets_that_differ_only_in_the_largest_part_share_one_table(monkeypatch):
    built = []
    real = oracle._dp_counts

    def spy(parts, upper, held=()):
        built.append(tuple(parts))
        return real(parts, upper, held)

    monkeypatch.setattr(oracle, "_dp_counts", spy)
    monkeypatch.setattr(oracle, "_TABLES", {})
    for values in [(2, 3, 5), (2, 3, 7)]:
        assert oracle_count(PartSet(values), 90) == brute_force_count(values, 90)
    assert built == [(2, 3)]
    assert list(oracle._TABLES) == [(2, 3)]


@settings(max_examples=60)
@given(
    st.lists(st.integers(min_value=1, max_value=6), max_size=3, unique=True),
    st.lists(
        st.tuples(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=70)),
        min_size=1,
        max_size=12,
    ),
)
def test_shared_tables_exact_under_a_small_byte_budget(shared, lookups):
    """Interleaved sets that share all parts but their largest, and one-part
    sets (which read no table), under a budget of a few tables' bytes, so
    tables are dropped, extended and rebuilt in between."""
    shared = sorted(shared)
    top = shared[-1] if shared else 0
    with mock.patch.object(admission, "MAX_HELD_BYTES", 300), mock.patch.object(
        oracle, "_TABLES", {}
    ):
        for step, n in lookups:
            for values in [(*shared, top + step), (step,)]:
                count = oracle_count(PartSet(values), n)
                assert type(count) is int
                assert count == brute_force_count(values, n)


@pytest.mark.parametrize(
    "values, n, planes",
    [((2, 3, 5, 7), 1000, 2), ((1, 2, 3, 4, 5, 6), 2000, 5), (tuple(range(1, 10)), 10 ** 4, 9)],
)
def test_table_stored_in_the_narrowest_width(monkeypatch, values, n, planes):
    """Each count takes as many bytes as the table's largest needs, past 8 too,
    and the planes hold the same counts as the full tuple table."""
    monkeypatch.setattr(oracle, "_TABLES", {})
    parts = PartSet(values)
    count = oracle_count(parts, n)
    (table,) = oracle._TABLES.values()
    counts = table.ints()
    assert 2 ** (8 * planes - 8) <= max(counts) < 2 ** (8 * planes)
    assert tuple(counts) == oracle_table(PartSet(parts.parts[:-1]), len(table) - 1)
    assert [len(plane) for plane in table.planes] == [len(table)] * planes
    assert oracle._nbytes(table) == planes * len(table)
    full = oracle_table(parts, n)
    assert type(count) is int and count == full[n]
    for m in range(0, n, n // 50):
        count = oracle_count(parts, m)
        assert type(count) is int and count == full[m]


@pytest.mark.parametrize(
    "top, planes",
    [(0, 1)] + [(2 ** (8 * k) - 1 + j, k + j) for k in range(1, 10) for j in (0, 1)],
)
def test_width_boundaries(monkeypatch, top, planes):
    """A table gains a plane only once a count no longer fits its bytes, at
    every byte boundary, 2^64 and 2^72 included.

    The kernel is stubbed to return top everywhere, packed by the rule the
    real kernel packs each block by, so each limit is met exactly: fresh, and
    when a held one-plane table is extended.
    """

    def kernel(parts, upper, held=()):
        table = oracle._Table([bytearray(upper + 1 - len(held))])
        table.put(0, [top] * len(table), top)
        return table

    monkeypatch.setattr(oracle, "_dp_counts", kernel)
    for held in ([], [5, 7]):
        tables = {}
        if held:
            tables[(1,)] = oracle._Table([bytearray(len(held))])
            tables[(1,)].put(0, held, max(held))
        monkeypatch.setattr(oracle, "_TABLES", tables)
        counts = held + [top] * (4 - len(held))
        assert oracle_count(PartSet.of(1, 2), 3) == counts[1] + counts[3]
        table = oracle._TABLES[(1,)]
        assert table.ints() == counts
        assert len(table.planes) == planes and oracle._nbytes(table) == 4 * planes


@given(
    st.lists(st.integers(0, 2 ** 24 - 1) | st.just(2 ** 24 - 1), min_size=1, max_size=1200),
    st.integers(0, 5),
    st.integers(1, 4),
)
@example([2 ** 24 - 1] * 1200, 0, 1)  # every byte 255, 1,200 to a plane
@example([255] * 257, 0, 1)
def test_stride_sums_equal_sums_of_the_counts(counts, start, step):
    """Bytes are summed 256 at a time, at most 65,280 each time, so a plane's
    stride sum is exact at its largest bytes and past 256 of them."""
    table = oracle._Table([bytearray(len(counts))])
    table.put(0, counts, max(counts))
    for stop in (len(counts), len(counts) // 2):
        assert table.stride_sum(start, stop, step) == sum(counts[start:stop:step])


@settings(max_examples=60)
@given(
    st.sets(st.integers(min_value=1, max_value=12), min_size=1, max_size=3),
    st.sets(
        st.integers(min_value=13, max_value=70)
        | st.sampled_from([10 ** 6, 10 ** 18, 2 ** 64, 10 ** 30]),
        min_size=1,
        max_size=3,
    ),
    st.lists(st.integers(min_value=0, max_value=60), min_size=1, max_size=5),
)
@example({2, 3}, {10 ** 18, 2 ** 64}, [11, 40])
def test_parts_past_n_add_nothing(small, large, ns):
    """Parts above n, held tables' length included, count as if left out: a
    count matches enumeration, and a table the one built without them."""
    parts = PartSet(tuple(small | large))
    with mock.patch.object(oracle, "_TABLES", {}):
        for n in ns:
            below = [a for a in parts if a <= n] or parts.parts[:1]
            assert oracle_count(parts, n) == brute_force_count(below, n)
            assert oracle_table(parts, n) == oracle_table(PartSet(tuple(below)), n)
            assert tuple(oracle._TABLES[parts.parts[:-1]].ints()[: n + 1]) == oracle_table(
                PartSet(parts.parts[:-1]), n
            )


def test_parts_past_n_allocate_nothing():
    """Memory gate: a count reads only entries 0..n of any part's table, and
    entries below 0 are 0, so parts of 10^6 cost no table of 10^6 entries."""
    cold_caches()
    tracemalloc.start()
    try:
        assert oracle_count(PartSet.of(2, 3, 10 ** 6, 10 ** 6 + 1), 11) == 2
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# Part sets that share an oracle key in pairs, (2,3,5,7) and (2,3,5,11) share
# (2,3,5), each with the largest n drawn for it and the n at which the counts
# over its key first pass 2^(8k) - 1, where a held table gains its k+1-th plane.
HELD_POOL = {
    (7,): (300, ()),
    (3, 4): (600, ()),
    (2, 3, 5, 7): (3000, (119, 1978)),
    (2, 3, 5, 11): (3000, (119, 1978)),
    (1, 2, 3, 5, 7, 11): (4000, (26, 126, 531, 2148)),
    (1, 2, 3, 5, 7, 13): (4000, (26, 126, 531, 2148)),
    (1, 2, 3, 5, 7, 11, 13, 17, 19): (14000, (23, 80, 210, 497, 1131, 2533, 5628, 12463)),
    (1, 2, 3, 5, 7, 11, 13, 17, 23): (14000, (23, 80, 210, 497, 1131, 2533, 5628, 12463)),
}


@functools.cache
def held_pool_table(values):
    """The oracle's full table over values, built from nothing: no held table,
    no cache.  It reaches 5/4 of the pool's largest n, as far as a held table
    grows."""
    return oracle_table(PartSet(values), 5 * max(top for top, _ in HELD_POOL.values()) // 4)


@st.composite
def held_pool_lookups(draw):
    """A part set of the pool and an n up to its largest, at times just past
    a point where a table over its key widens."""
    values = draw(st.sampled_from(sorted(HELD_POOL)))
    top, widens = HELD_POOL[values]
    if widens and draw(st.booleans()):
        start = draw(st.sampled_from(widens))
        return values, draw(st.integers(start, start + 50))
    return values, draw(st.integers(0, top))


class HeldCaches(RuleBasedStateMachine):
    """Oracle and waves counts in any order, under any byte budget from 64 B to
    16 MiB, equal the full table.  Each held oracle table, however it was
    extended, widened or dropped, is a prefix of it in as many planes as its
    largest count needs."""

    @initialize(budget=st.integers(64, 16 << 20))
    def cold_start(self, budget):
        cold_caches()
        self.patch = pytest.MonkeyPatch()
        self.patch.setattr(admission, "MAX_HELD_BYTES", budget)

    @rule(case=held_pool_lookups())
    def oracle_lookup(self, case):
        values, n = case
        assert oracle_count(PartSet(values), n) == held_pool_table(values)[n]
        if held := oracle._TABLES.get(values[:-1]):
            assert tuple(held.ints()) == held_pool_table(values[:-1])[: len(held)]

    @rule(case=held_pool_lookups())
    def waves_lookup(self, case):
        values, n = case
        assert waves_count(PartSet(values), n) == held_pool_table(values)[n]

    @invariant()
    def held_narrowest_within_budget(self):
        tables = list(oracle._TABLES.values())
        for table in tables:
            assert len(table.planes) == planes_for(table.ints())
        assert len(tables) <= 1 or sum(map(oracle._nbytes, tables)) <= admission.MAX_HELD_BYTES

    def teardown(self):
        self.patch.undo()


HeldCaches.TestCase.settings = settings(max_examples=100, stateful_step_count=20)
TestHeldCaches = HeldCaches.TestCase
