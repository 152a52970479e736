"""Ground truth for restricted counts, by dynamic programming.

counts[n] is the number of ways to write n as a nonnegative integer
combination of the parts.  The first part a lays down 1 at every multiple of a.
Each further part a replaces each residue chain counts[c], counts[c+a], ...
with its running sum, the unbounded-knapsack recurrence
counts[n] += counts[n - a] as a prefix sum, in exact integers.

A single count never tabulates the largest part a_max.  It reads the cached
table over the other parts, and the count is the stride sum

    p_A(n) = sum over j >= 0 of p_{A without a_max}(n - j * a_max),

so a k-part count costs k - 2 prefix-sum passes and one sum of n / a_max
entries, and a one-part count is [a | n] and reads no table.

A held table over the other parts K and one part x more serves K too: since
1 / prod over K of (1 - t^a) is (1 - t^x) / prod over K and x,
p_K(m) = p_{K+x}(m) - p_{K+x}(m - x), so the count is S(n) - S(n - x), with
S the stride sum over the wider table and S(m) = 0 for m < 0.  A wider
table serves n exactly when it is longer than n, so an index keeps one key
under each K, the key one part wider whose table is longest: a table held
over such a key replaces the entry unless the entry's table is still held
and longer.  (When the entry's table is dropped, a shorter wider table still
held stays unindexed until the next store.)  When K's own table is not held
or is too short for n, the entry's table answers if it is held and reaches
n.  Only when it does not is K's table built, or extended: each pass resumes
its prefix sums from the table's last entries.  The 75 seed-0 verify-sweep
ops so make 264 builds filling 1,722,179 entries, where building K's own
table every time made 576 filling 2,238,131.

Counts are never negative, so a table is stored as byte planes, as many as
its largest count needs: plane i holds byte i of every entry, so each count
takes that many bytes, past 8 too, and a stride sum is one sum of bytes per
plane.  The cached tables and the index are held to admission.MAX_HELD_BYTES.
oracle_table builds the full table as an uncached tuple.  A table longer
than admission.MAX_TABLE_ENTRIES is refused before it is allocated.

A build allocates the whole table, copies a held table's entries into its
front and fills the rest block by block, packing each block before the next,
so it holds the packed table plus one block of ints, and while it extends a
held table, that table too: it is only read, and stays cached until the
longer one replaces it.  As planes, the tables the 75 seed-0 verify-sweep ops
hold weigh 7.16 MiB, against 10.54 MiB as 4- and 8-byte items.
"""

from __future__ import annotations

import sys
import zlib
from array import array
from itertools import accumulate, combinations
from typing import List, Sequence, Tuple

from . import admission
from .errors import DomainError, ResourceLimitError
from .partset import PartSet


# A growth is built in blocks of at least _BLOCK_ENTRIES entries and at least
# _BLOCK_SPANS times the sum of the parts the passes stride by.  Each block
# starts one accumulate per residue of each pass, so a block 64 times that sum
# keeps those starts to a 64th of its entries.  At 16 times, the table for
# `count --parts 7,50000,99991 --n 2000000` took three blocks and twice the
# time of one.
_BLOCK_ENTRIES = 1 << 12
_BLOCK_SPANS = 64

# A table is allocated whole, one plane of its length, before its first
# block is filled, and each block is packed at its place in it; a plane added
# when a block's counts pass the planes held is the table's length too.  A
# block is packed _BLOCK_ENTRIES entries at a time, eight planes at a time,
# through an array of unsigned 8-byte items: 'B' and 'H' arrays fill from a
# list at a quarter of the speed, and 'Q' at a third of the speed of 'L' once
# counts pass 2^32.
_WORD = "L" if array("L").itemsize == 8 else "Q"
_LIMB = (1 << 64) - 1
# The offset of each byte, from the low end, in a native 8-byte item.
_OFFSETS = range(8) if sys.byteorder == "little" else range(7, -1, -1)


class _Table:
    """Counts as byte planes: planes[i][n] is byte i of entry n, from the low
    end, and there are as many planes as the largest entry needs, at least one."""

    __slots__ = ("planes",)

    def __init__(self, planes: List[bytearray]) -> None:
        self.planes = planes

    def __len__(self) -> int:
        return len(self.planes[0])

    def stride_sum(self, start: int, stop: int, step: int) -> int:
        """sum(entries[start:stop:step]), as sums of bytes, plane by plane.

        Bytes are summed in C, 256 at a time: with 0 to start from, adler32's
        low 16 bits are the sum of its bytes mod 65,521, and 256 bytes sum to
        at most 65,280.  On held tables, the lookups of the 75 seed-0
        verify-sweep ops take 0.78-0.86 times as long as sums over 4- and
        8-byte items did, where sum() over each plane's bytes took 1.19 times.
        """
        total = 0
        for i, plane in enumerate(self.planes):
            data = plane[start:stop:step]
            for j in range(0, len(data), 256):
                total += (zlib.adler32(data[j : j + 256], 0) & 0xFFFF) << 8 * i
        return total

    def ints(self, start: int = 0) -> List[int]:
        """Entries start.. as ints, read eight planes at a time."""
        values = None
        for base in reversed(range(0, len(self.planes), 8)):
            words = bytearray(8 * (len(self) - start))
            for offset, plane in zip(_OFFSETS, self.planes[base : base + 8]):
                words[offset::8] = plane[start:]
            limbs = array(_WORD, words).tolist()
            values = limbs if values is None else [v << 64 | w for v, w in zip(values, limbs)]
        return values

    def put(self, at: int, counts: List[int], top: int) -> None:
        """Write counts to entries at.., adding a zero plane for each byte
        their largest, top, needs past the planes held.  A negative count
        adds no plane: the unsigned items refuse it."""
        while top >> 8 * len(self.planes) > 0:
            self.planes.append(bytearray(len(self)))
        for start in range(0, len(counts), _BLOCK_ENTRIES):
            chunk = counts[start : start + _BLOCK_ENTRIES]
            where = slice(at + start, at + start + len(chunk))
            for base in range(0, len(self.planes), 8):
                more = base + 8 < len(self.planes)
                words = array(_WORD)  # fromlist: two thirds of the constructor's time
                words.fromlist([v & _LIMB for v in chunk] if more else chunk)
                raw = words.tobytes()
                for offset, plane in zip(_OFFSETS, self.planes[base : base + 8]):
                    plane[where] = raw[offset::8]
                if more:
                    chunk = [v >> 64 for v in chunk]


def _nbytes(table: _Table) -> int:
    return len(table.planes[0]) * len(table.planes)


def _dp_counts(parts: Sequence[int], upper: int, held: _Table | Tuple[()] = ()) -> _Table:
    """Entries 0..upper of the table over parts, in as many planes as they
    need: held's entries copied, and entries len(held)..upper filled by
    resuming from them.  held is only read, so a failure leaves it whole.

    The pass for part a resumes from its last min(a, len(held)) entries below
    len(held).  They come from held's last sum(parts[1:]) entries by
    differencing: the table without a is the table with a minus itself shifted
    by a.  Entries below n = 0 are 0, so none is held or padded: a part past
    upper costs no memory.  The entries are then filled block by block, each
    pass carrying its last a entries into the next block, and each block is
    packed at its place in the table before the next is filled: a build
    holds the packed entries and one block as ints, not the whole table as
    ints at ~36-44 bytes an entry.
    """
    if upper + 1 > admission.MAX_TABLE_ENTRIES:
        raise ResourceLimitError(
            f"a count table for n = {upper} needs {upper + 1} entries, over the cap"
            f" of {admission.MAX_TABLE_ENTRIES}; for pairwise-coprime parts, the"
            " waves, theorem1, section3 and closed-form routes need no count table"
        )
    held = held or _Table([bytearray()])
    low, span, first = len(held), sum(parts[1:]), parts[0]
    size = max(_BLOCK_ENTRIES, _BLOCK_SPANS * span)
    window = held.ints(max(low - span, 0))  # entries from low - span, none below 0
    tails = []
    for a in reversed(parts[1:]):
        tails.append(window[-a:])
        span -= a
        start = len(window) - min(span, low)
        window = [
            window[j] - (window[j - a] if j >= a else 0) for j in range(start, len(window))
        ]
    tails.reverse()
    table = _Table([bytearray(upper + 1) for _ in held.planes])
    for plane, old in zip(table.planes, held.planes):
        plane[:low] = old
    for base in range(low, upper + 1, size):
        # counts[pad:] are entries base..; the pass for a reads its tail below
        pad = max(map(len, tails), default=0)
        counts = [0] * (pad + min(size, upper + 1 - base))
        ones = range(pad + (-base) % first, len(counts), first)
        counts[ones.start :: first] = [1] * len(ones)
        for i, a in enumerate(parts[1:]):
            begin = pad - len(tails[i])
            counts[begin:pad] = tails[i]
            for start in range(begin, min(begin + a, len(counts))):
                counts[start::a] = accumulate(counts[start::a])
            tails[i] = counts[max(begin, len(counts) - a) :]
        del counts[:pad]  # in place: a copy would hold the block twice
        # p(n) <= p(n + first), so the block's largest count is among its last first
        table.put(base, counts, max(counts[-first:]))
    return table


# Tables keyed by the parts they cover (all of a set but its largest), so
# (2,3,5,7) and (2,3,5,11) share one.  Held by admission's rule.
_TABLES = admission.Held()

# Each key's key one part wider whose table is longest, written when a table
# is held, so a store writes one entry a part.  Admission's rule holds the
# entries to the budget too.  The 75 seed-0 verify-sweep ops leave 126 in
# 8.6 KB.
_WIDER = admission.Held()


def _sum_down(table: _Table, m: int, step: int) -> int:
    """Entries m, m - step, ... of table summed down to m mod step; 0 for m < 0."""
    return table.stride_sum(m % step, m + 1, step) if m >= 0 else 0


def _counts_up_to(key: Tuple[int, ...], table: _Table | Tuple[()], upper: int) -> _Table:
    """The table over key to entry upper at least, built or grown from the held
    table, held, and indexed under each key one part narrower whose indexed
    table, if still held, is no longer."""
    # Extended by at least a quarter; a refused growth keeps the held table.
    grown = min(len(table) * 5 // 4, admission.MAX_TABLE_ENTRIES) - 1
    new = _dp_counts(key, max(upper, grown), table)
    admission.hold(_TABLES, key, new, _nbytes)
    for narrower in combinations(key, len(key) - 1) if len(key) > 1 else ():
        if len(_TABLES.get(_WIDER.get(narrower), ())) <= len(new):
            admission.hold(_WIDER, narrower, key, sys.getsizeof)
    return new


def oracle_table(parts: PartSet, upper: int) -> Tuple[int, ...]:
    """The full table of counts: entry n is the count for n, 0 <= n <= upper."""
    if upper < 0:
        raise DomainError("table upper bound must be nonnegative")
    return tuple(_dp_counts(parts.parts, upper).ints())


def oracle_count(parts: PartSet, n: int) -> int:
    """The count for a single n."""
    if n < 0:
        raise DomainError("counts are defined for nonnegative n only")
    largest, key = parts.parts[-1], parts.parts[:-1]
    if parts.k == 1:
        return int(n % largest == 0)
    table = admission.recall(_TABLES, key) or ()  # held tables are never empty
    if len(table) <= n:
        wider = admission.recall(_WIDER, key)
        if len(_TABLES.get(wider, ())) > n:
            # p_key(m) = p_wider(m) - p_wider(m - x), x the part wider adds
            held, x = admission.recall(_TABLES, wider), sum(wider) - sum(key)
            return _sum_down(held, n, largest) - _sum_down(held, n - x, largest)
        table = _counts_up_to(key, table, n)
    return _sum_down(table, n, largest)
