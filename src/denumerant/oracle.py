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
entries, and a one-part count is [a | n] and reads no table.  A cached table
too short for n is extended in place: each pass resumes its prefix sums from
the table's last entries.  Counts are never negative, so a cached table is
an unsigned array of 4-byte items, of 8-byte items once a count passes
2^32 - 1, or a tuple past 2^64 - 1; the cached tables are held to
admission.MAX_HELD_BYTES.  oracle_table builds the full table as an uncached
tuple.  A table longer than admission.MAX_TABLE_ENTRIES is refused before it
is allocated.

A build fills its entries block by block and packs each block before the
next, so it holds the packed table plus one block of ints.  A cold count over
(2, 3, 5, 7) at n = 10^6 peaks at 9.2 MiB traced for its 7.63 MiB table, and
`count --parts 2,3,5,7 --n 4000000` at 50 MB RSS; filling the whole growth as
ints before packing it took 50.2 MiB and 362 MB.  Only a tuple table, past
2^64 - 1, holds ints throughout, at ~36-44 bytes an entry.
"""

from __future__ import annotations

import sys
from array import array
from itertools import accumulate
from typing import Dict, Sequence, Tuple

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


def _dp_counts(parts: Sequence[int], upper: int, held: Sequence[int] = ()) -> Sequence[int]:
    """Entries len(held)..upper of the table over parts, resuming from held,
    packed as _joined packs a table: at least held's width.

    The pass for part a resumes from its last min(a, len(held)) entries below
    len(held).  They come from held's last sum(parts[1:]) entries by
    differencing: the table without a is the table with a minus itself shifted
    by a.  Entries below n = 0 are 0, so none is held or padded: a part past
    upper costs no memory.  The entries are then filled block by block, each
    pass carrying its last a entries into the next block, and each block is
    packed before the next is filled: a build holds the packed entries and one
    block as ints, not the whole growth as ints at ~36-44 bytes an entry.  For
    (2, 3, 5) to n = 10^6 that is a 9.2 MiB traced peak for 7.63 MiB of 'Q'
    items, against 50.2 MiB for one list of the growth.  Counts past 2^64 - 1
    are kept as ints and joined to a tuple once.
    """
    if upper + 1 > admission.MAX_TABLE_ENTRIES:
        raise ResourceLimitError(
            f"a count table for n = {upper} needs {upper + 1} entries, over the cap"
            f" of {admission.MAX_TABLE_ENTRIES}; for pairwise-coprime parts, the"
            " waves, theorem1, section3 and closed-form routes need no count table"
        )
    low, span, first = len(held), sum(parts[1:]), parts[0]
    size = max(_BLOCK_ENTRIES, _BLOCK_SPANS * span)
    window = list(held[max(low - span, 0) :])  # entries from low - span, none below 0
    tails = []
    for a in reversed(parts[1:]):
        tails.append(window[-a:])
        span -= a
        start = len(window) - min(span, low)
        window = [
            window[j] - (window[j - a] if j >= a else 0) for j in range(start, len(window))
        ]
    tails.reverse()
    packed, wide = array(getattr(held, "typecode", "I")), []
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
        if wide or max(counts[-first:]) >> 64:
            wide += counts
        else:
            packed = _joined(packed, counts, first)
    return _joined(packed, wide, first) if wide else packed


def _joined(table: Sequence[int], new: Sequence[int], first: int) -> Sequence[int]:
    """table followed by new, in the narrowest form that holds both: an
    unsigned array of 4-byte items, of 8-byte items once a count passes
    2^32 - 1, or a tuple past 2^64 - 1.  An array is extended in place.

    p(n) <= p(n + first), so new's largest count is among its last first.
    """
    top = max(new[-first:], default=0)
    if type(table) is tuple or top >> 64:
        return (*table, *new)
    if top >> 8 * table.itemsize:
        table = array("Q", table)
    if type(new) is list:
        table.fromlist(new)  # a third of extend's time for a list
    else:
        table.extend(new)
    return table


# Tables keyed by the parts they cover (all of a set but its largest), so
# (2,3,5,7) and (2,3,5,11) share one: each the narrowest unsigned array that
# holds its largest count, or a tuple past 2^64 - 1.  Held by admission's rule.
_TABLES: Dict[Tuple[int, ...], Sequence[int]] = {}


def _nbytes(table: Sequence[int]) -> int:
    if isinstance(table, array):
        return table.itemsize * len(table)
    # Counts grow with n, so the last is about the widest: O(1), not O(len).
    return sys.getsizeof(table) + len(table) * sys.getsizeof(table[-1])


def _counts_up_to(parts: PartSet, upper: int) -> Sequence[int]:
    key = parts.parts[:-1]
    table = admission.recall(_TABLES, key) or ()  # held tables are never empty
    if len(table) <= upper:
        # Extended by at least a quarter; a refused growth keeps the held table.
        grown = min(len(table) * 5 // 4, admission.MAX_TABLE_ENTRIES) - 1
        new = _dp_counts(key, max(upper, grown), table)
        table = _joined(table, new, key[0]) if table else new
        return admission.hold(_TABLES, key, table, _nbytes)
    return table


def oracle_table(parts: PartSet, upper: int) -> Tuple[int, ...]:
    """The full table of counts: entry n is the count for n, 0 <= n <= upper."""
    if upper < 0:
        raise DomainError("table upper bound must be nonnegative")
    return tuple(_dp_counts(parts.parts, upper))


def oracle_count(parts: PartSet, n: int) -> int:
    """The count for a single n."""
    if n < 0:
        raise DomainError("counts are defined for nonnegative n only")
    largest = parts.parts[-1]
    if parts.k == 1:
        return int(n % largest == 0)
    return sum(_counts_up_to(parts, n)[n % largest : n + 1 : largest])
