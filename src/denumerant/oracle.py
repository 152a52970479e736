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
"""

from __future__ import annotations

import sys
from array import array
from itertools import accumulate
from typing import Dict, List, Sequence, Tuple

from . import admission
from .errors import DomainError, ResourceLimitError
from .partset import PartSet


def _dp_counts(parts: Sequence[int], upper: int, held: Sequence[int] = ()) -> List[int]:
    """Entries len(held)..upper of the table over parts, resuming from held.

    The pass for part a resumes from its last a entries below len(held).  They
    come from held's last sum(parts[1:]) entries by differencing: the table
    without a is the table with a minus itself shifted by a, 0 below n = 0.
    """
    if upper + 1 > admission.MAX_TABLE_ENTRIES:
        raise ResourceLimitError(
            f"a count table for n = {upper} needs {upper + 1} entries, over the cap"
            f" of {admission.MAX_TABLE_ENTRIES}; for pairwise-coprime parts, the"
            " waves, theorem1, section3 and closed-form routes need no count table"
        )
    low, span, first = len(held), sum(parts[1:]), parts[0]
    window = [0] * max(span - low, 0) + list(held[max(low - span, 0) :])
    tails = []
    for a in reversed(parts[1:]):
        tails.append(window[len(window) - a :])
        window = [x - y for x, y in zip(window[a:], window)]
    # counts[pad:] are entries low..upper; the pass for a reads its tail below
    pad, size = max(parts[1:], default=0), upper + 1 - low
    counts = [0] * (pad + size)
    ones = range(pad + (-low) % first, pad + size, first)
    counts[ones.start :: first] = [1] * len(ones)
    for a, tail in zip(parts[1:], reversed(tails)):
        counts[pad - a : pad] = tail
        for start in range(pad - a, pad - a + min(a, size)):
            counts[start::a] = accumulate(counts[start::a])
    return counts[pad:]


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
    table = admission.recall(_TABLES, key) or array("I")  # held tables are never empty
    if len(table) <= upper:
        # Extended by at least a quarter; a refused growth keeps the held table.
        grown = min(len(table) * 5 // 4, admission.MAX_TABLE_ENTRIES) - 1
        new = _dp_counts(key, max(upper, grown), table)
        # p(n) <= p(n + a) for a in key, so the largest count is among the last
        top = max(new[-key[0] :])
        if type(table) is tuple or top >> 64:
            table = (*table, *new)
        else:
            if top >> 8 * table.itemsize:  # past 2^32 - 1 in 'I'
                table = array("Q", table)
            table.fromlist(new)
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
