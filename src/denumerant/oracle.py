"""Ground truth for restricted counts, by dynamic programming.

counts[n] is the number of ways to write n as a nonnegative integer
combination of the parts.  The table is filled one part at a time.  The first
part a lays down its indicator, 1 at every multiple of a.  Each further part a
replaces each residue chain counts[c], counts[c+a], counts[c+2a], ... with its
running sum, which is the standard unbounded-knapsack recurrence
counts[n] += counts[n - a] expressed as a prefix sum.  Everything is exact
integer arithmetic.

A single count never tabulates the largest part a_max.  The table cached for
a part set covers the other parts only, and the count is the stride sum

    p_A(n) = sum over j >= 0 of p_{A without a_max}(n - j * a_max),

so a k-part count costs k - 2 prefix-sum passes and one sum of n / a_max
entries.  oracle_table builds the full table, over every part, and does not
cache it.  A table longer than _MAX_TABLE_ENTRIES is refused before it is
allocated.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Dict, Sequence, Tuple

from .errors import DomainError, ResourceLimitError
from .partset import PartSet

# A built table holds ~44 bytes per entry (a tuple slot and an int object).
# With the list it is filled in, a build peaks at ~53, so ~2.6 GB at the cap.
# waves.py holds the wave entries of its cached part sets to the same cap.
_MAX_TABLE_ENTRIES = 50_000_000


def _dp_counts(parts: Sequence[int], upper: int) -> Tuple[int, ...]:
    if upper + 1 > _MAX_TABLE_ENTRIES:
        raise ResourceLimitError(
            f"a count table for n = {upper} needs {upper + 1} entries, over the"
            f" cap of {_MAX_TABLE_ENTRIES}; for pairwise-coprime parts, the waves,"
            " theorem1, section3 and closed-form routes need no count table"
        )
    counts = [0] * (upper + 1)
    if not parts:
        counts[0] = 1
        return tuple(counts)
    first = parts[0]
    counts[::first] = [1] * (upper // first + 1)
    for a in parts[1:]:
        if a <= upper:
            for start in range(a):
                counts[start::a] = accumulate(counts[start::a])
    return tuple(counts)


# Recently used tables over all parts but the largest, keyed by the parts
# tuple.  Tables grow geometrically so a sweep over n for one part set costs
# one DP pass.  The cache is bounded both in part sets and in entries (to the
# cap on a single table), so sweeps over many part sets do not hoard memory.
_TABLES: Dict[Tuple[int, ...], Tuple[int, ...]] = {}
_MAX_CACHED_SETS = 64


def _counts_up_to(parts: PartSet, upper: int) -> Tuple[int, ...]:
    key = parts.parts
    held = _TABLES.pop(key, None)
    if held is not None and len(held) > upper:
        _TABLES[key] = held
        return held
    grown = min(2 * len(held), _MAX_TABLE_ENTRIES) if held is not None else 0
    fresh = _dp_counts(key[:-1], max(upper + 1, grown) - 1)
    _TABLES[key] = fresh
    while len(_TABLES) > 1 and (
        len(_TABLES) > _MAX_CACHED_SETS
        or sum(map(len, _TABLES.values())) > _MAX_TABLE_ENTRIES
    ):
        _TABLES.pop(next(iter(_TABLES)))
    return fresh


def oracle_table(parts: PartSet, upper: int) -> Tuple[int, ...]:
    """The full table of counts: entry n is the count for n, 0 <= n <= upper."""
    if upper < 0:
        raise DomainError("table upper bound must be nonnegative")
    return _dp_counts(parts.parts, upper)


def oracle_count(parts: PartSet, n: int) -> int:
    """The count for a single n."""
    if n < 0:
        raise DomainError("counts are defined for nonnegative n only")
    largest = parts.parts[-1]
    return sum(_counts_up_to(parts, n)[n % largest : n + 1 : largest])
