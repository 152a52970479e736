"""Size policy: the budgets, one check per request made before its work, and
the least-recently-used rule that holds each cache to MAX_HELD_BYTES.

Each refusal is a ResourceLimitError raised here before anything the request
bounds is built, so the command line exits 3 with nothing on stdout.  The
oracle kernel, ``oracle._dp_counts``, keeps MAX_TABLE_ENTRIES as a last guard.

    request        estimate                                      budget
    waves          max(k - 1, 1) S walk steps                    MAX_TABLE_ENTRIES
    verify sweep   4 P entries in a trial's table                MAX_TABLE_ENTRIES
    bernoulli      every B_j's digits, j <= m, by Stirling and   MAX_DIGITS
                   von Staudt and Clausen
    bb             a bound on every printed numerator's and      MAX_DIGITS, or a
                   denominator's digits, from (parts, m)         lower int-to-str limit
"""

from __future__ import annotations

import math
import sys
from typing import Any, Callable

from .errors import ResourceLimitError
from .partset import PartSet

# A table build holds its packed entries, as many bytes each as its largest
# count needs, and one block of them as ints (oracle._dp_counts).  At the cap
# a plane weighs 50 MB: counts under 2^64 take at most 0.4 GB, and each byte
# past 8 adds 50 MB, where a tuple of ints took ~44 bytes an entry, ~2.2 GB.
# An extension holds the table it extends too, cached until the longer one
# replaces it: grown to the cap from 4*10^7 entries, the two weigh 90 MB a
# plane, 0.72 GB at 8 planes.  By tracemalloc, extending the table over
# (1, 2, 3, 5) from 400,001 to 500,000 entries peaks at 1.05 times the two
# tables' bytes, 1.88 times the longer one's.
MAX_TABLE_ENTRIES = 50_000_000

# Digits of one printed `bernoulli` or `bb` numerator or denominator, set at
# the default of Python's int-to-str limit.  Counts print at any length.
MAX_DIGITS = 4_300

# The bytes each cache of recent results holds, by its own weight: the
# oracle's tables by the bytes of their counts (leaving out some 280 bytes of
# objects a table), its index by the size of the one wider key in each entry,
# and the waves' set-ups.  16 MiB holds the tables the 75 seed-0 verify-sweep
# ops reuse (at most 7.16 MiB as byte planes, 10.54 MiB as 4- and 8-byte
# items), so they make 264 kernel calls filling 1.72M entries.
# When each key's own table was built they held 8.50 MiB in 576 calls filling
# 2.24M; under 10 MiB the 4- and 8-byte items then made 691 filling 3.14M.
MAX_HELD_BYTES = 16 << 20


class Held(dict):
    """A cache of recent results, oldest first, that ``hold`` keeps to
    MAX_HELD_BYTES: bytes is the running total of its entries' weights.  Only
    ``recall`` and ``hold`` write to it, and ``clear`` empties it."""

    def __init__(self) -> None:
        super().__init__()
        self.bytes = 0

    def clear(self) -> None:
        super().clear()
        self.bytes = 0


def recall(cache: Held, key: tuple) -> Any:
    """The value cache holds at key, moved to be the newest entry, or None."""
    if (value := cache.pop(key, None)) is not None:
        cache[key] = value
    return value


def hold(cache: Held, key: tuple, value: Any, weigh: Callable[[Any], int]) -> Any:
    """Store value as the newest entry of cache, then drop the oldest others while
    the held weights, in bytes by weigh, pass MAX_HELD_BYTES: only the entry just
    stored may pass the budget alone.  A store weighs the value, the value it
    replaces and each value it drops, no other."""
    if (old := cache.pop(key, None)) is not None:
        cache.bytes -= weigh(old)
    cache.bytes += weigh(value)
    while cache and cache.bytes > MAX_HELD_BYTES:
        cache.bytes -= weigh(cache.pop(next(iter(cache))))
    cache[key] = value
    return value


def admit_waves(parts: PartSet) -> None:
    steps = max(parts.k - 1, 1) * parts.total
    if steps > MAX_TABLE_ENTRIES:
        raise ResourceLimitError(
            f"the waves of {parts.k} parts summing to {parts.total} need {steps}"
            f" walk steps, over the cap of {MAX_TABLE_ENTRIES}"
        )


def admit_sweep(k_max: int, max_part: int, max_product: int) -> None:
    """A trial's table has at most 4P entries, since n <= 4P - 1 for its product
    P, and P is at most max_product and at most the product of the k_max
    largest integers in [1, max_part]."""
    widest = 1
    for a in range(max_part, max(max_part - k_max, 0), -1):
        if widest >= max_product:
            break
        widest *= a
    entries = 4 * min(max_product, widest)
    if entries > MAX_TABLE_ENTRIES:
        raise ResourceLimitError(
            f"verify tables may need {entries} entries, over the cap of"
            f" {MAX_TABLE_ENTRIES}; lower --max-product or --max-part"
        )


def admit_bernoulli(max_index: int) -> None:
    """Refuse when a bound on the digits of the numerator or the denominator
    of any B_j, j <= m, passes MAX_DIGITS.  B_0 = 1, B_1 = 1/2, and B_j
    vanishes for odd j >= 3.

    For even j >= 2, |B_j| = 2 j! zeta(j) / (2 pi)^j with zeta(j) <= 1 + 3 / 2^j,
    and by von Staudt and Clausen the denominator D_j is the product of the
    primes p with (p - 1) | j, found for every j by one sieve over the primes
    up to m + 1.  Since |B_j| D_j >= 12 j! / (2 pi)^j, the sieve stops at the
    first power of 2 whose row must pass the cap.  1e-9 covers float rounding.
    """
    ln10, log_2pi, top = math.log(10), math.log(2 * math.pi), 2
    while math.log10(12) + (math.lgamma(top + 1) - top * log_2pi) / ln10 <= MAX_DIGITS:
        top *= 2
    m = min(max_index, top)
    log_d = [math.log10(2)] * (m + 1)  # 2 divides every D_j
    composite = bytearray(m + 2)
    for p in range(3, m + 2, 2):
        if not composite[p]:
            composite[p * p :: p] = b"\1" * len(range(p * p, m + 2, p))
            log_p = math.log10(p)
            for j in range(p - 1, m + 1, p - 1):
                log_d[j] += log_p
    for j in range(2, m + 1, 2):
        log_b = math.log10(2 + math.ldexp(6, -j)) + (math.lgamma(j + 1) - j * log_2pi) / ln10
        digits = math.floor(max(log_b, 0.0) + log_d[j] + 1e-9) + 1
        if digits > MAX_DIGITS:
            raise ResourceLimitError(
                f"B_{j} has about {digits} digits, over the cap of {MAX_DIGITS}"
            )


def admit_bb(parts: PartSet, max_index: int) -> None:
    """Refuse `bb` when its bound on the digits of any number it prints passes
    MAX_DIGITS, or a lower int-to-str limit: `bb` prints through str.

    The coefficient of x^j in B_i is C(i, j) beta_{i-j} / (D^k P) in lowest
    terms, with beta_l = D^k l! [s^l] prod_j a_j s / (e^{a_j s} - 1) and D the
    product of the primes up to m + 1 (``bernoulli.bernoulli_barnes``), which
    is under e^(1.01624 (m + 1)) (Rosser and Schoenfeld, 1962) for m >= 1 and
    is 1 at m = 0, with no prime up to 1.  On |s| = pi / a_max each factor is
    at most 3.2835 in modulus, its value at a_j s = -pi, so by Cauchy's
    estimate |beta_l| <= (3.2835 D)^k l! (a_max / pi)^l, which over l <= m is
    largest at l = 0 or at l = m.
    """
    # the bound grows with m, and passes 10^9 digits at m = 10^9
    m, k, ln10 = min(max_index, 10 ** 9), parts.k, math.log(10)
    log_d = 1.01624 * (m + 1) / ln10 if m else 0.0
    half = math.lgamma(m + 1) - math.lgamma(m // 2 + 1) - math.lgamma(m - m // 2 + 1)
    # math.log of the int: a part past 10^308 has no float
    growth = math.lgamma(m + 1) + m * (math.log(parts.parts[-1]) - math.log(math.pi))
    numerator = (half + max(0.0, growth)) / ln10 + k * (math.log10(3.2835) + log_d)
    digits = math.floor(max(numerator, k * log_d + math.log10(parts.product))) + 1
    cap = min(MAX_DIGITS, sys.get_int_max_str_digits() or MAX_DIGITS)
    if digits > cap:
        raise ResourceLimitError(
            f"bb to index {max_index} on parts {list(parts)} may print {digits}-digit"
            f" numbers, over the cap of {cap}"
        )
