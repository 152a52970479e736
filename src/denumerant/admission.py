"""Size policy: the budgets, and one check per request made before its work.

Each refusal is a ResourceLimitError raised here before anything the request
bounds is built, so the command line exits 3 with nothing on stdout.  The
oracle kernel, ``oracle._dp_counts``, keeps MAX_TABLE_ENTRIES as a last guard.

    request        estimate                                      budget
    waves          max(k - 1, 1) S walk steps                    MAX_TABLE_ENTRIES
    verify sweep   4 P entries in a trial's table                MAX_TABLE_ENTRIES
    bernoulli      the digits of B_m, by Stirling                MAX_DIGITS
    bb             a bound on every printed numerator's and      MAX_DIGITS, or a
                   denominator's digits, from (parts, m)         lower int-to-str limit
"""

from __future__ import annotations

import math
import sys

from .errors import ResourceLimitError
from .partset import PartSet

# A table build fills a list at ~36 bytes per entry and packs it into 4 to 8
# more, ~2.2 GB at the cap.
MAX_TABLE_ENTRIES = 50_000_000

# Digits of one printed `bernoulli` or `bb` numerator or denominator, set at
# the default of Python's int-to-str limit.  Counts print at any length.
MAX_DIGITS = 4_300

# Both digit estimates grow with m, and pass 10^9 digits at m = 10^9.
_M_CLAMP = 10 ** 9


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
    """For even m, |B_m| = 2 m! zeta(m) / (2 pi)^m, with zeta(m) taken as 1,
    which it nears fast (zeta(10) < 1.001); by von Staudt and Clausen the
    denominator of B_m is the product of the primes p with (p - 1) | m, and
    the numerator's digits follow.  B_m vanishes for odd m >= 3."""
    m = min(max_index - max_index % 2, _M_CLAMP)
    if m < 2:
        return
    log10 = math.log10(2) + (math.lgamma(m + 1) - m * math.log(2 * math.pi)) / math.log(10)
    low = [d for d in range(1, math.isqrt(m) + 1) if m % d == 0]
    for p in {d + 1 for d in low} | {m // d + 1 for d in low}:
        if all(p % f for f in range(2, math.isqrt(p) + 1)):
            log10 += math.log10(p)
    digits = math.floor(log10) + 1
    if digits > MAX_DIGITS:
        raise ResourceLimitError(
            f"B_{m} has about {digits} digits, over the cap of {MAX_DIGITS}"
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
    m, k, ln10 = min(max_index, _M_CLAMP), parts.k, math.log(10)
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
