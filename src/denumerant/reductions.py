"""Reduction identities for restricted counts with pairwise-coprime parts.

Throughout, A = {a_1 < ... < a_k} is a part set, P = a_1...a_k its product,
S = a_1 + ... + a_k its sum, and p(n) the count of nonnegative representations
of n by the parts.  Writing n = q*P + r with 0 <= r < P, the identities
implemented here express counts at large arguments through counts at small
ones plus a correction that is an explicit finite sum over Bernoulli-Barnes
polynomials:

  theorem1:  p(n) - p(r)  =  (-1)^k (n-r) * sum_{i=0}^{k-2}
                 (r-n)^i / ((i+1)! (k-i-2)!) * B_{k-i-2}(-r; A)

  theorem2:  p(P - x)     =  (-1)^k P * sum_{i=0}^{k-2}
                 (-P)^i / ((i+1)! (k-i-2)!) * B_{k-i-2}(x; A)
             valid for 1 <= x <= S - 1: theorem1 read at n = P - x, r = -x,
             since p(-x) = 0 there

  theorem3:  p(P - x) + (-1)^k p(x - S)  =  the same sum as theorem2,
             valid for S <= x <= P

  section3:  p(n) - p(r)  =  (-1)^k q f_{k-2}, where f = e^h and
             h(s) = -r s + sum_{i>=1} B_i/(i! i) ((r-n)^i - p_i(A)) s^i,
             with p_i the power sums of the parts

plus hard-coded expansions of the first two identities for k = 2..5.  Each
value is an int: every route divides once, and a remainder raises.  The
general sums and the hard-coded forms are implemented independently on
purpose: agreement between them (and with the dynamic-programming oracle) is
the correctness argument.  Each count at n, theorem1_count, section3_count
and closed_form_count, is p(r) plus its correction, formed in one place
(``_at_residue``).  p(r) comes from Sylvester's waves (waves.py), which need
no table of r entries and read none of the values the corrections are built
from, or from a lookup the caller passes as ``base``.

Pairwise coprimality is a genuine hypothesis, not an implementation
convenience, so every identity here rejects part sets that lack it instead
of returning numbers that may be wrong.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb, factorial, lcm
from typing import Callable, Optional, Tuple

from .bernoulli import bernoulli_barnes, log_coefficients, numerators_at, power_sum
from .errors import InternalInconsistencyError, RangeError, UnsupportedArityError
from .partset import PartSet
from .series import series_exp
from .waves import waves_count


def decompose(parts: PartSet, n: int) -> Tuple[int, int]:
    """(q, r) with n = q * product + r and 0 <= r < product."""
    if n < 0:
        raise RangeError(f"n must be nonnegative, got {n}")
    return divmod(n, parts.product)


def _exact(numerator: int, denominator: int, what: str) -> int:
    """numerator / denominator; a remainder can only mean a bug, so it raises."""
    quotient, rest = divmod(numerator, denominator)
    if rest:
        value = Fraction(numerator, denominator)
        raise InternalInconsistencyError(f"{what} is not an integer: {value}")
    return quotient


def _bb_sum(parts: PartSet, t: int, x: int) -> int:
    """(-1)^k t sum_{i=0}^{k-2} (-t)^i / ((i+1)! (k-i-2)!) B_{k-i-2}(x; A).

    theorem1 reads it at (n - r, -r), and theorem2 and theorem3 at (P, x).
    Times (k-1)!, the weights are the binomials C(k-1, i+1), and the
    polynomials of one table share their denominator, so the sum runs in
    integers and divides once.  Only B_0..B_{k-2} are read, so the table
    stops there, and one difference triangle on its beta gives all their
    numerators at x.  The sum is a polynomial in -t, summed by Horner's rule,
    so no power of t is formed.  Needs k >= 2: for k = 1 the sum is empty.
    """
    k = parts.k
    table = bernoulli_barnes(parts, k - 2)
    values = numerators_at(table[0].beta, x)
    total = 0
    for i in range(k - 2, -1, -1):
        total = total * -t + comb(k - 1, i + 1) * values[k - i - 2]
    denominator = factorial(k - 1) * table[0].denominator
    return _exact((-1) ** k * t * total, denominator, "Bernoulli-Barnes sum")


def theorem1_correction(parts: PartSet, n: int) -> int:
    """The correction p(n) - p(r), an exact integer.

    For k = 1 the sum is empty and the correction is 0, which is the right
    degenerate reading: with a single part, p(n) depends only on n mod a_1.
    For n < P, q = 0 and the sum is multiplied by n - r = 0.  So in neither
    case is a Bernoulli-Barnes table read or held.
    """
    q, r = decompose(parts, n)
    parts.require_pairwise_coprime()
    return _bb_sum(parts, n - r, -r) if parts.k > 1 and q else 0


def _at_residue(parts: PartSet, n: int, base: Optional[Callable], correction: Callable) -> int:
    """p(r) + correction(parts, n), n = q P + r: the one place a route's count
    at n is formed.  p(r) is base(r), or the waves count when base is None."""
    _, r = decompose(parts, n)
    return (waves_count(parts, r) if base is None else base(r)) + correction(parts, n)


# Each count names its correction when it runs, so a correction rebound on
# this module (a test's monkeypatch, or the span tracer in perfbench/spans.py)
# is the one it adds.  base, if given, is a lookup m -> p(m) read once, at r:
# verify passes its trial's memo, the CLI a plain waves lookup.
def theorem1_count(parts: PartSet, n: int, base: Optional[Callable] = None) -> int:
    """p(n) via the base count at the residue plus the correction sum."""
    return _at_residue(parts, n, base, theorem1_correction)


def closed_form_count(parts: PartSet, n: int, base: Optional[Callable] = None) -> int:
    """p(n) via the base count at the residue plus the hard-coded correction."""
    return _at_residue(parts, n, base, closed_form_correction)


def _product_sum_rhs(parts: PartSet, x: int) -> int:
    """Shared right-hand side of the theorem2/theorem3 identities at x."""
    return _bb_sum(parts, parts.product, x)


def _require_two_coprime_parts(parts: PartSet) -> None:
    if parts.k < 2:
        raise UnsupportedArityError(
            f"this identity needs at least two parts, got {parts.k}"
        )
    parts.require_pairwise_coprime()


def _require_below_sum(parts: PartSet, x: int) -> None:
    if not 1 <= x <= parts.total - 1:
        raise RangeError(
            f"x must lie in [1, {parts.total - 1}] for parts {list(parts)}, got {x}"
        )


def theorem2_count(parts: PartSet, x: int) -> int:
    """p(product - x) for x below the sum of the parts (1 <= x <= S - 1)."""
    _require_two_coprime_parts(parts)
    _require_below_sum(parts, x)
    return _product_sum_rhs(parts, x)


def theorem3_rhs(parts: PartSet, x: int) -> int:
    """The value of p(product - x) + (-1)^k p(x - S) for S <= x <= product."""
    _require_two_coprime_parts(parts)
    if not parts.total <= x <= parts.product:
        if parts.total > parts.product:
            raise RangeError(
                f"parts {list(parts)} have no theorem3 domain: their sum"
                f" {parts.total} passes their product {parts.product}"
            )
        raise RangeError(
            f"x must lie in [{parts.total}, {parts.product}] for parts {list(parts)}, got {x}"
        )
    return _product_sum_rhs(parts, x)


# Bounded, since an entry holds O(order^2 log D) digits, its unit exponential
# included; count-huge-n reads orders 1..5 only.
@lru_cache(maxsize=16)
def _log_weights(order: int) -> Tuple[int, Tuple[int, ...], Tuple[int, ...]]:
    """D, the ints w_j = D^j j! c_j for j = 1..order, c_j the log coefficients,
    and the unit exponential series_exp((0, -w_1, ..., -w_order)).

    j! c_j = -B_j / j has a small denominator, and D is the lcm of them.  The
    unit exponential is exp(-ln(Ds / (e^(Ds) - 1))) as an exponential
    generating function, so its i-th entry is D^i / (i + 1).
    """
    weights = [factorial(j) * c for j, c in enumerate(log_coefficients(order), start=1)]
    d = lcm(*(w.denominator for w in weights))
    weights = tuple(
        w.numerator * (d // w.denominator) * d ** (j - 1)
        for j, w in enumerate(weights, start=1)
    )
    return d, weights, series_exp((0, *(-w for w in weights)))


def section3_count(parts: PartSet, n: int, base: Optional[Callable] = None) -> int:
    """p(n) via the base count at the residue plus the series correction."""
    return _at_residue(parts, n, base, section3_correction)


def section3_correction(parts: PartSet, n: int) -> int:
    """The correction p(n) - p(r) via the exponential recursion instead of
    the correction sum, an exact integer.

    Builds h(s) from the coefficients of ln(s/(e^s - 1)), which are read off
    the Bernoulli number table, and power sums, exponentiates it with
    the series recursion, and reads the correction off one coefficient.
    Shares nothing with theorem1_correction, so the two serve as independent
    checks of each other.

    It runs in integers and divides once.  With u_j = j! h_j, the weights
    j! c_j = -B_j/j share a small denominator D (``_log_weights``), so
    U_j = D^j u_j are ints: U is h(Ds) as an exponential generating
    function.  Its exponential G (``series_exp``) gives f_i = G_i / (D^i i!),
    so the correction (-1)^k q G_{k-2} is divided by D^{k-2} (k-2)! once.
    Scaling by D^j, not by D alone, is what makes U the series of h(Ds).

    Only the Bernoulli part of U holds n: U(s) = A((r - n) s) + C(s), with
    A_j = -w_j and C_j = w_j p_j (C_1 also -r D).  So e^U = E((r - n) s) e^C,
    where E = e^A is the unit exponential ``_log_weights`` keeps per order,
    and only C, whose ints are n-free, is exponentiated here.  As exponential
    generating functions multiply, G_m = sum_i C(m, i) E_i (e^C)_{m-i}
    (r - n)^i, which is summed by Horner's rule in r - n.

    The coefficient read is f_{k-2}, and the recursion makes it depend on
    h_1..h_{k-2} only, so h is truncated at order k - 2 and the value is
    exact.  The order is at least 1 because the s term, -r s, is always built.
    For n < P, q = 0 and the correction is 0, so no series is built.
    """
    _require_two_coprime_parts(parts)
    q, r = decompose(parts, n)
    if not q:
        return 0
    k = parts.k
    order = max(k - 2, 1)
    d, weights, unit = _log_weights(order)
    shift = r - n
    u = [0, -r * d] + [0] * (order - 1)
    for j, w in enumerate(weights, start=1):
        if w:
            u[j] += w * power_sum(parts, j)
    rest = series_exp(tuple(u))
    g = 0
    for i in range(k - 2, -1, -1):
        g = g * shift + comb(k - 2, i) * unit[i] * rest[k - 2 - i]
    denominator = d ** (k - 2) * factorial(k - 2)
    return _exact((-1) ** k * q * g, denominator, "series correction")


def _pair_product_sum(parts: PartSet) -> int:
    return sum(a * b for a, b in combinations(parts.parts, 2))


def _require_closed_form(parts: PartSet) -> None:
    if parts.k not in (2, 3, 4, 5):
        raise UnsupportedArityError(
            f"closed forms cover 2 to 5 parts, got {parts.k}"
        )
    parts.require_pairwise_coprime()


def _closed_form(parts: PartSet, q: int, n: int, r: int) -> int:
    """The theorem1 correction q * (...) for k = 2..5, written term by term.

    n = q P + r with 0 <= r < P reads it as p(n) - p(r).  q = 1, n = P - x
    and r = -x read it as p(P - x) for 1 <= x <= S - 1, since p(-x) = 0 there.
    """
    a = parts.parts
    s = parts.total
    if parts.k == 2:
        numerator, denominator = n - r, a[0] * a[1]
    elif parts.k == 3:
        numerator, denominator = q * (n + r + s), 2
    elif parts.k == 4:
        body = (
            3 * (n + r) * s
            + 2 * (n + r) ** 2
            - 2 * n * r
            + s ** 2
            + _pair_product_sum(parts)
        )
        numerator, denominator = q * body, 12
    else:
        body = (
            (n + r) * (n * n + r * r)
            + (2 * n * n + 2 * n * r + 2 * r * r) * s
            + (n + r) * power_sum(parts, 2)
            + sum(ai ** 2 * (s - ai) for ai in a)
            + 3 * (n + r) * _pair_product_sum(parts)
            + 3 * sum(parts.product // (ai * aj) for ai, aj in combinations(a, 2))
        )
        numerator, denominator = q * body, 24
    return _exact(numerator, denominator, "closed-form correction")


def closed_form_correction(parts: PartSet, n: int) -> int:
    """Hard-coded expansions of the theorem1 correction for k = 2..5, as an int.

    These are written out term by term, not derived from the general sum, so
    that agreement with theorem1_correction is a meaningful check on both.
    """
    _require_closed_form(parts)
    q, r = decompose(parts, n)
    return _closed_form(parts, q, n, r)


def closed_form_theorem2(parts: PartSet, x: int) -> int:
    """Hard-coded expansions of theorem2 for k = 2..5 (same caveats as above)."""
    _require_closed_form(parts)
    _require_below_sum(parts, x)
    return _closed_form(parts, 1, parts.product - x, -x)
