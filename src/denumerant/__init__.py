"""Exact restricted-count computations via reduction identities.

The package computes p(n), the number of ways to write n as a nonnegative
integer combination of a fixed set of parts, five independent ways: a
dynamic-programming oracle, Sylvester's waves, a correction-sum reduction,
an exponential series recursion, and hard-coded closed forms for 2 to 5
parts.  The last three reduce p(n) to p(n mod the product), which they take
from the waves.  Everything is exact rational arithmetic; the test suite's
job is to show the routes never disagree.
"""

from .bernoulli import (
    BBPoly,
    bernoulli_barnes,
    bernoulli_numbers,
    power_sum,
)
from .errors import (
    CoprimalityError,
    DomainError,
    InternalInconsistencyError,
    NonInvertibleError,
    OrderMismatchError,
    RangeError,
    SamplingExhaustedError,
    UnsupportedArityError,
)
from .oracle import oracle_count, oracle_table
from .partset import PartSet
from .reductions import (
    closed_form_correction,
    closed_form_count,
    closed_form_theorem2,
    decompose,
    section3_count,
    theorem1_correction,
    theorem1_count,
    theorem2_count,
    theorem3_rhs,
)
from .series import Poly, poly_eval, series_exp
from .waves import waves_count

__version__ = "0.1.0"

__all__ = [
    "BBPoly",
    "CoprimalityError",
    "DomainError",
    "InternalInconsistencyError",
    "NonInvertibleError",
    "OrderMismatchError",
    "PartSet",
    "Poly",
    "RangeError",
    "SamplingExhaustedError",
    "UnsupportedArityError",
    "bernoulli_barnes",
    "bernoulli_numbers",
    "closed_form_correction",
    "closed_form_count",
    "closed_form_theorem2",
    "decompose",
    "oracle_count",
    "oracle_table",
    "poly_eval",
    "power_sum",
    "section3_count",
    "series_exp",
    "theorem1_correction",
    "theorem1_count",
    "theorem2_count",
    "theorem3_rhs",
    "waves_count",
]
