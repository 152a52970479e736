"""Exact restricted-count computations via reduction identities.

The package computes p(n), the number of ways to write n as a nonnegative
integer combination of a fixed set of parts, five independent ways: a
dynamic-programming oracle, Sylvester's waves, a correction-sum reduction,
an exponential series recursion, and hard-coded closed forms for 2 to 5
parts.  The last three reduce p(n) to p(n mod the product), which they take
from the waves.  Everything is exact rational arithmetic; the test suite's
job is to show the routes never disagree.

`__all__` is the documented API; import other names from their modules.
"""

from .bernoulli import bernoulli_barnes, bernoulli_numbers
from .errors import DomainError
from .oracle import oracle_count
from .partset import PartSet
from .reductions import (
    closed_form_correction,
    closed_form_count,
    decompose,
    section3_count,
    theorem1_count,
    theorem2_count,
    theorem3_rhs,
)
from .waves import waves_count

__version__ = "0.1.0"

__all__ = [
    "DomainError",
    "PartSet",
    "bernoulli_barnes",
    "bernoulli_numbers",
    "closed_form_correction",
    "closed_form_count",
    "decompose",
    "oracle_count",
    "section3_count",
    "theorem1_count",
    "theorem2_count",
    "theorem3_rhs",
    "waves_count",
]
