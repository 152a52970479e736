"""Exception types shared across the package.

Everything raised for a bad argument derives from DomainError, so callers
(and the command-line driver) can catch one type for usage problems while
letting genuine bugs surface as InternalInconsistencyError.
"""

from __future__ import annotations


class DomainError(ValueError):
    """An argument lies outside the domain an operation supports."""


class CoprimalityError(DomainError):
    """A part set that must be pairwise coprime is not."""


class RangeError(DomainError):
    """An integer argument lies outside the interval an identity covers."""


class UnsupportedArityError(DomainError):
    """The number of parts is outside what the requested formula handles."""


class SamplingExhaustedError(DomainError):
    """Random search for a pairwise-coprime part set gave up."""


class ResourceLimitError(DomainError):
    """A request would exceed a fixed cap: a table size, or a printable length."""


class InternalInconsistencyError(RuntimeError):
    """An exact computation produced something impossible (a bug, not bad input)."""
