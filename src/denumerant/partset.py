"""Part sets: the denominators of a restricted counting problem."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd, prod
from typing import Iterator, Tuple

from .errors import CoprimalityError, DomainError


@dataclass(frozen=True)
class PartSet:
    """A nonempty set of distinct positive integers, stored sorted.

    Distinctness is part of the contract: repeated parts are rejected rather
    than collapsed, so a caller who meant a multiset finds out immediately.
    """

    parts: Tuple[int, ...]

    def __post_init__(self) -> None:
        parts = tuple(self.parts)
        if not parts:
            raise DomainError("a part set needs at least one part")
        for a in parts:
            if not isinstance(a, int) or isinstance(a, bool) or a < 1:
                raise DomainError(f"parts must be positive integers, got {a!r}")
        if len(set(parts)) != len(parts):
            raise DomainError(f"parts must be distinct, got {sorted(parts)}")
        object.__setattr__(self, "parts", tuple(sorted(parts)))

    @staticmethod
    def of(*parts: int) -> "PartSet":
        return PartSet(tuple(parts))

    @property
    def k(self) -> int:
        """Number of parts."""
        return len(self.parts)

    @cached_property
    def product(self) -> int:
        return prod(self.parts)

    @cached_property
    def total(self) -> int:
        return sum(self.parts)

    @cached_property
    def pairwise_coprime(self) -> bool:
        ps = self.parts
        return all(
            gcd(ps[i], ps[j]) == 1
            for i in range(len(ps))
            for j in range(i + 1, len(ps))
        )

    def require_pairwise_coprime(self) -> None:
        if not self.pairwise_coprime:
            raise CoprimalityError(
                f"parts {list(self.parts)} are not pairwise coprime"
            )

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)
