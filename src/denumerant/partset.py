"""Part sets: the denominators of a restricted counting problem."""

from __future__ import annotations

from functools import cached_property
from math import lcm, prod
from typing import Iterator, Tuple

from .errors import CoprimalityError, DomainError


class PartSet:
    """A nonempty set of distinct positive integers, stored sorted.

    Distinctness is part of the contract: repeated parts are rejected rather
    than collapsed, so a caller who meant a multiset finds out immediately.
    Instances are immutable, and equal and hash alike when their parts do.
    """

    parts: Tuple[int, ...]
    product: int
    total: int

    def __init__(self, parts: Tuple[int, ...]) -> None:
        vars(self)["parts"] = parts
        self.__post_init__()
        vars(self).update(product=prod(self.parts), total=sum(self.parts))

    def __post_init__(self) -> None:
        """Validate the parts and store them sorted.

        Kept under its dataclass name: perfbench/spans.py times construction
        by wrapping it.
        """
        parts = tuple(self.parts)
        if not parts:
            raise DomainError("a part set needs at least one part")
        for a in parts:
            if not isinstance(a, int) or isinstance(a, bool) or a < 1:
                raise DomainError(f"parts must be positive integers, got {a!r}")
        if len(set(parts)) != len(parts):
            raise DomainError(f"parts must be distinct, got {sorted(parts)}")
        vars(self)["parts"] = tuple(sorted(parts))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.parts == other.parts

    def __hash__(self) -> int:
        return hash(self.parts)

    def __repr__(self) -> str:
        return f"PartSet(parts={self.parts!r})"

    @staticmethod
    def of(*parts: int) -> "PartSet":
        return PartSet(tuple(parts))

    @property
    def k(self) -> int:
        """Number of parts."""
        return len(self.parts)

    @cached_property
    def pairwise_coprime(self) -> bool:
        """No two parts share a factor: the lcm of the parts is their product."""
        return lcm(*self.parts) == self.product

    def require_pairwise_coprime(self) -> None:
        if not self.pairwise_coprime:
            raise CoprimalityError(
                f"parts {list(self.parts)} are not pairwise coprime"
            )

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)
