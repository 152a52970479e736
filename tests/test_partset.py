"""PartSet construction and invariants."""

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from denumerant.errors import CoprimalityError, DomainError
from denumerant.partset import PartSet

from helpers import pairwise_coprime


def test_rejects_bad_parts():
    with pytest.raises(DomainError):
        PartSet(())
    with pytest.raises(DomainError):
        PartSet((2, 2, 3))
    with pytest.raises(DomainError):
        PartSet((0, 3))
    with pytest.raises(DomainError):
        PartSet((-2, 3))
    with pytest.raises(DomainError):
        PartSet((True, 3))


def test_derived_quantities():
    a = PartSet.of(2, 3, 5)
    assert a.k == 3
    assert a.product == 30
    assert a.total == 10
    assert a.pairwise_coprime
    assert not PartSet.of(2, 4).pairwise_coprime
    assert PartSet.of(7).pairwise_coprime  # no pairs to violate


def test_require_pairwise_coprime():
    PartSet.of(2, 3, 5).require_pairwise_coprime()
    with pytest.raises(CoprimalityError):
        PartSet.of(6, 10).require_pairwise_coprime()


def test_container_protocol():
    a = PartSet.of(3, 2)
    assert list(a) == [2, 3]
    assert a.k == 2
    assert 3 in a and 5 not in a


def test_hashable_and_usable_as_key():
    table = {PartSet.of(2, 3): "x"}
    assert table[PartSet.of(3, 2)] == "x"


def test_immutable_value():
    a = PartSet.of(3, 2)
    for name in ("parts", "product", "total", "other"):
        with pytest.raises(AttributeError):
            setattr(a, name, (5,))
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert a.parts == (2, 3) and a.product == 6 and a.total == 5
    assert repr(a) == "PartSet(parts=(2, 3))"
    assert a != (2, 3) and a != PartSet.of(2, 5)


@given(st.lists(st.integers(min_value=1, max_value=50), min_size=1, max_size=6, unique=True))
def test_construction_normalizes(values):
    a = PartSet(tuple(values))
    assert a.parts == tuple(sorted(values))
    assert a.product >= 1
    assert a.total == sum(values)


@given(st.lists(st.integers(min_value=1, max_value=60), min_size=1, max_size=8, unique=True))
@example([1])
@example([6, 10, 15])  # no common factor of all three, but each pair has one
@example([1, 4, 9, 25, 49, 11, 13, 59])
def test_pairwise_coprime_matches_the_pairwise_gcd_rule(values):
    assert PartSet(tuple(values)).pairwise_coprime == pairwise_coprime(values)
