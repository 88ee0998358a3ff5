"""Property tests: the linear-combination laws shared by tensors,
truncated series and group-ring elements, and parser round trips.

Example counts are kept small and derandomized, so the suite stays fast
and every run draws the same cases.
"""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from letterbraid.magnus import FreeGroupRingElement, TruncSeries
from letterbraid.rings import QQ, ZZ, PrimeField
from letterbraid.tensors import TensorElement, format_tensor, parse_tensor
from letterbraid.words import Letter, Word, format_word, parse_word

from conftest import XY

RINGS = [ZZ, QQ, PrimeField(2), PrimeField(3)]
ORDER = 4
LAWS = settings(max_examples=15, deadline=None, derandomize=True, database=None)

index_keys = st.lists(st.integers(0, len(XY) - 1), max_size=ORDER - 1).map(tuple)
letter_keys = st.lists(st.builds(Letter, st.integers(0, len(XY) - 1), st.sampled_from([1, -1])),
                       max_size=3).map(tuple)

KINDS = {
    "tensor": (index_keys, lambda ring, terms: TensorElement(ring, XY, terms)),
    "series": (index_keys, lambda ring, terms: TruncSeries(ring, XY, ORDER, terms)),
    "group ring": (letter_keys, lambda ring, terms: FreeGroupRingElement(ring, XY, terms)),
}


def scalars(ring):
    if ring is QQ:
        return st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
    return st.integers(-6, 6).map(ring.from_int)


def elements(kind, ring):
    keys, make = KINDS[kind]
    return st.dictionaries(keys, scalars(ring), max_size=5).map(lambda terms: make(ring, terms))


@pytest.mark.parametrize("ring", RINGS, ids=repr)
@pytest.mark.parametrize("kind", list(KINDS))
def test_combination_laws(kind, ring):
    @LAWS
    @given(elements(kind, ring), elements(kind, ring), elements(kind, ring),
           scalars(ring), scalars(ring))
    def laws(a, b, c, s, t):
        assert a.add(b) == b.add(a)
        assert a.add(b).add(c) == a.add(b.add(c))
        assert a.sub(a).is_zero()
        assert a.sub(b).add(b) == a
        assert a.add(b).scale(s) == a.scale(s).add(b.scale(s))
        assert a.scale(ring.add(s, t)) == a.scale(s).add(a.scale(t))
        assert all(v != ring.zero for v in a.add(b).terms.values())

    laws()


@pytest.mark.parametrize("ring", RINGS, ids=repr)
def test_combinations_of_different_kinds_are_unequal(ring):
    @LAWS
    @given(st.dictionaries(index_keys, scalars(ring), max_size=4))
    def unequal(terms):
        T = TensorElement(ring, XY, terms)
        S = TruncSeries(ring, XY, ORDER, terms)
        assert T.terms == S.terms
        assert T != S and S != T
        assert S != TruncSeries(ring, XY, ORDER + 1, terms)
        with pytest.raises(ValueError):
            T.add(S)

    unequal()


@pytest.mark.parametrize("ring", RINGS, ids=repr)
def test_tensor_format_round_trips(ring):
    @LAWS
    @given(elements("tensor", ring))
    def round_trip(T):
        assert parse_tensor(format_tensor(T), XY, ring) == T

    round_trip()


@LAWS
@given(st.lists(st.tuples(st.integers(0, len(XY) - 1), st.sampled_from([1, -1])), max_size=12))
def test_word_format_round_trips(letters):
    w = Word(XY, letters)
    assert parse_word(format_word(w), XY) == w
