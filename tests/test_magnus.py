import random

import pytest

import letterbraid as lb
from letterbraid.magnus import TruncSeries, magnus_expand, series_to_json
from letterbraid.rings import QQ, ZZ, PrimeField
from letterbraid.words import Alphabet, Word, parse_word

from conftest import XY, all_keys, random_word
from oracles import (FreeGroupRingElement, augment, fox_derivative, group_ring_mul,
                     iterated_fox, trunc_mul)


def test_trunc_mul_geometric_inverse():
    a = TruncSeries(ZZ, XY, 3, {(): 1, (0,): 1})
    b = TruncSeries(ZZ, XY, 3, {(): 1, (0,): -1, (0, 0): 1})
    assert trunc_mul(a, b) == TruncSeries.one(ZZ, XY, 3)


def test_trunc_mul_is_noncommutative():
    x = TruncSeries(ZZ, XY, 3, {(0,): 1})
    y = TruncSeries(ZZ, XY, 3, {(1,): 1})
    assert trunc_mul(x, y).terms == {(0, 1): 1}
    assert trunc_mul(y, x).terms == {(1, 0): 1}


def test_trunc_mul_by_zero():
    x = TruncSeries(ZZ, XY, 3, {(0,): 1})
    assert trunc_mul(x, TruncSeries.zero(ZZ, XY, 3)).is_zero()


def test_order_mismatch_is_an_error():
    a = TruncSeries(ZZ, XY, 3, {(): 1})
    b = TruncSeries(ZZ, XY, 4, {(): 1})
    with pytest.raises(ValueError):
        trunc_mul(a, b)


def test_magnus_of_commutator():
    m = magnus_expand(parse_word("[x,y]", XY), 3, ZZ)
    assert m.terms == {(): 1, (0, 1): 1, (1, 0): -1}


def test_magnus_of_inverse_generator():
    m = magnus_expand(parse_word("x^-1", XY), 3, ZZ)
    assert m.terms == {(): 1, (0,): -1, (0, 0): 1}


def test_magnus_intro_coefficient():
    m = magnus_expand(parse_word("[x*y, x^-2]", XY), 5, ZZ)
    assert m.coefficient((0, 0, 1, 0)) == -1
    assert m.coefficient((0, 1, 0, 0)) == 1


def test_fox_axioms():
    x = FreeGroupRingElement.from_word(ZZ, parse_word("x", XY))
    assert fox_derivative(x, 0).terms == {(): 1}
    assert fox_derivative(x, 1).terms == {}
    xinv = FreeGroupRingElement.from_word(ZZ, parse_word("x^-1", XY))
    assert fox_derivative(xinv, 0).terms == {((0, -1),): -1}


def test_fox_product_rule():
    rng = random.Random(40)
    for _ in range(100):
        u = random_word(rng, XY, 5)
        v = random_word(rng, XY, 5)
        uv = FreeGroupRingElement.from_word(ZZ, lb.concat(u, v))
        for g in range(2):
            lhs = fox_derivative(uv, g)
            rhs = fox_derivative(FreeGroupRingElement.from_word(ZZ, u), g).add(
                group_ring_mul(FreeGroupRingElement.from_word(ZZ, u),
                               fox_derivative(FreeGroupRingElement.from_word(ZZ, v), g)))
            assert lhs == rhs


def test_iterated_fox_order_pinned_by_weight_two_fixture():
    w = parse_word("[x,y]", XY)
    assert iterated_fox(w, (0, 1), ZZ) == 1
    assert iterated_fox(w, (1, 0), ZZ) == -1
    assert iterated_fox(parse_word("x y", XY), (0, 1), ZZ) == 1
    assert iterated_fox(parse_word("x y", XY), (1, 0), ZZ) == 0


def test_group_ring_product_and_augmentation():
    x = FreeGroupRingElement.from_word(ZZ, parse_word("x", XY))
    y = FreeGroupRingElement.from_word(ZZ, parse_word("y", XY))
    one = FreeGroupRingElement.one(ZZ, XY)
    shifted = group_ring_mul(x.sub(one), y.sub(one))
    assert shifted.terms == {
        ((0, 1), (1, 1)): 1, ((0, 1),): -1, ((1, 1),): -1, (): 1}
    assert augment(shifted) == 0
    el = x.scale(3).add(FreeGroupRingElement.from_word(ZZ, parse_word("y^-1", XY)).scale(2))
    assert augment(el) == 5


def test_group_ring_keys_stay_reduced():
    w = Word(XY, [(0, 1), (0, -1), (1, 1)])
    el = FreeGroupRingElement.from_word(ZZ, w)
    assert list(el.terms) == [((1, 1),)]
    sq = group_ring_mul(el, FreeGroupRingElement.from_word(ZZ, parse_word("y^-1", XY)))
    assert sq.terms == {(): 1}


def test_magnus_multiplicativity_random():
    rng = random.Random(41)
    for _ in range(500):
        u = random_word(rng, XY, 6)
        v = random_word(rng, XY, 6)
        order = rng.randint(2, 5)
        lhs = magnus_expand(lb.concat(u, v), order, ZZ)
        rhs = trunc_mul(magnus_expand(u, order, ZZ), magnus_expand(v, order, ZZ))
        assert lhs == rhs


def test_fox_magnus_duality_sampled():
    rng = random.Random(42)
    keys = list(all_keys(2, 4))
    for _ in range(80):
        w = random_word(rng, XY, 6)
        series = magnus_expand(w, 5, ZZ)
        for key in rng.sample(keys, 8):
            assert iterated_fox(w, key, ZZ) == series.coefficient(key)


def test_magnus_of_identity_and_inverses():
    assert magnus_expand(Word.identity(XY), 4, ZZ) == TruncSeries.one(ZZ, XY, 4)
    rng = random.Random(43)
    for _ in range(100):
        w = random_word(rng, XY, 6)
        order = rng.randint(1, 5)
        prod = trunc_mul(magnus_expand(w, order, ZZ),
                         magnus_expand(lb.inverse(w), order, ZZ))
        assert prod == TruncSeries.one(ZZ, XY, order)


def _letter_fold(w, order, ring):
    """The Magnus expansion as a product of letter series: x -> 1 + X,
    x^-1 -> sum (-1)^j X^j, folded with trunc_mul."""
    acc = TruncSeries.one(ring, w.alphabet, order)
    for g, s in w.letters:
        if s == 1:
            terms = {(): ring.one, (g,): ring.one}
        else:
            terms = {(g,) * j: ring.from_int((-1) ** j) for j in range(order)}
        acc = trunc_mul(acc, TruncSeries(ring, w.alphabet, order, terms))
    return acc


def test_magnus_expand_matches_the_letter_fold():
    rng = random.Random(44)
    rings = [ZZ, QQ, PrimeField(2), PrimeField(3), PrimeField(7)]
    fixed = [Word.identity(XY), parse_word("x x^-1", XY),
             parse_word("y^-1 x x^-1 y x^-3 x^3", XY)]
    for ring in rings:
        for order in range(1, 7):
            for w in fixed:
                assert magnus_expand(w, order, ring) == _letter_fold(w, order, ring)
    for _ in range(300):
        ring = rng.choice(rings)
        order = rng.randint(1, 6)
        w = random_word(rng, XY, 58)
        if rng.random() < 0.5:
            # splice in an x x^-1 or x^-1 x cancellation
            i = rng.randrange(len(w.letters) + 1)
            g, s = rng.randrange(2), rng.choice((1, -1))
            w = Word(XY, w.letters[:i] + ((g, s), (g, -s)) + w.letters[i:])
        assert magnus_expand(w, order, ring) == _letter_fold(w, order, ring)


def test_magnus_order_must_be_positive():
    for order in (0, -1):
        with pytest.raises(ValueError, match="order must be >= 1"):
            magnus_expand(parse_word("x y", XY), order, ZZ)


def test_magnus_order_above_the_monomial_cap_raises_at_once():
    # Over no generators only the slot per degree counts toward the cap.
    for alphabet, order in ((XY, 18), (XY, 10 ** 9), (Alphabet([]), 10 ** 9)):
        with pytest.raises(ValueError, match="cap of 200000 monomials"):
            magnus_expand(Word.identity(alphabet), order, ZZ)
    assert magnus_expand(Word.identity(XY), 17, ZZ).terms == {(): 1}


def test_magnus_over_prime_field_reduces_coefficients():
    F2 = PrimeField(2)
    m = magnus_expand(parse_word("x^2", XY), 3, F2)
    assert m.terms == {(): 1, (0, 0): 1}  # 2X vanishes mod 2


def test_series_json_is_graded_lex_sorted():
    m = magnus_expand(parse_word("[x,y]", XY), 3, ZZ)
    doc = series_to_json(m)
    assert [t["key"] for t in doc] == [[], ["x", "y"], ["y", "x"]]
    assert doc[2]["coeff"] == "-1"
