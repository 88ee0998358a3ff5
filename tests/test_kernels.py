"""The native evaluation kernels of ``braiding`` against the reference
routes in ``oracles``: seeded inputs over Z, Q, F_2, F_3 and F_7, with
empty, all-inverse and unreduced words and keys that repeat generators."""

import random
import time
from fractions import Fraction

import pytest

from letterbraid import braiding
from letterbraid.braiding import (_blocks, _chain_values, _Letters,
                                  _prefixes, _suffixes, braiding_number,
                                  braiding_polynomial, iterated_sum,
                                  multi_evaluation, product_check)
from letterbraid.rings import QQ, ZZ, PrimeField
from letterbraid.tensors import (Functional, TensorElement, dual_functional,
                                 iterated_reduced_coproduct, reduced_coproduct)
from letterbraid.words import Word, concat

from conftest import XY, XYZ
from oracles import (circle_polynomial, inclusion_exclusion_multi_evaluation,
                     ring_block, ring_iterated_sum, ring_number)

RINGS = [ZZ, QQ, PrimeField(2), PrimeField(3), PrimeField(7)]


def same(got, want):
    """Equal, and of the same type: a Fraction where the ring has one."""
    return got == want and type(got) is type(want)


def sample_words(rng, alphabet):
    """An empty, an all-inverse, an unreduced and a random word."""
    k = len(alphabet)
    yield Word(alphabet)
    yield Word(alphabet, [(rng.randrange(k), -1) for _ in range(rng.randint(1, 9))])
    letters = []
    for _ in range(rng.randint(1, 5)):
        g, s = rng.randrange(k), rng.choice((1, -1))
        letters += [(g, s), (g, -s), (rng.randrange(k), rng.choice((1, -1)))]
    yield Word(alphabet, letters)
    yield Word(alphabet, [(rng.randrange(k), rng.choice((1, -1)))
                          for _ in range(rng.randint(10, 24))])


def sample_key(rng, k, r):
    """A key of weight r; from r = 2 on, some generator appears twice."""
    key = [rng.randrange(k) for _ in range(r)]
    if r >= 2:
        i, j = rng.sample(range(r), 2)
        key[j] = key[i]
    return tuple(key)


def scalar(rng, ring):
    """A nonzero scalar; over Q a non-unit fraction."""
    if ring is QQ:
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(2, 4))
    return ring.from_int(rng.choice((1, 2, 3, -1, -2, -3)))


def sample_tensor(rng, alphabet, ring, max_weight=5, max_terms=3):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        key = sample_key(rng, len(alphabet), rng.randint(0, max_weight))
        terms[key] = ring.add(terms.get(key, ring.zero), scalar(rng, ring))
    return TensorElement(ring, alphabet, terms)


def cases(ring, seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        alphabet = rng.choice((XY, XYZ))
        for w in sample_words(rng, alphabet):
            yield rng, alphabet, w


@pytest.mark.parametrize("ring", RINGS, ids=repr)
def test_iterated_sum_matches_the_ring_method_oracle(ring):
    for rng, alphabet, w in cases(ring, 60, 6):
        for r in range(6):
            duals = [dual_functional(alphabet, ring, g)
                     for g in sample_key(rng, len(alphabet), r)]
            assert same(iterated_sum(duals, w, ring), ring_iterated_sum(duals, w, ring))
            general = [Functional(alphabet, tuple(scalar(rng, ring) if rng.random() < 0.7
                                                  else ring.zero for _ in alphabet))
                       for _ in range(r)]
            assert same(iterated_sum(general, w, ring),
                        ring_iterated_sum(general, w, ring)), (w, general)


@pytest.mark.parametrize("ring", RINGS, ids=repr)
def test_numbers_and_polynomials_match_the_oracles(ring):
    for rng, alphabet, w in cases(ring, 61, 5):
        T = sample_tensor(rng, alphabet, ring)
        assert same(braiding_number(T, w), ring_number(T, w))
        poly = braiding_polynomial(T, w)
        want = [T.counit]
        for k in range(T.weight):
            total = ring.zero
            for keys, c in iterated_reduced_coproduct(T, k).items():
                for key in keys:
                    c = ring.mul(c, ring_block(T, key, w))
                total = ring.add(total, c)
            want.append(total)
        while want and want[-1] == ring.zero:
            want.pop()
        assert len(poly.coeffs) == len(want)
        assert all(same(a, b) for a, b in zip(poly.coeffs, want)), (T, w)
        # the circle model: weight reduction of each term's pulled-back forms
        circle = circle_polynomial(T, w)
        assert len(circle.coeffs) == len(want)
        assert all(same(a, b) for a, b in zip(circle.coeffs, want)), (T, w)


@pytest.mark.parametrize("ring", RINGS, ids=repr)
def test_every_walked_block_matches_its_own_iterated_sum(ring):
    for rng, alphabet, w in cases(ring, 62, 4):
        keys = [sample_key(rng, len(alphabet), rng.randint(1, 6)) for _ in range(3)]
        T = TensorElement.from_key(ring, alphabet, keys[0])
        for blocks, forward in ((_blocks(keys), True), (_prefixes(keys), True),
                                (_suffixes(keys), False)):
            values = _chain_values(blocks, _Letters(w.letters), ring, forward)
            assert set(values) == blocks
            for block, value in values.items():
                assert same(value, ring_block(T, block, w)), (block, w, forward)


@pytest.mark.parametrize("ring", RINGS, ids=repr)
def test_product_check_fields_follow_their_definitions(ring):
    for rng, alphabet, w in cases(ring, 63, 4):
        T = sample_tensor(rng, alphabet, ring)
        cut = rng.randint(0, len(w))
        w1, w2 = Word(alphabet, w.letters[:cut]), Word(alphabet, w.letters[cut:])
        chk = product_check(T, w1, w2)
        assert same(chk.product_value, ring_number(T, concat(w1, w2)))
        assert same(chk.additive_part, ring.add(ring_number(T, w1), ring_number(T, w2)))
        cross = ring.zero
        for (k1, k2), c in reduced_coproduct(T).items():
            cross = ring.add(cross, ring.mul(c, ring.mul(ring_block(T, k1, w1),
                                                         ring_block(T, k2, w2))))
        assert same(chk.coproduct_part, cross)


@pytest.mark.parametrize("ring", RINGS, ids=repr)
def test_multi_evaluation_matches_inclusion_exclusion(ring):
    rng = random.Random(64)
    for _ in range(12):
        alphabet = rng.choice((XY, XYZ))
        T = sample_tensor(rng, alphabet, ring, max_weight=5)
        words = [w for w in sample_words(rng, alphabet)][:rng.randint(1, 4)]
        rng.shuffle(words)
        assert same(multi_evaluation(T, words),
                    inclusion_exclusion_multi_evaluation(T, words)), (T, words)


def test_multi_evaluation_above_the_weight_is_zero_at_once(monkeypatch):
    rng = random.Random(66)
    words = [Word(XY, [(rng.randrange(2), rng.choice((1, -1))) for _ in range(40)])
             for _ in range(12)]

    def refuse(*_):
        raise AssertionError("evaluated a block")

    monkeypatch.setattr(braiding, "iterated_sum", refuse)
    monkeypatch.setattr(braiding, "_chain_values", refuse)
    for ring in (ZZ, QQ):
        T = sample_tensor(rng, XY, ring, max_weight=4)
        T = T.add(TensorElement.from_key(ring, XY, (0, 1, 0, 1)))
        assert T.weight == 4
        assert same(multi_evaluation(T, words), ring.zero)


def test_multi_evaluation_of_a_long_key_sums_its_cuts_without_listing_them():
    # A weight-24 key over 12 words has C(23, 11) = 1,352,078 cuts; the cut
    # steps never list them.  On x^-1 every block x^k is worth (-1)^k, so
    # each cut of x^24 adds (-1)^24 and the value is the number of cuts.
    rng = random.Random(68)
    random_words = [Word(XY, [(rng.randrange(2), rng.choice((1, -1))) for _ in range(6)])
                    for _ in range(12)]
    random_key = tuple(rng.randrange(2) for _ in range(24))
    start = time.perf_counter()
    for ring in (ZZ, QQ, PrimeField(3)):
        x24 = TensorElement.from_key(ring, XY, (0,) * 24)
        assert same(multi_evaluation(x24, [Word(XY, [(0, -1)])] * 12),
                    ring.from_int(1352078))
        multi_evaluation(TensorElement.from_key(ring, XY, random_key), random_words)
    assert time.perf_counter() - start < 2.0
