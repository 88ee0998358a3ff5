import random

import pytest

from letterbraid.rings import QQ, ZZ, PrimeField
from letterbraid.tensors import (BraidPolynomial, TensorElement, coproduct,
                                 format_tensor, iterated_reduced_coproduct,
                                 parse_tensor, reduced_coproduct,
                                 tensor_from_json, tensor_to_json)
from letterbraid.words import MAX_BRACKET_DEPTH, ParseError

from conftest import XY, XYZ, random_tensor


def T(text, alphabet=XY, ring=ZZ):
    return parse_tensor(text, alphabet, ring)


def test_reduced_coproduct_of_weight_two():
    assert reduced_coproduct(T("x|y")) == {((0,), (1,)): 1}


def test_reduced_coproduct_of_weight_one_vanishes():
    assert reduced_coproduct(T("x")) == {}


def test_full_coproduct_of_unit():
    assert coproduct(T("1")) == {((), ()): 1}


def test_iterated_reduced_coproduct():
    full = iterated_reduced_coproduct(T("x|y|x"), 2)
    assert full == {((0,), (1,), (0,)): 1}
    assert iterated_reduced_coproduct(T("x|y"), 2) == {}
    lin = iterated_reduced_coproduct(T("x|y + y|x"), 1)
    assert lin == {((0,), (1,)): 1, ((1,), (0,)): 1}


def test_leading_term():
    elem = T("x|y + z", XYZ, PrimeField(2))
    assert elem.leading_term(2).terms == {(0, 1): 1}
    assert T("x").leading_term(2).is_zero()
    assert T("3").leading_term(0).terms == {(): 3}


def test_parse_examples():
    elem = T("x|y + z", XYZ, PrimeField(2))
    assert elem.terms == {(0, 1): 1, (2,): 1}
    assert T("1").terms == {(): 1}
    assert T("2 x|x - x").terms == {(0, 0): 2, (0,): -1}


def test_parse_distributes_over_tensor_sign():
    assert T("(x + y)|x") == T("x|x + y|x")
    assert T("2 (x|y)") == T("2 x|y")
    assert T("x - x").is_zero()
    with pytest.raises(ParseError):
        T("x|w")
    with pytest.raises(ParseError):
        T("x +")
    with pytest.raises(ParseError):
        parse_tensor("1/2 x", XY, ZZ)  # not an integer scalar
    assert parse_tensor("1/2 x", XY, QQ).coefficient((0,)) == QQ.parse("1/2")


@pytest.mark.parametrize("text, ring, message, pos", [
    ("x y", ZZ, "expected '+', '-' or '|'", 2),
    ("x 2", ZZ, "expected '+', '-' or '|'", 2),
    ("x (y)", ZZ, "expected '+', '-' or '|'", 2),
    ("(x) y", ZZ, "expected '+', '-' or '|'", 4),
    ("x|y z", ZZ, "expected '+', '-' or '|'", 4),
    ("x ? y", ZZ, "unexpected character '?'", 2),
    ("+ x", ZZ, "unexpected '+'", 0),
    ("x - - y", ZZ, "unexpected '-'", 4),
    ("x +", ZZ, "dangling operator", 3),
    ("", ZZ, "empty tensor expression", 0),
    ("()", ZZ, "empty tensor expression", 1),
    ("x|w", ZZ, "unknown generator 'w'", 2),
    ("(x", ZZ, "unbalanced parenthesis", 2),
    ("x)", ZZ, "expected generator, scalar or '('", 1),
    ("x|", ZZ, "expected generator, scalar or '('", 2),
    ("1/2 x", ZZ, "malformed integer scalar '1/2'", 0),
    ("1/0 x", QQ, "malformed rational scalar '1/0'", 0),
])
def test_tensor_parse_errors_name_message_and_position(text, ring, message, pos):
    with pytest.raises(ParseError) as exc:
        parse_tensor(text, XYZ, ring)
    assert (str(exc.value), exc.value.pos) == (f"{message} (position {pos})", pos)


def test_parse_tensor_refuses_brackets_above_the_depth_budget():
    depth = MAX_BRACKET_DEPTH
    assert T("(" * depth + "x|y" + ")" * depth) == T("x|y")
    with pytest.raises(ParseError, match=f"budget of {depth}") as exc:
        T("(" * 1000 + "x" + ")" * 1000)
    assert exc.value.pos == depth


def test_scalars_and_tensor_factors_still_juxtapose():
    assert T("2 3 x").terms == {(0,): 6}
    assert T("2|x").terms == {(0,): 2}
    assert T("2 (x) - (y)|3").terms == {(0,): 2, (1,): -3}


def test_hand_built_values_are_normalized():
    F5 = PrimeField(5)
    elem = TensorElement(F5, XY, {(0,): 7, (1,): -1, (0, 1): 10})
    assert elem.terms == {(0,): 2, (1,): 4}
    from letterbraid.magnus import TruncSeries
    s = TruncSeries(F5, XY, 3, {(0,): -3})
    assert s.terms == {(0,): 2}


def test_weight_and_counit():
    elem = T("3 + x|y")
    assert elem.weight == 2
    assert elem.counit == 3
    assert TensorElement.zero(ZZ, XY).weight == 0


def test_coassociativity_on_random_tensors():
    rng = random.Random(20)
    ring = QQ
    for _ in range(200):
        elem = random_tensor(rng, XYZ, ring, max_weight=4)
        left = {}
        right = {}
        for (a, b), c in coproduct(elem).items():
            for i in range(len(a) + 1):  # Delta on the left factor
                key = (a[:i], a[i:], b)
                left[key] = ring.add(left.get(key, ring.zero), c)
            for i in range(len(b) + 1):  # Delta on the right factor
                key = (a, b[:i], b[i:])
                right[key] = ring.add(right.get(key, ring.zero), c)
        left = {k: v for k, v in left.items() if v != ring.zero}
        right = {k: v for k, v in right.items() if v != ring.zero}
        assert left == right


def test_counit_law():
    rng = random.Random(21)
    ring = ZZ
    for _ in range(100):
        elem = random_tensor(rng, XY, ring, max_weight=3)
        # (eta x id) Delta = id: collect the summands whose left factor is empty.
        recovered = {}
        for (a, b), c in coproduct(elem).items():
            if a == ():
                recovered[b] = ring.add(recovered.get(b, ring.zero), c)
        recovered = {k: v for k, v in recovered.items() if v != ring.zero}
        assert recovered == elem.terms


def test_weight_is_vanishing_order_of_reduced_coproduct():
    rng = random.Random(22)
    for _ in range(100):
        elem = random_tensor(rng, XY, ZZ, max_weight=4)
        w = elem.weight
        if elem.reduced().is_zero():
            assert iterated_reduced_coproduct(elem, 0) == {}
            continue
        assert iterated_reduced_coproduct(elem, w) == {}
        assert iterated_reduced_coproduct(elem, w - 1) != {}


def test_polynomial_basics():
    ring = ZZ
    p = BraidPolynomial(ring, [0, -1, 0])
    assert p.coeffs == (0, -1)
    assert p.degree == 1
    assert p.linear_coefficient == -1
    assert p(-1) == 1
    q = p.add(BraidPolynomial(ring, [1]))
    assert q.coeffs == (1, -1)
    assert p.shift(2).coeffs == (0, 0, 0, -1)
    assert BraidPolynomial(ring, []).degree == -1


def test_json_round_trip():
    elem = T("x|y + 2 z - 1", XYZ)
    doc = tensor_to_json(elem)
    assert doc["terms"][0] == {"key": [], "coeff": "-1"}
    assert tensor_from_json(doc, XYZ, ZZ) == elem


def test_format_parse_round_trip_random():
    rng = random.Random(23)
    for _ in range(200):
        elem = random_tensor(rng, XYZ, QQ, max_weight=3)
        assert parse_tensor(format_tensor(elem), XYZ, QQ) == elem
