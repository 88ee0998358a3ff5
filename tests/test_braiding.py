import random

import pytest

import letterbraid as lb
from letterbraid.braiding import (braiding_number, braiding_polynomial,
                                  iterated_sum, multi_evaluation, product_check)
from letterbraid.magnus import magnus_expand
from letterbraid.rings import QQ, ZZ, PrimeField
from letterbraid.tensors import (TensorElement, dual_functional,
                                 iterated_reduced_coproduct, parse_tensor)
from letterbraid.words import Word, parse_word

from conftest import (XY, XYZ, all_keys, merge_keys, nested_commutator, random_tensor,
                      random_word)
from oracles import (CircleForm, CircleWord, FreeGroupRingElement,
                     apply_differential, circle_integral, cobound,
                     group_ring_mul, iterated_fox, pullback_to_circle,
                     recursive_weight_reduce)

X = dual_functional(XY, ZZ, 0)
Y = dual_functional(XY, ZZ, 1)
INTRO = parse_word("[x*y, x^-2]", XY)


def tens(text, alphabet=XY, ring=ZZ):
    return parse_tensor(text, alphabet, ring)


def test_pullback_signs_match_the_six_letter_commutator():
    w = lb.free_reduce(INTRO)  # x y x^-1 x^-1 y^-1 x
    form = pullback_to_circle(X, w, ZZ)
    assert form.f == (0, 1, 0, -1, -1, 0, 1)
    assert form.delta0 == 0


def test_pullback_of_missing_generator_is_zero():
    form = pullback_to_circle(X, parse_word("y", XY), ZZ)
    assert form.f == (0, 0)


def test_pullback_on_inverse_letter():
    form = pullback_to_circle(X, parse_word("x^-1", XY), ZZ)
    assert form.f == (0, -1)


def test_cobound_of_indicator():
    form = CircleForm(ZZ, [0, 1, 0])
    assert cobound(form) == (0, -1, 0)
    assert cobound(CircleForm(ZZ, [0, 0, 0])) == (0, 0, 0)
    with pytest.raises(ValueError):
        cobound(CircleForm(ZZ, [0, 1, 0], delta0=1))


def test_cobound_satisfies_the_differential_identity():
    # d(g) = f dx - (integral) * delta0, checked on the intro fixture.
    w = lb.free_reduce(INTRO)
    circle = CircleWord(w)
    form = pullback_to_circle(X, w, ZZ)
    g = cobound(form)
    total = circle_integral(form)
    assert total == 0
    dg = apply_differential(g, circle, ZZ)
    # raw values of f dx - total*delta0: entry i is f_i * dx_i, entry 0 is -total
    expected = [-total] + [form.f[i] * circle.signs[i] for i in range(1, circle.n + 1)]
    assert list(dg) == expected


def test_weight_reduce_intro_example():
    w = lb.free_reduce(INTRO)
    circle = CircleWord(w)
    factors = [pullback_to_circle(a, w, ZZ) for a in (X, X, Y, X)]
    poly = recursive_weight_reduce(factors, circle, ZZ)
    assert poly.coeffs == (0, -1)


def test_weight_reduce_single_generator():
    w = parse_word("x", XY)
    poly = recursive_weight_reduce([pullback_to_circle(X, w, ZZ)], CircleWord(w), ZZ)
    assert poly.coeffs == (0, 1)


def test_weight_reduce_empty_tensor_is_unit():
    w = parse_word("x y", XY)
    assert recursive_weight_reduce([], CircleWord(w), ZZ).coeffs == (1,)


def test_weight_reduce_splits_general_forms():
    # A factor with a delta0 part must agree with the linear combination.
    w = parse_word("x y x", XY)
    circle = CircleWord(w)
    fpart = pullback_to_circle(X, w, ZZ)
    mixed = CircleForm(ZZ, fpart.f, delta0=2)
    got = recursive_weight_reduce([mixed, pullback_to_circle(Y, w, ZZ)], circle, ZZ)
    pure = recursive_weight_reduce([fpart, pullback_to_circle(Y, w, ZZ)], circle, ZZ)
    tpart = recursive_weight_reduce([None, pullback_to_circle(Y, w, ZZ)], circle, ZZ)
    assert got == pure.add(tpart.scale(-2))


def test_iterated_sum_on_commutator():
    w = parse_word("[x,y]", XY)
    assert iterated_sum([X, Y], w, ZZ) == 1
    assert iterated_sum([Y, X], w, ZZ) == -1


def test_iterated_sum_on_inverse_generator_powers():
    w = parse_word("x^-1", XY)
    for n in range(1, 6):
        assert iterated_sum([X] * n, w, ZZ) == (-1) ** n


def test_iterated_sum_on_two_letter_word():
    w = parse_word("x y", XY)
    assert iterated_sum([X, Y], w, ZZ) == 1
    assert iterated_sum([Y, X], w, ZZ) == 0


def test_braiding_number_intro_values():
    assert braiding_number(tens("x|x|y|x"), INTRO) == -1
    assert braiding_number(tens("x|y|x|x"), INTRO) == 1


def test_braiding_polynomial_of_power_counts_letters():
    w = parse_word("x^5", XY)
    poly = braiding_polynomial(tens("x"), w)
    assert poly.coeffs == (0, 5)
    assert braiding_number(tens("x"), w) == 5


def test_braiding_polynomial_on_generators_is_geometric():
    # On a single generator the polynomial of a pure tensor of weight n is
    # the product of the letter values times t^n.
    w = parse_word("x", XY)
    assert braiding_polynomial(tens("x|x|x"), w).coeffs == (0, 0, 0, 1)
    assert braiding_polynomial(tens("y|x"), w).coeffs == ()
    assert braiding_polynomial(tens("2"), w).coeffs == (2,)


def test_multi_evaluation_examples():
    x = parse_word("x", XY)
    y = parse_word("y", XY)
    assert multi_evaluation(tens("x|y"), [x, y]) == 1
    assert multi_evaluation(tens("x"), [x, y]) == 0
    assert multi_evaluation(tens("x|y"), [y, x]) == 0


def test_multi_evaluation_matches_group_ring_pairing():
    # <T, (w0-1)...(wn-1)> through the literal free group ring.
    rng = random.Random(30)
    for _ in range(60):
        elem = random_tensor(rng, XY, ZZ, max_weight=3)
        ws = [random_word(rng, XY, 4) for _ in range(rng.randint(1, 3))]
        shifted = None
        for w in ws:
            f = FreeGroupRingElement.from_word(ZZ, w).sub(
                FreeGroupRingElement.one(ZZ, XY))
            shifted = f if shifted is None else group_ring_mul(shifted, f)
        paired = ZZ.zero
        for word, coeff in shifted.words():
            paired += coeff * (braiding_number(elem, word) + elem.counit)
        assert multi_evaluation(elem, ws) == paired


def test_product_check_examples():
    x = parse_word("x", XY)
    y = parse_word("y", XY)
    chk = product_check(tens("x|y"), x, y)
    assert (chk.product_value, chk.additive_part, chk.coproduct_part) == (1, 0, 1)
    chk = product_check(tens("x"), parse_word("x y", XY), parse_word("y x", XY))
    assert chk.coproduct_part == 0
    assert chk.product_value == chk.additive_part
    chk = product_check(tens("x|x"), x, x)
    assert (chk.product_value, chk.additive_part, chk.coproduct_part) == (1, 0, 1)


def test_product_law_holds_on_random_inputs():
    rng = random.Random(31)
    for _ in range(200):
        elem = random_tensor(rng, XY, ZZ, max_weight=4).reduced()
        chk = product_check(elem, random_word(rng, XY, 6), random_word(rng, XY, 6))
        assert chk.product_value == ZZ.add(chk.additive_part, chk.coproduct_part)


def test_four_way_agreement_sampled():
    # iterated sum = weight reduction = Magnus coefficient = Fox derivative.
    # The acceptance suite runs this exhaustively; here a seeded sample.
    rng = random.Random(32)
    keys = list(all_keys(2, 4))
    for _ in range(120):
        w = random_word(rng, XY, 6)
        circle = CircleWord(w)
        series = magnus_expand(w, 5, ZZ)
        for key in rng.sample(keys, 6):
            funcs = [dual_functional(XY, ZZ, g) for g in key]
            v1 = iterated_sum(funcs, w, ZZ)
            v2 = recursive_weight_reduce([pullback_to_circle(a, w, ZZ) for a in funcs],
                               circle, ZZ).linear_coefficient
            v3 = series.coefficient(key)
            v4 = iterated_fox(w, key, ZZ)
            assert v1 == v2 == v3 == v4


def test_homotopy_invariance_under_insertions():
    rng = random.Random(33)
    for _ in range(500):
        elem = random_tensor(rng, XY, ZZ, max_weight=4)
        w = random_word(rng, XY, 6)
        base = braiding_number(elem, w)
        pos = rng.randint(0, len(w))
        g = rng.randrange(2)
        s = rng.choice((1, -1))
        inserted = Word(XY, w.letters[:pos] + ((g, s), (g, -s)) + w.letters[pos:])
        assert braiding_number(elem, inserted) == base


def test_polynomial_coefficients_follow_the_coproduct():
    rng = random.Random(34)
    for _ in range(100):
        elem = random_tensor(rng, XY, QQ, max_weight=4)
        w = random_word(rng, XY, 6)
        poly = braiding_polynomial(elem, w)
        assert poly.coefficient(0) == elem.counit
        for k in range(elem.weight):
            expected = QQ.zero
            for keys, c in iterated_reduced_coproduct(elem, k).items():
                prod = c
                for key in keys:
                    prod *= iterated_sum(elem.functionals(key), w, QQ)
                expected += prod
            assert poly.coefficient(k + 1) == expected


def test_inverse_law():
    rng = random.Random(35)
    for _ in range(200):
        elem = random_tensor(rng, XY, ZZ, max_weight=4).reduced()
        w = random_word(rng, XY, 6)
        poly = braiding_polynomial(elem, w)
        assert braiding_number(elem, lb.inverse(w)) == poly(-1) - poly.coefficient(0)


def test_degree_bound_on_nested_commutators():
    rng = random.Random(36)
    for depth in range(1, 5):
        for _ in range(20):
            gens = [rng.randrange(3) for _ in range(depth)]
            if depth >= 2 and gens[1] == gens[0]:
                gens[1] = (gens[0] + 1) % 3
            w = nested_commutator(XYZ, gens)
            for weight in range(1, 9):
                key = tuple(rng.randrange(3) for _ in range(weight))
                elem = lb.TensorElement.from_key(ZZ, XYZ, key)
                poly = braiding_polynomial(elem, w)
                assert poly.degree <= weight // depth
                if weight < depth:
                    assert braiding_number(elem, w) == 0


def test_commutator_recursion():
    # ell_{a0|...|an}([w, s]) for w a depth-n nested commutator.
    rng = random.Random(37)
    for depth in range(1, 4):
        for _ in range(25):
            gens = [rng.randrange(2) for _ in range(depth)]
            if depth >= 2 and gens[1] == gens[0]:
                gens[1] = 1 - gens[0]
            w = nested_commutator(XY, gens)
            s = rng.randrange(2)
            key = tuple(rng.randrange(2) for _ in range(depth + 1))
            elem = lb.TensorElement.from_key(ZZ, XY, key)
            lhs = braiding_number(elem, lb.commutator(w, Word.generator(XY, s)))
            head = lb.TensorElement.from_key(ZZ, XY, key[:-1])
            tail = lb.TensorElement.from_key(ZZ, XY, key[1:])
            alpha_n_s = 1 if key[-1] == s else 0
            alpha_0_s = 1 if key[0] == s else 0
            rhs = braiding_number(head, w) * alpha_n_s - alpha_0_s * braiding_number(tail, w)
            assert lhs == rhs


def test_functional_tensors_expand_to_the_dual_basis():
    # Evaluating a pure tensor of general functionals directly agrees with
    # evaluating its expansion over dual-basis keys.
    from letterbraid.tensors import Functional, TensorElement
    rng = random.Random(38)
    for _ in range(50):
        funcs = [Functional(XY, (ZZ.from_int(rng.randint(-2, 2)),
                                 ZZ.from_int(rng.randint(-2, 2))))
                 for _ in range(rng.randint(1, 3))]
        elem = TensorElement.from_functionals(ZZ, XY, funcs)
        w = random_word(rng, XY, 6)
        assert braiding_number(elem, w) == iterated_sum(funcs, w, ZZ)


def test_braiding_works_over_prime_fields():
    F2 = PrimeField(2)
    elem = parse_tensor("x|y + z", XYZ, F2)
    w = parse_word("[x,y] z^-1", XYZ)
    assert braiding_number(elem, w) == 0  # invariance seed for the Heisenberg fixture
    assert braiding_number(parse_tensor("z", XYZ, F2), w) == 1


def test_empty_word_evaluates_to_the_counit():
    elem = tens("3 + x|y")
    w = Word.identity(XY)
    assert braiding_polynomial(elem, w).coeffs == (3,)
    assert braiding_number(elem, w) == 0


def _product_law_cases(seed, count):
    rng = random.Random(seed)
    for ring in (ZZ, PrimeField(3)):
        for _ in range(count):
            u = tuple(rng.randrange(2) for _ in range(rng.randint(1, 3)))
            v = tuple(rng.randrange(2) for _ in range(rng.randint(1, 3)))
            yield ring, u, v, random_word(rng, XY, 14)


def _law_sides(ring, u, v, w, infiltrate):
    """ell_u(w) ell_v(w) and ell_{u * v}(w), by braiding numbers and by
    Magnus coefficients."""
    merged = {k: ring.from_int(m) for k, m in merge_keys(u, v, infiltrate).items()}
    lhs = ring.mul(braiding_number(TensorElement(ring, XY, {u: ring.one}), w),
                   braiding_number(TensorElement(ring, XY, {v: ring.one}), w))
    rhs = braiding_number(TensorElement(ring, XY, merged), w)
    series = magnus_expand(w, len(u) + len(v) + 1, ring)
    m_lhs = ring.mul(series.coefficient(u), series.coefficient(v))
    m_rhs = ring.sum(ring.mul(m, series.coefficient(k)) for k, m in merged.items())
    return lhs, rhs, m_lhs, m_rhs


def test_braiding_numbers_multiply_under_the_infiltration_product():
    # Chen-Fox-Lyndon: for unit tensors u and v, ell_u(w) ell_v(w) equals
    # ell of the infiltration product u|v, because a letter expands as 1 + X.
    for ring, u, v, w in _product_law_cases(45, 100):
        lhs, rhs, m_lhs, m_rhs = _law_sides(ring, u, v, w, infiltrate=True)
        assert lhs == rhs == m_lhs == m_rhs, (ring, u, v, w)


def test_plain_shuffle_law_fails():
    # The shuffle law would hold for exp(X) letters; a wrong fast path that
    # passes it is caught here.
    failures = 0
    for ring, u, v, w in _product_law_cases(45, 100):
        lhs, rhs, m_lhs, m_rhs = _law_sides(ring, u, v, w, infiltrate=False)
        assert (lhs, rhs) == (m_lhs, m_rhs)
        failures += lhs != rhs
    assert failures > 0
