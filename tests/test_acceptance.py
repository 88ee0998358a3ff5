"""Acceptance gate: ten release criteria, one test each, one printed
pass/fail line each (run with -s to see them).

Every claim checked here is an exact algebraic identity, so every
comparison is ==, never approximate: checks are exhaustive at the stated
sizes or randomized with fixed seeds.
"""

import itertools
import math
import random
from contextlib import contextmanager

import letterbraid as lb
from letterbraid.braiding import (braiding_number, braiding_polynomial,
                                  iterated_sum, multi_evaluation, product_check)
from letterbraid.finite import heisenberg_table, ideal_power_dims
from letterbraid.johnson import johnson_level, johnson_tau, parse_endo
from letterbraid.magnus import magnus_expand
from letterbraid.presented import (build_truncated_quotient, dimension_depth,
                                   invariants_basis, is_invariant, pair,
                                   parse_presentation)
from letterbraid.rings import ZZ, PrimeField
from letterbraid.tensors import (TensorElement, dual_functional, parse_tensor)
from letterbraid.words import Word, compose, parse_word

from conftest import (XY, all_keys, cyclic_presentation, free_presentation,
                      nested_commutator, random_tensor, random_word, span_rank)
from oracles import (CircleWord, FreeGroupRingElement, augment, fox_derivative,
                     group_ring_mul, pullback_to_circle, recursive_weight_reduce)

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"[criterion {number:02d}] FAIL {description}")
        raise
    print(f"[criterion {number:02d}] PASS {description}")


def test_criterion_01_four_way_oracle_equivalence():
    desc = ("iterated sum = weight reduction = Magnus coefficient = Fox "
            "derivative on all signed words of length <= 6 over {x,y} and "
            "all pure tensors of weight <= 4")
    with criterion(1, desc):
        ring = ZZ
        keys = list(all_keys(2, 4))
        funcs = {k: [dual_functional(XY, ring, g) for g in k] for k in keys}
        letters = [(0, 1), (0, -1), (1, 1), (1, -1)]
        words_checked = 0
        for n in range(7):
            for combo in itertools.product(letters, repeat=n):
                w = Word(XY, combo)
                circle = CircleWord(w)
                forms = [pullback_to_circle(dual_functional(XY, ring, g), w, ring)
                         for g in range(2)]
                series = magnus_expand(w, 5, ring)
                fox = {}
                level = {(): FreeGroupRingElement.from_word(ring, w)}
                for _ in range(4):
                    nxt = {}
                    for key, el in level.items():
                        for g in range(2):
                            nxt[(g,) + key] = fox_derivative(el, g)
                    fox.update((key, augment(el)) for key, el in nxt.items())
                    level = nxt
                for k in keys:
                    v1 = iterated_sum(funcs[k], w, ring)
                    v2 = recursive_weight_reduce([forms[g] for g in k], circle,
                                                 ring).linear_coefficient
                    v3 = series.coefficient(k)
                    v4 = fox[k]
                    assert v1 == v2 == v3 == v4, (combo, k, v1, v2, v3, v4)
                words_checked += 1
        assert words_checked == sum(4 ** n for n in range(7))  # 5461


def test_criterion_02_intro_fixture():
    desc = "x|x|y|x evaluates to -1 and x|y|x|x to +1 on [x*y, x^-2]"
    with criterion(2, desc):
        w = parse_word("[x*y, x^-2]", XY)
        first = parse_tensor("x|x|y|x", XY, ZZ)
        second = parse_tensor("x|y|x|x", XY, ZZ)
        assert braiding_number(first, w) == -1
        assert braiding_number(second, w) == 1
        series = magnus_expand(w, 5, ZZ)
        assert series.coefficient((0, 0, 1, 0)) == -1
        assert series.coefficient((0, 1, 0, 0)) == 1
        print("[criterion 02] note: the leftmost tensor factor pairs with the "
              "earliest letter; a label read in the opposite display order "
              "names the reversed key, and the Magnus coefficients above "
              "arbitrate the orientation")


def test_criterion_03_product_inverse_and_multi_evaluation_laws():
    desc = ("product, inverse and multi-evaluation laws on 500 seeded "
            "random triples")
    with criterion(3, desc):
        rng = random.Random(1003)
        for _ in range(500):
            T = random_tensor(rng, XY, ZZ, max_weight=4).reduced()
            w1 = random_word(rng, XY, 6)
            w2 = random_word(rng, XY, 6)
            chk = product_check(T, w1, w2)
            assert chk.product_value == chk.additive_part + chk.coproduct_part
            poly = braiding_polynomial(T, w1)
            assert braiding_number(T, lb.inverse(w1)) == poly(-1)
            ws = [random_word(rng, XY, 4) for _ in range(rng.randint(1, 3))]
            shifted = None
            one = FreeGroupRingElement.one(ZZ, XY)
            for w in ws:
                f = FreeGroupRingElement.from_word(ZZ, w).sub(one)
                shifted = f if shifted is None else group_ring_mul(shifted, f)
            paired = sum(c * (braiding_number(T, u) + T.counit)
                         for u, c in shifted.words())
            assert multi_evaluation(T, ws) == paired


def test_criterion_04_degree_bound_and_commutator_recursion():
    desc = ("degree bound deg L <= n/k and the commutator recursion on "
            "nested commutators of depth <= 4, weights <= 8")
    with criterion(4, desc):
        rng = random.Random(1004)
        for alphabet in (XY, lb.Alphabet(["x", "y", "z"])):
            g_count = len(alphabet)
            for depth in range(1, 5):
                for _ in range(5):
                    gens = [rng.randrange(g_count) for _ in range(depth)]
                    if depth >= 2 and gens[1] == gens[0]:
                        gens[1] = (gens[0] + 1) % g_count
                    w = nested_commutator(alphabet, gens)
                    for weight in range(1, 9):
                        for _ in range(2):
                            key = tuple(rng.randrange(g_count) for _ in range(weight))
                            T = TensorElement.from_key(ZZ, alphabet, key)
                            poly = braiding_polynomial(T, w)
                            assert poly.degree <= weight // depth
                            if weight < depth:
                                assert poly.linear_coefficient == 0
                    # recursion at tensor weight depth+1
                    s = rng.randrange(g_count)
                    key = tuple(rng.randrange(g_count) for _ in range(depth + 1))
                    T = TensorElement.from_key(ZZ, alphabet, key)
                    lhs = braiding_number(
                        T, lb.commutator(w, Word.generator(alphabet, s)))
                    head = TensorElement.from_key(ZZ, alphabet, key[:-1])
                    tail = TensorElement.from_key(ZZ, alphabet, key[1:])
                    rhs = braiding_number(head, w) * (1 if key[-1] == s else 0) \
                        - (1 if key[0] == s else 0) * braiding_number(tail, w)
                    assert lhs == rhs


def _stirling_second(n, k):
    if n == 0:
        return 1 if k == 0 else 0
    if k == 0:
        return 0
    return k * _stirling_second(n - 1, k) + _stirling_second(n - 1, k - 1)


def test_criterion_05_cyclic_fixtures():
    desc = ("cyclic groups of order p and p^2 for p in {3,5}: binomial "
            "pairing, the failing p-th power, depth of the p-th root, and "
            "the factorial-normalized change of basis")
    with criterion(5, desc):
        for p, ring in ((3, F3), (5, F5)):
            P = cyclic_presentation(p)
            basis = invariants_basis(P, p, ring)
            assert [e.terms for e in basis.elements] == [
                {(0,) * k: 1} for k in range(p)]
            Q = build_truncated_quotient(P, p, ring)
            for k in range(p):
                T = TensorElement.from_key(ring, P.alphabet, (0,) * k)
                for i in range(p):
                    assert pair(Q, T, parse_word(f"x^{i}", P.alphabet)) \
                        == math.comb(i, k) % p
            # the p-th power is not an invariant, with witness value 1
            ok, witness = is_invariant(
                P, TensorElement.from_key(ring, P.alphabet, (0,) * p))
            assert not ok and witness.value == 1
            # x^p sits at depth exactly p in the order-p^2 cyclic group
            P2 = cyclic_presentation(p * p)
            Q2 = build_truncated_quotient(P2, p + 1, ring)
            report = dimension_depth(Q2, parse_word(f"x^{p}", P2.alphabet))
            assert (report.value, report.is_lower_bound) == (p, False)
            # change of basis B_k = sum_j S(k,j) j!/k! X^j pairs as i^k/k!
            for k in range(1, p):
                inv_kfact = ring.invert(ring.from_int(math.factorial(k)))
                terms = {}
                for j in range(1, k + 1):
                    c = ring.mul(ring.from_int(_stirling_second(k, j)
                                               * math.factorial(j)), inv_kfact)
                    if c != ring.zero:
                        terms[(0,) * j] = c
                B = TensorElement(ring, P.alphabet, terms)
                assert B.coefficient((0,) * k) == ring.one  # unitriangular
                assert is_invariant(P, B)[0]
                for i in range(p):
                    expected = ring.mul(ring.from_int(i ** k), inv_kfact)
                    assert pair(Q, B, parse_word(f"x^{i}", P.alphabet)) == expected


def test_criterion_06_heisenberg(heisenberg_presentation):
    desc = ("Heisenberg over F2: x|y + z is invariant, z is not, the "
            "pairing with z is 1, and basis sizes match the group algebra")
    with criterion(6, desc):
        P = heisenberg_presentation
        T = parse_tensor("x|y + z", P.alphabet, F2)
        assert is_invariant(P, T)[0]
        ok, witness = is_invariant(P, parse_tensor("z", P.alphabet, F2))
        assert not ok and witness.value == 1
        Q = build_truncated_quotient(P, 3, F2)
        assert pair(Q, T, parse_word("z", P.alphabet)) == 1
        dims = ideal_power_dims(heisenberg_table(2), F2, 4)
        for N in range(1, 5):
            assert len(invariants_basis(P, N, F2)) == dims[N - 1]


def test_criterion_07_surface_group(surface_presentation):
    desc = ("genus-2 surface group over Z: the listed tensors are "
            "invariant, a1|b1 alone is not, and the weight-3 invariant "
            "detects the double commutator")
    with criterion(7, desc):
        P = surface_presentation
        listed = [
            "a1", "b1", "a2", "b2",
            "a1|a2", "a2|a1", "b1|b2", "b2|b1", "a1|a1", "b2|b2",
            "a1|b2", "a2|b1", "b1|a2", "b2|a1",
            "a2|b2 - a1|b1", "b2|a2 + a1|b1", "b1|a1 + a1|b1",
        ]
        for text in listed:
            assert is_invariant(P, parse_tensor(text, P.alphabet, ZZ))[0], text
        assert not is_invariant(P, parse_tensor("a1|b1", P.alphabet, ZZ))[0]
        # The weight-3 leading terms need their lower-weight corrections.
        w3_for_2 = parse_tensor(
            "a2|b2|a2 - a1|b1|a2 - a2|b1|a1 + a2|b2", P.alphabet, ZZ)
        w3_for_1 = parse_tensor(
            "a1|b1|a1 - a2|b2|a1 - a1|b2|a2 + a1|b1", P.alphabet, ZZ)
        assert is_invariant(P, w3_for_2)[0]
        assert is_invariant(P, w3_for_1)[0]
        Q = build_truncated_quotient(P, 4, ZZ)
        assert pair(Q, w3_for_1, parse_word("[[a1,b1], a1]", P.alphabet)) == 2
        assert pair(Q, w3_for_2, parse_word("[[a2,b2], a2]", P.alphabet)) == 2


def test_criterion_08_pure_braids(pb3_presentation):
    desc = ("PB3: the triple-winding tensor is invariant and pairs to 1 "
            "with [A12, A23]")
    with criterion(8, desc):
        P = pb3_presentation
        T = parse_tensor("A12|A23 + A23|A13 + A13|A12", P.alphabet, ZZ)
        assert is_invariant(P, T)[0]
        Q = build_truncated_quotient(P, 3, ZZ)
        assert pair(Q, T, parse_word("[A12, A23]", P.alphabet)) == 1


def test_criterion_09_johnson():
    desc = ("Johnson: conjugation by x has level 1 with tau(x|y) = -y and "
            "tau(y|x) = y; additivity and the kernel bound hold on 50 "
            "seeded pairs; tau images have weight <= 1")
    with criterion(9, desc):
        free2 = free_presentation("x", "y")
        conj_x = parse_endo("x -> x, y -> x y x^-1", free2)
        assert johnson_level(free2, conj_x, ZZ, 4) == (1, False)
        report = johnson_tau(free2, conj_x, 1, ZZ)
        by_row = dict(zip(report.row_labels, report.matrix))
        assert report.col_labels == ["x", "y"]
        assert by_row["x|y"] == [0, -1]
        assert by_row["y|x"] == [0, 1]
        assert by_row["x|x"] == [0, 0] and by_row["y|y"] == [0, 0]

        def conj_by(u):
            images = {}
            for i, name in enumerate(free2.alphabet.names):
                g = Word.generator(free2.alphabet, i)
                images[name] = lb.free_reduce(
                    lb.concat(u, lb.concat(g, lb.inverse(u))))
            return lb.GroupHom.from_mapping(free2.alphabet, images,
                                            target=free2.alphabet)

        rng = random.Random(1009)
        for trial in range(50):
            stage = 1 if trial % 2 == 0 else 2
            if stage == 1:
                u, v = (random_word(rng, XY, 4) for _ in range(2))
            else:
                u, v = (lb.free_reduce(lb.commutator(random_word(rng, XY, 3),
                                                     random_word(rng, XY, 3)))
                        for _ in range(2))
            phi, psi = conj_by(u), conj_by(v)
            r1 = johnson_tau(free2, phi, stage, ZZ)      # asserts weight <= 1
            r2 = johnson_tau(free2, psi, stage, ZZ)
            r12 = johnson_tau(free2, compose(phi, psi), stage, ZZ)
            for a, b, c in zip(r12.matrix, r1.matrix, r2.matrix):
                assert a == [x + y for x, y in zip(b, c)]
            # level >= stage+1 forces tau = 0 at this stage
            deep = conj_by(lb.free_reduce(nested_commutator(
                XY, [rng.randrange(2) for _ in range(stage + 1)])))
            if johnson_level(free2, deep, ZZ, stage + 2).at_least(stage + 1):
                assert johnson_tau(free2, deep, stage, ZZ).is_zero()


def test_criterion_10_completeness(heisenberg_presentation):
    desc = ("completeness over F2 and F3: basis sizes equal group-algebra "
            "dimensions for six fixtures at N <= 4, with a full-rank "
            "pairing against shifted monomial products")
    with criterion(10, desc):
        from letterbraid.finite import cyclic_table, direct_product_table
        fixtures = [
            (cyclic_table(2), cyclic_presentation(2)),
            (cyclic_table(3), cyclic_presentation(3)),
            (cyclic_table(4), cyclic_presentation(4)),
            (cyclic_table(5), cyclic_presentation(5)),
            (direct_product_table(cyclic_table(2, "x"), cyclic_table(2, "y")),
             parse_presentation("gens: x y\nrel: x^2\nrel: y^2\nrel: [x,y]\n")),
            (heisenberg_table(2), heisenberg_presentation),
        ]
        for ring in (F2, F3):
            for table, P in fixtures:
                dims = ideal_power_dims(table, ring, 4)
                for N in range(1, 5):
                    Q = build_truncated_quotient(P, N, ring)
                    basis = invariants_basis(P, N, ring)
                    assert len(basis) == dims[N - 1], (P, ring, N)
                    # pair every invariant against every product
                    # (s_{i1} - 1)...(s_{id} - 1), d < N, by expanding into
                    # signed subwords
                    combos = []
                    for key in Q.monomials:
                        combo = []
                        for chosen in itertools.product((0, 1), repeat=len(key)):
                            word = Word(P.alphabet,
                                        [(g, 1) for g, c in zip(key, chosen) if c])
                            coeff = ring.from_int((-1) ** (len(key) - sum(chosen)))
                            combo.append((coeff, word))
                        combos.append(combo)
                    matrix = [[pair(Q, T, combo) for combo in combos]
                              for T in basis.elements]
                    if basis.elements:
                        assert span_rank(ring, matrix) == len(basis.elements), \
                            (P, ring, N)
