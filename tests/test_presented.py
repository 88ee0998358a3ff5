import functools
import itertools
import random

import pytest

import letterbraid as lb
from letterbraid.braiding import braiding_number, multi_evaluation
from letterbraid.presented import (DepthReport, InvariantBasis, Presentation,
                                   build_truncated_quotient, dimension_depth,
                                   invariants_basis, is_invariant,
                                   monomials_below, pair, parse_presentation,
                                   pullback)
from letterbraid.magnus import TruncSeries, magnus_expand
from letterbraid.rings import QQ, ZZ, PrimeField, elementary_divisors
from letterbraid.tensors import (TensorElement, parse_tensor,
                                 reduced_coproduct)
from letterbraid.words import Alphabet, GroupHom, Word, parse_word

from conftest import (XY, XYZ, cyclic_presentation, free_presentation, in_span,
                      merge_keys, nested_commutator, random_tensor, random_word,
                      sparse)
from oracles import cut_pullback, full_order_depth, sandwich_witness, trunc_mul

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)


def tensor(text, P, ring):
    return parse_tensor(text, P.alphabet, ring)


# ---------------------------------------------------------------------------
# building the truncated quotient

def test_free_group_quotient_is_free_on_monomials():
    P = free_presentation("x")
    for N in (1, 2, 4):
        Q = build_truncated_quotient(P, N, ZZ)
        assert Q.rank == N
        assert Q.columns == []


def test_cyclic_p_quotient_has_no_constraints_below_p():
    for p, ring in ((3, F3), (5, F5)):
        Q = build_truncated_quotient(cyclic_presentation(p), p, ring)
        assert Q.rank == p
        assert Q.columns == []


def test_trivial_relator_collapses_everything():
    P = parse_presentation("gens: x\nrel: x\n")
    for N in (2, 3):
        Q = build_truncated_quotient(P, N, ZZ)
        assert Q.rank == 1


def test_monomial_cap_raises_cleanly():
    # The count stops at the cap, so even a huge order is refused at once.
    for P, order in ((free_presentation("x", "y", "z"), 14),
                     (free_presentation("x", "y"), 20_000),
                     (free_presentation("x"), 10 ** 9), (free_presentation(), 10 ** 9)):
        with pytest.raises(ValueError, match="cap of 200000 monomials"):
            build_truncated_quotient(P, order, ZZ)


def test_graded_lex_order():
    assert monomials_below(2, 3) == [
        (), (0,), (1,), (0, 0), (0, 1), (1, 0), (1, 1)]


# ---------------------------------------------------------------------------
# pairing

def test_pair_on_abelian_rank_two():
    P = parse_presentation("gens: x y\nrel: [x,y]\n")
    Q = build_truncated_quotient(P, 3, ZZ)
    T = tensor("x|y + y|x", P, ZZ)
    assert pair(Q, T, parse_word("x y", P.alphabet)) == 1
    combo = [(1, parse_word("x", P.alphabet)), (1, parse_word("y", P.alphabet))]
    assert pair(Q, T, combo) == 0


def test_pair_of_unit_is_augmentation():
    P = free_presentation("x", "y")
    Q = build_truncated_quotient(P, 2, ZZ)
    T = TensorElement.unit(ZZ, P.alphabet)
    assert pair(Q, T, parse_word("[x,y] x", P.alphabet)) == 1


def test_pair_binomials_for_cyclic_p():
    for p, ring in ((3, F3), (5, F5)):
        P = cyclic_presentation(p)
        Q = build_truncated_quotient(P, p, ring)
        import math
        for k in range(p):
            T = TensorElement.from_key(ring, P.alphabet, (0,) * k)
            for i in range(p):
                w = parse_word(f"x^{i}", P.alphabet)
                assert pair(Q, T, w) == math.comb(i, k) % p


def test_pair_rejects_overweight_tensors():
    P = free_presentation("x")
    Q = build_truncated_quotient(P, 2, ZZ)
    with pytest.raises(ValueError):
        pair(Q, TensorElement.from_key(ZZ, P.alphabet, (0, 0)), parse_word("x", P.alphabet))


def test_pair_refuses_a_tensor_over_another_alphabet():
    P = parse_presentation("gens: x y\nrel: [x,y]\n")
    Q = build_truncated_quotient(P, 3, ZZ)
    T = parse_tensor("a|b", Alphabet(["a", "b"]), ZZ)
    with pytest.raises(ValueError, match="alphabet mismatch"):
        pair(Q, T, parse_word("x", P.alphabet))


def test_is_invariant_refuses_a_tensor_over_another_alphabet(heisenberg_presentation):
    T = parse_tensor("t|s", Alphabet(["p", "q", "r", "s", "t"]), ZZ)
    with pytest.raises(ValueError, match="alphabet mismatch"):
        is_invariant(heisenberg_presentation, T)


def test_equal_presentations_share_one_cached_quotient():
    text = "gens: x y\nrel: x x^-1 [x, y]\n"
    P1, P2 = parse_presentation(text), parse_presentation(text)
    assert P1 is not P2 and P1 == P2 and hash(P1) == hash(P2)
    assert P1.relators == (parse_word("[x, y]", P1.alphabet),)  # freely reduced
    assert P1 == Presentation(alphabet=P2.alphabet, relators=P2.relators)
    assert Presentation.free(XY) == Presentation(XY) and Presentation(XY).relators == ()
    with pytest.raises(ValueError, match="relator alphabet mismatch"):
        Presentation(XY, (parse_word("x", XYZ),))
    build_truncated_quotient.cache_clear()
    Q = build_truncated_quotient(P1, 3, F3)
    assert build_truncated_quotient(P2, 3, F3) is Q
    assert build_truncated_quotient.cache_info().hits == 1


def test_depth_report_fields_and_formats():
    exact, bound = DepthReport(3), DepthReport(5, is_lower_bound=True)
    assert (exact.value, exact.is_lower_bound) == (3, False)
    assert (str(exact), exact.json_value()) == ("3", 3)
    assert (str(bound), bound.json_value()) == (">= 5", ">= 5")
    assert exact.at_least(3) and not exact.at_least(4) and bound.at_least(5)
    assert exact == DepthReport(3, False) and hash(exact) == hash(DepthReport(3))


# ---------------------------------------------------------------------------
# invariants

def test_invariant_basis_builds_with_keywords():
    one = TensorElement.unit(ZZ, XY)
    basis = InvariantBasis(ring=ZZ, alphabet=XY, max_weight=0, elements=[one],
                           weights=[0], vectors={0: {0: 1}})
    assert len(basis) == 1 and basis.elementary_divisors is None
    assert (basis.ring, basis.alphabet, basis.max_weight) == (ZZ, XY, 0)
    assert (basis.elements, basis.weights, basis.vectors) == ([one], [0], {0: {0: 1}})
    assert list(basis.vectors) == [0]


def test_heisenberg_invariants(heisenberg_presentation):
    P = heisenberg_presentation
    basis = invariants_basis(P, 3, F2)
    assert len(basis) == 5
    assert basis.weights == [0, 1, 1, 2, 2]
    Q = build_truncated_quotient(P, 3, F2)
    vectors = [dense(Q, v) for v in basis.vectors.values()]
    xy_plus_z = dense(Q, Q.tensor_vector(tensor("x|y + z", P, F2)))
    assert in_span(F2, vectors, xy_plus_z)
    z_alone = dense(Q, Q.tensor_vector(tensor("z", P, F2)))
    assert not in_span(F2, vectors, z_alone)


def test_free_group_invariants_are_all_monomials():
    P = free_presentation("x")
    basis = invariants_basis(P, 4, ZZ)
    assert [e.terms for e in basis.elements] == [
        {(): 1}, {(0,): 1}, {(0, 0): 1}, {(0, 0, 0): 1}]


def test_cyclic_p_excludes_the_pth_power(heisenberg_presentation):
    for p, ring in ((3, F3), (5, F5)):
        P = cyclic_presentation(p)
        basis = invariants_basis(P, p + 1, ring)
        assert basis.weights == list(range(p))
        T = TensorElement.from_key(ring, P.alphabet, (0,) * p)
        ok, witness = is_invariant(P, T)
        assert not ok
        assert witness.value == 1
        assert witness.left == () and witness.right == ()


def test_heisenberg_is_invariant_and_witness(heisenberg_presentation):
    P = heisenberg_presentation
    ok, _ = is_invariant(P, tensor("x|y + z", P, F2))
    assert ok
    ok, witness = is_invariant(P, tensor("z", P, F2))
    assert not ok
    assert witness.relator == lb.free_reduce(parse_word("[x,y] z^-1", P.alphabet))
    assert witness.value == 1
    # the witness is exactly a nonzero multi-evaluation containing a relator
    words = witness.multi_evaluation_words(P.alphabet)
    assert multi_evaluation(tensor("z", P, F2), words) == witness.value


def test_surface_group_invariants(surface_presentation):
    P = surface_presentation
    assert not is_invariant(P, tensor("a1|b1", P, ZZ))[0]
    assert is_invariant(P, tensor("a2|b2 - a1|b1", P, ZZ))[0]
    assert is_invariant(P, tensor("b2|a2 + a1|b1", P, ZZ))[0]
    assert is_invariant(P, tensor("b1|a1 + a1|b1", P, ZZ))[0]
    assert is_invariant(P, tensor("a1|a2", P, ZZ))[0]


def test_invariance_failures_match_multi_evaluations(surface_presentation):
    P = surface_presentation
    for text in ("a1|b1", "a2|b2", "b1|a1", "a1|b1|a1"):
        T = tensor(text, P, ZZ)
        ok, witness = is_invariant(P, T)
        assert not ok
        words = witness.multi_evaluation_words(P.alphabet)
        assert multi_evaluation(T, words) == witness.value != 0


def test_invariance_matches_the_listed_sandwiches(heisenberg_presentation,
                                                  surface_presentation, pb3_presentation):
    # Flag and witness both: the witness is the first nonzero sandwich in
    # the order (relator, |m1|, |m2|, m1, m2), so an ordering by
    # (|m2|, |m1|) fails here.
    z2 = parse_presentation("gens: x y\nrel: [x,y]\n")
    bs12 = parse_presentation("gens: a b\nrel: b a b^-1 a^-2\n")
    rng = random.Random(54)
    for P in (heisenberg_presentation, surface_presentation, pb3_presentation, z2, bs12):
        for ring in (ZZ, QQ, F2, F3):
            basis = invariants_basis(P, 4, ring)
            cases = [random_tensor(rng, P.alphabet, ring, rng.randint(0, 4))
                     for _ in range(8)]
            for nudge in (False, True):
                T = TensorElement.zero(ring, P.alphabet)
                for e in basis.elements:
                    T = T.add(e.scale(ring.from_int(rng.randint(-2, 2))))
                if nudge:
                    T = T.add(random_tensor(rng, P.alphabet, ring, 3, max_terms=1))
                cases.append(T)
            for T in cases:
                ok, witness = is_invariant(P, T)
                found = None if ok else (witness.left, witness.relator_index,
                                         witness.right, witness.value)
                assert (ok, found) == sandwich_witness(P, T), (P, ring, T)


# ---------------------------------------------------------------------------
# dimension depth

def test_depth_of_commutator_in_free_group():
    P = free_presentation("x", "y")
    Q = build_truncated_quotient(P, 4, ZZ)
    assert dimension_depth(Q, parse_word("[x,y]", P.alphabet)).value == 2
    assert not dimension_depth(Q, parse_word("[x,y]", P.alphabet)).is_lower_bound


def test_depth_detects_p_in_cyclic_p_squared():
    for p, ring in ((3, F3), (5, F5)):
        P = cyclic_presentation(p * p)
        Q = build_truncated_quotient(P, p + 1, ring)
        report = dimension_depth(Q, parse_word(f"x^{p}", P.alphabet))
        assert report.value == p and not report.is_lower_bound


def test_depth_of_identity_is_a_bound():
    P = free_presentation("x", "y")
    Q = build_truncated_quotient(P, 4, ZZ)
    report = dimension_depth(Q, Word.identity(P.alphabet))
    assert report.is_lower_bound and report.value == 4
    assert str(report) == ">= 4"


def test_depth_is_integral_over_the_integers():
    # x^2 y^2 [y,x] is a product of squares: depth 1 over Z (not 2, despite
    # the doubled abelianization), while over Q the class of x y has a half.
    P = free_presentation("x", "y")
    Qz = build_truncated_quotient(P, 3, ZZ)
    w = parse_word("x^2 y^2 [y,x]", P.alphabet)
    assert dimension_depth(Qz, w).value == 1


# The five presentations of the benchmark's quotient workloads.
DEPTH_PRESENTATIONS = {
    "heisenberg": "gens: x y z\nrel: x^2\nrel: y^2\nrel: z^2\nrel: [x,y] z^-1\n",
    "surface": "gens: a1 b1 a2 b2\nrel: [a1,b1] [a2,b2]\n",
    "pb3": "gens: A12 A13 A23\nrel: [A12 A13 A23, A13]\nrel: [A12 A13 A23, A23]\n",
    "z2": "gens: x y\nrel: [x,y]\n",
    "bs12": "gens: a b\nrel: b a b^-1 a^-2\n",
}


def depth_words(rng, P):
    """The identity, pure powers, conjugated relators, nested commutators of
    depth 2-5 with short random entries, and random words."""
    A = P.alphabet
    ws = [Word.identity(A)]
    ws += [lb.power(Word.generator(A, g), p) for g in range(len(A)) for p in (1, 2, 3, 4)]
    for r in P.relators:
        u = random_word(rng, A, 3)
        ws.append(lb.concat(lb.concat(u, lb.power(r, rng.choice((1, -1)))), lb.inverse(u)))
    for depth in range(2, 6):
        w = random_word(rng, A, 2, 1)
        for _ in range(depth - 1):
            w = lb.commutator(w, random_word(rng, A, 2, 1))
        ws.append(w)
    ws += [random_word(rng, A, 12) for _ in range(3)]
    return ws


@pytest.mark.parametrize("name", list(DEPTH_PRESENTATIONS))
def test_depth_and_johnson_level_match_the_full_order_expansion(name):
    # The degree-one step must give the answer of one expansion at the
    # full order: reduced exponent sums, not raw ones (x^2 is a relator of
    # the Heisenberg group), and only a degree-one remainder decides.
    P = parse_presentation(DEPTH_PRESENTATIONS[name])
    A = P.alphabet
    rng = random.Random(f"depth:{name}")
    for ring in (ZZ, QQ, F2, F3):
        for order in range(1, 7):
            Q = build_truncated_quotient(P, order, ring)
            for w in depth_words(rng, P):
                assert dimension_depth(Q, w) == full_order_depth(Q, w), (ring, order, w)
            for _ in range(2):
                u = random_word(rng, A, 2)
                inner = [lb.concat(lb.concat(u, Word.generator(A, g)), lb.inverse(u))
                         for g in range(len(A))]
                moved = [lb.concat(Word.generator(A, g), lb.commutator(
                    random_word(rng, A, 2, 1), random_word(rng, A, 2, 1)))
                    for g in range(len(A))]
                for images in (inner, moved):
                    endo = GroupHom(A, A, tuple(images))
                    low = min(full_order_depth(Q, lb.concat(img, lb.inverse(
                        Word.generator(A, g)))) for g, img in enumerate(images))
                    assert lb.johnson_level(P, endo, ring, order) == DepthReport(
                        low.value - 1, low.is_lower_bound), (ring, order, images)


def test_depth_one_reads_only_the_exponent_sums(monkeypatch, surface_presentation,
                                                heisenberg_presentation):
    # A word of depth one is expanded once, at order 2; a deeper word at
    # order 2 and then at the quotient's order; at order 2 or less the
    # first expansion is already the full one.
    S, H = surface_presentation, heisenberg_presentation
    cases = [(S, 5, F2, "a1 b1^3 a2", DepthReport(1), [2]),
             (S, 5, F2, "a1^2", DepthReport(2), [2, 5]),
             (S, 5, F2, "[a1,b1] [a2,b2]", DepthReport(5, True), [2, 5]),
             (S, 2, F2, "a1 b1", DepthReport(1), [2]),
             (S, 1, F2, "a1", DepthReport(1, True), [1]),
             # exponent sum 2, but x^2 is a relator: class 0 in degree one
             (H, 5, ZZ, "y x^2 y^-1", DepthReport(5, True), [2, 5]),
             (H, 5, ZZ, "x^3", DepthReport(1), [2])]
    quotients = [build_truncated_quotient(P, n, ring) for P, n, ring, *_ in cases]
    orders = []

    def recording(w, order, ring):
        orders.append(order)
        return magnus_expand(w, order, ring)

    monkeypatch.setattr(lb.presented, "magnus_expand", recording)
    for Q, (P, _, _, text, expected, calls) in zip(quotients, cases):
        orders.clear()
        assert dimension_depth(Q, parse_word(text, P.alphabet)) == expected, text
        assert orders == calls, text


# ---------------------------------------------------------------------------
# pullback

def test_pullback_of_product_word():
    E = Alphabet(["e1", "e2"])
    target = Presentation.free(E)
    Q = build_truncated_quotient(target, 3, ZZ)
    h = GroupHom.from_mapping(Alphabet(["s"]), {"s": parse_word("e1 e2", E)}, target=E)
    T = parse_tensor("e1|e2", E, ZZ)
    result = pullback(h, T, Q)
    assert result.terms == {(0,): 1, (0, 0): 1}


def test_pullback_along_identity_is_identity(heisenberg_presentation):
    P = heisenberg_presentation
    Q = build_truncated_quotient(P, 3, F2)
    h = GroupHom.from_mapping(P.alphabet,
                              {n: parse_word(n, P.alphabet) for n in P.alphabet.names})
    for T in invariants_basis(P, 3, F2).elements:
        assert pullback(h, T, Q) == T


def test_pullback_along_trivial_map_is_the_counit():
    P = free_presentation("x", "y")
    Q = build_truncated_quotient(P, 3, ZZ)
    h = GroupHom.from_mapping(XY, {"x": Word.identity(P.alphabet),
                                   "y": Word.identity(P.alphabet)},
                              target=P.alphabet)
    T = parse_tensor("3 + x|y - y", P.alphabet, ZZ)
    assert pullback(h, T, Q).terms == {(): 3}


def test_pullback_push_pull_identity():
    rng = random.Random(50)
    P = free_presentation("x", "y")
    Q = build_truncated_quotient(P, 4, ZZ)
    from conftest import random_tensor
    for _ in range(50):
        h = GroupHom.from_mapping(
            XY, {"x": random_word(rng, P.alphabet, 4), "y": random_word(rng, P.alphabet, 4)},
            target=P.alphabet)
        T = random_tensor(rng, P.alphabet, ZZ, max_weight=3)
        back = pullback(h, T, Q)
        assert back.weight <= T.weight
        w = random_word(rng, XY, 5)
        lhs = braiding_number(back, w) + back.counit
        rhs = braiding_number(T, h.apply(w)) + T.counit
        assert lhs == rhs


def pullback_by_definition(h, T):
    """h^*(T) by its definition: the coefficient at (s1, ..., sk) pairs T
    with the truncated product (M(h(s1)) - 1) ... (M(h(sk)) - 1)."""
    ring, order = T.ring, T.weight + 1
    one = TruncSeries.one(ring, h.target, order)
    shifted = [magnus_expand(img, order, ring).sub(one) for img in h.images]
    terms = {(): T.counit}
    for k in range(1, order):
        for key in itertools.product(range(len(h.source)), repeat=k):
            product = functools.reduce(trunc_mul, (shifted[s] for s in key), one)
            terms[key] = ring.sum(ring.mul(c, product.coefficient(tkey))
                                  for tkey, c in T.terms.items())
    return TensorElement(ring, h.source, terms)


def test_pullback_matches_its_definition():
    rng = random.Random(54)
    sources = [Alphabet(["s"]), Alphabet(["s", "t"]), Alphabet(["s", "t", "u"])]
    for ring in (ZZ, QQ, F2, F3):
        for target in (XY, XYZ):
            Q = build_truncated_quotient(Presentation.free(target), 4, ring)
            for trial in range(20):
                source = rng.choice(sources)
                images = {}
                for name in source.names:
                    w = random_word(rng, target, 4)
                    if trial % 4 == 1:  # empty images
                        w = Word.identity(target)
                    elif trial % 4 == 2:  # unreduced: g g^-1 in the middle
                        g = rng.randrange(len(target))
                        w = lb.concat(w, Word(target, [(g, 1), (g, -1)] + list(w.letters)))
                    images[name] = w
                h = GroupHom.from_mapping(source, images, target=target)
                T = random_tensor(rng, target, ring, max_weight=3)
                if trial % 5 == 3:  # counit only
                    T = TensorElement.unit(ring, target, ring.from_int(rng.randint(-3, 3)))
                assert pullback(h, T, Q) == pullback_by_definition(h, T), (ring, h, T)


def test_pullback_matches_the_cut_enumeration():
    # Weights up to 6, keys that repeat generators, empty and unreduced
    # images and unit parts, against the route that lists every cut.
    rng = random.Random(55)
    sources = [Alphabet(["s"]), Alphabet(["s", "t"]), Alphabet(["s", "t", "u"])]
    for ring in (ZZ, QQ, F2, F3):
        for target in (XY, XYZ):
            Q = build_truncated_quotient(Presentation.free(target), 7, ring)
            for trial in range(20):
                source = rng.choice(sources)
                images = {}
                for name in source.names:
                    w = random_word(rng, target, 3)
                    if trial % 4 == 1:
                        w = Word.identity(target)
                    elif trial % 4 == 2:  # unreduced: g g^-1 inside
                        g, cut = rng.randrange(len(target)), rng.randint(0, len(w))
                        w = Word(target, w.letters[:cut] + ((g, 1), (g, -1)) + w.letters[cut:])
                    images[name] = w
                h = GroupHom.from_mapping(source, images, target=target)
                T = random_tensor(rng, target, ring, max_weight=6)
                assert pullback(h, T, Q) == cut_pullback(h, T), (ring, h, T)


def test_pullback_weight_overflow_errors():
    P = free_presentation("x")
    Q = build_truncated_quotient(P, 2, ZZ)
    h = GroupHom.from_mapping(P.alphabet, {"x": parse_word("x", P.alphabet)})
    with pytest.raises(ValueError):
        pullback(h, TensorElement.from_key(ZZ, P.alphabet, (0, 0)), Q)


# ---------------------------------------------------------------------------
# structural properties

def fixture_presentations():
    return [
        ("C2", cyclic_presentation(2), F2),
        ("C4", cyclic_presentation(4), F2),
        ("C3", cyclic_presentation(3), F3),
        ("abelian", parse_presentation("gens: x y\nrel: [x,y]\n"), F3),
        ("free", free_presentation("x", "y"), F2),
    ]


def test_field_completeness_at_desk_scale(heisenberg_presentation):
    # Over a field the number of basis invariants equals the dimension of
    # the truncated quotient (its dual): the counting half of completeness;
    # the finite-group oracle crosschecks the dimension itself elsewhere.
    cases = fixture_presentations() + [("heis", heisenberg_presentation, F2)]
    for name, P, ring in cases:
        for N in range(1, 6):
            if len(P.alphabet) ** (N - 1) > 300:
                continue
            Q = build_truncated_quotient(P, N, ring)
            basis = invariants_basis(P, N, ring)
            assert len(basis) == Q.rank, (name, N)


def test_filtration_duality(heisenberg_presentation):
    # weight < n invariants annihilate products (w1-1)...(wn-1)
    rng = random.Random(51)
    cases = [(heisenberg_presentation, F2), (cyclic_presentation(3), F3)]
    for P, ring in cases:
        basis = invariants_basis(P, 4, ring)
        for T, wt in zip(basis.elements, basis.weights):
            for n in range(wt + 1, 5):
                ws = [random_word(rng, P.alphabet, 4) for _ in range(n)]
                assert multi_evaluation(T, ws) == ring.zero


def test_coalgebra_closure(heisenberg_presentation, pb3_presentation):
    # The reduced coproduct of every basis invariant lies in the span of
    # basis (x) basis inside the tensor square.
    cases = [(heisenberg_presentation, F2, 3), (cyclic_presentation(3), F3, 3),
             (pb3_presentation, ZZ, 3)]
    for P, ring, N in cases:
        Q = build_truncated_quotient(P, N, ring)
        basis = invariants_basis(P, N, ring)
        mons = Q.monomials
        pair_index = {(a, b): k for k, (a, b) in
                      enumerate(itertools.product(mons, mons))}
        vectors = [dense(Q, v) for v in basis.vectors.values()]
        cols = []
        for va in vectors:
            for vb in vectors:
                col = [ring.zero] * len(pair_index)
                for i, a in enumerate(mons):
                    if va[i] == ring.zero:
                        continue
                    for j, b in enumerate(mons):
                        if vb[j] == ring.zero:
                            continue
                        col[pair_index[(a, b)]] = ring.mul(va[i], vb[j])
                cols.append(col)
        for T in basis.elements:
            target = [ring.zero] * len(pair_index)
            for (a, b), c in reduced_coproduct(T).items():
                target[pair_index[(a, b)]] = c
            assert in_span(ring, cols, target)


def infiltration(u, v):
    """The infiltration product of two tensors, bilinear in their keys."""
    ring = u.ring
    terms = {}
    for a, x in u.terms.items():
        for b, y in v.terms.items():
            for key, m in merge_keys(a, b, infiltrate=True).items():
                c = ring.mul(ring.from_int(m), ring.mul(x, y))
                terms[key] = ring.add(terms.get(key, ring.zero), c)
    return TensorElement(ring, u.alphabet, terms)


def test_invariants_are_closed_under_the_infiltration_product(
        heisenberg_presentation, pb3_presentation, surface_presentation):
    # Chen-Fox-Lyndon: the infiltration product of invariants u and v
    # evaluates on the group as the product of their evaluations, so it
    # is again an invariant (of weight <= weight(u) + weight(v)).
    z6z4 = parse_presentation("gens: x y\nrel: x^6\nrel: y^4\nrel: [x,y]\n")
    bs12 = parse_presentation("gens: a b\nrel: b a b^-1 a^-2\n")
    groups = [heisenberg_presentation, pb3_presentation, surface_presentation,
              cyclic_presentation(3), z6z4, bs12]
    N = 5
    for P in groups:
        for ring in (ZZ, QQ, F2, F3):
            basis = invariants_basis(P, N, ring)
            graded = [(e, w) for e, w in zip(basis.elements, basis.weights) if w]
            for (u, wu), (v, wv) in itertools.combinations_with_replacement(graded, 2):
                if wu + wv < N:
                    assert is_invariant(P, infiltration(u, v))[0], (P, ring, u, v)


def test_pairing_is_representative_independent(heisenberg_presentation,
                                               surface_presentation):
    rng = random.Random(52)
    cases = [(heisenberg_presentation, F2, 3), (surface_presentation, ZZ, 3)]
    for P, ring, N in cases:
        Q = build_truncated_quotient(P, N, ring)
        basis = invariants_basis(P, N, ring)
        for _ in range(50):
            T = rng.choice(basis.elements)
            w = random_word(rng, P.alphabet, 5)
            base = pair(Q, T, w)
            r = rng.choice(P.relators)
            u = random_word(rng, P.alphabet, 3)
            conjured = lb.concat(w, lb.concat(u, lb.concat(r, lb.inverse(u))))
            assert pair(Q, T, conjured) == base


def test_evaluation_on_high_commutators(surface_presentation):
    # On an n-fold commutator in the generators, a weight <= n invariant
    # evaluates through the free braiding number of its weight-n part.
    rng = random.Random(53)
    P = surface_presentation
    Q = build_truncated_quotient(P, 4, ZZ)
    basis = invariants_basis(P, 4, ZZ)
    for depth in (2, 3):
        for _ in range(10):
            gens = [rng.randrange(4) for _ in range(depth)]
            if gens[1] == gens[0]:
                gens[1] = (gens[0] + 1) % 4
            w = nested_commutator(P.alphabet, gens)
            for T, wt in zip(basis.elements, basis.weights):
                if wt > depth:
                    continue
                lead = T.leading_term(depth)
                assert pair(Q, T, w) - T.counit == braiding_number(lead, w)


def test_pure_braid_fixture(pb3_presentation):
    P = pb3_presentation
    T = tensor("A12|A23 + A23|A13 + A13|A12", P, ZZ)
    assert is_invariant(P, T)[0]
    Q = build_truncated_quotient(P, 3, ZZ)
    w = parse_word("[A12, A23]", P.alphabet)
    assert pair(Q, T, w) == 1


def test_integer_torsion_is_reported_not_hidden():
    # <x | x^2> over Z: the quotient at order 2 is Z + Z/2, and the basis
    # only spans the dual of the free part, with the divisor on record.
    P = cyclic_presentation(2)
    Q = build_truncated_quotient(P, 2, ZZ)
    assert Q.rank == 1
    assert Q.torsion_divisors == (2,)
    basis = invariants_basis(P, 2, ZZ)
    assert [e.terms for e in basis.elements] == [{(): 1}]
    assert 2 in basis.elementary_divisors


def test_presentation_parser_rejects_garbage():
    with pytest.raises(ValueError):
        parse_presentation("rel: x\n")
    with pytest.raises(ValueError):
        parse_presentation("gens: x\nnonsense\n")
    P = parse_presentation("gens: x y\n# comment\nrel: [x,y]  # inline\n")
    assert len(P.relators) == 1


def test_presentation_round_trip(heisenberg_presentation, surface_presentation,
                                 pb3_presentation):
    from letterbraid.presented import format_presentation
    for P in (heisenberg_presentation, surface_presentation, pb3_presentation,
              free_presentation("x", "y")):
        assert parse_presentation(format_presentation(P)) == P


# ---------------------------------------------------------------------------
# sympy as an independent oracle for the quotient's answers

def dense(Q, col):
    return [col.get(i, Q.ring.zero) for i in range(len(Q.monomials))]


def test_torsion_divisors_match_sympy(heisenberg_presentation):
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors
    cases = [(cyclic_presentation(2), 2), (cyclic_presentation(2), 3),
             (heisenberg_presentation, 3), (heisenberg_presentation, 4)]
    for P, N in cases:
        Q = build_truncated_quotient(P, N, ZZ)
        M = sympy.Matrix([dense(Q, col) for col in Q.columns])
        expected = [int(d) for d in invariant_factors(M, domain=sympy.ZZ)]
        assert elementary_divisors(Q.span_rows, min(len(Q.columns), len(Q.monomials))) \
            == expected, (P, N)
        assert invariants_basis(P, N, ZZ).elementary_divisors == expected
        assert Q.torsion_divisors == tuple(d for d in expected if d not in (0, 1))
    assert build_truncated_quotient(heisenberg_presentation, 4, ZZ).torsion_divisors


def test_filtration_valuation_matches_a_rank_oracle(heisenberg_presentation):
    # The valuation is the largest k such that adding vec to the relator
    # span plus the monomials of degree >= k does not raise the rank.
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    def rank(ring, rows):
        domain = sympy.GF(ring.p) if ring.p else sympy.QQ
        rows = [[domain(int(x) if ring.p else x) for x in row] for row in rows]
        return DomainMatrix(rows, (len(rows), len(rows[0])), domain).rank() if rows else 0

    rng = random.Random(53)
    z6z4 = parse_presentation("gens: x y\nrel: x^6\nrel: y^4\nrel: [x,y]\n")
    cases = [(heisenberg_presentation, F2, 4), (cyclic_presentation(9), F3, 4),
             (z6z4, lb.QQ, 4), (z6z4, F2, 4), (z6z4, F3, 4),
             (parse_presentation("gens: a b\nrel: b a b^-1 a^-2\n"), lb.QQ, 4)]
    for P, ring, N in cases:
        Q = build_truncated_quotient(P, N, ring)
        n = len(Q.monomials)
        span = [dense(Q, col) for col in Q.columns]
        for trial in range(12):
            low = trial % N
            vec = [ring.from_int(rng.randint(-2, 2))
                   if len(m) >= low and rng.random() < 0.4 else ring.zero
                   for m in Q.monomials]
            if span and trial % 2:
                col = span[rng.randrange(len(span))]
                vec = [ring.add(a, b) for a, b in zip(vec, col)]
            expected = 0
            for k in range(N, -1, -1):
                rows = span + [[ring.one if j == i else ring.zero for j in range(n)]
                               for i, m in enumerate(Q.monomials) if len(m) >= k]
                if rank(ring, rows + [vec]) == rank(ring, rows):
                    expected = k
                    break
            assert Q.filtration_valuation(sparse(vec)) == expected, (P, ring, vec)
