import math
import random

import pytest

import letterbraid as lb
from letterbraid.johnson import johnson_level, johnson_tau, parse_endo
from letterbraid.presented import (build_truncated_quotient,
                                   invariants_basis, parse_presentation,
                                   pullback)
from letterbraid.rings import ZZ, PrimeField
from letterbraid.words import Alphabet, GroupHom, Word, compose, parse_hom

from conftest import free_presentation, random_word

F2 = PrimeField(2)
FREE2 = free_presentation("x", "y")


def conjugation(P, u):
    """The inner automorphism w -> u w u^-1."""
    images = {}
    for i, name in enumerate(P.alphabet.names):
        g = Word.generator(P.alphabet, i)
        images[name] = lb.free_reduce(lb.concat(u, lb.concat(g, lb.inverse(u))))
    return GroupHom.from_mapping(P.alphabet, images, target=P.alphabet)


def random_commutator_word(rng, alphabet, factors=2):
    w = Word.identity(alphabet)
    for _ in range(factors):
        u = random_word(rng, alphabet, 3)
        v = random_word(rng, alphabet, 3)
        w = lb.concat(w, lb.commutator(u, v))
    return lb.free_reduce(w)


def test_identity_has_maximal_level():
    ident = parse_endo("x -> x, y -> y", FREE2)
    report = johnson_level(FREE2, ident, ZZ, 4)
    assert report.is_lower_bound and report.value == 3
    assert str(report) == ">= 3"


def test_conjugation_by_x_has_level_one():
    endo = parse_endo("x -> x, y -> x y x^-1", FREE2)
    assert johnson_level(FREE2, endo, ZZ, 4) == (1, False)


def test_abelianization_action_gives_level_zero():
    endo = parse_endo("x -> x, y -> x y", FREE2)
    assert johnson_level(FREE2, endo, ZZ, 4) == (0, False)


def test_tau_of_conjugation_by_x():
    endo = parse_endo("x -> x, y -> x y x^-1", FREE2)
    report = johnson_tau(FREE2, endo, 1, ZZ)
    assert report.row_labels == ["x|x", "x|y", "y|x", "y|y"]
    assert report.col_labels == ["x", "y"]
    assert report.matrix == [[0, 0], [0, -1], [0, 1], [0, 0]]
    assert report.level == (1, False)


def test_tau_of_identity_is_zero():
    ident = parse_endo("x -> x, y -> y", FREE2)
    report = johnson_tau(FREE2, ident, 1, ZZ)
    assert report.is_zero()


def test_tau_requires_the_level():
    endo = parse_endo("x -> x, y -> x y", FREE2)
    with pytest.raises(ValueError, match="level"):
        johnson_tau(FREE2, endo, 1, ZZ)


def test_tau_additivity_on_conjugation_pairs():
    rng = random.Random(60)
    for trial in range(50):
        stage = 1 if trial % 2 == 0 else 2
        if stage == 1:
            u = random_word(rng, FREE2.alphabet, 4)
            v = random_word(rng, FREE2.alphabet, 4)
        else:
            u = random_commutator_word(rng, FREE2.alphabet)
            v = random_commutator_word(rng, FREE2.alphabet)
        phi = conjugation(FREE2, u)
        psi = conjugation(FREE2, v)
        r_phi = johnson_tau(FREE2, phi, stage, ZZ)
        r_psi = johnson_tau(FREE2, psi, stage, ZZ)
        r_comp = johnson_tau(FREE2, compose(phi, psi), stage, ZZ)
        assert r_comp.row_labels == r_phi.row_labels == r_psi.row_labels
        for a, b, c in zip(r_comp.matrix, r_phi.matrix, r_psi.matrix):
            assert a == [x + y for x, y in zip(b, c)]


def test_deeper_levels_are_in_the_kernel():
    # Conjugation by a commutator has level >= 2, so tau at stage 1 vanishes.
    rng = random.Random(61)
    for _ in range(25):
        u = random_commutator_word(rng, FREE2.alphabet)
        phi = conjugation(FREE2, u)
        assert johnson_level(FREE2, phi, ZZ, 4).at_least(2)
        assert johnson_tau(FREE2, phi, 1, ZZ).is_zero()


def test_tau_images_have_weight_at_most_one():
    rng = random.Random(62)
    Q = build_truncated_quotient(FREE2, 3, ZZ)
    basis = invariants_basis(FREE2, 3, ZZ)
    for _ in range(30):
        phi = conjugation(FREE2, random_word(rng, FREE2.alphabet, 5))
        for T, wt in zip(basis.elements, basis.weights):
            if wt != 2:
                continue
            delta = T.sub(pullback(phi, T, Q))
            assert delta.weight <= 1
            assert delta.counit == 0


def test_equivariance_under_conjugating_the_automorphism():
    # tau_{chi phi chi^-1}(T) = (chi^-1)^* tau_phi (chi^* T) on explicit triples.
    swap = parse_endo("x -> y, y -> x", FREE2)
    shear = parse_endo("x -> x y, y -> y", FREE2)
    shear_inv = parse_endo("x -> x y^-1, y -> y", FREE2)
    phi = parse_endo("x -> x, y -> x y x^-1", FREE2)
    Q = build_truncated_quotient(FREE2, 3, ZZ)
    basis = invariants_basis(FREE2, 3, ZZ)
    for chi, chi_inv in ((swap, swap), (shear, shear_inv)):
        conjugated = compose(compose(chi, phi), chi_inv)
        for T, wt in zip(basis.elements, basis.weights):
            if wt != 2:
                continue
            lhs = T.sub(pullback(conjugated, T, Q))
            pulled = pullback(chi, T, Q)
            moved = pulled.sub(pullback(phi, pulled, Q))
            rhs = pullback(chi_inv, moved, Q)
            assert lhs == rhs


def test_level_works_on_presented_groups(heisenberg_presentation):
    P = heisenberg_presentation
    endo = parse_endo("x -> x z, y -> y, z -> z", P)
    # x z differs from x by the central commutator z, which has depth 2 in
    # the truncated quotient, so the level is 1.
    assert johnson_level(P, endo, F2, 3) == (1, False)


def test_tau_on_a_presented_group(heisenberg_presentation):
    # x -> xz moves the invariant z + y|x by exactly x: the weight-1 part
    # of the pullback picks up coefficient of z in M(xz) = (1+X)(1+Z).
    P = heisenberg_presentation
    endo = parse_endo("x -> x z, y -> y, z -> z", P)
    report = johnson_tau(P, endo, 1, F2)
    assert report.col_labels == ["x", "y"]
    by_row = dict(zip(report.row_labels, report.matrix))
    assert by_row["z + y|x"] == [1, 0]
    assert by_row["x|y + y|x"] == [0, 0]


def test_johnson_subgroup_of_p_group_has_p_power_order(heisenberg_presentation):
    # The level >= 1 automorphism x -> xz of the 8-element Heisenberg group
    # has order 2 as a permutation of the group elements.
    from letterbraid.finite import heisenberg_table, word_image
    P = heisenberg_presentation
    endo = parse_endo("x -> x z, y -> y, z -> z", P)
    assert johnson_level(P, endo, F2, 3).at_least(1)
    table = heisenberg_table(2)
    # breadth-first word representatives for all eight elements
    reps = {table.identity: Word.identity(P.alphabet)}
    frontier = [table.identity]
    while frontier:
        nxt = []
        for e in frontier:
            for i, name in enumerate(P.alphabet.names):
                g = table.gens[name]
                e2 = table.mul[e][g]
                if e2 not in reps:
                    reps[e2] = lb.concat(reps[e], Word.generator(P.alphabet, i))
                    nxt.append(e2)
        frontier = nxt
    assert len(reps) == 8
    perm = {e: word_image(table, endo.apply(w)) for e, w in reps.items()}
    assert sorted(perm.values()) == list(range(8))
    order = 1
    for start in perm:
        length = 1
        e = perm[start]
        while e != start:
            e = perm[e]
            length += 1
        order = math.lcm(order, length)
    assert order == 2


def test_bad_relator_image_warns(heisenberg_presentation):
    # z -> z[x,y] has level 1 but does not kill the relator [x,y]z^-1; the
    # module warns and the subsequent domain checks are allowed to trip.
    P = heisenberg_presentation
    endo = parse_endo("x -> x, y -> y, z -> z [x,y]", P)
    assert johnson_level(P, endo, F2, 3) == (1, False)
    with pytest.warns(UserWarning, match="relator"):
        try:
            johnson_tau(P, endo, 1, F2)
        except ValueError:
            pass


def test_level_and_tau_need_an_endomorphism_of_the_presentation():
    h = parse_hom("x -> x, y -> y", Alphabet(["x", "y", "z"]))
    with pytest.raises(ValueError, match="not an endomorphism"):
        johnson_level(FREE2, h, ZZ, 3)
    with pytest.raises(ValueError, match="not an endomorphism"):
        johnson_tau(FREE2, h, 1, ZZ)


def test_parse_endo_errors():
    with pytest.raises(ValueError):
        parse_endo("x -> x", FREE2)  # y missing
    with pytest.raises(ValueError):
        parse_endo("x -> x, x -> y, y -> y", FREE2)
    with pytest.raises(ValueError):
        parse_endo("x = x, y = y", FREE2)
