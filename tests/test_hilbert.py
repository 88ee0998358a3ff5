"""Closed-form Hilbert series as oracles for the truncated quotients.

The rank of A[G]/I^N is the sum of the first N coefficients of the Hilbert
series of the associated graded ring.  For a surface group, the pure braid
groups and the Heisenberg groups mod p those series are known in closed
form, independently of any elimination:

* the genus-g surface group: 1/(1 - 2g t + t^2) (Labute);
* the pure braid group P_n: prod_{j<n} 1/(1 - j t) (Kohno);
* for both, the graded pieces are free abelian, so over Z the quotients
  have no torsion;
* a finite p-group over F_p: Jennings' product
  prod_d ((1 - t^(d p)) / (1 - t^d))^(r_d), where p^(r_d) is the index of
  the (d+1)-st dimension subgroup in the d-th.  The r_d are read here off
  ``dimension_depth`` of every element of the ``finite`` table.
"""

import math
from collections import Counter

import pytest

import letterbraid as lb
from letterbraid.finite import heisenberg_table, ideal_power_dims
from letterbraid.presented import (build_truncated_quotient, dimension_depth,
                                   parse_presentation)
from letterbraid.rings import ZZ, PrimeField

F2 = PrimeField(2)
F3 = PrimeField(3)


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def inverse_series(den, n):
    """The first n coefficients of 1/den(t), where den(0) = 1."""
    c = []
    for d in range(n):
        c.append((d == 0) - sum(den[i] * c[d - i]
                                for i in range(1, min(d, len(den) - 1) + 1)))
    return c


def pb4_presentation():
    # Artin's relations for P_4 = F(A14, A24, A34) x| P_3: the relators of
    # P_3, and A_rs^-1 A_i4 A_rs written as a word in A14, A24, A34.
    conj = {
        ("A12", "A14"): "A14 A24 A14 A24^-1 A14^-1",
        ("A12", "A24"): "A14 A24 A14^-1",
        ("A12", "A34"): "A34",
        ("A13", "A14"): "A14 A34 A14 A34^-1 A14^-1",
        ("A13", "A24"): "A14 A34 A14^-1 A34^-1 A24 A34 A14 A34^-1 A14^-1",
        ("A13", "A34"): "A14 A34 A14^-1",
        ("A23", "A14"): "A14",
        ("A23", "A24"): "A24 A34 A24 A34^-1 A24^-1",
        ("A23", "A34"): "A24 A34 A24^-1",
    }
    lines = ["gens: A12 A13 A23 A14 A24 A34",
             "rel: [A12 A13 A23, A13]", "rel: [A12 A13 A23, A23]"]
    lines += [f"rel: {a}^-1 {b} {a} ({image})^-1" for (a, b), image in conj.items()]
    return parse_presentation("\n".join(lines) + "\n")


def heisenberg_mod(p):
    return parse_presentation(
        f"gens: x y z\nrel: x^{p}\nrel: y^{p}\nrel: z^{p}\nrel: [x,y] z^-1\n"
        "rel: [x,z]\nrel: [y,z]\n")


def assert_ranks_follow(P, ring, series):
    for order in range(1, len(series) + 1):
        Q = build_truncated_quotient(P, order, ring)
        assert Q.rank == sum(series[:order]), (order, ring)
        if ring is ZZ:
            assert Q.torsion_divisors == (), order


@pytest.mark.parametrize("ring", [F2, F3, ZZ], ids=repr)
def test_genus_two_surface_follows_labutes_series(surface_presentation, ring):
    series = inverse_series([1, -4, 1], 6)
    assert sum(series) == 1065
    assert_ranks_follow(surface_presentation, ring, series)


@pytest.mark.parametrize("ring", [F2, F3, ZZ], ids=repr)
def test_pb3_follows_kohnos_series(pb3_presentation, ring):
    series = inverse_series(poly_mul([1, -1], [1, -2]), 7)
    assert sum(series) == 247
    assert_ranks_follow(pb3_presentation, ring, series)


@pytest.mark.parametrize("ring", [F2, F3, ZZ], ids=repr)
def test_pb4_from_artins_relations_follows_kohnos_series(ring):
    series = inverse_series(poly_mul(poly_mul([1, -1], [1, -2]), [1, -3]), 5)
    assert series == [1, 6, 25, 90, 301]
    assert_ranks_follow(pb4_presentation(), ring, series)


def words_for_every_element(table, alphabet):
    """A word for each element of the table, by breadth-first search."""
    found = {table.identity: lb.Word.identity(alphabet)}
    frontier = [table.identity]
    while frontier:
        nxt = []
        for g in frontier:
            for i, name in enumerate(alphabet.names):
                h = table.mul[g][table.gens[name]]
                if h not in found:
                    found[h] = lb.concat(found[g], lb.Word.generator(alphabet, i))
                    nxt.append(h)
        frontier = nxt
    assert len(found) == table.size
    return found


@pytest.mark.parametrize("p, graded", [(2, [1, 2, 2, 2, 1]),
                                       (3, [1, 2, 4, 4, 5, 4, 4, 2, 1])])
def test_heisenberg_mod_p_follows_jennings_product(p, graded):
    P, table, ring = heisenberg_mod(p), heisenberg_table(p), PrimeField(p)
    top = len(graded)
    Q = build_truncated_quotient(P, top, ring)
    words = words_for_every_element(table, P.alphabet)
    for g, w in words.items():
        assert lb.word_image(table, w) == g
    depths = Counter(dimension_depth(Q, w) for w in words.values())
    assert depths.pop(lb.DepthReport(top, is_lower_bound=True)) == 1  # the identity
    # |D_d| counts the elements of depth >= d, the identity included
    sizes = {d: 1 + sum(n for (k, _), n in depths.items() if k >= d)
             for d in range(1, top + 1)}
    jennings = [1]
    for d in range(1, top):
        r_d = round(math.log(sizes[d] // sizes[d + 1], p))
        assert p ** r_d * sizes[d + 1] == sizes[d]
        factor = [int(i % d == 0) for i in range(d * (p - 1) + 1)]  # (1 - t^dp)/(1 - t^d)
        for _ in range(r_d):
            jennings = poly_mul(jennings, factor)
    assert jennings == graded and sum(graded) == table.size
    assert_ranks_follow(P, ring, jennings)
    cumulative = [sum(graded[:n]) for n in range(1, top + 1)]
    assert ideal_power_dims(table, ring, top) == cumulative
