import pytest

import letterbraid as lb
from letterbraid.finite import (MAX_INTEGER_POWER_WORK, MAX_POWER_ORDER,
                                FiniteGroupTable, cyclic_table,
                                direct_product_table, heisenberg_table,
                                ideal_power_dims, word_image)
from letterbraid.presented import (build_truncated_quotient, invariants_basis,
                                   pair, parse_presentation)
from letterbraid.rings import QQ, ZZ, PrimeField
from letterbraid.words import Alphabet, Word, parse_word

from conftest import cyclic_presentation, span_rank
from oracles import all_power_dims

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)


def test_table_validation():
    with pytest.raises(ValueError, match="associative"):
        FiniteGroupTable(3, [[0, 1, 2], [1, 0, 1], [2, 1, 0]], {})
    with pytest.raises(ValueError, match="identity"):
        FiniteGroupTable(2, [[1, 1], [1, 1]], {})
    # an identity is found wherever it sits
    assert FiniteGroupTable(2, [[1, 0], [0, 1]], {}).identity == 1
    t = cyclic_table(4)
    assert t.identity == 0
    assert t.inverse[1] == 3


def test_associativity_is_checked_on_every_triple():
    # Z/8 x Z/8 with one entry changed: 248 of its 262,144 triples are not
    # associative, too few for a sample of triples to meet.
    t = direct_product_table(cyclic_table(8, "x"), cyclic_table(8, "y"))
    mul = [list(row) for row in t.mul]
    assert mul[1][1] == 2
    mul[1][1] = 1
    with pytest.raises(ValueError, match="not associative"):
        FiniteGroupTable(t.size, mul, t.gens)
    # Elements the generators' products miss are checked as well: here the
    # one generator is the identity, at which every table is associative.
    with pytest.raises(ValueError, match="not associative"):
        FiniteGroupTable(3, [[0, 1, 2], [1, 0, 1], [2, 1, 0]], {"e": 0})


def test_table_json_round_trip():
    t = heisenberg_table(2)
    t2 = FiniteGroupTable.from_json(t.to_json())
    assert t2.mul == t.mul and t2.gens == t.gens


def test_word_image_examples():
    t = heisenberg_table(2)
    ab = Alphabet(["x", "y", "z"])
    comm = word_image(t, parse_word("[x,y]", ab))
    assert comm == t.gens["z"]
    assert word_image(t, Word.identity(ab)) == t.identity
    c2 = cyclic_table(2)
    assert word_image(c2, parse_word("x^2", Alphabet(["x"]))) == c2.identity
    with pytest.raises(ValueError, match="labeled"):
        word_image(c2, parse_word("w", Alphabet(["w"])))


def test_ideal_power_dims_for_small_cyclic_groups():
    assert ideal_power_dims(cyclic_table(2), F2, 4) == [1, 2, 2, 2]
    assert ideal_power_dims(cyclic_table(3), F2, 3) == [1, 1, 1]
    assert ideal_power_dims(cyclic_table(1), F5, 3) == [1, 1, 1]


def test_ideal_power_dims_over_the_integers():
    shapes = ideal_power_dims(cyclic_table(2), ZZ, 3)
    assert shapes[0] == (1, ())
    assert shapes[1] == (1, (2,))  # I^2 = 2*I inside Z[C2]
    assert shapes[2] == (1, (4,))


def test_ideal_power_dims_stop_where_the_powers_settle():
    # Over a field the answer is read off the first k with I^k = I^(k+1);
    # the literal computation of all N powers gives the same list.  An
    # order below 1 is refused (see the budget test below).
    c2xc3 = direct_product_table(cyclic_table(2, "x"), cyclic_table(3, "y"))
    for table in (cyclic_table(4), c2xc3, heisenberg_table(2)):
        for ring in (F2, F3, QQ, ZZ):
            for N in (1, 3, 9):
                assert ideal_power_dims(table, ring, N) == all_power_dims(table, ring, N)


def test_ideal_power_dims_check_the_budget_first():
    table = heisenberg_table(2)
    for N in (0, -1):
        for ring in (F2, ZZ):
            with pytest.raises(ValueError, match="order must be >= 1"):
                ideal_power_dims(table, ring, N)
    with pytest.raises(ValueError, match="budget of 10000 ideal powers"):
        ideal_power_dims(table, F2, MAX_POWER_ORDER + 1)
    assert ideal_power_dims(table, F2, MAX_POWER_ORDER)[-1] == 8
    # over Z each power costs about size^3, and the divisors keep growing
    over = MAX_INTEGER_POWER_WORK // table.size ** 3 + 1
    with pytest.raises(ValueError, match="integer budget"):
        ideal_power_dims(table, ZZ, over)


def oracle_fixtures():
    c2xc2 = direct_product_table(cyclic_table(2, "x"), cyclic_table(2, "y"))
    return [
        (cyclic_table(2), cyclic_presentation(2), [F2, F3]),
        (cyclic_table(4), cyclic_presentation(4), [F2]),
        (c2xc2, parse_presentation("gens: x y\nrel: x^2\nrel: y^2\nrel: [x,y]\n"), [F2]),
        (cyclic_table(3), cyclic_presentation(3), [F3, F2]),
        (cyclic_table(5), cyclic_presentation(5), [F5, F2]),
        (heisenberg_table(2),
         parse_presentation("gens: x y z\nrel: x^2\nrel: y^2\nrel: z^2\nrel: [x,y] z^-1\n"),
         [F2]),
    ]


def test_invariant_counts_match_the_group_algebra():
    # dim Hom(A[G]/I^N, A) from the literal group algebra equals the number
    # of basis invariants computed from the presentation, N <= 4.
    for table, P, fields in oracle_fixtures():
        for ring in fields:
            dims = ideal_power_dims(table, ring, 4)
            for N in range(1, 5):
                basis = invariants_basis(P, N, ring)
                assert len(basis) == dims[N - 1], (P, ring, N)


def element_words(table, alphabet):
    reps = {table.identity: Word.identity(alphabet)}
    frontier = [table.identity]
    while frontier:
        nxt = []
        for e in frontier:
            for i, name in enumerate(alphabet.names):
                e2 = table.mul[e][table.gens[name]]
                if e2 not in reps:
                    reps[e2] = lb.concat(reps[e], Word.generator(alphabet, i))
                    nxt.append(e2)
        frontier = nxt
    return [reps[e] for e in range(table.size)]


def test_pairing_agrees_with_the_group_algebra_on_heisenberg():
    table = heisenberg_table(2)
    P = parse_presentation("gens: x y z\nrel: x^2\nrel: y^2\nrel: z^2\nrel: [x,y] z^-1\n")
    words = element_words(table, P.alphabet)
    for N in (2, 3, 4):
        Q = build_truncated_quotient(P, N, F2)
        basis = invariants_basis(P, N, F2)
        matrix = [[pair(Q, T, w) for w in words] for T in basis.elements]
        # invariants kill the oracle's I^N inside the group algebra ...
        n = table.size
        aug = [{g: F2.one, table.identity: F2.neg(F2.one)}
               for g in range(n) if g != table.identity]
        power = aug
        for _ in range(N - 1):
            from letterbraid.finite import _convolve
            power = [_convolve(F2, table, v, w) for v in power for w in aug]
        for v in power:
            for row in matrix:
                assert sum(row[g] * x for g, x in v.items()) % 2 == 0
        # ... and induce a perfect pairing with A[G]/I^N.
        assert span_rank(F2, matrix) == len(basis.elements) \
            == ideal_power_dims(table, F2, N)[N - 1]
