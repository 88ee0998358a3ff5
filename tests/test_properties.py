"""Property tests: the linear-combination laws shared by tensors,
truncated series and group-ring elements, the laws of the echelon format
(``{pivot: row}``) of ``rings``, parser round trips, and fuzzed ``lb``
command lines.

Example counts are kept small and derandomized, so the suite stays fast
and every run draws the same cases.
"""

import contextlib
import io
import json
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from letterbraid.cli import main
from letterbraid.finite import heisenberg_table
from letterbraid.magnus import TruncSeries
from letterbraid.rings import QQ, ZZ, PrimeField, annihilator, echelon, reduce
from letterbraid.tensors import TensorElement, format_tensor, parse_tensor
from letterbraid.words import Letter, Word, format_word, parse_word

from conftest import XY
from oracles import FreeGroupRingElement

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


# ---------------------------------------------------------------------------
# the echelon format: echelon and annihilator return {pivot: row}, reduce
# takes it and returns (remainder, {pivot: multiplier})

NCOLS = 6


def sparse_vectors(ring):
    return st.dictionaries(st.integers(0, NCOLS - 1), scalars(ring), max_size=NCOLS)


def axpy(ring, v, c, row):
    """v + c * row, without zeros."""
    out = dict(v)
    for k, x in row.items():
        out[k] = ring.add(out.get(k, ring.zero), ring.mul(c, x))
    return {k: x for k, x in out.items() if x != ring.zero}


def check_echelon_format(ring, basis):
    """Keys increase, each is its row's least column, and the rows are
    reduced at each other's pivots (reduced echelon over a field, Hermite
    over ZZ)."""
    assert list(basis) == sorted(basis)
    for p, row in basis.items():
        assert row and p == min(row)
        for q, other in basis.items():
            x = other.get(p, ring.zero)
            if ring.is_field:
                assert x == (ring.one if q == p else ring.zero)
            else:
                assert row[p] > 0 if q == p else 0 <= x < row[p]


@pytest.mark.parametrize("ring", RINGS, ids=repr)
def test_echelon_laws(ring):
    @LAWS
    @given(st.lists(sparse_vectors(ring), max_size=5), sparse_vectors(ring),
           st.lists(scalars(ring), min_size=5, max_size=5))
    def laws(rows, v, coeffs):
        basis = echelon(ring, rows)
        check_echelon_format(ring, basis)
        remainder, mult = reduce(ring, basis, v)
        # the remainder is canonical: the same for every vector of v's coset
        moved = v
        for c, row in zip(coeffs, rows):
            moved = axpy(ring, moved, c, row)
        assert reduce(ring, basis, moved)[0] == remainder
        for p, row in basis.items():
            if ring.is_field:
                assert p not in remainder
            else:
                assert 0 <= remainder.get(p, 0) < row[p]
        # v = remainder + sum mult[p] * basis[p]
        assert set(mult) <= set(basis)
        rebuilt = remainder
        for p, q in mult.items():
            rebuilt = axpy(ring, rebuilt, q, basis[p])
        assert rebuilt == {k: x for k, x in v.items() if x != ring.zero}
        # the annihilator is the orthogonal complement: rank + nullity = NCOLS
        kernel = annihilator(ring, basis, NCOLS)
        check_echelon_format(ring, kernel)
        for u in kernel.values():
            for row in basis.values():
                assert ring.sum(ring.mul(x, row.get(k, ring.zero)) for k, x in u.items()) \
                    == ring.zero
        assert len(basis) + len(kernel) == NCOLS

    laws()


# ---------------------------------------------------------------------------
# fuzzing: every subcommand, with flags drawn from valid and malformed values

# flag -> (valid values, malformed values)
FUZZ_POOLS = {
    "ring": (["z", "q", "fp:2", "fp:3"], ["fp:4", "fp:", "r", ""]),
    "format": (["json", "text", "latex"], ["xml"]),
    "gens": (["x y", "x,y", "x y z"], ["", "x x", "1x"]),
    "presentation": (["heis.pres"], ["garbled.pres", "missing.pres", "binary.pres", "."]),
    "word": (["x", "[x,y] x^2", "x^-1 y", "", "[x,y]^3", "z x z^-1"], ["x^", "w", "((x"]),
    "tensor": (["x|y + z", "x", "1", "2/3 x", "x|y|x|y|x|y|x", "3 - y|x"], ["x|", "", "w"]),
    "endo": (["x -> x, y -> y", "x -> x y, y -> y", "s -> x y", "x -> x, y -> x y x^-1",
              "x -> x, y -> y, z -> z [x,y]"], ["x -> ", "garbage"]),
    "order": (["1", "3", "6"], ["0", "-1", "abc"]),
    "weight": (["0", "1", "2", "3"], ["-1", "x"]),
    "table": (["heis.json"], ["garbled.json", "nomul.json", "missing.json"]),
}
FUZZ_FLAGS = {
    "magnus": ["word", "order"], "braid": ["tensor", "word"],
    "pair": ["tensor", "word"], "invariants": ["weight"],
    "check": ["tensor"], "depth": ["word", "order"],
    "pullback": ["tensor", "endo"], "johnson": ["endo", "order", "weight"],
    "oracle": ["table", "order", "word"],
}


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    table = heisenberg_table(2).to_json()
    nomul = dict(table)
    del nomul["mul"]
    (root / "heis.pres").write_text(
        "gens: x y z\nrel: x^2\nrel: y^2\nrel: z^2\nrel: [x,y] z^-1\n")
    (root / "garbled.pres").write_text("gens x y\nrel: [x,\n")
    (root / "binary.pres").write_bytes(b"gens: x\xff\xfe\n")
    (root / "heis.json").write_text(json.dumps(table))
    (root / "garbled.json").write_text('{"size": 2, "mul": [[0, 1]')
    (root / "nomul.json").write_text(json.dumps(nomul))
    return root


@st.composite
def fuzz_argv(draw):
    """Mostly present flags with mostly valid values, so that every exit
    code is common; now and then a flag the command does not take."""
    command = draw(st.sampled_from(sorted(FUZZ_FLAGS)))
    flags = ["ring", "format", draw(st.sampled_from(["gens", "presentation"]))]
    flags += FUZZ_FLAGS[command]
    if draw(st.integers(0, 4)) == 0:
        flags.append(draw(st.sampled_from(sorted(FUZZ_POOLS))))
    argv = [command]
    for flag in flags:
        if draw(st.integers(0, 5)):
            valid, malformed = FUZZ_POOLS[flag]
            pool = malformed if draw(st.integers(0, 4)) == 0 else valid
            argv += [f"--{flag}", draw(st.sampled_from(pool))]
    return argv


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(argv=fuzz_argv())
def test_fuzzed_command_lines_exit_cleanly(fuzz_dir, argv):
    argv = [str(fuzz_dir / arg) if prev in ("--presentation", "--table") else arg
            for prev, arg in zip([None] + argv, argv)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue()
    if code:
        assert err.getvalue(), argv
