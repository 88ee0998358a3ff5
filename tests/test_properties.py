"""Property tests: the linear-combination laws shared by tensors,
truncated series and group-ring elements, parser round trips, and fuzzed
``lb`` command lines.

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
from letterbraid.rings import QQ, ZZ, PrimeField
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
