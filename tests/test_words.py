import random
import re
import subprocess
import sys

import pytest

from letterbraid import words
from letterbraid.words import (Alphabet, GroupHom, Letter, ParseError, Word,
                               commutator, compose, concat, format_word,
                               free_reduce, inverse, parse_hom, parse_word,
                               power, substitute)

from conftest import XY, XYZ, random_word, subprocess_env
from oracles import reference_parse_word


def letters(w):
    return [(l.gen, l.sign) for l in w.letters]


def test_parse_commutator():
    w = parse_word("[x,y]", XY)
    assert letters(w) == [(0, 1), (1, 1), (0, -1), (1, -1)]


def test_parse_intro_word_reduces_to_six_letters():
    w = parse_word("[x*y, x^-2]", XY)
    assert len(w) == 8  # parsing does not reduce
    r = free_reduce(w)
    assert letters(r) == [(0, 1), (1, 1), (0, -1), (0, -1), (1, -1), (0, 1)]
    assert format_word(r) == "x y x^-1 x^-1 y^-1 x"


def test_parse_zero_power_is_identity():
    assert parse_word("x^0", XY) == Word.identity(XY)
    assert parse_word("", XY) == Word.identity(XY)


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as exc:
        parse_word("x w", XY)
    assert exc.value.pos == 2
    with pytest.raises(ParseError):
        parse_word("x^", XY)
    with pytest.raises(ParseError):
        parse_word("[x,y", XY)
    with pytest.raises(ParseError):
        parse_word("(x y", XY)


def test_parse_word_refuses_words_above_the_letter_budget(monkeypatch):
    # Never expanded: the budget check runs before a power is built.
    with pytest.raises(ParseError, match="budget") as exc:
        parse_word("((x^1000)^1000)^1000", XY)
    assert exc.value.pos == 15
    with pytest.raises(ParseError, match="budget"):
        parse_word("x^1000000000000", XY)
    with pytest.raises(ParseError, match="budget") as exc:
        parse_word("x^" + "9" * 4400, XY)  # more digits than int() converts
    assert exc.value.pos == 1
    monkeypatch.setattr(words, "MAX_WORD_LETTERS", 10)
    assert len(parse_word("(x y)^-5", XY)) == 10
    assert len(parse_word("x^2 [x, y^3]", XY)) == 10
    for text in ("x^11", "(x y)^-5 x", "x^6 y^5", "[x^2, y^4]"):
        with pytest.raises(ParseError, match="budget"):
            parse_word(text, XY)


def test_free_reduce_and_inverse_basics():
    w = Word(XY, [(0, 1), (0, -1), (1, 1)])
    assert letters(free_reduce(w)) == [(1, 1)]
    assert letters(inverse(parse_word("x y", XY))) == [(1, -1), (0, -1)]
    assert letters(commutator(Word.generator(XY, 0), Word.generator(XY, 1))) \
        == [(0, 1), (1, 1), (0, -1), (1, -1)]
    assert free_reduce(free_reduce(w)) == free_reduce(w)


def test_alphabet_mismatch_is_an_error():
    other = Alphabet(["a"])
    with pytest.raises(ValueError):
        concat(Word.generator(XY, 0), Word.generator(other, 0))


def test_substitute_examples():
    E = Alphabet(["e1", "e2"])
    img = parse_word("e1 e2", E)
    assert substitute(parse_word("x", XY), {"x": img, "y": img}) == img
    assert letters(substitute(parse_word("x^-1", XY), {"x": img, "y": img})) \
        == [(1, -1), (0, -1)]
    a = Word.generator(E, 0)
    assert substitute(parse_word("[x,y]", XY), {"x": a, "y": a}) == Word.identity(E)
    with pytest.raises(ValueError):
        substitute(parse_word("x y", XY), {"x": a})


def test_concat_with_inverse_reduces_to_identity():
    rng = random.Random(10)
    for _ in range(500):
        w = random_word(rng, XY, 12)
        assert free_reduce(concat(w, inverse(w))) == Word.identity(XY)


def test_reduction_is_confluent_on_products():
    rng = random.Random(11)
    for _ in range(300):
        u, v, w = (random_word(rng, XY, 8) for _ in range(3))
        left = free_reduce(concat(free_reduce(concat(u, v)), w))
        right = free_reduce(concat(u, free_reduce(concat(v, w))))
        plain = free_reduce(concat(concat(u, v), w))
        assert left == right == plain


def test_substitute_is_a_homomorphism():
    rng = random.Random(12)
    E = Alphabet(["e1", "e2", "e3"])
    for _ in range(200):
        images = {"x": random_word(rng, E, 4), "y": random_word(rng, E, 4)}
        u = random_word(rng, XY, 6)
        v = random_word(rng, XY, 6)
        lhs = substitute(concat(u, v), images)
        rhs = free_reduce(concat(substitute(u, images), substitute(v, images)))
        assert lhs == rhs


def test_parse_hom_compose_and_apply():
    E = Alphabet(["e1", "e2"])
    # Without a source, the left-hand names in order are the source.
    h = parse_hom("t -> e2^-1, s -> [e1, e2]", E)
    assert (h.source, h.target) == (Alphabet(["t", "s"]), E)
    assert format_word(h.images[1]) == "e1 e2 e1^-1 e2^-1"
    g = parse_hom("e2 -> y x, e1 -> x", XY, source=E)
    gh = compose(g, h)
    assert (gh.source, gh.target) == (h.source, XY)
    w = parse_word("s t^2 s^-1", h.source)
    assert gh.apply(w) == g.apply(h.apply(w))
    with pytest.raises(ValueError, match="do not compose"):
        compose(h, g)
    with pytest.raises(ValueError, match="alphabet mismatch"):
        h.apply(parse_word("x", XY))
    with pytest.raises(ValueError, match="unknown generator"):
        parse_hom("e1 -> x, e3 -> y", XY, source=E)


def test_format_parse_round_trip():
    rng = random.Random(13)
    for _ in range(200):
        w = free_reduce(random_word(rng, XY, 10))
        assert parse_word(format_word(w), XY) == w
    assert format_word(Word.identity(XY)) == ""
    assert parse_word("x^3 y^-2", XY) == parse_word("x x x y^-1 y^-1", XY)


def test_power_materializes_letters():
    assert len(power(parse_word("x y", XY), 3)) == 6
    assert power(parse_word("x", XY), -2) == parse_word("x^-2", XY)


def test_nested_grouping_and_tricky_expressions():
    assert free_reduce(parse_word("([x,y]^2)^-1", XY)) \
        == free_reduce(parse_word("[x,y]^-2", XY))
    assert parse_word("(x (y x)^2)^0", XY) == Word.identity(XY)
    assert parse_word("[x^2, (y)]", XY) == parse_word("x x y x^-1 x^-1 y^-1", XY)
    with pytest.raises(ParseError):
        parse_word("x , y", XY)  # a comma outside a commutator
    with pytest.raises(ParseError):
        parse_word("x)", XY)


# --------------------------------------------------------------------------
# The word contract: what a Word accepts, and the group operations against
# naive list-based references.

@pytest.mark.parametrize("item, error, message", [
    ((2, 1), ValueError, "letter index 2 out of range"),
    ((-1, 1), ValueError, "letter index -1 out of range"),
    ((5, 0), ValueError, "letter index 5 out of range"),
    ((0.5, 1), ValueError, "letter index 0.5 out of range"),
    ((0, 0), ValueError, "letter sign must be +1 or -1, got 0"),
    ((1, 2), ValueError, "letter sign must be +1 or -1, got 2"),
    (5, TypeError, "cannot unpack non-iterable int object"),
    ((1, 1, 1), ValueError, "too many values to unpack (expected 2)"),
    ((1,), ValueError, "not enough values to unpack (expected 2, got 1)"),
])
def test_word_refuses_a_bad_letter(item, error, message):
    with pytest.raises(error, match=re.escape(message) + "$"):
        Word(XY, [(0, 1), item, (1, -1)])


def test_word_takes_pairs_of_any_form_and_keeps_letters():
    forms = [[(0, 1), (1, -1)], [[0, 1], [1, -1]], (Letter(0, 1), Letter(1, -1)),
             iter([(0, 1), (1, -1)])]
    built = [Word(XY, form) for form in forms]
    assert all(w == built[0] for w in built)
    for w in built:
        assert all(type(let) is Letter for let in w.letters)
        assert w.letters == ((0, 1), (1, -1))
    assert Word.generator(XY, 1, -1).letters == (Letter(1, -1),)


def naive_inverse(letters):
    return [(g, -s) for g, s in reversed(letters)]


def naive_reduce(letters):
    out = list(letters)
    i = 0
    while i + 1 < len(out):  # cancel the leftmost pair, then step back
        if out[i][0] == out[i + 1][0] and out[i][1] == -out[i + 1][1]:
            del out[i:i + 2]
            i = max(i - 1, 0)
        else:
            i += 1
    return out


def test_group_operations_match_naive_references():
    rng = random.Random(17)
    images = [random_word(rng, XYZ, 4) for _ in XY]
    h = GroupHom(XY, XYZ, tuple(images))
    for _ in range(300):
        u, v = random_word(rng, XY, 12), random_word(rng, XY, 12)
        k = rng.randint(-3, 3)
        lu, lv = [tuple(let) for let in u.letters], [tuple(let) for let in v.letters]
        assert free_reduce(u).letters == tuple(naive_reduce(lu))
        assert inverse(u).letters == tuple(naive_inverse(lu))
        assert concat(u, v).letters == tuple(lu + lv)
        assert power(u, k).letters == tuple((lu if k >= 0 else naive_inverse(lu)) * abs(k))
        image = []
        for g, s in lu:
            img = [tuple(let) for let in images[g].letters]
            image += img if s == 1 else naive_inverse(img)
        assert h.apply(u).letters == tuple(naive_reduce(image))
        for w in (free_reduce(u), inverse(u), concat(u, v), power(u, k), h.apply(u)):
            assert all(type(let) is Letter for let in w.letters)


def test_group_hom_equality_compares_source_target_and_images():
    x, y = Word.generator(XY, 0), Word.generator(XY, 1)
    h = GroupHom.from_mapping(XY, {"x": y, "y": x})
    same = GroupHom(Alphabet(["x", "y"]), XY, (parse_word("y", XY), parse_word("x", XY)))
    assert h == same and hash(h) == hash(same)
    assert h != GroupHom(XY, XY, (y, y))
    assert h != GroupHom(XY, Alphabet(["x", "y", "z"]), (y, x))
    assert (h.source, h.target, h.images) == (XY, XY, (y, x))


# --------------------------------------------------------------------------
# The one-pass scanner against the reference tokenizer and parser.

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

_names = st.sampled_from(["x", "y"])
_exponents = st.one_of(st.integers(-3, 3),
                       st.sampled_from([10 ** 6 + 1, -10 ** 7, 10 ** 12])).map(lambda k: f"^{k}")


def _wrap(children):
    return st.one_of(
        st.tuples(children, _exponents).map(lambda t: f"({t[0]}){t[1]}"),
        st.tuples(children, children).map(lambda t: f"[{t[0]}, {t[1]}]"),
        st.lists(children, min_size=1, max_size=4).map(" * ".join),
        st.lists(children, min_size=1, max_size=4).map(" ".join),
    )


_expressions = st.recursive(st.one_of(_names, st.tuples(_names, _exponents).map("".join)),
                            _wrap, max_leaves=10)
# Stray pieces: whitespace, unmatched brackets, bare or malformed exponents,
# unknown names, characters no token starts with.
_stray = st.sampled_from([" ", "\t", "*", "(", ")", "[", "]", ",", "^", "^-", "^ 2",
                          "^0", "^-1", "2", "-", "?", "é", "x^--1", "\u3000", "z", "x_1"])
_texts = st.one_of(_expressions,
                   st.lists(st.one_of(_expressions, _stray), max_size=5).map("".join))


def outcome(parse, text):
    try:
        w = parse(text, XY)
    except ParseError as exc:
        return str(exc), exc.pos
    assert all(type(let) is Letter for let in w.letters)
    return w


@pytest.mark.parametrize("budget", [words.MAX_WORD_LETTERS, 12])
def test_scanner_matches_the_reference_parser(monkeypatch, budget):
    monkeypatch.setattr(words, "MAX_WORD_LETTERS", budget)

    @settings(max_examples=250, deadline=None, derandomize=True, database=None)
    @given(_texts)
    def check(text):
        assert outcome(parse_word, text) == outcome(reference_parse_word, text)

    check()


def test_scanner_matches_the_reference_on_fixed_texts():
    texts = ["", "  ", "x", "x^", "x^-", "x ^ 2", "x^2^3", "^2", "(x", "x)", "[x y]",
             "[x, y", "[x, y]^-2 (x * y)^0", "x , y", "z", "x z ?", "( z", "x ? z",
             "x^" + "9" * 4400, "[x, y^2" + " ?", "((x^1000)^1000)^1000", "x\u3000y",
             "x^٣", "x y^-1 x^-1 y"]
    for text in texts:
        assert outcome(parse_word, text) == outcome(reference_parse_word, text), text


def test_scanner_parses_a_million_inverted_letters_in_linear_time():
    # The reference tokenizer copies the rest of the text at each exponent,
    # so its time grows with the square of the length.
    code = ("import letterbraid as lb; "
            "w = lb.parse_word('x^-1 y^-1 ' * 500000, lb.Alphabet(['x', 'y'])); "
            "print(len(w), w.letters[0], w.letters[-1])")
    proc = subprocess.run([sys.executable, "-c", code], env=subprocess_env(),
                          capture_output=True, text=True, timeout=20)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "1000000 Letter(gen=0, sign=-1) Letter(gen=1, sign=-1)\n"
