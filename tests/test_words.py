import random

import pytest

from letterbraid import words
from letterbraid.words import (Alphabet, ParseError, Word, commutator,
                               compose, concat, format_word, free_reduce,
                               inverse, parse_hom, parse_word, power,
                               substitute)

from conftest import XY, random_word


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
