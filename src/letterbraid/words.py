"""Free-group words over a named alphabet: parsing, free reduction, group
operations, and homomorphisms given on generators (``GroupHom``, parsed
from ``a -> u, b -> v`` by ``parse_hom``) with substitution along them.

Words keep whatever letter sequence they were built with; nothing reduces
implicitly.  ``free_reduce`` is the only place cancellation happens, so
letter-level algorithms can be exercised on unreduced inputs and invariance
under reduction stays a testable property.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NamedTuple

_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

# Most letters a parsed word may have; checked before a power or commutator
# is expanded, so ((x^1000)^1000)^1000 is refused, not given 10^9 letters.
MAX_WORD_LETTERS = 10 ** 6


class ParseError(ValueError):
    """Syntax error with a character position, for CLI diagnostics."""

    def __init__(self, message, pos):
        super().__init__(f"{message} (position {pos})")
        self.pos = pos


class Alphabet:
    """Ordered list of distinct generator names.  Order indexes tensor
    coordinates, so it is significant."""

    __slots__ = ("names", "_index")

    def __init__(self, names):
        names = tuple(names)
        seen = set()
        for n in names:
            if not _NAME.fullmatch(n):
                raise ValueError(f"bad generator name {n!r}")
            if n in seen:
                raise ValueError(f"duplicate generator {n!r}")
            seen.add(n)
        self.names = names
        self._index = {n: i for i, n in enumerate(names)}

    @classmethod
    def parse(cls, text):
        return cls(text.replace(",", " ").split())

    def index(self, name):
        try:
            return self._index[name]
        except KeyError:
            raise ValueError(f"unknown generator {name!r}") from None

    def __len__(self):
        return len(self.names)

    def __iter__(self):
        return iter(self.names)

    def __eq__(self, other):
        return isinstance(other, Alphabet) and self.names == other.names

    def __hash__(self):
        return hash(self.names)

    def __repr__(self):
        return f"Alphabet({' '.join(self.names)})"


class Letter(NamedTuple):
    gen: int
    sign: int


class Word:
    """A (not necessarily reduced) sequence of signed generators."""

    __slots__ = ("alphabet", "letters")

    def __init__(self, alphabet, letters=()):
        self.alphabet = alphabet
        n = len(alphabet)
        lets = []
        for item in letters:
            g, s = item
            if not 0 <= g < n:
                raise ValueError(f"letter index {g} out of range")
            if s not in (1, -1):
                raise ValueError(f"letter sign must be +1 or -1, got {s}")
            lets.append(Letter(g, s))
        self.letters = tuple(lets)

    @classmethod
    def identity(cls, alphabet):
        return cls(alphabet)

    @classmethod
    def generator(cls, alphabet, gen, sign=1):
        return cls(alphabet, [Letter(gen, sign)])

    def __len__(self):
        return len(self.letters)

    def __eq__(self, other):
        return (isinstance(other, Word) and self.alphabet == other.alphabet
                and self.letters == other.letters)

    def __hash__(self):
        return hash((self.alphabet, self.letters))

    def __repr__(self):
        return f"Word({format_word(self)!r})"


def _check_same_alphabet(u, v):
    if u.alphabet != v.alphabet:
        raise ValueError("alphabet mismatch")


def free_reduce(w):
    """Cancel adjacent inverse pairs until none remain.  Idempotent."""
    stack = []
    for let in w.letters:
        if stack and stack[-1].gen == let.gen and stack[-1].sign == -let.sign:
            stack.pop()
        else:
            stack.append(let)
    return Word(w.alphabet, stack)


def inverse(w):
    return Word(w.alphabet, [Letter(l.gen, -l.sign) for l in reversed(w.letters)])


def concat(u, v):
    _check_same_alphabet(u, v)
    return Word(u.alphabet, u.letters + v.letters)


def commutator(u, v):
    """[u, v] = u v u^-1 v^-1, unreduced."""
    return concat(concat(u, v), concat(inverse(u), inverse(v)))


def power(w, k):
    if k >= 0:
        return Word(w.alphabet, w.letters * k)
    return Word(w.alphabet, inverse(w).letters * (-k))


@dataclass(frozen=True)
class GroupHom:
    """A homomorphism of free groups given on generators: one target word
    per source generator, in order.  An endomorphism has source equal to
    target."""

    source: Alphabet
    target: Alphabet
    images: tuple

    @classmethod
    def from_mapping(cls, source, mapping, target=None):
        """From {generator name or index: image word}; the target defaults
        to the images' common alphabet."""
        by_index = {}
        for key, img in mapping.items():
            idx = source.index(key) if isinstance(key, str) else key
            by_index[idx] = img
        missing = [source.names[i] for i in range(len(source)) if i not in by_index]
        if missing:
            raise ValueError(f"missing generator image for {missing[0]!r}")
        imgs = tuple(by_index[i] for i in range(len(source)))
        tgt = target or (imgs[0].alphabet if imgs else source)
        for img in imgs:
            if img.alphabet != tgt:
                raise ValueError("generator images use different alphabets")
        return cls(source, tgt, imgs)

    def apply(self, w):
        """The freely reduced image of a word over the source."""
        if w.alphabet != self.source:
            raise ValueError("alphabet mismatch")
        out = []
        for gen, sign in w.letters:
            img = self.images[gen].letters
            out.extend(img if sign == 1 else [Letter(g, -s) for g, s in reversed(img)])
        return free_reduce(Word(self.target, out))


def compose(phi, psi):
    """The homomorphism w -> phi(psi(w)), for psi's target phi's source."""
    if psi.target != phi.source:
        raise ValueError("homomorphisms do not compose: target and source differ")
    return GroupHom(psi.source, phi.target, tuple(phi.apply(img) for img in psi.images))


def substitute(w, images):
    """Image of w under the homomorphism sending each generator to a word.

    ``images`` maps generator names (or indices) of w's alphabet to Words
    over a common target alphabet.  The result is freely reduced.
    """
    return GroupHom.from_mapping(w.alphabet, images).apply(w)


def parse_hom(text, target, source=None):
    """A homomorphism from ``a -> u, b -> v`` with words over ``target``.

    Without ``source`` the source generators are the left-hand names, in
    order; with it, every source generator needs exactly one image.
    """
    chunks, depth, start = [], 0, 0
    for i, ch in enumerate(text):  # split on commas outside brackets
        depth += (ch in "([") - (ch in ")]")
        if ch == "," and depth == 0:
            chunks.append(text[start:i])
            start = i + 1
    chunks.append(text[start:])
    mapping = {}
    for chunk in filter(None, map(str.strip, chunks)):
        if "->" not in chunk:
            raise ValueError(f"expected 'gen -> word' in {chunk!r}")
        name, expr = chunk.split("->", 1)
        name = name.strip()
        if name in mapping:
            raise ValueError(f"duplicate image for {name!r}")
        mapping[name] = parse_word(expr, target)
    if source is None:
        source = Alphabet(mapping)
    return GroupHom.from_mapping(source, mapping, target=target)


# ---------------------------------------------------------------------------
# grammar: names, juxtaposition (whitespace or *), ^k powers, [u,v]
# commutators, parentheses; the empty input is the identity.

def _tokenize_word(text):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace() or ch == "*":
            i += 1
            continue
        if ch in "()[],":
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch == "^":
            m = re.match(r"\^(-?\d+)", text[i:])
            if not m:
                raise ParseError("malformed exponent", i)
            try:
                k = int(m.group(1))
            except ValueError:  # more digits than int() converts
                raise ParseError(f"exponent of {len(m.group(1).lstrip('-'))} digits is above "
                                 f"the letter budget of {MAX_WORD_LETTERS}", i) from None
            tokens.append(("pow", k, i))
            i += len(m.group(0))
            continue
        m = _NAME.match(text, i)
        if m:
            tokens.append(("name", m.group(0), i))
            i = m.end()
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    return tokens


def parse_word(text, alphabet):
    """Parse the word grammar.  The result is NOT freely reduced."""
    tokens = _tokenize_word(text)
    pos = 0

    def error(msg, at=None):
        where = tokens[at][2] if at is not None and at < len(tokens) else len(text)
        raise ParseError(msg, where)

    def check_budget(count, where):
        if count > MAX_WORD_LETTERS:
            raise ParseError(f"word needs {count} letters, above the budget "
                             f"of {MAX_WORD_LETTERS}", where)

    def parse_product(stop):
        nonlocal pos
        letters = []
        while pos < len(tokens) and tokens[pos][0] not in stop:
            start = tokens[pos][2]
            letters.extend(parse_item())
            check_budget(len(letters), start)
        return letters

    def parse_item():
        nonlocal pos
        kind, value, tpos = tokens[pos]
        if kind == "name":
            if value not in alphabet._index:
                raise ParseError(f"unknown generator {value!r}", tpos)
            base = [Letter(alphabet.index(value), 1)]
            pos += 1
        elif kind == "(":
            pos += 1
            base = parse_product({")"})
            if pos >= len(tokens) or tokens[pos][0] != ")":
                error("unbalanced parenthesis", pos)
            pos += 1
        elif kind == "[":
            pos += 1
            left = parse_product({",", "]"})
            if pos >= len(tokens) or tokens[pos][0] != ",":
                error("expected ',' in commutator", pos)
            pos += 1
            right = parse_product({"]"})
            if pos >= len(tokens) or tokens[pos][0] != "]":
                error("unbalanced bracket", pos)
            pos += 1
            check_budget(2 * (len(left) + len(right)), tpos)
            inv = lambda ls: [Letter(g, -s) for g, s in reversed(ls)]
            base = left + right + inv(left) + inv(right)
        elif kind == "pow":
            raise ParseError("exponent without a base", tpos)
        else:
            raise ParseError(f"unexpected {kind!r}", tpos)
        if pos < len(tokens) and tokens[pos][0] == "pow":
            k = tokens[pos][1]
            check_budget(len(base) * abs(k), tokens[pos][2])
            pos += 1
            if k >= 0:
                base = base * k
            else:
                base = [Letter(g, -s) for g, s in reversed(base)] * (-k)
        return base

    letters = parse_product(set())
    return Word(alphabet, letters)


def format_word(w):
    """Inverse of parse_word on canonical words: 'x y x^-1' style."""
    parts = []
    for let in w.letters:
        name = w.alphabet.names[let.gen]
        parts.append(name if let.sign == 1 else f"{name}^-1")
    return " ".join(parts)
