"""Free-group words over a named alphabet: parsing, free reduction, group
operations, and homomorphisms given on generators (``GroupHom``, parsed
from ``a -> u, b -> v`` by ``parse_hom``) with substitution along them.

Letters are interned: an ``Alphabet`` holds its 2k ``Letter`` objects and
their inverses, every ``Word`` takes its letters from that table, and
inversion and substitution are table lookups, so building a word costs
O(n) dict lookups and no object per letter.  ``parse_word`` reads its text
in one pass of a compiled token regex.

Words keep whatever letter sequence they were built with; nothing reduces
implicitly.  ``free_reduce`` is the only place cancellation happens, so
letter-level algorithms can be exercised on unreduced inputs and invariance
under reduction stays a testable property.
"""

from __future__ import annotations

import re
from collections import namedtuple
from itertools import chain

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

    __slots__ = ("names", "_index", "_letters", "_inverse")

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
        # each (gen, sign) maps to its one Letter, and each Letter to its inverse
        self._letters = {(g, s): Letter(g, s) for g in range(len(names)) for s in (1, -1)}
        self._inverse = {l: self._letters[l.gen, -l.sign] for l in self._letters.values()}

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


class Letter(namedtuple("Letter", "gen sign")):
    __slots__ = ()


class Word:
    """A (not necessarily reduced) sequence of signed generators."""

    __slots__ = ("alphabet", "letters")

    def __init__(self, alphabet, letters=()):
        """``letters`` is any iterable of (gen, sign) pairs: Letters,
        tuples or lists, with 0 <= gen < len(alphabet) and sign +1 or -1."""
        self.alphabet = alphabet
        table = alphabet._letters
        try:
            self.letters = tuple([table[g, s] for g, s in letters])
        except KeyError as exc:
            g, s = exc.args[0]
            if s in (1, -1) or not 0 <= g < len(alphabet):
                raise ValueError(f"letter index {g} out of range") from None
            raise ValueError(f"letter sign must be +1 or -1, got {s}") from None

    @classmethod
    def _of(cls, alphabet, letters):
        """A word on a tuple of letters already taken from the table."""
        w = object.__new__(cls)
        w.alphabet, w.letters = alphabet, letters
        return w

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
    inv = w.alphabet._inverse
    stack = []
    for let in w.letters:
        if stack and stack[-1] == inv[let]:
            stack.pop()
        else:
            stack.append(let)
    return Word._of(w.alphabet, tuple(stack))


def inverse(w):
    return Word._of(w.alphabet, tuple(map(w.alphabet._inverse.__getitem__,
                                          reversed(w.letters))))


def concat(u, v):
    _check_same_alphabet(u, v)
    return Word._of(u.alphabet, u.letters + v.letters)


def commutator(u, v):
    """[u, v] = u v u^-1 v^-1, unreduced."""
    return concat(concat(u, v), concat(inverse(u), inverse(v)))


def power(w, k):
    if k >= 0:
        return Word._of(w.alphabet, w.letters * k)
    return Word._of(w.alphabet, inverse(w).letters * (-k))


class GroupHom(namedtuple("GroupHom", "source target images")):
    """A homomorphism of free groups given on generators: one target word
    per source generator, in order.  An endomorphism has source equal to
    target."""

    __slots__ = ()

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
        table = {}
        for g, img in enumerate(self.images):
            table[g, 1] = img.letters
            table[g, -1] = inverse(img).letters
        out = tuple(chain.from_iterable(map(table.__getitem__, w.letters)))
        return free_reduce(Word._of(self.target, out))


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

# One token per match, after any whitespace and '*': a name, an exponent, a
# bracket or comma, or (group 4) a character no token starts with.  At the
# end of the text the empty \Z branch matches and no group is set.
_TOKEN = re.compile(r"[\s*]*(?:([A-Za-z_][A-Za-z0-9_]*)|(\^-?\d+)|([()\[\],])|(.)|\Z)")


def _scan(text, alphabet):
    """The tokens of ``text`` in one pass: the Letter of each known name,
    the name itself for an unknown one, an int for each exponent, and the
    character for each bracket or comma."""
    index, table = alphabet._index, alphabet._letters
    match = _TOKEN.match
    tokens, pos = [], 0
    while True:
        m = match(text, pos)
        kind = m.lastindex
        if kind is None:
            return tokens
        tok = m.group(kind)
        if kind == 1:
            g = index.get(tok)
            if g is not None:
                tok = table[g, 1]
        elif kind == 2:
            try:
                tok = int(tok[1:])
            except ValueError:  # more digits than int() converts
                digits = len(tok[1:].lstrip("-"))
                raise ParseError(f"exponent of {digits} digits is above the letter budget "
                                 f"of {MAX_WORD_LETTERS}", m.start(kind)) from None
        elif kind == 4:
            raise ParseError("malformed exponent" if tok == "^"
                             else f"unexpected character {tok!r}", m.start(kind))
        tokens.append(tok)
        pos = m.end()


def _position(text, t):
    """Where token t of ``text`` starts; the end of the text past the last
    token.  Only errors need positions, so the scan does not keep them."""
    pos = 0
    for _ in range(t + 1):
        m = _TOKEN.match(text, pos)
        if m.lastindex is None:
            return len(text)
        pos = m.end()
    return m.start(m.lastindex)


def parse_word(text, alphabet):
    """Parse the word grammar.  The result is NOT freely reduced."""
    tokens = _scan(text, alphabet)
    inv = alphabet._inverse
    n, t = len(tokens), 0

    def fail(msg, at):
        raise ParseError(msg, _position(text, at))

    def check_budget(count, at):
        if count > MAX_WORD_LETTERS:
            fail(f"word needs {count} letters, above the budget of {MAX_WORD_LETTERS}", at)

    def product(stop):
        nonlocal t
        letters = []
        while t < n:
            tok, start = tokens[t], t
            if tok.__class__ is Letter:
                base = [tok]
                t += 1
            elif tok in stop:
                break
            else:
                base = item()
            if t < n and tokens[t].__class__ is int:
                k = tokens[t]
                check_budget(len(base) * abs(k), t)
                t += 1
                base = base * k if k >= 0 else [inv[l] for l in reversed(base)] * (-k)
            letters += base
            check_budget(len(letters), start)
        return letters

    def item():
        nonlocal t
        tok, at = tokens[t], t
        t += 1
        if tok == "(":
            base = product((")",))
            if t >= n or tokens[t] != ")":
                fail("unbalanced parenthesis", t)
            t += 1
        elif tok == "[":
            left = product((",", "]"))
            if t >= n or tokens[t] != ",":
                fail("expected ',' in commutator", t)
            t += 1
            right = product(("]",))
            if t >= n or tokens[t] != "]":
                fail("unbalanced bracket", t)
            t += 1
            check_budget(2 * (len(left) + len(right)), at)
            base = (left + right + [inv[l] for l in reversed(left)]
                    + [inv[l] for l in reversed(right)])
        elif tok.__class__ is int:
            fail("exponent without a base", at)
        elif tok in "()[],":  # no name is a substring of these
            fail(f"unexpected {tok!r}", at)
        else:
            fail(f"unknown generator {tok!r}", at)
        return base

    return Word._of(alphabet, tuple(product(())))


def format_word(w):
    """Inverse of parse_word on canonical words: 'x y x^-1' style."""
    parts = []
    for let in w.letters:
        name = w.alphabet.names[let.gen]
        parts.append(name if let.sign == 1 else f"{name}^-1")
    return " ".join(parts)
