"""The tensor coalgebra on generator functionals: nonhomogeneous tensors,
the deconcatenation coproduct and its reduced/iterated variants, weight
filtration, leading terms, and the braiding-polynomial value type.

Convention (load-bearing, used consistently by every evaluation route in
this package): the LEFTMOST tensor factor pairs with the EARLIEST letter
of a word.  Keys are tuples of generator indices, so every element is
expanded over the dual basis; the empty key carries the counit value.
"""

from __future__ import annotations

import re
from collections import namedtuple

from .rings import Combination
from .words import ParseError, _NAME


class Functional(namedtuple("Functional", "alphabet coeffs")):
    """A vector of coefficients indexed by the generators: an element of
    the dual of the free module on the alphabet.  Evaluation on inverse
    letters is sign-extended by the consumers in ``braiding``."""

    __slots__ = ()


def dual_functional(alphabet, ring, gen):
    coeffs = [ring.zero] * len(alphabet)
    coeffs[gen] = ring.one
    return Functional(alphabet, tuple(coeffs))


class TensorElement(Combination):
    """Finite linear combination of generator-index sequences (keys),
    possibly including the empty key."""

    __slots__ = ()

    def _key(self, key):
        key = tuple(key)
        if key and (min(key) < 0 or max(key) >= len(self.alphabet)):
            bad = next(g for g in key if not 0 <= g < len(self.alphabet))
            raise ValueError(f"key index {bad} out of range")
        return key

    @classmethod
    def zero(cls, ring, alphabet):
        return cls(ring, alphabet)

    @classmethod
    def unit(cls, ring, alphabet, value=None):
        return cls(ring, alphabet, {(): ring.one if value is None else value})

    @classmethod
    def from_key(cls, ring, alphabet, key, value=None):
        return cls(ring, alphabet, {tuple(key): ring.one if value is None else value})

    @classmethod
    def from_functionals(cls, ring, alphabet, functionals):
        """A pure tensor of functionals, expanded over the dual basis."""
        elem = cls.unit(ring, alphabet)
        for func in functionals:
            layer = cls(ring, alphabet,
                        {(g,): c for g, c in enumerate(func.coeffs)})
            elem = tensor_product(elem, layer)
        return elem

    @property
    def weight(self):
        return max((len(k) for k in self.terms), default=0)

    @property
    def counit(self):
        return self.terms.get((), self.ring.zero)

    def leading_term(self, n):
        """The homogeneous weight-n part (n = 0 picks out the unit part)."""
        return self._new({k: v for k, v in self.terms.items() if len(k) == n})

    def reduced(self):
        """Drop the unit part."""
        return self._new({k: v for k, v in self.terms.items() if k})

    def functionals(self, key):
        """The pure tensor of dual functionals named by a key."""
        return [dual_functional(self.alphabet, self.ring, g) for g in key]

    def __repr__(self):
        return f"TensorElement({format_tensor(self)!r})"


def tensor_product(a, b):
    """Concatenation of keys, extended bilinearly."""
    a._check(b)
    ring = a.ring
    out = {}
    for k1, v1 in a.terms.items():
        for k2, v2 in b.terms.items():
            key = k1 + k2
            out[key] = ring.add(out.get(key, ring.zero), ring.mul(v1, v2))
    return TensorElement(ring, a.alphabet, out)


def _collect(ring, items):
    """Sum (key, value) pairs by key, dropping the keys that sum to zero."""
    out = {}
    for key, val in items:
        out[key] = ring.add(out.get(key, ring.zero), val)
    return {key: val for key, val in out.items() if val != ring.zero}


def coproduct(T):
    """Deconcatenation coproduct, with both trivial splits included.

    Returns a dict mapping (left_key, right_key) to coefficients, so that
    the value of Delta(T) is the corresponding sum of pure tensor pairs.
    """
    return _collect(T.ring, (((key[:i], key[i:]), val) for key, val in T.terms.items()
                             for i in range(len(key) + 1)))


def reduced_coproduct(T):
    """Deconcatenation with the two trivial splits and the unit part omitted."""
    return iterated_reduced_coproduct(T, 1)


def iterated_reduced_coproduct(T, k):
    """Left-iterated reduced coproduct: a dict mapping (k+1)-tuples of
    nonempty keys to coefficients.  Zero whenever k >= weight(T).

    k = 0 returns the reduced part of T as 1-tuples.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    return _collect(T.ring, ((blocks, val) for key, val in T.terms.items()
                             for blocks in _splits(key, k + 1)))


def _splits(key, parts):
    """All ways to cut a key into `parts` nonempty consecutive blocks."""
    if parts == 1:
        if key:
            yield (key,)
        return
    for i in range(1, len(key) - parts + 2):
        for rest in _splits(key[i:], parts - 1):
            yield (key[:i],) + rest


class BraidPolynomial:
    """Element of A[t]; coefficient list (c0, c1, ...) with trailing zeros
    trimmed.  The linear coefficient is the braiding number."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring, coeffs=()):
        self.ring = ring
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == ring.zero:
            coeffs.pop()
        self.coeffs = tuple(coeffs)

    @classmethod
    def zero(cls, ring):
        return cls(ring)

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else -1

    def coefficient(self, k):
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else self.ring.zero

    @property
    def linear_coefficient(self):
        return self.coefficient(1)

    def __call__(self, value):
        ring = self.ring
        acc = ring.zero
        for c in reversed(self.coeffs):
            acc = ring.add(ring.mul(acc, value), c)
        return acc

    def add(self, other):
        ring = self.ring
        n = max(len(self.coeffs), len(other.coeffs))
        return BraidPolynomial(ring, [ring.add(self.coefficient(i), other.coefficient(i))
                                      for i in range(n)])

    def scale(self, c):
        ring = self.ring
        return BraidPolynomial(ring, [ring.mul(c, x) for x in self.coeffs])

    def shift(self, d):
        """Multiply by t^d."""
        return BraidPolynomial(self.ring, (self.ring.zero,) * d + self.coeffs)

    def __eq__(self, other):
        return (isinstance(other, BraidPolynomial) and self.ring == other.ring
                and self.coeffs == other.coeffs)

    def __repr__(self):
        return f"BraidPolynomial({self.coeffs})"

    def to_strings(self):
        return [self.ring.format(c) for c in self.coeffs]


# ---------------------------------------------------------------------------
# grammar: scalars; generator names denote dual functionals; '|' binds tensor
# factors; '+'/'-' combine; parentheses distribute over '|'.

_NUM = re.compile(r"\d+(/\d+)?")


def _tokenize_tensor(text):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-|()":
            tokens.append((ch, ch, i))
            i += 1
            continue
        m = _NUM.match(text, i)
        if m:
            tokens.append(("num", m.group(0), i))
            i = m.end()
            continue
        m = _NAME.match(text, i)
        if m:
            tokens.append(("name", m.group(0), i))
            i = m.end()
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    return tokens


def parse_tensor(text, alphabet, ring):
    tokens = _tokenize_tensor(text)
    pos = 0

    def parse_sum(stop):
        nonlocal pos
        acc = TensorElement.zero(ring, alphabet)
        seen_term = False
        pending_sign = None
        while pos < len(tokens) and tokens[pos][0] not in stop:
            kind = tokens[pos][0]
            if kind in "+-":
                if pending_sign is not None or (kind == "+" and not seen_term):
                    raise ParseError(f"unexpected {kind!r}", tokens[pos][2])
                pending_sign = -1 if kind == "-" else 1
                pos += 1
                continue
            if seen_term and pending_sign is None and kind in ("num", "name", "("):
                raise ParseError("expected '+', '-' or '|'", tokens[pos][2])
            term = parse_chain(stop)
            if pending_sign == -1:
                term = term.scale(ring.neg(ring.one))
            acc = acc.add(term)
            pending_sign = None
            seen_term = True
        if pending_sign is not None:
            raise ParseError("dangling operator", len(text))
        if not seen_term:
            at = tokens[pos][2] if pos < len(tokens) else len(text)
            raise ParseError("empty tensor expression", at)
        return acc

    def parse_chain(stop):
        nonlocal pos
        result = parse_piece(stop)
        while pos < len(tokens) and tokens[pos][0] == "|":
            pos += 1
            result = tensor_product(result, parse_piece(stop))
        return result

    def parse_piece(stop):
        nonlocal pos
        scalars = []
        while pos < len(tokens) and tokens[pos][0] == "num":
            try:
                scalars.append(ring.parse(tokens[pos][1]))
            except ValueError as exc:
                raise ParseError(str(exc), tokens[pos][2]) from None
            pos += 1
        if pos < len(tokens) and tokens[pos][0] == "name":
            name, tpos = tokens[pos][1], tokens[pos][2]
            if name not in alphabet._index:
                raise ParseError(f"unknown generator {name!r}", tpos)
            elem = TensorElement.from_key(ring, alphabet, (alphabet.index(name),))
            pos += 1
        elif pos < len(tokens) and tokens[pos][0] == "(":
            pos += 1
            elem = parse_sum({")"})
            if pos >= len(tokens) or tokens[pos][0] != ")":
                at = tokens[pos][2] if pos < len(tokens) else len(text)
                raise ParseError("unbalanced parenthesis", at)
            pos += 1
        elif scalars:
            elem = TensorElement.unit(ring, alphabet)
        else:
            at = tokens[pos][2] if pos < len(tokens) else len(text)
            raise ParseError("expected generator, scalar or '('", at)
        for c in scalars:
            elem = elem.scale(c)
        return elem

    return parse_sum(set())


def format_tensor(T):
    """Inverse of parse_tensor on canonical forms: 'x|y + z' style."""
    ring = T.ring
    if not T.terms:
        return "0"
    parts = []
    for key, val in T.sorted_terms():
        body = "|".join(T.alphabet.names[g] for g in key) if key else "1"
        sval = ring.format(val)
        if sval == "1" and key:
            piece = body
        elif sval == "-1" and key:
            piece = f"-{body}"
        elif key:
            piece = f"{sval} {body}"
        else:
            piece = sval
        parts.append(piece)
    out = parts[0]
    for piece in parts[1:]:
        if piece.startswith("-"):
            out += " - " + piece[1:]
        else:
            out += " + " + piece
    return out


def tensor_to_json(T):
    return {"terms": [{"key": [T.alphabet.names[g] for g in key],
                       "coeff": T.ring.format(val)}
                      for key, val in T.sorted_terms()]}


def tensor_from_json(data, alphabet, ring):
    terms = {}
    for item in data["terms"]:
        key = tuple(alphabet.index(n) for n in item["key"])
        val = ring.parse(item["coeff"])
        if key in terms:
            val = ring.add(terms[key], val)
        terms[key] = val
    return TensorElement(ring, alphabet, terms)
