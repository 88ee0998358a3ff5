"""Truncated noncommutative power series, the Magnus expansion, the free
group ring, and Fox derivatives.

``presented`` and ``johnson`` read every word through the Magnus
expansion.  On free groups it and the Fox derivatives are also separate
routes to the same numbers as the circle model in ``braiding``; the test
suite plays them against each other.

Order convention for iterated Fox derivatives: the value attached to a key
(i1, ..., ik) applies the derivative for ik first (innermost) and i1 last,
then augments.  This matches the coefficient of X_{i1}...X_{ik} in the
Magnus expansion.
"""

from __future__ import annotations

from .words import Word, free_reduce


class TruncSeries:
    """Noncommutative polynomial of degree < order; keys of length >= order
    are dropped at construction.  Mixed-order arithmetic is an error rather
    than an implicit re-truncation."""

    __slots__ = ("ring", "alphabet", "order", "terms")

    def __init__(self, ring, alphabet, order, terms=None):
        if order < 1:
            raise ValueError("order must be >= 1")
        self.ring = ring
        self.alphabet = alphabet
        self.order = order
        clean = {}
        for key, val in (terms or {}).items():
            key = tuple(key)
            if len(key) >= order:
                continue
            val = ring.normalize(val)
            if val != ring.zero:
                clean[key] = val
        self.terms = clean

    @classmethod
    def zero(cls, ring, alphabet, order):
        return cls(ring, alphabet, order)

    @classmethod
    def one(cls, ring, alphabet, order):
        return cls(ring, alphabet, order, {(): ring.one})

    def coefficient(self, key):
        return self.terms.get(tuple(key), self.ring.zero)

    def is_zero(self):
        return not self.terms

    def _check(self, other):
        if self.ring != other.ring or self.alphabet != other.alphabet:
            raise ValueError("ring or alphabet mismatch")
        if self.order != other.order:
            raise ValueError(f"order mismatch: {self.order} vs {other.order}")

    def add(self, other):
        self._check(other)
        ring = self.ring
        out = dict(self.terms)
        for k, v in other.terms.items():
            s = ring.add(out.get(k, ring.zero), v)
            if s == ring.zero:
                out.pop(k, None)
            else:
                out[k] = s
        return TruncSeries(ring, self.alphabet, self.order, out)

    def sub(self, other):
        return self.add(other.scale(self.ring.neg(self.ring.one)))

    def scale(self, c):
        ring = self.ring
        if c == ring.zero:
            return TruncSeries(ring, self.alphabet, self.order)
        return TruncSeries(ring, self.alphabet, self.order,
                           {k: ring.mul(c, v) for k, v in self.terms.items()})

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: (len(kv[0]), kv[0]))

    def __eq__(self, other):
        return (isinstance(other, TruncSeries) and self.ring == other.ring
                and self.alphabet == other.alphabet and self.order == other.order
                and self.terms == other.terms)

    def __repr__(self):
        return f"TruncSeries(order={self.order}, {self.terms!r})"


def trunc_mul(a, b):
    """Concatenation product, truncated at the common order."""
    a._check(b)
    ring = a.ring
    order = a.order
    out = {}
    for k1, v1 in a.terms.items():
        room = order - len(k1)
        if room <= 0:
            continue
        for k2, v2 in b.terms.items():
            if len(k2) >= room:
                continue
            key = k1 + k2
            s = ring.add(out.get(key, ring.zero), ring.mul(v1, v2))
            if s == ring.zero:
                out.pop(key, None)
            else:
                out[key] = s
    return TruncSeries(ring, a.alphabet, order, out)


def magnus_expand(w, order, ring):
    """Magnus expansion of a word, truncated below the given order.

    Updates one accumulator in place, one dict per key length, at O(#terms)
    per letter.  For x it multiplies by 1 + X: level L adds into level L+1
    under k + (x,), longest level first.  For x^-1 it solves a'(1 + X) = a:
    level L, already final, is subtracted from level L+1, shortest first.
    The two updates are exact inverses, so the result is invariant under
    free reduction.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    zero = ring.zero
    levels = [{(): ring.one}] + [{} for _ in range(order - 1)]
    for gen, sign in w.letters:
        if sign == 1:
            combine, steps = ring.add, range(order - 2, -1, -1)
        else:
            combine, steps = ring.sub, range(order - 1)
        suffix = (gen,)
        for L in steps:
            upper = levels[L + 1]
            for key, val in levels[L].items():
                key += suffix
                s = combine(upper.get(key, zero), val)
                if s == zero:
                    del upper[key]
                else:
                    upper[key] = s
    terms = {key: val for level in levels for key, val in level.items()}
    return TruncSeries(ring, w.alphabet, order, terms)


def series_to_json(s):
    return [{"key": [s.alphabet.names[g] for g in key], "coeff": s.ring.format(val)}
            for key, val in s.sorted_terms()]


# ---------------------------------------------------------------------------
# free group ring and Fox calculus

class FreeGroupRingElement:
    """Finite A-linear combination of freely reduced words, keyed by the
    reduced (gen, sign) letter tuples."""

    __slots__ = ("ring", "alphabet", "terms")

    def __init__(self, ring, alphabet, terms=None):
        self.ring = ring
        self.alphabet = alphabet
        clean = {}
        for key, val in (terms or {}).items():
            key = tuple(key)
            val = ring.normalize(val)
            if val != ring.zero:
                clean[key] = val
        self.terms = clean

    @classmethod
    def from_word(cls, ring, w, coeff=None):
        red = free_reduce(w)
        c = ring.one if coeff is None else coeff
        return cls(ring, w.alphabet, {red.letters: c})

    @classmethod
    def one(cls, ring, alphabet):
        return cls(ring, alphabet, {(): ring.one})

    def add(self, other):
        ring = self.ring
        out = dict(self.terms)
        for k, v in other.terms.items():
            s = ring.add(out.get(k, ring.zero), v)
            if s == ring.zero:
                out.pop(k, None)
            else:
                out[k] = s
        return FreeGroupRingElement(ring, self.alphabet, out)

    def sub(self, other):
        return self.add(other.scale(self.ring.neg(self.ring.one)))

    def scale(self, c):
        ring = self.ring
        if c == ring.zero:
            return FreeGroupRingElement(ring, self.alphabet)
        return FreeGroupRingElement(ring, self.alphabet,
                                    {k: ring.mul(c, v) for k, v in self.terms.items()})

    def words(self):
        return [(Word(self.alphabet, key), val) for key, val in self.terms.items()]

    def __eq__(self, other):
        return (isinstance(other, FreeGroupRingElement) and self.ring == other.ring
                and self.alphabet == other.alphabet and self.terms == other.terms)

    def __repr__(self):
        return f"FreeGroupRingElement({self.terms!r})"


def group_ring_mul(a, b):
    """Convolution product; keys get freely reduced."""
    if a.ring != b.ring or a.alphabet != b.alphabet:
        raise ValueError("ring or alphabet mismatch")
    ring = a.ring
    out = {}
    for k1, v1 in a.terms.items():
        for k2, v2 in b.terms.items():
            key = free_reduce(Word(a.alphabet, k1 + k2)).letters
            s = ring.add(out.get(key, ring.zero), ring.mul(v1, v2))
            if s == ring.zero:
                out.pop(key, None)
            else:
                out[key] = s
    return FreeGroupRingElement(ring, a.alphabet, out)


def augment(el):
    """Sum of coefficients: the map sending every group element to 1."""
    return el.ring.sum(el.terms.values())


def fox_derivative(el, gen):
    """Fox derivative with respect to a generator index, extended linearly.

    On a single word l1...ln it is the sum over positions j with |lj| = gen
    of +(l1...l_{j-1}) for a positive letter and -(l1...lj) for a negative
    one; this encodes d(x)=1, d(x^-1)=-x^-1 and d(uv)=d(u)+u d(v).
    """
    ring = el.ring
    out = {}
    for key, val in el.terms.items():
        for j, (g, s) in enumerate(key):
            if g != gen:
                continue
            if s == 1:
                prefix = key[:j]
                contrib = val
            else:
                prefix = key[:j + 1]
                contrib = ring.neg(val)
            acc = ring.add(out.get(prefix, ring.zero), contrib)
            if acc == ring.zero:
                out.pop(prefix, None)
            else:
                out[prefix] = acc
    return FreeGroupRingElement(ring, el.alphabet, out)


def iterated_fox(w, key, ring):
    """epsilon applied to the iterated Fox derivative of a word, in the
    order convention stated at the top of this module."""
    el = FreeGroupRingElement.from_word(ring, w)
    for gen in reversed(tuple(key)):
        el = fox_derivative(el, gen)
    return augment(el)
