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

from .rings import Combination
from .words import Word, free_reduce


MONOMIAL_CAP = 200_000


def check_monomial_budget(n_gens, order):
    """Raise ValueError when the monomials of degree < order over n_gens
    generators number more than MONOMIAL_CAP, counting at least one per
    degree: each degree costs a slot even over no generators.  The count
    stops at the cap, so a huge order is refused before anything is
    allocated."""
    count, level = 0, 1
    for _ in range(order):
        count += level or 1
        if count > MONOMIAL_CAP:
            raise ValueError(
                f"truncation order {order} over {n_gens} generators needs more "
                f"than the cap of {MONOMIAL_CAP} monomials; lower the order")
        level *= n_gens


class TruncSeries(Combination):
    """Noncommutative polynomial of degree < order; keys of length >= order
    are dropped at construction.  Mixed-order arithmetic is an error rather
    than an implicit re-truncation."""

    __slots__ = ("order",)

    def __init__(self, ring, alphabet, order, terms=None):
        # One pass, no per-term hook: every magnus_expand ends in one.
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

    def _shape(self):
        return super()._shape() + (self.order,)

    def _new(self, terms):
        return TruncSeries(self.ring, self.alphabet, self.order, terms)

    def __repr__(self):
        return f"TruncSeries(order={self.order}, {self.terms!r})"


def trunc_mul(a, b):
    """Concatenation product, truncated at the common order.  No production
    path multiplies series; the tests use it as the reference product."""
    a._check(b)
    ring = a.ring
    order = a.order
    out = {}
    for k1, v1 in a.terms.items():
        room = order - len(k1)
        for k2, v2 in b.terms.items():
            if len(k2) < room:
                key = k1 + k2
                out[key] = ring.add(out.get(key, ring.zero), ring.mul(v1, v2))
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
    check_monomial_budget(len(w.alphabet), order)
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

class FreeGroupRingElement(Combination):
    """Finite A-linear combination of freely reduced words, keyed by the
    reduced (gen, sign) letter tuples."""

    __slots__ = ()

    @classmethod
    def from_word(cls, ring, w, coeff=None):
        red = free_reduce(w)
        c = ring.one if coeff is None else coeff
        return cls(ring, w.alphabet, {red.letters: c})

    @classmethod
    def one(cls, ring, alphabet):
        return cls(ring, alphabet, {(): ring.one})

    def words(self):
        return [(Word(self.alphabet, key), val) for key, val in self.terms.items()]


def group_ring_mul(a, b):
    """Convolution product; keys get freely reduced."""
    a._check(b)
    ring = a.ring
    out = {}
    for k1, v1 in a.terms.items():
        for k2, v2 in b.terms.items():
            key = free_reduce(Word(a.alphabet, k1 + k2)).letters
            out[key] = ring.add(out.get(key, ring.zero), ring.mul(v1, v2))
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
            if g == gen:
                prefix, contrib = (key[:j], val) if s == 1 else (key[:j + 1], ring.neg(val))
                out[prefix] = ring.add(out.get(prefix, ring.zero), contrib)
    return FreeGroupRingElement(ring, el.alphabet, out)


def iterated_fox(w, key, ring):
    """epsilon applied to the iterated Fox derivative of a word, in the
    order convention stated at the top of this module."""
    el = FreeGroupRingElement.from_word(ring, w)
    for gen in reversed(tuple(key)):
        el = fox_derivative(el, gen)
    return augment(el)
