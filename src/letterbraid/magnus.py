"""Truncated noncommutative power series and the Magnus expansion.

``presented`` and ``johnson`` read every word through the Magnus
expansion.  On free groups it is also a separate route to the same
numbers as the chain sums in ``braiding``; the test suite plays them
against each other, and against the Fox calculus and the circle model
that it keeps as oracles.
"""

from __future__ import annotations

from .rings import Combination


MONOMIAL_CAP = 200_000


def check_monomial_budget(n_gens, order, weight=None):
    """Raise ValueError when the monomials of degree < order over n_gens
    generators number more than MONOMIAL_CAP, counting at least one per
    degree: each degree costs a slot even over no generators.  The count
    stops at the cap, so a huge order is refused before anything is
    allocated.  ``weight`` is given where a tensor's weight set the order
    (order = weight + 1), and the message then names the weight."""
    count, level = 0, 1
    for _ in range(order):
        count += level or 1
        if count > MONOMIAL_CAP:
            if weight is not None:
                raise ValueError(
                    f"a tensor of weight {weight} over {n_gens} generators needs "
                    f"truncation order {order}, more than the cap of {MONOMIAL_CAP} "
                    "monomials; lower the weight")
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
