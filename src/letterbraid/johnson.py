"""The Johnson filtration modulo a coefficient ring on endomorphisms of a
presented group, and the dual Johnson homomorphism.

An endomorphism sits at level k when every generator image agrees with the
generator to filtration degree k+1 in the truncated quotient ring; at
level k it moves a weight-(k+1) invariant T by a weight-1 amount, and
tau: T -> T - phi^*(T) is the resulting matrix into weight-1 invariants.

Endomorphisms are taken on faith as well-defined automorphisms: the only
check performed is that relator images vanish at the truncation order,
reported as a warning when violated.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import NamedTuple

from .magnus import TruncSeries, magnus_expand
from .presented import (GroupHom, build_truncated_quotient, invariants_basis,
                        pullback)
from .rings import reduce
from .tensors import format_tensor
from .words import Word, parse_word, substitute


@dataclass(frozen=True)
class Endo:
    """Generator images of an endomorphism of the presented group."""

    presentation: object
    images: tuple  # Word per generator, over the same alphabet

    @classmethod
    def from_mapping(cls, presentation, mapping):
        alphabet = presentation.alphabet
        by_index = {}
        for key, img in mapping.items():
            idx = alphabet.index(key) if isinstance(key, str) else key
            if img.alphabet != alphabet:
                raise ValueError("endomorphism image alphabet mismatch")
            by_index[idx] = img
        missing = [alphabet.names[i] for i in range(len(alphabet)) if i not in by_index]
        if missing:
            raise ValueError(f"missing generator image for {missing[0]!r}")
        return cls(presentation, tuple(by_index[i] for i in range(len(alphabet))))

    def as_hom(self):
        alphabet = self.presentation.alphabet
        return GroupHom(alphabet, alphabet, self.images)

    def apply(self, w):
        return substitute(w, {i: self.images[i] for i in range(len(self.images))})


def split_assignments(text):
    """Split 'a -> u, b -> v' on commas outside brackets and parentheses."""
    chunks = []
    depth = 0
    current = []
    for ch in text:
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        if ch == "," and depth == 0:
            chunks.append("".join(current))
            current = []
        else:
            current.append(ch)
    chunks.append("".join(current))
    return [c for c in (chunk.strip() for chunk in chunks) if c]


def parse_endo(text, presentation):
    """Endomorphism syntax: ``x -> x, y -> x y x^-1``."""
    mapping = {}
    for chunk in split_assignments(text):
        if "->" not in chunk:
            raise ValueError(f"expected 'gen -> word' in {chunk!r}")
        name, expr = chunk.split("->", 1)
        name = name.strip()
        if name in mapping:
            raise ValueError(f"duplicate image for {name!r}")
        mapping[name] = parse_word(expr, presentation.alphabet)
    return Endo.from_mapping(presentation, mapping)


def compose(phi, psi):
    """The endomorphism w -> phi(psi(w))."""
    if phi.presentation != psi.presentation:
        raise ValueError("presentation mismatch")
    images = tuple(phi.apply(img) for img in psi.images)
    return Endo(phi.presentation, images)


class LevelReport(NamedTuple):
    value: int
    is_lower_bound: bool = False

    def __str__(self):
        return f">= {self.value}" if self.is_lower_bound else str(self.value)

    def json_value(self):
        return f">= {self.value}" if self.is_lower_bound else self.value

    def at_least(self, k):
        return self.value >= k


def _generator_valuations(P, endo, ring, order):
    Q = build_truncated_quotient(P, order, ring)
    vals = []
    for i in range(len(P.alphabet)):
        gen_word = Word.generator(P.alphabet, i)
        diff = magnus_expand(endo.images[i], order, ring).sub(
            magnus_expand(gen_word, order, ring))
        vals.append(Q.filtration_valuation(Q.series_vector(diff)))
    return Q, vals


def johnson_level(P, endo, ring, order):
    """Largest k <= order-2 with every generator moved by filtration degree
    >= k+1; the bound '>= order-1' when all differences vanish at truncation.

    Generators suffice: a ring endomorphism fixing the generator classes
    modulo I^(k+1) fixes the whole truncated quotient ring.
    """
    _, vals = _generator_valuations(P, endo, ring, order)
    if all(v >= order for v in vals):
        return LevelReport(order - 1, is_lower_bound=True)
    return LevelReport(min(vals) - 1)


@dataclass
class JohnsonReport:
    """tau at a fixed stage: rows are weight-(k+1) basis invariants (their
    classes modulo lower weight), columns are weight-1 basis invariants."""

    level: LevelReport
    stage: int
    row_labels: list
    col_labels: list
    matrix: list
    ring: object

    def is_zero(self):
        return all(v == self.ring.zero for row in self.matrix for v in row)


def johnson_tau(P, endo, stage, ring):
    """The dual Johnson homomorphism of an endomorphism at a given stage.

    Requires level >= stage.  Each weight-(stage+1) basis invariant T is
    sent to T - phi^*(T); the result must have weight <= 1 and is expressed
    in the weight-1 invariant basis.  Lower-weight invariants must be
    fixed, so the matrix depends only on classes modulo lower weight.  Each
    failed requirement raises ValueError.
    """
    order = stage + 2
    Q, vals = _generator_valuations(P, endo, ring, order)
    if not all(v >= stage + 1 for v in vals):
        bad = min(range(len(vals)), key=lambda i: vals[i])
        raise ValueError(
            f"endomorphism has level {min(vals) - 1} < stage {stage}: generator "
            f"{P.alphabet.names[bad]!r} moves at filtration degree {vals[bad]}")
    level = johnson_level(P, endo, ring, order)
    _warn_on_bad_relator_images(P, endo, ring, Q)
    basis = invariants_basis(P, order, ring)
    hom = endo.as_hom()
    lower = [(e, v) for e, w, v in zip(basis.elements, basis.weights, basis.vectors)
             if w <= stage]
    for elt, _ in lower:
        if pullback(hom, elt, Q) != elt:
            raise ValueError(
                "pullback moved an invariant of weight <= stage; tau would "
                "not be well defined modulo lower weight")
    weight1 = [(e, v) for e, w, v in zip(basis.elements, basis.weights, basis.vectors)
               if w == 1]
    # Basis vectors are echelon rows: each one's pivot is its leftmost
    # entry, and the pivots are distinct, so the coefficients are unique.
    w1_rows = [{i: x for i, x in enumerate(v) if x} for _, v in weight1]
    w1_pivots = [min(row) for row in w1_rows]
    rows = []
    labels = []
    for elt, w in zip(basis.elements, basis.weights):
        if w != stage + 1:
            continue
        delta = elt.sub(pullback(hom, elt, Q))
        if delta.weight > 1:
            raise ValueError("tau image has weight > 1")
        if delta.counit != ring.zero:
            raise ValueError("tau image has a unit part")
        remainder, coeffs = reduce(ring, w1_rows, w1_pivots,
                                   {Q.index[k]: x for k, x in delta.terms.items()})
        if remainder:
            raise ValueError(
                "tau image is not a combination of weight-1 invariants")
        rows.append(coeffs)
        labels.append(format_tensor(elt))
    return JohnsonReport(level=level, stage=stage, row_labels=labels,
                         col_labels=[format_tensor(e) for e, _ in weight1],
                         matrix=rows, ring=ring)


def _warn_on_bad_relator_images(P, endo, ring, Q):
    one = TruncSeries.one(ring, P.alphabet, Q.order)
    for r in P.relators:
        image = endo.apply(r)
        shifted = magnus_expand(image, Q.order, ring).sub(one)
        nf = Q.normal_form(Q.series_vector(shifted))
        if any(x != ring.zero for x in nf):
            warnings.warn(
                f"endomorphism does not kill relator {r!r} at truncation "
                f"order {Q.order}; it may not be well defined on the group",
                stacklevel=3)
            return
