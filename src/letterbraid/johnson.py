"""The Johnson filtration modulo a coefficient ring on endomorphisms of a
presented group, and the dual Johnson homomorphism.

An endomorphism sits at level k when every generator image agrees with the
generator to filtration degree k+1 in the truncated quotient ring; at
level k it moves a weight-(k+1) invariant T by a weight-1 amount, and
tau: T -> T - phi^*(T) is the resulting matrix into weight-1 invariants.

An endomorphism is a ``words.GroupHom`` whose source and target are both
the presentation's alphabet (``parse_endo`` reads ``x -> x, y -> x y x^-1``),
and phi^* is ``presented.pullback``, the pullback along any homomorphism.
Levels are reported as ``presented.DepthReport``, like depths.

Endomorphisms are taken on faith as well-defined automorphisms: the only
check performed is that relator images vanish at the truncation order,
reported as a warning when violated.
"""

from __future__ import annotations

import warnings
from collections import namedtuple

from .presented import (DepthReport, build_truncated_quotient, dimension_depth,
                        invariants_basis, pullback)
from .rings import reduce
from .tensors import format_tensor
from .words import Word, concat, format_word, inverse, parse_hom


def parse_endo(text, presentation):
    """Endomorphism syntax: ``x -> x, y -> x y x^-1``."""
    return parse_hom(text, presentation.alphabet, source=presentation.alphabet)


def _moves(P, endo, ring, order):
    """The quotient, each generator's move as the depth of phi(s) s^-1, and the level."""
    if endo.source != P.alphabet or endo.target != P.alphabet:
        raise ValueError("not an endomorphism of the presented group: it maps "
                         f"{endo.source} to {endo.target}, not {P.alphabet} to itself")
    Q = build_truncated_quotient(P, order, ring)
    # M(phi(s)) - M(s) = (M(phi(s) s^-1) - 1) M(s), and M(s) is a unit of
    # the quotient, whose filtration is by two-sided ideals: both sides
    # have the same filtration degree
    depths = [dimension_depth(Q, concat(image, inverse(Word.generator(P.alphabet, i))))
              for i, image in enumerate(endo.images)]
    # Exact depths sort below the bound '>= order'; no generators, no move.
    low = min(depths, default=DepthReport(order, is_lower_bound=True))
    return Q, depths, DepthReport(low.value - 1, low.is_lower_bound)


def johnson_level(P, endo, ring, order):
    """Largest k <= order-2 with every generator moved by filtration degree
    >= k+1; the bound '>= order-1' when all differences vanish at truncation.

    Generators suffice: a ring endomorphism fixing the generator classes
    modulo I^(k+1) fixes the whole truncated quotient ring.  ``endo`` is a
    GroupHom from P's alphabet to itself; anything else is a ValueError.
    """
    return _moves(P, endo, ring, order)[2]


class JohnsonReport(namedtuple("JohnsonReport",
                                "level stage row_labels col_labels matrix ring")):
    """tau at a fixed stage: rows are weight-(k+1) basis invariants (their
    classes modulo lower weight), columns are weight-1 basis invariants."""

    __slots__ = ()

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
    Q, depths, level = _moves(P, endo, ring, order)
    if level.value < stage:
        bad = depths.index(min(depths))
        raise ValueError(
            f"endomorphism has level {level.value} < stage {stage}: generator "
            f"{P.alphabet.names[bad]!r} moves at filtration degree {depths[bad].value}")
    _warn_on_bad_relator_images(P, endo, Q)
    basis = invariants_basis(P, order, ring)
    for elt, w in zip(basis.elements, basis.weights):
        if w <= stage and pullback(endo, elt, Q) != elt:
            raise ValueError(
                "pullback moved an invariant of weight <= stage; tau would "
                "not be well defined modulo lower weight")
    weight1 = [i for i, w in enumerate(basis.weights) if w == 1]
    # Basis vectors are echelon rows with distinct pivots, so the
    # coefficients are unique.
    w1_rows = [basis.vectors[i] for i in weight1]
    w1_pivots = [basis.pivots[i] for i in weight1]
    rows = []
    labels = []
    for elt, w in zip(basis.elements, basis.weights):
        if w != stage + 1:
            continue
        delta = elt.sub(pullback(endo, elt, Q))
        if delta.weight > 1:
            raise ValueError("tau image has weight > 1")
        if delta.counit != ring.zero:
            raise ValueError("tau image has a unit part")
        remainder, coeffs = reduce(ring, w1_rows, w1_pivots, Q.tensor_vector(delta))
        if remainder:
            raise ValueError(
                "tau image is not a combination of weight-1 invariants")
        rows.append(coeffs)
        labels.append(format_tensor(elt))
    return JohnsonReport(level=level, stage=stage, row_labels=labels,
                         col_labels=[format_tensor(basis.elements[i]) for i in weight1],
                         matrix=rows, ring=ring)


def _warn_on_bad_relator_images(P, endo, Q):
    for r in P.relators:
        if Q.normal_form(Q.word_vector(endo.apply(r))):
            warnings.warn(
                f"endomorphism does not kill relator {format_word(r)!r} at "
                f"truncation order {Q.order}; it may not be well defined on the "
                f"group",
                stacklevel=3)
            return
