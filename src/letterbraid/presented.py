"""Finitely presented groups: the truncated group ring A[G]/I^N as an
explicit quotient of the span of noncommutative monomials, the invariant
coalgebra up to a weight bound, the invariance test with witnesses,
dimension-series depth, pairing, and pullbacks along homomorphisms.

Vectors on the monomial basis are sparse dicts {monomial index: value},
the rows ``rings.echelon`` and ``rings.reduce`` take.  A word w enters as
the vector of M(w) - 1 (``TruncatedQuotient.word_vector``).

The quotient is presented on the monomial basis below the truncation
order, in graded-lex order, modulo the span of the sandwiched relator
series m1 * (M(r) - 1) * m2 over monomial pairs with
deg(m1) + deg(m2) <= order - 2 (higher sandwiches vanish because
M(r) - 1 has valuation at least one).  A sandwich's entries never
cancel, so each column is built in one pass.

The sandwich columns are sparse rows and are eliminated once, by
``rings.echelon``: reduced echelon rows over a field, Hermite rows over the
integers.  Every answer but invariance (see ``is_invariant``) is read off
those rows.  Normal forms are canonical remainders (``rings.reduce``), so
membership questions are integral.  The filtration degree of a vector is
the lowest monomial degree left in its normal form: monomials are in
graded-lex order, every pivot is its row's leftmost entry and the normal
form is reduced at every pivot, so no element of the span can cancel its
lowest-degree part.  For the same reason the degree <= d part of a normal
form depends on the degree <= d part of the vector alone: a row whose
pivot has degree above d has no entry of degree d or less, and
``rings.reduce`` visits the pivots in increasing column order.  So
``dimension_depth`` decides depth one from the exponent sums (the order-2
expansion), and expands a word to the full order only when its class in
degree one vanishes.  The invariants are the annihilator of the span, read
off its echelon form, and carry the annihilator's pivot columns: which
column of a row is its pivot is decided in ``rings`` alone.  Integer
torsion is reported through elementary divisors, never silently dropped.

Pullbacks are the coalgebra map of a homomorphism h: the coefficient of
h^*(T) at (s1, ..., sk) sums, over the k-fold cuts B1 | ... | Bk of T's
keys (the iterated reduced coproduct), T's coefficient times the product
of the coefficients of Bi in M(h(si)).  The cuts are summed block by
block, never listed.
"""

from __future__ import annotations

import functools
import itertools
from collections import namedtuple

from .magnus import check_monomial_budget, magnus_expand
from .rings import annihilator, echelon, elementary_divisors, reduce
from .tensors import TensorElement, tensor_product
from .words import Alphabet, Word, free_reduce, format_word, parse_word


class Presentation(namedtuple("Presentation", "alphabet relators")):
    """Generators and relators (each relator r imposes r = 1), kept freely
    reduced."""

    __slots__ = ()

    def __new__(cls, alphabet, relators=()):
        reduced = []
        for r in relators:
            if r.alphabet != alphabet:
                raise ValueError("relator alphabet mismatch")
            reduced.append(free_reduce(r))
        return super().__new__(cls, alphabet, tuple(reduced))

    @classmethod
    def free(cls, alphabet):
        return cls(alphabet, ())


def parse_presentation(text):
    """One declaration per line: ``gens: x y z`` then any number of
    ``rel: <word>`` lines.  Blank lines and ``#`` comments are skipped."""
    alphabet = None
    relators = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("gens:"):
            if alphabet is not None:
                raise ValueError(f"line {lineno}: duplicate gens declaration")
            alphabet = Alphabet.parse(line[5:])
        elif line.startswith("rel:"):
            if alphabet is None:
                raise ValueError(f"line {lineno}: rel before gens")
            relators.append(parse_word(line[4:], alphabet))
        else:
            raise ValueError(f"line {lineno}: expected 'gens:' or 'rel:'")
    if alphabet is None:
        raise ValueError("missing gens declaration")
    return Presentation(alphabet, tuple(relators))


def format_presentation(P):
    lines = ["gens: " + " ".join(P.alphabet.names)]
    lines.extend("rel: " + format_word(r) for r in P.relators)
    return "\n".join(lines) + "\n"


def monomials_below(n_gens, order):
    """All generator-index tuples of length < order, in graded-lex order."""
    out = []
    for d in range(order):
        out.extend(itertools.product(range(n_gens), repeat=d))
    return out


class TruncatedQuotient:
    """A[G]/I^order presented by monomials modulo the relator-ideal span."""

    __slots__ = ("ring", "alphabet", "order", "monomials", "index", "columns",
                 "span_rows", "span_pivots", "elementary_divisors")

    def __init__(self, presentation, order, ring):
        if order < 1:
            raise ValueError("order must be >= 1")
        self.ring = ring
        self.alphabet = presentation.alphabet
        self.order = order
        k = len(self.alphabet)
        check_monomial_budget(k, order)
        self.monomials = monomials_below(k, order)
        self.index = index = {m: i for i, m in enumerate(self.monomials)}
        self.columns = []
        for rel in presentation.relators:
            # M(r) always has constant coefficient exactly 1, so M(r) - 1
            # is the positive-degree part of the series.
            shifted = [(key, val) for key, val in
                       magnus_expand(rel, order, ring).terms.items() if key]
            for d1 in range(order - 1):
                for d2 in range(order - 1 - d1):
                    # Distinct keys give distinct m1 + key + m2 and every
                    # value is nonzero, so no entry cancels and a column is
                    # empty exactly when no key fits below the order.
                    fits = [(key, val) for key, val in shifted
                            if len(key) < order - d1 - d2]
                    if not fits:
                        continue
                    for m1 in itertools.product(range(k), repeat=d1):
                        for m2 in itertools.product(range(k), repeat=d2):
                            self.columns.append({index[m1 + key + m2]: val
                                                 for key, val in fits})
        self.span_rows, self.span_pivots = echelon(ring, self.columns)
        self.elementary_divisors = None if ring.is_field else elementary_divisors(
            self.span_rows, min(len(self.columns), len(self.monomials)))

    @property
    def rank(self):
        """Rank of the quotient module (its dimension over a field; the
        rank of the free part over the integers)."""
        return len(self.monomials) - len(self.span_rows)

    @property
    def torsion_divisors(self):
        if self.elementary_divisors is None:
            return ()
        return tuple(d for d in self.elementary_divisors if d not in (0, 1))

    def word_vector(self, w):
        """The sparse vector of M(w) - 1: the expansion of w less its
        constant term, which is always exactly 1."""
        series = magnus_expand(w, self.order, self.ring)
        return {self.index[key]: val for key, val in series.terms.items() if key}

    def tensor_vector(self, T):
        if T.weight >= self.order:
            raise ValueError(f"tensor weight {T.weight} >= truncation order {self.order}")
        return {self.index[key]: val for key, val in T.terms.items()}

    def normal_form(self, vec):
        """Canonical representative of the sparse vector vec modulo the
        relator-ideal span, as a sparse vector."""
        return reduce(self.ring, self.span_rows, self.span_pivots, vec)[0]

    def filtration_valuation(self, vec):
        """Largest k <= order with vec in the image of degree >= k monomials
        plus the relator span; returns order itself when the normal form
        vanishes (meaning: at least the truncation order).  This is the
        lowest monomial degree in the support of the normal form."""
        return min((len(self.monomials[i]) for i in self.normal_form(vec)),
                   default=self.order)


@functools.lru_cache(maxsize=64)
def build_truncated_quotient(P, order, ring):
    return TruncatedQuotient(P, order, ring)


def pair(Q, T, combo):
    """The braiding pairing <T, sum c_i w_i>, computed as T's coefficient
    functional applied to the truncated Magnus expansion of the combination.

    ``combo`` is a Word or an iterable of (coefficient, Word) pairs.  For
    invariant T the value does not depend on the representative words."""
    ring = Q.ring
    if T.ring != ring:
        raise ValueError("ring mismatch")
    if T.weight >= Q.order:
        raise ValueError(f"tensor weight {T.weight} >= truncation order {Q.order}")
    if isinstance(combo, Word):
        combo = [(ring.one, combo)]
    total = ring.zero
    for coeff, w in combo:
        if w.alphabet != Q.alphabet:
            raise ValueError("alphabet mismatch")
        series = magnus_expand(w, Q.order, ring)
        val = ring.sum(ring.mul(c, series.coefficient(key)) for key, c in T.terms.items())
        total = ring.add(total, ring.mul(coeff, val))
    return total


class Witness(namedtuple("Witness", "left relator_index relator right value")):
    """A failed invariance certificate: a sandwich whose pairing with the
    tensor is nonzero, equivalently a multi-evaluation containing a relator.
    ``left`` and ``right`` are the generator indices of the two monomials,
    ``value`` the pairing."""

    __slots__ = ()

    def multi_evaluation_words(self, alphabet):
        ws = [Word.generator(alphabet, g) for g in self.left]
        ws.append(self.relator)
        ws.extend(Word.generator(alphabet, g) for g in self.right)
        return ws


def is_invariant(P, T):
    """Whether T's coefficient functional kills every sandwich
    m1 * (M(r) - 1) * m2 at order weight(T) + 1, with no quotient built: a
    key m1 + mid + m2, mid nonempty, adds T[key] * M(r)[mid] to (r, m1, m2),
    and no other sandwich can be nonzero.  Returns (flag, witness or None),
    the first nonzero sandwich in column order (r, |m1|, |m2|, m1, m2)."""
    ring, order = T.ring, T.weight + 1
    check_monomial_budget(len(P.alphabet), order, T.weight)
    sums = {}
    for ri, rel in enumerate(P.relators):
        series = magnus_expand(rel, order, ring).terms
        for key, c in T.terms.items():
            for i, j in itertools.combinations(range(len(key) + 1), 2):
                if key[i:j] in series:
                    s = (ri, i, len(key) - j, key[:i], key[j:])
                    sums[s] = ring.add(sums.get(s, ring.zero), ring.mul(c, series[key[i:j]]))
    first = min((s for s, val in sums.items() if val != ring.zero), default=None)
    if first is None:
        return True, None
    ri, _, _, m1, m2 = first
    return False, Witness(m1, ri, P.relators[ri], m2, sums[first])


class InvariantBasis:
    """Canonical basis of the invariants of weight <= max_weight.  The
    vectors are the annihilator's sparse echelon rows on the quotient's
    monomial indices, one per element, and ``pivots`` their pivot columns,
    so ``rings.reduce`` can express an invariant in the basis."""

    __slots__ = ("ring", "alphabet", "max_weight", "elements", "weights", "vectors",
                 "pivots", "elementary_divisors")

    def __init__(self, ring, alphabet, max_weight, elements, weights, vectors, pivots,
                 elementary_divisors=None):
        self.ring, self.alphabet, self.max_weight = ring, alphabet, max_weight
        self.elements, self.weights, self.vectors = elements, weights, vectors
        self.pivots = pivots
        self.elementary_divisors = elementary_divisors

    def __len__(self):
        return len(self.elements)


def invariants_basis(P, order, ring):
    """All invariants of weight <= order-1, as the annihilator of the
    relator-ideal span; over the integers this is the saturated annihilator
    lattice (the dual of the free part of the quotient), with the
    elementary divisors attached as a torsion diagnostic."""
    Q = build_truncated_quotient(P, order, ring)
    rows, pivots = annihilator(ring, Q.span_rows, Q.span_pivots, len(Q.monomials))
    elements = [TensorElement(ring, P.alphabet, {Q.monomials[i]: x for i, x in v.items()})
                for v in rows]
    ranked = sorted(range(len(rows)), key=lambda i: (elements[i].weight, pivots[i]))
    return InvariantBasis(ring=ring, alphabet=P.alphabet, max_weight=order - 1,
                          elements=[elements[i] for i in ranked],
                          weights=[elements[i].weight for i in ranked],
                          vectors=[rows[i] for i in ranked],
                          pivots=[pivots[i] for i in ranked],
                          elementary_divisors=Q.elementary_divisors)


class DepthReport(namedtuple("DepthReport", "value is_lower_bound", defaults=(False,))):
    """A filtration degree (dimension-series depth, Johnson level): the
    exact value, or a lower bound reached at the truncation order."""

    __slots__ = ()

    def __str__(self):
        return f">= {self.value}" if self.is_lower_bound else str(self.value)

    def json_value(self):
        return f">= {self.value}" if self.is_lower_bound else self.value

    def at_least(self, k):
        return self.value >= k


def dimension_depth(Q, w):
    """Largest k < order with (w - 1) in I^k, exact; or the bound
    'at least order' when the class of w - 1 vanishes at truncation.

    Degree one is decided first, from the order-2 expansion: the exponent
    sums, which give the class of w - 1 in I/I^2 = H_1(G; A).  This is
    exact because the degree-1 part of a normal form depends on the
    degree-1 part of the vector alone (see the module docstring), and it
    is the *reduced* degree-1 part that is read: x^2 in a group with the
    relator x^2 has exponent sum 2 over Z, and class 0 in degree one.
    Only a word whose class vanishes there is expanded to the full order.
    """
    if w.alphabet != Q.alphabet:
        raise ValueError("alphabet mismatch")
    if Q.order > 2:
        sums = magnus_expand(w, 2, Q.ring).terms
        head = {Q.index[key]: val for key, val in sums.items() if key}
        # All exponent sums zero (a commutator, say): nothing to reduce.
        if head and Q.filtration_valuation(head) == 1:
            return DepthReport(1)
    k = Q.filtration_valuation(Q.word_vector(w))
    if k >= Q.order:
        return DepthReport(Q.order, is_lower_bound=True)
    return DepthReport(k)


def pullback(h, T, Q_target):
    """h^*(T) over the source alphabet.

    The weight-k coefficient at a source sequence (s1,...,sk) is the
    multi-evaluation of T against h(s1) | ... | h(sk): the sum, over the
    cuts (B1, ..., Bk) of T's keys into k blocks, of T's coefficient times
    the coefficients of B1, ..., Bk in M(h(s1)), ..., M(h(sk)).  So a block
    B stands for phi(B) = sum_s coeff(B, M(h(s))) (s), and each key's cuts
    of every length are summed in one pass: row[0] = c and row[j] = sum
    over i < j of row[i] (x) phi(key[i:j]), O(r^2) tensor products for a
    key of weight r.  Satisfies the push-pull identity
    <h^*(T), w> = <T, h(w)>.
    """
    ring = T.ring
    if T.alphabet != Q_target.alphabet:
        raise ValueError("tensor alphabet does not match the target quotient")
    if T.weight >= Q_target.order:
        raise ValueError(f"tensor weight {T.weight} >= truncation order {Q_target.order}")
    images = [magnus_expand(img, T.weight + 1, ring) for img in h.images]
    phi = {}
    result = TensorElement.zero(ring, h.source)
    for key, c in T.terms.items():
        row = [TensorElement.unit(ring, h.source, c)]
        for j in range(1, len(key) + 1):
            acc = TensorElement.zero(ring, h.source)
            for i in range(j):
                block = key[i:j]
                if block not in phi:
                    phi[block] = TensorElement(ring, h.source, {
                        (s,): m.coefficient(block) for s, m in enumerate(images)})
                acc = acc.add(tensor_product(row[i], phi[block]))
            row.append(acc)
        result = result.add(row[-1])
    return result
