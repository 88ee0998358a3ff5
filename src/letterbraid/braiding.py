"""The free-group evaluation engine: the subdivided-circle cochain model,
the weight-reduction algorithm, the iterated-sum formula, braiding
polynomials and numbers, and multi-evaluations.

Circle model conventions
------------------------
A word of length n subdivides a circle into n+1 segments indexed 0..n with
vertices [n]* = {0,...,n} taken mod n+1.  Segment 0 is the *standard
segment*: it carries no letter and is always oriented forward, from vertex
0 to vertex 1.  Segment i >= 1 carries letter i; a positive letter runs
from vertex i to i+1 (mod n+1), a negative letter the other way.  So the
boundary vertices of segment i are

    positive:  start i,     end i+1 (mod n+1)
    negative:  start i+1,   end i.

Degree-0 and degree-1 cochains are both functions on {0..n}; the
differential is (df)_i = s_i * (f_{end} - f_{start}) written against the
orientation form dx with (dx)_i = s_i for i >= 1 and 0 on the standard
segment.  Every 1-form decomposes uniquely as f dx - a0 * delta0 where
delta0 is the indicator of the standard segment; delta0 is the class
called t, and braiding polynomials live in A[t].

Pulling a generator functional alpha back along the word gives the
function f(i) = s_i * alpha(gen_i): inverse letters pick up a sign.

Weight reduction uses the rightmost non-t factor as its pivot.  One
reduction step replaces the tensor (... | g | f dx | t^d) by

    (integral of f dx) * (... | g | t^{d+1})  -  (... | g', t^d)

where g' = g cup d^{-1}(f dx) is the cup of the left neighbour with the
cobounding function d^{-1}(f dx)_j = -(f(j) + ... + f(n)); trailing t
factors are inert (reducing T|t^d gives reduce(T) * t^d), and the cup of
the cobounding function with a following t vanishes.

Costs
-----
For a word of length n and a pure tensor of weight r, all in native
``int``/``Fraction`` arithmetic, reduced mod p once per layer over F_p:

* ``iterated_sum`` (general functionals) runs the chain-sum table over all
  letters, one row per distinct functional: O(n*r);
* the pure-key routes lay the word out once (``_Letters``; the last
  layout is kept for the next call on the same word) and walk only the
  letters of each factor's generator, sharing the layer of every common
  prefix.  One block costs one O(n) layer, so ``braiding_number``
  is O(n*r) per term and the block table (every contiguous block of a
  key, from which ``multi_evaluation`` and the reconstruction read their
  cuts) O(n*r^2); ``product_check`` walks forward on w1 and backward on w2;
* ``weight_reduce`` makes each merged form once: at most r(r-1)/2 O(n)
  cups, where the plain recursion makes up to 2^(r-1).

``braiding_polynomial`` runs weight reduction and, with ``CROSS_CHECK`` (on
unless Python runs with -O), the reconstruction from the block table as
well.  The check stays on because the two routes share no kernel: one cups
cochains on the circle, the other sums letter chains, so a fault in either
shows as a mismatch on the call that meets it.  Both being O(n*r^2), it
costs about as much as the answer.
"""

from __future__ import annotations

from itertools import accumulate, compress
from operator import add, sub
from typing import NamedTuple

from .tensors import BraidPolynomial, Functional, iterated_reduced_coproduct

# When true, braiding_polynomial recomputes itself through the iterated-sum
# reconstruction identity and raises AssertionError on disagreement.
CROSS_CHECK = __debug__


class CircleWord:
    """The subdivided circle of a word: letter signs plus boundary maps."""

    __slots__ = ("word", "n", "signs", "gens", "tail_len")

    def __init__(self, word):
        self.word = word
        self.n = n = len(word.letters)
        gens, signs = tuple(zip(*word.letters)) or ((), ())
        self.signs = (1,) + signs
        self.gens = (None,) + gens
        # How many segments the tail sum of d^{-1}(f dx) at segment i runs
        # over, counted from segment n down: n+1-end(i), that is n-i, plus
        # one on a negative letter; slot 0 carries no letter.
        self.tail_len = (n + 1, *map(add, range(n - 1, -1, -1), map((-1).__eq__, signs)))

    def start(self, i):
        if self.signs[i] == 1:
            return i
        return (i + 1) % (self.n + 1)

    def end(self, i):
        if self.signs[i] == 1:
            return (i + 1) % (self.n + 1)
        return i


class CircleForm:
    """A 1-cochain on the circle, stored in decomposed form f dx - delta0
    coefficient; ``f`` has length n+1 with the index-0 slot unused."""

    __slots__ = ("ring", "f", "delta0")

    def __init__(self, ring, f, delta0=None):
        self.ring = ring
        f = [ring.normalize(x) for x in f]
        f[0] = ring.zero
        self.f = tuple(f)
        self.delta0 = ring.zero if delta0 is None else ring.normalize(delta0)

    @classmethod
    def canonical(cls, ring, f):
        """A form with no delta0 part from values already canonical in
        ``ring``, f[0] zero included; nothing is normalized again."""
        form = cls.__new__(cls)
        form.ring, form.f, form.delta0 = ring, tuple(f), ring.zero
        return form

    def __repr__(self):
        return f"CircleForm(f={self.f}, delta0={self.delta0!r})"


def pullback_to_circle(alpha, w, ring):
    """Pull a generator functional back to the circle of a word.

    The resulting f has f(i) = sign(letter i) * alpha(gen of letter i) and
    no delta0 part.
    """
    if isinstance(alpha, Functional) and alpha.alphabet != w.alphabet:
        raise ValueError("alphabet mismatch")
    # each generator's two sign-extended values, normalized once
    plus = [ring.normalize(c) for c in alpha.coeffs]
    minus = [ring.normalize(ring.neg(c)) for c in alpha.coeffs]
    return CircleForm.canonical(
        ring, [ring.zero] + [plus[g] if s == 1 else minus[g] for g, s in w.letters])


def circle_integral(form):
    """Sum of f over the letter segments: the integral of f dx."""
    return form.ring.sum(form.f[1:])


def cobound(form):
    """The cobounding function g with d(g) = f dx - (integral) * delta0.

    g(j) = -(f(j) + ... + f(n)) for j >= 1 and g(0) = 0.  Raises if the
    form has a delta0 part.
    """
    ring = form.ring
    if form.delta0 != ring.zero:
        raise ValueError("cobound needs a pure f dx form (zero delta0 part)")
    n = len(form.f) - 1
    g = [ring.zero] * (n + 1)
    acc = ring.zero
    for j in range(n, 0, -1):
        acc = ring.add(acc, form.f[j])
        g[j] = ring.neg(acc)
    return tuple(g)


def apply_differential(g, circle, ring):
    """d of a 0-cochain, as raw 1-cochain values: (dg) on a segment is
    g(end) - g(start); the letter orientation decides which vertex is which."""
    n = circle.n
    return tuple(ring.sub(g[circle.end(i)], g[circle.start(i)])
                 for i in range(n + 1))


def _cup_with_cobound(left_f, right_f, circle, ring):
    """The f part of (g dx) cup d^{-1}(f dx): at segment i the value is
    -(f(end(i)) + ... + f(n)) * g(i), with the empty tail sum read as 0.
    One O(n) pass of native arithmetic, reduced mod p entrywise over F_p."""
    # minus_tail[k] = -(sum of the last k entries of f)
    minus_tail = list(accumulate(reversed(right_f), sub, initial=0))
    p = ring.p
    if p:
        return [minus_tail[k] * g % p for k, g in zip(circle.tail_len, left_f)]
    return [minus_tail[k] * g for k, g in zip(circle.tail_len, left_f)]


def weight_reduce(factors, circle, ring):
    """Reduce a tensor of circle 1-forms to the unique cohomologous
    polynomial in t.

    ``factors`` is a sequence whose entries are either the sentinel None
    (the t factor) or CircleForm instances.  Forms with a delta0 part are
    split linearly into their f dx part and a t multiple first.  The pivot
    is always the rightmost non-t factor.

    The reduction of (f_1 | ... | f_a | M) only depends on a and on the
    block f_{a+1..b} that the form M merges, and M itself only on that
    block, so each merged form, its integral and each such reduction is
    computed once (once per split, when forms carry a delta0 part): at
    most r(r-1)/2 cups and r(r+1)/2 integrals for r factors, against up
    to 2^(r-1) of each by plain recursion.  Only one merged form is held
    at a time.
    """
    zero = ring.zero
    worklist = [(ring.one, tuple(factors))]
    # Split general forms so that every factor is t or a pure f dx form.
    split = []
    while worklist:
        coeff, facs = worklist.pop()
        for i, fac in enumerate(facs):
            if fac is None:
                continue
            if fac.delta0 != zero:
                pure = CircleForm(ring, fac.f)
                rest_l, rest_r = facs[:i], facs[i + 1:]
                worklist.append((coeff, rest_l + (pure,) + rest_r))
                worklist.append((ring.neg(ring.mul(coeff, fac.delta0)),
                                 rest_l + (None,) + rest_r))
                break
        else:
            split.append((coeff, tuple(None if f is None else f.f for f in facs)))

    total = []
    for coeff, facs in split:
        if coeff == zero:
            continue
        # reduced[a]: (facs[0] | ... | facs[a-1]) reduced, as t-coefficients
        reduced = [[1]]
        for b in range(1, len(facs) + 1):
            if facs[b - 1] is None:
                reduced.append([0] + reduced[-1])  # an inert trailing t
                continue
            # Walk the run of forms ending at b-1 leftward.  The pivot step
            # on the merge of facs[a:b] leaves its integral times t times
            # (facs[:a]) reduced; merging the form on the left flips the
            # sign; a t left of the run gives t cup d^{-1}(f dx) =
            # -(integral) * t, which the step's own minus sign turns
            # positive.
            poly = [0] * (b + 1)
            form, a, sign = facs[b - 1], b - 1, 1
            while True:
                c = sign * sum(form)
                if c:
                    for d, x in enumerate(reduced[a], 1):
                        poly[d] += c * x
                if a == 0:
                    break
                if facs[a - 1] is None:
                    if c:
                        for d, x in enumerate(reduced[a - 1], 1):
                            poly[d] += c * x
                    break
                a -= 1
                form = _cup_with_cobound(facs[a], form, circle, ring)
                sign = -sign
            reduced.append(poly)
        total += [0] * (len(reduced[-1]) - len(total))
        for d, x in enumerate(reduced[-1]):
            total[d] += coeff * x
    return BraidPolynomial(ring, [ring.normalize(c) for c in total])


class _Letters:
    """A word laid out for the chain-sum walks of pure keys, shared by every
    term evaluated on it: where each generator's letters sit and their
    signs (built once per generator), and for each pair of consecutive
    factors how many letters of the one a chain can step from onto the
    other."""

    __slots__ = ("gens", "signs", "_where", "_reach")

    def __init__(self, letters):
        self.gens, self.signs = zip(*letters) if letters else ((), ())
        self._where, self._reach = {}, {}

    def where(self, g):
        """(positions, before, signs): the letters of generator g, how many
        of them are among the first i letters for each i, and their signs,
        which are the values of g's dual functional there."""
        entry = self._where.get(g)
        if entry is None:
            mask = list(map(g.__eq__, self.gens))
            entry = self._where[g] = (list(compress(range(len(mask)), mask)),
                                      list(accumulate(mask, initial=0)),
                                      list(compress(self.signs, mask)))
        return entry

    def reach(self, prev, g, forward):
        """For each letter q of g, how many letters of ``prev`` the chain's
        previous factor (in walk order) may sit at: those before q
        (backward: after q), and q itself when it is negative, since a
        negative letter may serve two consecutive factors (the <= rule)."""
        key = (prev, g, forward)
        reach = self._reach.get(key)
        if reach is None:
            before = self.where(prev)[1]
            positions, _, signs = self.where(g)
            if forward:
                reach = [before[q + (s < 0)] for q, s in zip(positions, signs)]
            else:
                total = before[-1]
                reach = [total - before[q + (s > 0)] for q, s in zip(positions, signs)]
            self._reach[key] = reach
        return reach


# The last word laid out, with its letters: calls that evaluate several
# tensors on one word in a row lay it out once.  The letters are an
# immutable tuple held here, so the same object means the same letters.
_last_layout = (None, None)


def _layout(letters):
    global _last_layout
    held, layout = _last_layout
    if held is not letters:
        layout = _Letters(letters)
        _last_layout = (letters, layout)
    return layout


def _chain_values(blocks, letters, ring, forward=True):
    """ell of every block in ``blocks``, a set of nonempty keys that holds
    each block's parent: the block less its last factor (``forward``) or
    less its first (backward).  A block's chain-sum layer is its parent's
    moved one factor on, so the blocks are walked as a trie and each costs
    one O(n) layer, reduced mod p once over F_p."""
    p = ring.p
    values = {}
    path = []  # (block in walk order, layer), root first
    for seq in sorted(blocks if forward else (b[::-1] for b in blocks)):
        while path and path[-1][0] != seq[:-1]:
            path.pop()
        layer = letters.where(seq[-1])[2]
        if path:
            chains = path[-1][1]
            # acc[c]: the sum of the first (backward: last) c chain ends
            acc = [0, *accumulate(chains if forward else reversed(chains))]
            reach = letters.reach(seq[-2], seq[-1], forward)
            if p:
                layer = [acc[c] * v % p for c, v in zip(reach, layer)]
            else:
                layer = [acc[c] * v for c, v in zip(reach, layer)]
        values[seq if forward else seq[::-1]] = ring.normalize(sum(layer))
        path.append((seq, layer))
    return values


def _prefixes(keys):
    return {key[:j] for key in keys for j in range(1, len(key) + 1)}


def _suffixes(keys):
    return {key[s:] for key in keys for s in range(len(key))}


def _blocks(keys):
    """Every contiguous block key[s:j] of the keys: r(r+1)/2 layers per key
    at most, O(n*r^2)."""
    return {key[s:j] for key in keys for s in range(len(key))
            for j in range(s + 1, len(key) + 1)}


def iterated_sum(alphas, w, ring):
    """Letter-braiding number of a pure tensor by dynamic programming.

    Sums the products alpha_1(l_{i1}) ... alpha_r(l_{ir}) over chains
    i1 < i2 < ... of letter positions, where a step out of a negative
    letter is allowed to stay in place (i <= j) while a positive letter
    forces strict increase (i < j).  Letter values are sign-extended.
    O(n*r) native operations on one row per distinct functional; over F_p
    each layer is reduced mod p once.
    """
    if not alphas:
        return ring.one
    for alpha in alphas:
        if isinstance(alpha, Functional) and alpha.alphabet != w.alphabet:
            raise ValueError("alphabet mismatch")
    letters = w.letters
    # acc[reach[i]] sums the chain ends before letter i, and at i itself
    # when it is negative (the <= rule)
    reach = [i + (s < 0) for i, (_, s) in enumerate(letters)]
    p = ring.p
    rows = {}
    layer = None
    for alpha in alphas:
        coeffs = tuple(alpha.coeffs)
        values = rows.get(coeffs)
        if values is None:
            # integral Fractions become ints: the sums stay in native ints
            cs = [c.numerator if c.denominator == 1 else c for c in coeffs]
            values = rows[coeffs] = [cs[g] * s for g, s in letters]
        if layer is None:
            layer = values
            continue
        acc = [0, *accumulate(layer)]
        if p:
            layer = [acc[c] * v % p for c, v in zip(reach, values)]
        else:
            layer = [acc[c] * v for c, v in zip(reach, values)]
    return ring.normalize(sum(layer))


def braiding_number(T, w):
    """ell_T(w): linear in T, computed by the iterated sum per pure term;
    the terms share one layout of the word and their common prefixes."""
    if T.alphabet != w.alphabet:
        raise ValueError("alphabet mismatch")
    return _number(T, _layout(w.letters))


def _number(T, letters):
    ring = T.ring
    values = _chain_values(_prefixes(T.terms), letters, ring)
    total = ring.zero
    for key, c in T.terms.items():
        if key:  # the unit contributes to the constant term only
            total = ring.add(total, ring.mul(c, values[key]))
    return total


def braiding_polynomial(T, w):
    """L_T(w) in A[t], computed by weight reduction on the circle of w.

    With CROSS_CHECK enabled the polynomial is recomputed through the
    reconstruction identity

        L_T(w) = eta(T) + sum_k (ell(w)^{x k+1} applied to the k-fold
                 reduced coproduct of T) * t^{k+1}

    and an AssertionError is raised if the two answers differ.  The check
    stays on by default: it reads every block sum of every term off the
    block table, an independent route to the same numbers at about the
    cost of weight reduction itself.
    """
    if T.alphabet != w.alphabet:
        raise ValueError("alphabet mismatch")
    ring = T.ring
    circle = CircleWord(w)
    forms = {}  # one pulled-back form per generator
    poly = BraidPolynomial.zero(ring)
    for key, c in T.terms.items():
        for g in key:
            if g not in forms:
                forms[g] = pullback_to_circle(T.functionals((g,))[0], w, ring)
        factors = tuple(forms[g] for g in key)
        poly = poly.add(weight_reduce(factors, circle, ring).scale(c))
    # Not an assert: a check switched on must also run under python -O.
    if CROSS_CHECK and poly != _polynomial_by_reconstruction(T, w):
        raise AssertionError(
            "weight reduction disagrees with the coproduct reconstruction")
    return poly


def _cut_sum(T, parts, values):
    """Sum over the cuts of T into ``parts`` blocks of the coefficient times
    the product of the blocks' values; values[i] holds block i's."""
    ring = T.ring
    total = ring.zero
    for blocks, c in iterated_reduced_coproduct(T, parts - 1).items():
        prod = c
        for block, vals in zip(blocks, values):
            prod = ring.mul(prod, vals[block])
        total = ring.add(total, prod)
    return total


def _polynomial_by_reconstruction(T, w):
    values = _chain_values(_blocks(T.terms), _layout(w.letters), T.ring)
    coeffs = [T.counit] + [_cut_sum(T, k, [values] * k)
                           for k in range(1, T.weight + 1)]
    return BraidPolynomial(T.ring, coeffs)


def multi_evaluation(T, words):
    """ell_T(w0 | w1 | ... | wn): the evaluation against the product of the
    shifted words (w0 - 1)...(wn - 1).

    Sums the cuts (B0, ..., Bn) of the n-fold reduced coproduct of T, each
    weighted by ell_{B0}(w0) ... ell_{Bn}(wn), which is zero at once when
    n+1 > weight(T).  Block values come from prefixes on w0, suffixes on
    wn and block tables on the words between: O(n*r^2) per term and word,
    with no concatenation.
    """
    words = list(words)
    if not words:
        raise ValueError("multi_evaluation needs at least one word")
    for w in words:
        if w.alphabet != T.alphabet:
            raise ValueError("alphabet mismatch")
    ring = T.ring
    m = len(words)
    if m > T.weight:
        return ring.zero
    keys = [key for key in T.terms if len(key) >= m]
    values = [_chain_values(_prefixes(keys), _layout(words[0].letters), ring)]
    values += [_chain_values(_blocks(keys), _layout(w.letters), ring) for w in words[1:-1]]
    if m > 1:
        values.append(_chain_values(_suffixes(keys), _layout(words[-1].letters), ring,
                                    forward=False))
    return _cut_sum(T, m, values)


class ProductCheck(NamedTuple):
    """Both sides of the product law, for the test harness."""

    product_value: object   # ell_T(w1 w2)
    additive_part: object   # ell_T(w1) + ell_T(w2)
    coproduct_part: object  # sum of ell_{T1}(w1) ell_{T2}(w2) over the reduced coproduct


def product_check(T, w1, w2):
    """Chen's product law on one split word.  The product value is read on
    the joined letters, with no Word built; the prefixes of the keys are
    evaluated on w1 in one forward walk and their suffixes on w2 in one
    backward walk, and the reduced coproduct pairs each prefix with the
    suffix that completes it."""
    if not T.alphabet == w1.alphabet == w2.alphabet:
        raise ValueError("alphabet mismatch")
    ring = T.ring
    lhs = _number(T, _Letters(w1.letters + w2.letters))
    pre = _chain_values(_prefixes(T.terms), _layout(w1.letters), ring)
    suf = _chain_values(_suffixes(T.terms), _layout(w2.letters), ring, forward=False)
    additive = cross = ring.zero
    for key, c in T.terms.items():
        if not key:
            continue
        additive = ring.add(additive, ring.mul(c, ring.add(pre[key], suf[key])))
        for j in range(1, len(key)):
            cross = ring.add(cross, ring.mul(c, ring.mul(pre[key[:j]], suf[key[j:]])))
    return ProductCheck(lhs, additive, cross)
