"""The free-group evaluation engine: iterated sums, braiding numbers and
polynomials, multi-evaluations and the product-law check, all read off
chain sums over the letters of a word.

Every polynomial and multi-evaluation is a sum over the cuts of a key
into consecutive blocks (Chen's product law, through the iterated reduced
coproduct).  The cuts are never listed: a positional recurrence adds one
block at a time, row[0] = c and row'[j] = sum over i < j of
row[i] * ell(key[i:j]), so after k steps row[r] sums the cuts of a
weight-r key into k blocks.  The circle-model weight reduction that
defines the polynomial lives in the test suite as an oracle.

Costs
-----
For a word of length n and a pure tensor of weight r, all in native
``int``/``Fraction`` arithmetic, reduced mod p once per layer over F_p:

* every route lays the word out once (``_Letters``; the last layout is
  kept for the next call on the same word) and walks only the letters
  where each factor is nonzero, sharing the layer of every common
  prefix.  A factor is a generator for a key of a tensor, or the
  coefficient tuple of a functional for ``iterated_sum``, which walks
  the one key its functionals make.  One block costs one O(n) layer, so
  ``iterated_sum`` and ``braiding_number`` are O(n*r) per term and the
  block table (every contiguous block of a key, from which
  ``multi_evaluation`` and ``braiding_polynomial`` read their cuts)
  O(n*r^2); ``product_check`` walks forward on w1 and backward on w2;
* the cut sums take O(r^2) block lookups per step: O(r^3) per key for a
  polynomial, O(m*r^2) for a multi-evaluation of m words.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import accumulate, compress

from .tensors import BraidPolynomial, Functional


class _Letters:
    """A word laid out for the chain-sum walks, shared by every term
    evaluated on it: where each factor's letters sit, their signs and
    values (built once per factor), and for each pair of consecutive
    factors how many letters of the one a chain can step from onto the
    other.  A factor is a generator index, or the coefficient tuple of a
    general functional."""

    __slots__ = ("gens", "signs", "_where", "_reach")

    def __init__(self, letters):
        self.gens, self.signs = zip(*letters) if letters else ((), ())
        self._where, self._reach = {}, {}

    def where(self, factor):
        """(positions, before, signs, values): the letters where the factor
        is nonzero, how many of them are among the first i letters for each
        i, their signs, and the factor's values there: coefficient times
        sign, which for a generator are the signs themselves."""
        entry = self._where.get(factor)
        if entry is None:
            if isinstance(factor, tuple):
                mask = [factor[g] != 0 for g in self.gens]
                signs = list(compress(self.signs, mask))
                values = [factor[g] * s
                          for g, s in zip(compress(self.gens, mask), signs)]
            else:
                mask = list(map(factor.__eq__, self.gens))
                values = signs = list(compress(self.signs, mask))
            positions = list(compress(range(len(mask)), mask))
            entry = self._where[factor] = (positions, list(accumulate(mask, initial=0)),
                                           signs, values)
        return entry

    def reach(self, prev, g, forward):
        """For each letter q of factor g, how many letters of factor ``prev``
        the chain's previous factor (in walk order) may sit at: those before
        q (backward: after q), and q itself when it is negative, since a
        negative letter may serve two consecutive factors (the <= rule)."""
        key = (prev, g, forward)
        reach = self._reach.get(key)
        if reach is None:
            before = self.where(prev)[1]
            positions, _, signs, _ = self.where(g)
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
        layer = letters.where(seq[-1])[3]
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
    """Letter-braiding number of a pure tensor of functionals.

    Sums the products alpha_1(l_{i1}) ... alpha_r(l_{ir}) over chains
    i1 < i2 < ... of letter positions, where a step out of a negative
    letter is allowed to stay in place (i <= j) while a positive letter
    forces strict increase (i < j).  Letter values are sign-extended.
    This is the chain-sum walk of the key whose factors are the
    functionals' coefficient tuples: O(n*r).
    """
    if not alphas:
        return ring.one
    for alpha in alphas:
        if isinstance(alpha, Functional) and alpha.alphabet != w.alphabet:
            raise ValueError("alphabet mismatch")
    # integral Fractions become ints: the sums stay in native ints
    key = tuple(tuple(c.numerator if c.denominator == 1 else c for c in alpha.coeffs)
                for alpha in alphas)
    return _chain_values(_prefixes([key]), _layout(w.letters), ring)[key]


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
    """L_T(w) in A[t], by the coproduct reconstruction

        L_T(w) = eta(T) + sum_k (ell(w)^{x k} applied to the (k-1)-fold
                 reduced coproduct of T) * t^k,

    its t^k coefficient summing the cuts of each key into k blocks, every
    block read off the block table of w."""
    if T.alphabet != w.alphabet:
        raise ValueError("alphabet mismatch")
    ring = T.ring
    values = _chain_values(_blocks(T.terms), _layout(w.letters), ring)
    coeffs = [T.counit] + [0] * T.weight
    for key, c in T.terms.items():
        row = [c] + [0] * len(key)
        for k in range(1, len(key) + 1):
            row = _cut_step(row, key, values, ring.p)
            coeffs[k] += row[-1]
    return BraidPolynomial(ring, [ring.normalize(x) for x in coeffs])


def _cut_step(row, key, values, p, last=False):
    """Cut one more block off ``key``.  row[i] sums the cuts of key[:i] made
    so far; entry j of the result adds a block key[i:j], valued by
    ``values``, to each of them, for every i < j where row[i] is nonzero.
    With ``last`` only the entry j = len(key) is made, where a cut ends."""
    r = len(key)
    out = [0] * (r + 1)
    for j in (r,) if last else range(1, r + 1):
        s = 0
        for i in range(j):
            if row[i]:
                s += row[i] * values[key[i:j]]
        out[j] = s % p if p else s
    return out


def multi_evaluation(T, words):
    """ell_T(w0 | w1 | ... | wn): the evaluation against the product of the
    shifted words (w0 - 1)...(wn - 1).

    Sums the cuts (B0, ..., Bn) of the n-fold reduced coproduct of T, each
    weighted by ell_{B0}(w0) ... ell_{Bn}(wn), which is zero at once when
    n+1 > weight(T).  One cut step per word: prefixes on w0, block tables
    on the words between and suffixes on wn, O(n*r^2) per term and word,
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
    tables = [_chain_values(_prefixes(keys), _layout(words[0].letters), ring)]
    tables += [_chain_values(_blocks(keys), _layout(w.letters), ring) for w in words[1:-1]]
    if m > 1:
        tables.append(_chain_values(_suffixes(keys), _layout(words[-1].letters), ring,
                                    forward=False))
    total = 0
    for key in keys:
        row = [T.terms[key]] + [0] * len(key)
        for values in tables[:-1]:
            row = _cut_step(row, key, values, ring.p)
        total += _cut_step(row, key, tables[-1], ring.p, last=True)[-1]
    return ring.normalize(total)


class ProductCheck(namedtuple("ProductCheck", "product_value additive_part coproduct_part")):
    """Both sides of the product law, for the test harness: ell_T(w1 w2),
    ell_T(w1) + ell_T(w2), and the sum of ell_{T1}(w1) ell_{T2}(w2) over the
    reduced coproduct of T."""

    __slots__ = ()


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
