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
"""

from __future__ import annotations

from typing import NamedTuple

from .tensors import (BraidPolynomial, Functional,
                      iterated_reduced_coproduct, reduced_coproduct)
from .words import Word, concat

# When true, braiding_polynomial recomputes itself through the iterated-sum
# reconstruction identity and raises AssertionError on disagreement.
CROSS_CHECK = __debug__


class CircleWord:
    """The subdivided circle of a word: letter signs plus boundary maps."""

    __slots__ = ("word", "n", "signs", "gens")

    def __init__(self, word):
        self.word = word
        self.n = len(word.letters)
        self.signs = (1,) + tuple(l.sign for l in word.letters)
        self.gens = (None,) + tuple(l.gen for l in word.letters)

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

    def __repr__(self):
        return f"CircleForm(f={self.f}, delta0={self.delta0!r})"


def pullback_to_circle(alpha, w, ring):
    """Pull a generator functional back to the circle of a word.

    The resulting f has f(i) = sign(letter i) * alpha(gen of letter i) and
    no delta0 part.
    """
    if isinstance(alpha, Functional) and alpha.alphabet != w.alphabet:
        raise ValueError("alphabet mismatch")
    f = [ring.zero]
    for let in w.letters:
        c = alpha.coeffs[let.gen]
        f.append(c if let.sign == 1 else ring.neg(c))
    return CircleForm(ring, f)


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
    -(f(end(i)) + ... + f(n)) * g(i), with the empty tail sum read as 0."""
    n = circle.n
    suffix = [ring.zero] * (n + 2)
    for j in range(n, 0, -1):
        suffix[j] = ring.add(suffix[j + 1], right_f[j])
    out = [ring.zero] * (n + 1)
    for i in range(1, n + 1):
        g = left_f[i]
        if g == ring.zero:
            continue
        out[i] = ring.neg(ring.mul(suffix[circle.end(i)], g))
    return tuple(out)


def weight_reduce(factors, circle, ring):
    """Reduce a tensor of circle 1-forms to the unique cohomologous
    polynomial in t.

    ``factors`` is a sequence whose entries are either the sentinel None
    (the t factor) or CircleForm instances.  Forms with a delta0 part are
    split linearly into their f dx part and a t multiple first.  The pivot
    is always the rightmost non-t factor.
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

    poly = {}

    def accumulate(deg, c):
        s = ring.add(poly.get(deg, zero), c)
        if s == zero:
            poly.pop(deg, None)
        else:
            poly[deg] = s

    stack = split
    while stack:
        coeff, facs = stack.pop()
        if coeff == zero:
            continue
        # Strip the inert t suffix.
        d = 0
        while facs and facs[-1] is None:
            facs = facs[:-1]
            d += 1
        if not facs:
            accumulate(d, coeff)
            continue
        pivot = facs[-1]
        integral = ring.sum(pivot[1:])
        if integral != zero:
            stack.append((ring.mul(coeff, integral),
                          facs[:-1] + (None,) * (d + 1)))
        if len(facs) >= 2:
            left = facs[-2]
            if left is None:
                # t cup d^{-1}(f dx) = -(integral) * t, and the reduction
                # step carries a minus sign of its own.
                if integral != zero:
                    stack.append((ring.mul(coeff, integral),
                                  facs[:-2] + (None,) * (d + 1)))
            else:
                merged = _cup_with_cobound(left, pivot, circle, ring)
                stack.append((ring.neg(coeff), facs[:-2] + (merged,) + (None,) * d))
        # The d^{-1}(f dx) cup t term on the right vanishes identically.
    degree = max(poly, default=-1)
    return BraidPolynomial(ring, [poly.get(k, zero) for k in range(degree + 1)])


def iterated_sum(alphas, w, ring):
    """Letter-braiding number of a pure tensor by dynamic programming.

    Sums the products alpha_1(l_{i1}) ... alpha_r(l_{ir}) over chains
    i1 < i2 < ... of letter positions, where a step out of a negative
    letter is allowed to stay in place (i <= j) while a positive letter
    forces strict increase (i < j).  Letter values are sign-extended.
    O(n*r) time.
    """
    letters = w.letters
    n = len(letters)
    r = len(alphas)
    if r == 0:
        return ring.one
    zero = ring.zero
    values = []
    for alpha in alphas:
        if isinstance(alpha, Functional) and alpha.alphabet != w.alphabet:
            raise ValueError("alphabet mismatch")
        row = [zero]
        for let in letters:
            c = alpha.coeffs[let.gen]
            row.append(c if let.sign == 1 else ring.neg(c))
        values.append(row)
    # layer[i] = sum over chains for the first depth factors ending at i
    layer = values[0][:]
    for depth in range(1, r):
        nxt = [zero] * (n + 1)
        prefix = zero  # sum of layer over positions strictly before i
        for i in range(1, n + 1):
            reachable = prefix
            if letters[i - 1].sign == -1:
                reachable = ring.add(reachable, layer[i])
            v = values[depth][i]
            if v != zero and reachable != zero:
                nxt[i] = ring.mul(reachable, v)
            prefix = ring.add(prefix, layer[i])
        layer = nxt
    return ring.sum(layer[1:])


def braiding_number(T, w):
    """ell_T(w): linear in T, computed by the iterated sum per pure term."""
    if T.alphabet != w.alphabet:
        raise ValueError("alphabet mismatch")
    ring = T.ring
    total = ring.zero
    for key, c in T.terms.items():
        if not key:
            continue  # the unit contributes to the constant term only
        val = iterated_sum(T.functionals(key), w, ring)
        total = ring.add(total, ring.mul(c, val))
    return total


def braiding_polynomial(T, w):
    """L_T(w) in A[t], computed by weight reduction on the circle of w.

    With CROSS_CHECK enabled the polynomial is recomputed through the
    reconstruction identity

        L_T(w) = eta(T) + sum_k (ell(w)^{x k+1} applied to the k-fold
                 reduced coproduct of T) * t^{k+1}

    and an AssertionError is raised if the two answers differ.
    """
    if T.alphabet != w.alphabet:
        raise ValueError("alphabet mismatch")
    ring = T.ring
    circle = CircleWord(w)
    poly = BraidPolynomial.zero(ring)
    for key, c in T.terms.items():
        factors = tuple(pullback_to_circle(a, w, ring) for a in T.functionals(key))
        poly = poly.add(weight_reduce(factors, circle, ring).scale(c))
    # Not an assert: a check switched on must also run under python -O.
    if CROSS_CHECK and poly != _polynomial_by_reconstruction(T, w):
        raise AssertionError(
            "weight reduction disagrees with the coproduct reconstruction")
    return poly


def _polynomial_by_reconstruction(T, w):
    ring = T.ring
    # Blocks (sub-keys of T's terms) repeat across splits: one sum per block.
    sums = {}
    coeffs = {0: T.counit}
    for k in range(T.weight):
        total = ring.zero
        for keys, c in iterated_reduced_coproduct(T, k).items():
            prod = c
            for key in keys:
                if prod == ring.zero:
                    break
                val = sums.get(key)
                if val is None:
                    val = sums[key] = iterated_sum(T.functionals(key), w, ring)
                prod = ring.mul(prod, val)
            total = ring.add(total, prod)
        coeffs[k + 1] = total
    degree = max(coeffs)
    return BraidPolynomial(ring, [coeffs.get(i, ring.zero) for i in range(degree + 1)])


def multi_evaluation(T, words):
    """ell_T(w0 | w1 | ... | wn): the evaluation against the product of the
    shifted words (w0 - 1)...(wn - 1), computed by inclusion-exclusion over
    nonempty subsets of the factors."""
    words = list(words)
    if not words:
        raise ValueError("multi_evaluation needs at least one word")
    for w in words:
        if w.alphabet != T.alphabet:
            raise ValueError("alphabet mismatch")
    ring = T.ring
    m = len(words)
    total = ring.zero
    for mask in range(1, 1 << m):
        prod = None
        count = 0
        for i in range(m):
            if mask >> i & 1:
                prod = words[i] if prod is None else concat(prod, words[i])
                count += 1
        val = braiding_number(T, prod)
        if (m - count) % 2:
            val = ring.neg(val)
        total = ring.add(total, val)
    return total


class ProductCheck(NamedTuple):
    """Both sides of the product law, for the test harness."""

    product_value: object   # ell_T(w1 w2)
    additive_part: object   # ell_T(w1) + ell_T(w2)
    coproduct_part: object  # sum of ell_{T1}(w1) ell_{T2}(w2) over the reduced coproduct


def product_check(T, w1, w2):
    ring = T.ring
    lhs = braiding_number(T, concat(w1, w2))
    additive = ring.add(braiding_number(T, w1), braiding_number(T, w2))
    cross = ring.zero
    for (k1, k2), c in reduced_coproduct(T).items():
        v1 = iterated_sum(T.functionals(k1), w1, ring)
        if v1 == ring.zero:
            continue
        v2 = iterated_sum(T.functionals(k2), w2, ring)
        cross = ring.add(cross, ring.mul(c, ring.mul(v1, v2)))
    return ProductCheck(lhs, additive, cross)
