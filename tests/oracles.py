"""Reference routes kept for the tests: slow, literal, and independent of
the production kernels they check.

* ``ring_iterated_sum``: the chain-sum dynamic programme one ring method
  call per cell, as ``braiding.iterated_sum`` once ran it;
* ``ring_number``: ell_T(w) as a sum of those, term by term;
* the circle model (``CircleWord``, ``CircleForm``, ``pullback_to_circle``,
  ``cobound``, ...) and ``recursive_weight_reduce``: weight reduction by
  the plain pivot recursion, up to 2^(r-1) cups for r forms, each cup one
  ring call per cell; ``circle_polynomial`` sums it over the terms of a
  tensor;
* ``inclusion_exclusion_multi_evaluation``: <T, (w1 - 1)...(wm - 1)> as a
  signed sum over the nonempty subsets of the words, each product word
  concatenated;
* ``cut_pullback``: h^*(T) with every cut of the iterated reduced
  coproduct listed;
* the free group ring and Fox calculus, and ``trunc_mul``, the truncated
  product of series;
* ``sandwich_witness``: the invariance check with every relator sandwich
  listed and multiplied out by ``trunc_mul``;
* ``all_power_dims``: the shapes of A[G]/I^k for every k, with no stop at
  stabilisation;
* ``full_order_depth``: the dimension-series depth read off one expansion
  of the word at the full truncation order, with no degree-one step first;
* ``reference_parse_word``: the word grammar read by a character-by-character
  tokenizer into a token list, then by recursive descent, building each
  letter as a new ``Letter``.

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

Fox calculus order convention: the value attached to a key (i1, ..., ik)
applies the derivative for ik first (innermost) and i1 last, then
augments.  This matches the coefficient of X_{i1}...X_{ik} in the Magnus
expansion.
"""

import itertools
import re

from letterbraid import words
from letterbraid.finite import _convolve
from letterbraid.magnus import TruncSeries, magnus_expand
from letterbraid.presented import DepthReport
from letterbraid.rings import Combination, echelon, elementary_divisors
from letterbraid.tensors import (BraidPolynomial, Functional, TensorElement,
                                 iterated_reduced_coproduct, tensor_product)
from letterbraid.words import _NAME, Letter, ParseError, Word, concat, free_reduce


def ring_iterated_sum(alphas, w, ring):
    """Sum of alpha_1(l_i1) ... alpha_r(l_ir) over chains i1 < i2 < ...,
    where a step out of a negative letter may stay in place."""
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


def ring_block(T, key, w):
    """ell of one pure key on w, through ``ring_iterated_sum``."""
    return ring_iterated_sum(T.functionals(key), w, T.ring)


def ring_number(T, w):
    """ell_T(w), term by term through ``ring_iterated_sum``."""
    ring = T.ring
    total = ring.zero
    for key, c in T.terms.items():
        if key:
            total = ring.add(total, ring.mul(c, ring_block(T, key, w)))
    return total


# ---------------------------------------------------------------------------
# the circle model and weight reduction

class CircleWord:
    """The subdivided circle of a word: letter signs plus boundary maps."""

    def __init__(self, word):
        self.word = word
        self.n = len(word.letters)
        gens, signs = tuple(zip(*word.letters)) or ((), ())
        self.signs = (1,) + signs
        self.gens = (None,) + gens

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

    def __init__(self, ring, f, delta0=None):
        self.ring = ring
        f = [ring.normalize(x) for x in f]
        f[0] = ring.zero
        self.f = tuple(f)
        self.delta0 = ring.zero if delta0 is None else ring.normalize(delta0)

    def __repr__(self):
        return f"CircleForm(f={self.f}, delta0={self.delta0!r})"


def pullback_to_circle(alpha, w, ring):
    """Pull a generator functional back to the circle of a word: f(i) =
    sign(letter i) * alpha(gen of letter i), and no delta0 part."""
    if isinstance(alpha, Functional) and alpha.alphabet != w.alphabet:
        raise ValueError("alphabet mismatch")
    return CircleForm(ring, [ring.zero] + [alpha.coeffs[g] if s == 1 else ring.neg(alpha.coeffs[g])
                                           for g, s in w.letters])


def circle_integral(form):
    """Sum of f over the letter segments: the integral of f dx."""
    return form.ring.sum(form.f[1:])


def cobound(form):
    """The cobounding function g with d(g) = f dx - (integral) * delta0:
    g(j) = -(f(j) + ... + f(n)) for j >= 1 and g(0) = 0.  Raises if the
    form has a delta0 part."""
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
    return tuple(ring.sub(g[circle.end(i)], g[circle.start(i)])
                 for i in range(circle.n + 1))


def _ring_cup(left_f, right_f, circle, ring):
    """-(f(end(i)) + ... + f(n)) * g(i) at each segment i."""
    n = circle.n
    suffix = [ring.zero] * (n + 2)
    for j in range(n, 0, -1):
        suffix[j] = ring.add(suffix[j + 1], right_f[j])
    out = [ring.zero] * (n + 1)
    for i in range(1, n + 1):
        if left_f[i] != ring.zero:
            out[i] = ring.neg(ring.mul(suffix[circle.end(i)], left_f[i]))
    return tuple(out)


def recursive_weight_reduce(factors, circle, ring):
    """The polynomial in t of a list of forms and t factors (None): split
    off delta0 parts, then reduce at the rightmost form until only t
    factors are left, one stack entry per branch."""
    zero = ring.zero
    worklist, split = [(ring.one, tuple(factors))], []
    while worklist:
        coeff, facs = worklist.pop()
        for i, fac in enumerate(facs):
            if fac is not None and fac.delta0 != zero:
                rest_l, rest_r = facs[:i], facs[i + 1:]
                worklist.append((coeff, rest_l + (CircleForm(ring, fac.f),) + rest_r))
                worklist.append((ring.neg(ring.mul(coeff, fac.delta0)),
                                 rest_l + (None,) + rest_r))
                break
        else:
            split.append((coeff, tuple(None if f is None else f.f for f in facs)))
    poly = {}
    stack = split
    while stack:
        coeff, facs = stack.pop()
        d = 0
        while facs and facs[-1] is None:  # trailing t factors are inert
            facs, d = facs[:-1], d + 1
        if not facs:
            poly[d] = ring.add(poly.get(d, zero), coeff)
            continue
        pivot = facs[-1]
        integral = ring.sum(pivot[1:])
        stack.append((ring.mul(coeff, integral), facs[:-1] + (None,) * (d + 1)))
        if len(facs) >= 2:
            if facs[-2] is None:  # t cup d^{-1}(f dx) = -(integral) t
                stack.append((ring.mul(coeff, integral),
                              facs[:-2] + (None,) * (d + 1)))
            else:
                merged = _ring_cup(facs[-2], pivot, circle, ring)
                stack.append((ring.neg(coeff), facs[:-2] + (merged,) + (None,) * d))
    degree = max(poly, default=-1)
    return BraidPolynomial(ring, [poly.get(k, zero) for k in range(degree + 1)])


def circle_polynomial(T, w):
    """L_T(w) on the circle: each term's pulled-back forms reduced by
    ``recursive_weight_reduce``, scaled and summed."""
    ring, circle = T.ring, CircleWord(w)
    poly = BraidPolynomial(ring)
    for key, c in T.terms.items():
        forms = [pullback_to_circle(alpha, w, ring) for alpha in T.functionals(key)]
        poly = poly.add(recursive_weight_reduce(forms, circle, ring).scale(c))
    return poly


def inclusion_exclusion_multi_evaluation(T, words):
    """ell_T(w0 | ... | wn) = sum over nonempty subsets S of the words of
    (-1)^(n+1-|S|) ell_T(product of S): 2^(n+1) - 1 evaluations."""
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
        val = ring_number(T, prod)
        if (m - count) % 2:
            val = ring.neg(val)
        total = ring.add(total, val)
    return total


def cut_pullback(h, T):
    """h^*(T) with every cut listed: the weight-k coefficient at (s1, ..., sk)
    sums, over the cuts (B1, ..., Bk) of ``iterated_reduced_coproduct(T,
    k-1)``, the cut's coefficient times the coefficients of B1, ..., Bk in
    M(h(s1)), ..., M(h(sk))."""
    ring = T.ring
    images = [magnus_expand(img, T.weight + 1, ring) for img in h.images]
    result = TensorElement.unit(ring, h.source, T.counit)
    for k in range(1, T.weight + 1):
        for blocks, c in iterated_reduced_coproduct(T, k - 1).items():
            term = TensorElement.unit(ring, h.source, c)
            for B in blocks:
                term = tensor_product(term, TensorElement(ring, h.source, {
                    (s,): m.coefficient(B) for s, m in enumerate(images)}))
            result = result.add(term)
    return result


# ---------------------------------------------------------------------------
# the free group ring, Fox calculus and the truncated series product

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


def trunc_mul(a, b):
    """Concatenation product of truncated series, truncated at the common
    order."""
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


def sandwich_witness(P, T):
    """``presented.is_invariant`` by listing every sandwich
    m1 * (M(r) - 1) * m2 at order weight(T) + 1, in the order (relator,
    |m1|, |m2|, m1, m2), each built with ``trunc_mul`` and paired with T's
    coefficient functional.  Returns (True, None) or (False, (m1, relator
    index, m2, value)) for the first sandwich that pairs to nonzero."""
    ring, alphabet = T.ring, T.alphabet
    order = T.weight + 1

    def monomial(m):
        return TruncSeries(ring, alphabet, order, {m: ring.one})

    for ri, r in enumerate(P.relators):
        shifted = magnus_expand(r, order, ring).sub(TruncSeries.one(ring, alphabet, order))
        for d1 in range(order - 1):
            for d2 in range(order - 1 - d1):
                for m1 in itertools.product(range(len(alphabet)), repeat=d1):
                    for m2 in itertools.product(range(len(alphabet)), repeat=d2):
                        s = trunc_mul(trunc_mul(monomial(m1), shifted), monomial(m2))
                        value = ring.sum(ring.mul(c, s.coefficient(key))
                                         for key, c in T.terms.items())
                        if value != ring.zero:
                            return False, (m1, ri, m2, value)
    return True, None


def full_order_depth(Q, w):
    """``presented.dimension_depth`` as the lowest degree left in the normal
    form of M(w) - 1 expanded at Q's order, or the bound '>= order' when
    that normal form vanishes."""
    k = Q.filtration_valuation(Q.word_vector(w))
    return DepthReport(Q.order, is_lower_bound=True) if k >= Q.order else DepthReport(k)


def all_power_dims(table, ring, N):
    """``finite.ideal_power_dims`` computing every one of the N powers."""
    n = table.size
    aug_basis = [{g: ring.one, table.identity: ring.neg(ring.one)}
                 for g in range(n) if g != table.identity]
    out = []
    power = echelon(ring, aug_basis)
    for _ in range(N):
        if ring.is_field:
            out.append(n - len(power))
        else:
            divisors = elementary_divisors(power, len(power))
            out.append((n - len(power), tuple(d for d in divisors if d != 1)))
        products = [_convolve(ring, table, v, w) for v in power.values() for w in aug_basis]
        power = echelon(ring, products)
    return out


def reference_tokenize_word(text):
    """(kind, value, position) tokens of the word grammar, one character
    at a time; the budget is read from ``words`` at call time."""
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace() or ch == "*":
            i += 1
            continue
        if ch in "()[],":
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch == "^":
            m = re.match(r"\^(-?\d+)", text[i:])
            if not m:
                raise ParseError("malformed exponent", i)
            try:
                k = int(m.group(1))
            except ValueError:  # more digits than int() converts
                raise ParseError(f"exponent of {len(m.group(1).lstrip('-'))} digits is above "
                                 f"the letter budget of {words.MAX_WORD_LETTERS}", i) from None
            tokens.append(("pow", k, i))
            i += len(m.group(0))
            continue
        m = _NAME.match(text, i)
        if m:
            tokens.append(("name", m.group(0), i))
            i = m.end()
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    return tokens


def reference_parse_word(text, alphabet):
    """``words.parse_word`` by recursive descent over the reference tokens."""
    tokens = reference_tokenize_word(text)
    pos = 0

    def error(msg, at=None):
        where = tokens[at][2] if at is not None and at < len(tokens) else len(text)
        raise ParseError(msg, where)

    def check_budget(count, where):
        if count > words.MAX_WORD_LETTERS:
            raise ParseError(f"word needs {count} letters, above the budget "
                             f"of {words.MAX_WORD_LETTERS}", where)

    def parse_product(stop):
        nonlocal pos
        letters = []
        while pos < len(tokens) and tokens[pos][0] not in stop:
            start = tokens[pos][2]
            letters.extend(parse_item())
            check_budget(len(letters), start)
        return letters

    def parse_item():
        nonlocal pos
        kind, value, tpos = tokens[pos]
        if kind == "name":
            if value not in alphabet.names:
                raise ParseError(f"unknown generator {value!r}", tpos)
            base = [Letter(alphabet.index(value), 1)]
            pos += 1
        elif kind == "(":
            pos += 1
            base = parse_product({")"})
            if pos >= len(tokens) or tokens[pos][0] != ")":
                error("unbalanced parenthesis", pos)
            pos += 1
        elif kind == "[":
            pos += 1
            left = parse_product({",", "]"})
            if pos >= len(tokens) or tokens[pos][0] != ",":
                error("expected ',' in commutator", pos)
            pos += 1
            right = parse_product({"]"})
            if pos >= len(tokens) or tokens[pos][0] != "]":
                error("unbalanced bracket", pos)
            pos += 1
            check_budget(2 * (len(left) + len(right)), tpos)
            inv = lambda ls: [Letter(g, -s) for g, s in reversed(ls)]
            base = left + right + inv(left) + inv(right)
        elif kind == "pow":
            raise ParseError("exponent without a base", tpos)
        else:
            raise ParseError(f"unexpected {kind!r}", tpos)
        if pos < len(tokens) and tokens[pos][0] == "pow":
            k = tokens[pos][1]
            check_budget(len(base) * abs(k), tokens[pos][2])
            pos += 1
            if k >= 0:
                base = base * k
            else:
                base = [Letter(g, -s) for g, s in reversed(base)] * (-k)
        return base

    letters = parse_product(set())
    return Word(alphabet, letters)
