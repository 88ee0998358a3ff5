"""Reference routes kept for the tests: slow, literal, and independent of
the production kernels they check.

* ``ring_iterated_sum``: the chain-sum dynamic programme one ring method
  call per cell, as ``braiding.iterated_sum`` once ran it;
* ``ring_number``: ell_T(w) as a sum of those, term by term;
* ``recursive_weight_reduce``: weight reduction by the plain pivot
  recursion, up to 2^(r-1) cups for r forms, each cup one ring call per
  cell;
* ``inclusion_exclusion_multi_evaluation``: <T, (w1 - 1)...(wm - 1)> as a
  signed sum over the nonempty subsets of the words, each product word
  concatenated;
* ``all_power_dims``: the shapes of A[G]/I^k for every k, with no stop at
  stabilisation.
"""

from letterbraid.braiding import CircleForm
from letterbraid.finite import _convolve
from letterbraid.rings import echelon, elementary_divisors
from letterbraid.tensors import BraidPolynomial, Functional
from letterbraid.words import concat


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


def all_power_dims(table, ring, N):
    """``finite.ideal_power_dims`` computing every one of the N powers."""
    n = table.size
    aug_basis = [{g: ring.one, table.identity: ring.neg(ring.one)}
                 for g in range(n) if g != table.identity]
    out = []
    power, _ = echelon(ring, aug_basis)
    for _ in range(N):
        if ring.is_field:
            out.append(n - len(power))
        else:
            divisors = elementary_divisors(power, len(power))
            out.append((n - len(power), tuple(d for d in divisors if d != 1)))
        products = [_convolve(ring, table, v, w) for v in power for w in aug_basis]
        power, _ = echelon(ring, products)
    return out
