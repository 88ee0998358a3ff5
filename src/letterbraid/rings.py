"""Exact coefficient arithmetic over Z, Q and F_p, the sparse linear
combination (``Combination``) that tensors and truncated series share
(and the group-ring elements of the test oracles), and the one sparse
elimination kernel everything else calls: ``echelon`` (reduced echelon
form over a field, row Hermite form over ZZ), ``reduce`` (canonical
remainder and multipliers against such rows) and the Smith divisor chain
of Hermite rows.

Scalars are ordinary Python values: ``int`` for integer and prime-field
coefficients (prime-field residues canonical in ``0..p-1``) and
``fractions.Fraction`` for rationals (always in lowest terms with positive
denominator); Z and Q share the arithmetic ``RingSpec`` defines.  There is
no floating point anywhere in this package.

Vectors and matrix rows are sparse dicts ``{column: nonzero value}``.  Both
echelon forms are canonical for the span, so answers read off them do not
depend on the order in which rows arrive.  ``echelon`` and ``annihilator``
return each row's pivot column, so no other module decides which it is.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction


class RingSpec:
    """A coefficient ring: one of the integers, the rationals, or F_p."""

    kind: str = "?"
    p = None

    def __eq__(self, other):
        return isinstance(other, RingSpec) and self.kind == other.kind and self.p == other.p

    def __hash__(self):
        return hash((self.kind, self.p))

    def __repr__(self):
        if self.kind == "prime-field":
            return f"GF({self.p})"
        return {"integers": "ZZ", "rationals": "QQ"}.get(self.kind, self.kind)

    @property
    def is_field(self):
        return self.kind != "integers"

    # Subclasses provide: zero, one, from_int, invert, parse; the prime
    # field also its own add, sub, mul, neg and format.

    @staticmethod
    def normalize(v):
        """Canonical form of an externally supplied value."""
        return v

    @staticmethod
    def add(a, b):
        return a + b

    @staticmethod
    def sub(a, b):
        return a - b

    @staticmethod
    def mul(a, b):
        return a * b

    @staticmethod
    def neg(a):
        return -a

    @staticmethod
    def format(v):
        return str(v)

    def sum(self, values):
        total = self.zero
        for v in values:
            total = self.add(total, v)
        return total


class IntegerRing(RingSpec):
    kind = "integers"
    zero = 0
    one = 1

    @staticmethod
    def from_int(n):
        return int(n)

    @staticmethod
    def invert(a):
        if a in (1, -1):
            return a
        raise ValueError(f"{a} is not a unit in ZZ")

    @staticmethod
    def parse(text):
        try:
            return int(text)
        except ValueError:
            raise ValueError(f"malformed integer scalar {text!r}") from None


class RationalRing(RingSpec):
    kind = "rationals"
    zero = Fraction(0)
    one = Fraction(1)

    @staticmethod
    def from_int(n):
        return Fraction(n)

    @staticmethod
    def normalize(v):
        return Fraction(v)

    @staticmethod
    def invert(a):
        if a == 0:
            raise ZeroDivisionError("0 is not invertible in QQ")
        return 1 / Fraction(a)

    @staticmethod
    def parse(text):
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"malformed rational scalar {text!r}") from None


# Miller-Rabin on the thirteen prime bases 2..41 decides primality exactly
# below psi_13 (Sorenson and Webster, Math. Comp. 86 (2017)); larger moduli
# are refused rather than guessed at.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_BUDGET = 3317044064679887385961981


def _is_prime(n):
    if n >= PRIME_BUDGET:
        raise ValueError(f"{n} is above the budget for a prime modulus: "
                         f"p must be below {PRIME_BUDGET}")
    if n < 2 or any(n % b == 0 for b in _MR_BASES):
        return n in _MR_BASES
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    # n is a strong probable prime to base b when b^d = 1 or
    # b^(2^r d) = -1 (mod n) for some r < s
    return all(x == 1 or any(pow(x, 2 ** r, n) == n - 1 for r in range(s))
               for x in (pow(b, d, n) for b in _MR_BASES))


class PrimeField(RingSpec):
    kind = "prime-field"
    zero = 0
    one = 1

    def __init__(self, p):
        if not isinstance(p, int) or not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p

    def from_int(self, n):
        return n % self.p

    def normalize(self, v):
        return v % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def invert(self, a):
        a %= self.p
        if a == 0:
            raise ZeroDivisionError(f"0 is not invertible in GF({self.p})")
        return pow(a, self.p - 2, self.p)

    def parse(self, text):
        try:
            return int(text) % self.p
        except ValueError:
            raise ValueError(f"malformed GF({self.p}) scalar {text!r}") from None

    def format(self, v):
        return str(v % self.p)


ZZ = IntegerRing()
QQ = RationalRing()


def ring_from_flag(flag):
    """Translate a CLI ring flag (``z``, ``q`` or ``fp:<p>``) into a RingSpec."""
    flag = flag.strip().lower()
    if flag == "z":
        return ZZ
    if flag == "q":
        return QQ
    if flag.startswith("fp:"):
        try:
            p = int(flag[3:])
        except ValueError:
            raise ValueError(f"bad ring flag {flag!r}") from None
        return PrimeField(p)
    raise ValueError(f"bad ring flag {flag!r}; expected z, q or fp:<p>")


class Combination:
    """A finite linear combination of keys with coefficients in a ring:
    ``terms`` maps keys (tuples) to nonzero ring values.  Instances are
    treated as immutable.

    Tensors and truncated series are such combinations, as are the
    group-ring elements of the test oracles; each subclass adds only what differs: which keys it
    allows (``_key``), any further shape such as a truncation order
    (``_shape``, ``_new``) and its own products.  Operands must have the
    same shape, kind included, and so must elements that compare equal.
    """

    __slots__ = ("ring", "alphabet", "terms")

    def __init__(self, ring, alphabet, terms=None):
        self.ring = ring
        self.alphabet = alphabet
        clean = {}
        for key, val in (terms or {}).items():
            key = self._key(key)
            val = ring.normalize(val)
            if val != ring.zero:
                clean[key] = val
        self.terms = clean

    def _key(self, key):
        return tuple(key)

    def _shape(self):
        return (type(self).__name__, self.ring, self.alphabet)

    def _new(self, terms):
        """An element of the same shape with the given terms."""
        return type(self)(self.ring, self.alphabet, terms)

    def _check(self, other):
        if self._shape() != other._shape():
            raise ValueError(f"operand mismatch: {self._shape()} vs {other._shape()}")

    def coefficient(self, key):
        return self.terms.get(tuple(key), self.ring.zero)

    def is_zero(self):
        return not self.terms

    def add(self, other):
        return self._merge(other, self.ring.add)

    def sub(self, other):
        return self._merge(other, self.ring.sub)

    def _merge(self, other, op):
        self._check(other)
        zero = self.ring.zero
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = op(out.get(k, zero), v)
        return self._new(out)

    def scale(self, c):
        mul = self.ring.mul
        return self._new({k: mul(c, v) for k, v in self.terms.items()})

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: (len(kv[0]), kv[0]))

    def __eq__(self, other):
        return (isinstance(other, Combination) and self._shape() == other._shape()
                and self.terms == other.terms)

    def __repr__(self):
        return f"{type(self).__name__}({self.terms!r})"


# ---------------------------------------------------------------------------
# sparse exact elimination
#
# A row is a dict {column: nonzero value}.  Echelon rows are kept with their
# pivot as their smallest column, so reducing by the row with pivot c only
# touches columns >= c.

def echelon(ring, rows):
    """Canonical echelon basis of the span of sparse rows.

    Over a field this is the reduced row echelon form (pivots 1, every other
    row zero at each pivot column).  Over ZZ it is the row Hermite normal
    form of the row lattice (pivots positive, entries above a pivot in
    ``[0, pivot)``).  Both are unique for the span, so equal spans give
    equal answers.  Returns ``(rows, pivots)``, sorted by pivot column.

    The basis is kept in canonical form after every row, which bounds the
    integer entries by the pivots.
    """
    basis = {}
    for row in rows:
        v = {c: x for c, x in row.items() if x}
        _reduce(ring, v, basis)
        while v:
            c = min(v)
            r = basis.get(c)
            if r is None:
                x = v[c]
                if ring.is_field and x != ring.one:
                    inv = ring.invert(x)
                    v = {k: ring.mul(inv, y) for k, y in v.items()}
                elif not ring.is_field and x < 0:
                    v = {k: -y for k, y in v.items()}
                basis[c] = v
                _settle(ring, basis, c)
                break
            # Over ZZ only: 0 < v[c] < r[c] after reduction.
            a, b = r[c], v[c]
            g, s, t = _xgcd(a, b)
            basis[c] = _combine(s, r, t, v)
            v = _combine(a // g, v, -(b // g), r)
            _settle(ring, basis, c)
            _reduce(ring, v, basis)
    pivots = sorted(basis)
    return [basis[c] for c in pivots], pivots


def _settle(ring, basis, c):
    """Restore canonical form after the row with pivot c changed: reduce
    it by the rows below, then every row above that meets column c."""
    above = sorted((p for p, row in basis.items() if p < c and c in row), reverse=True)
    for p in [c] + above:
        row = basis[p]
        head = row.pop(p)
        _reduce(ring, row, basis)
        basis[p] = {p: head, **row}


def reduce(ring, rows, pivots, vec):
    """Reduce the sparse vector ``vec`` by echelon rows from ``echelon``.

    Returns ``(remainder, multipliers)`` with ``vec = remainder + sum of
    multipliers[i] * rows[i]``.  The remainder is the canonical
    representative of ``vec`` modulo the span: zero at every pivot column
    over a field, in ``[0, pivot)`` there over ZZ.  It is empty exactly
    when ``vec`` lies in the span (over ZZ: in the row lattice).
    """
    v = {c: x for c, x in vec.items() if x}
    mult = _reduce(ring, v, dict(zip(pivots, rows)))
    return v, [mult.get(c, ring.zero) for c in pivots]


def _reduce(ring, v, basis):
    """Reduce ``v`` in place by the echelon rows ``basis`` (pivot -> row),
    pivot columns in increasing order; returns {pivot: multiplier}."""
    field = ring.is_field
    todo = [c for c in v if c in basis]
    heapq.heapify(todo)
    queued = set(todo)
    mult = {}
    while todo:
        c = heapq.heappop(todo)
        x = v.get(c)
        if not x:
            continue
        row = basis[c]
        q = x if field else x // row[c]
        if not q:
            continue
        mult[c] = q
        _subtract(ring, v, q, row)
        for k in row:
            if k not in queued and k in basis:
                queued.add(k)
                heapq.heappush(todo, k)
    return mult


def _subtract(ring, v, q, row):
    """v -= q * row, in place, dropping zeros."""
    for k, y in row.items():
        z = ring.sub(v.get(k, ring.zero), ring.mul(q, y))
        if z:
            v[k] = z
        else:
            v.pop(k, None)


def _combine(s, u, t, v):
    """The integer row s*u + t*v, without zeros."""
    out = {k: s * y for k, y in u.items()}
    for k, y in v.items():
        out[k] = out.get(k, 0) + t * y
    return {k: y for k, y in out.items() if y}


def _xgcd(a, b):
    """(g, s, t) with g = gcd(a, b) > 0 and s*a + t*b = g."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q = a // b
        a, b = b, a - q * b
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if a < 0:
        return -a, -s0, -t0
    return a, s0, t0


def annihilator(ring, rows, pivots, ncols):
    """Canonical basis of {u : u . row = 0 for every row}, for echelon rows
    over ``ncols`` columns: the reduced echelon basis of the kernel over a
    field, the Hermite basis of the kernel lattice over ZZ.  The lattice is
    saturated: every integer solution is an integer combination of it.
    Returns ``(rows, pivots)`` as ``echelon`` does."""
    if ring.is_field:
        # e_f - sum_i row_i[f] e_(pivot_i) for every free column f.
        pivot_set = set(pivots)
        free = {f: {f: ring.one} for f in range(ncols) if f not in pivot_set}
        for row, p in zip(rows, pivots):
            for f, x in row.items():
                if f != p:
                    free[f][p] = ring.neg(x)
        return echelon(ring, free.values())
    # Hermite form of [H^T | I]: its rows that vanish on the H^T part are
    # the Hermite basis of {u : u H^T = 0}, shifted right by rank(H).
    r = len(rows)
    augmented = [{r + j: 1} for j in range(ncols)]
    for i, row in enumerate(rows):
        for j, x in row.items():
            augmented[j][i] = x
    kernel, kpivots = echelon(ring, augmented)
    k = sum(p < r for p in kpivots)  # rows sorted by pivot: the kept ones last
    return ([{c - r: x for c, x in row.items()} for row in kernel[k:]],
            [p - r for p in kpivots[k:]])


def elementary_divisors(rows, length):
    """Smith divisor chain d1 | d2 | ... of the lattice spanned by the
    Hermite rows ``rows`` (``echelon`` over ZZ), padded with zeros to
    ``length``.

    A row with pivot 1 is alone in its column, so it splits off a divisor
    1.  The rest are diagonalised by alternating Hermite forms of the
    matrix and its transpose, and the diagonal is put into divisor order
    by gcd/lcm exchanges.
    """
    rest = [row for row in rows if row[min(row)] != 1]
    while any(len(row) > 1 for row in rest):
        transposed = {}
        for i, row in enumerate(rest):
            for c, x in row.items():
                transposed.setdefault(c, {})[i] = x
        rest, _ = echelon(ZZ, transposed.values())
    diag = [x for row in rest for x in row.values()]
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            g = math.gcd(diag[i], diag[j])
            diag[i], diag[j] = g, diag[i] * diag[j] // g
    return [1] * (len(rows) - len(rest)) + diag + [0] * (length - len(rows))
