"""Brute-force ground truth for finite groups: the literal group algebra,
augmentation-ideal powers, and dimension counts from an explicit
multiplication table.  No coset enumeration anywhere; tables come in ready
made (cyclic arithmetic, direct products, unitriangular matrices) or as
JSON through the CLI.
"""

from __future__ import annotations

from .rings import echelon, elementary_divisors


class FiniteGroupTable:
    """A finite group as a size x size index table plus generator labels."""

    __slots__ = ("size", "mul", "identity", "gens", "inverse")

    def __init__(self, size, mul, gens):
        self.size = size
        self.mul = [list(row) for row in mul]
        self.gens = dict(gens)
        if len(self.mul) != size or any(len(row) != size for row in self.mul):
            raise ValueError("multiplication table has the wrong shape")
        for row in self.mul:
            for v in row:
                if not 0 <= v < size:
                    raise ValueError("table entry out of range")
        idents = [e for e in range(size)
                  if all(self.mul[e][g] == g and self.mul[g][e] == g for g in range(size))]
        if len(idents) != 1:
            raise ValueError("table does not have a unique identity")
        self.identity = idents[0]
        inv = [None] * size
        for g in range(size):
            partners = [h for h in range(size) if self.mul[g][h] == self.identity]
            if len(partners) != 1 or self.mul[partners[0]][g] != self.identity:
                raise ValueError(f"element {g} has no two-sided inverse")
            inv[g] = partners[0]
        self.inverse = inv
        for name, idx in self.gens.items():
            if not 0 <= idx < size:
                raise ValueError(f"generator {name!r} labels a bad index")
        # Light's test: the s with (a s) b = a (s b) for all a, b are closed under
        # products, so the generators and what their right products miss suffice.
        gens = sorted(set(self.gens.values()))
        reached, frontier = set(gens), gens
        while frontier:
            frontier = {self.mul[a][g] for a in frontier for g in gens} - reached
            reached |= frontier
        for s in gens + [s for s in range(size) if s not in reached]:
            for a, row in enumerate(self.mul):
                for b in range(size):
                    if self.mul[row[s]][b] != row[self.mul[s][b]]:
                        raise ValueError(f"table is not associative at ({a},{s},{b})")

    @classmethod
    def from_json(cls, data):
        """A table from its JSON object; malformed input raises ValueError."""
        if not isinstance(data, dict):
            raise ValueError("table JSON must be an object")
        missing = [key for key in ("size", "mul", "gens") if key not in data]
        if missing:
            raise ValueError(f"table JSON lacks {missing[0]!r}")
        size, mul, gens = data["size"], data["mul"], data["gens"]
        if not _is_int(size) or size < 1:
            raise ValueError("table 'size' must be a positive integer")
        if not isinstance(mul, list) or not all(
                isinstance(row, list) and all(_is_int(v) for v in row) for row in mul):
            raise ValueError("table 'mul' must be a list of integer rows")
        if not isinstance(gens, dict) or not all(_is_int(v) for v in gens.values()):
            raise ValueError("table 'gens' must map generator names to integers")
        return cls(size, mul, gens)

    def to_json(self):
        return {"size": self.size, "mul": [list(r) for r in self.mul],
                "gens": dict(self.gens)}


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def word_image(table, w):
    """Evaluate a word in the finite group; every generator must be labeled."""
    for name in w.alphabet.names:
        if name not in table.gens:
            raise ValueError(f"generator {name!r} is not labeled in the table")
    acc = table.identity
    for let in w.letters:
        g = table.gens[w.alphabet.names[let.gen]]
        if let.sign == -1:
            g = table.inverse[g]
        acc = table.mul[acc][g]
    return acc


def _convolve(ring, table, u, v):
    """Product of two sparse group-algebra elements {element: coefficient}."""
    out = {}
    for g, a in u.items():
        row = table.mul[g]
        for h, b in v.items():
            k = row[h]
            out[k] = ring.add(out.get(k, ring.zero), ring.mul(a, b))
    return out


# Most ideal powers ideal_power_dims reports, for any ring; over the
# integers, where the powers need not settle (in Z[C2], I^k = 2^(k-1) I) and
# each one costs about size^3 work, also the most order * size^3.  Both are
# checked before any power is computed.
MAX_POWER_ORDER = 10_000
MAX_INTEGER_POWER_WORK = 500_000


def ideal_power_dims(table, ring, N):
    """Shapes of A[G]/I^k for k = 1..N by literal linear algebra.

    Over a field: a list of dimensions.  They are constant from the first k
    with I^k = I^(k+1) on, so the powers stop there.  Over the integers: a
    list of (free rank, elementary divisors of I^k) pairs, every power
    computed, since nothing need settle.  N is checked against the budgets
    first.
    """
    n = table.size
    if N < 1:
        raise ValueError("order must be >= 1")
    if N > MAX_POWER_ORDER:
        raise ValueError(f"order {N} is above the budget of "
                         f"{MAX_POWER_ORDER} ideal powers")
    if not ring.is_field and N * n ** 3 > MAX_INTEGER_POWER_WORK:
        raise ValueError(
            f"order {N} on a table of size {n} is above the integer budget: "
            f"order * size^3 must stay within {MAX_INTEGER_POWER_WORK}")
    aug_basis = [{g: ring.one, table.identity: ring.neg(ring.one)}
                 for g in range(n) if g != table.identity]
    out = []
    power, _ = echelon(ring, aug_basis)
    while len(out) < N:
        if ring.is_field:
            out.append(n - len(power))
        else:
            divisors = elementary_divisors(power, len(power))
            out.append((n - len(power), tuple(d for d in divisors if d != 1)))
        products = [_convolve(ring, table, v, w) for v in power for w in aug_basis]
        nxt, _ = echelon(ring, products)
        if ring.is_field and len(nxt) == len(power):
            out += out[-1:] * (N - len(out))  # I^(k+1) = I^k from here on
        power = nxt
    return out


# ---------------------------------------------------------------------------
# direct table constructors (kept trivially correct)

def cyclic_table(n, gen_name="x"):
    mul = [[(a + b) % n for b in range(n)] for a in range(n)]
    return FiniteGroupTable(n, mul, {gen_name: 1 % n})


def direct_product_table(t1, t2, rename=None):
    """Direct product; generators are t1's paired with t2's identity and
    vice versa, renamed via the optional mapping."""
    n1, n2 = t1.size, t2.size
    size = n1 * n2

    def enc(a, b):
        return a * n2 + b

    mul = [[0] * size for _ in range(size)]
    for a1 in range(n1):
        for b1 in range(n2):
            for a2 in range(n1):
                for b2 in range(n2):
                    mul[enc(a1, b1)][enc(a2, b2)] = enc(t1.mul[a1][a2], t2.mul[b1][b2])
    gens = {}
    for name, idx in t1.gens.items():
        gens[name] = enc(idx, t2.identity)
    for name, idx in t2.gens.items():
        gens[name] = enc(t1.identity, idx)
    if rename:
        gens = {rename.get(k, k): v for k, v in gens.items()}
    return FiniteGroupTable(size, mul, gens)


def heisenberg_table(p=2):
    """Upper unitriangular 3x3 matrices over F_p; generators x = E12,
    y = E23, z = E13."""
    elems = [(a, b, c) for a in range(p) for b in range(p) for c in range(p)]
    index = {e: i for i, e in enumerate(elems)}

    def mul3(m1, m2):
        a1, b1, c1 = m1
        a2, b2, c2 = m2
        return ((a1 + a2) % p, (b1 + b2) % p, (c1 + c2 + a1 * b2) % p)

    size = len(elems)
    mul = [[index[mul3(e1, e2)] for e2 in elems] for e1 in elems]
    gens = {"x": index[(1, 0, 0)], "y": index[(0, 1, 0)], "z": index[(0, 0, 1)]}
    return FiniteGroupTable(size, mul, gens)
