import math
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from letterbraid.rings import (PRIME_BUDGET, QQ, ZZ, PrimeField, _is_prime, annihilator,
                               echelon, elementary_divisors, reduce, ring_from_flag)

from conftest import sparse, subprocess_env


def sparse_rows(ring, dense_rows):
    return [sparse([ring.normalize(x) for x in row]) for row in dense_rows]


def kernel(ring, dense_rows, ncols):
    rows, pivots = echelon(ring, sparse_rows(ring, dense_rows))
    return annihilator(ring, rows, pivots, ncols)


def divisors(dense_rows):
    rows, _ = echelon(ZZ, sparse_rows(ZZ, dense_rows))
    ncols = len(dense_rows[0]) if dense_rows else 0
    return elementary_divisors(rows, min(len(dense_rows), ncols))


def dot(u, v):
    return sum(x * v.get(j, 0) for j, x in u.items())


def test_prime_field_rejects_composites():
    with pytest.raises(ValueError):
        PrimeField(6)
    with pytest.raises(ValueError):
        PrimeField(1)
    assert PrimeField(2).p == 2
    assert PrimeField(101).invert(7) * 7 % 101 == 1


def test_primality_agrees_with_trial_division_below_100000():
    def by_trial_division(n):
        return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))

    assert all(_is_prime(n) == by_trial_division(n) for n in range(100_000))


def test_large_moduli_are_decided_at_once():
    # Trial division up to the square root does not end on these primes;
    # 3215031751, 3825123056546413051 and 318665857834031151167461 are
    # strong pseudoprimes to the first four, nine and twelve prime bases.
    script = (
        "from letterbraid.rings import PrimeField, _is_prime\n"
        "print([_is_prime(n) for n in (2**61 - 1, 10**18 + 9, 3215031751,"
        " 3825123056546413051, 318665857834031151167461)],"
        " PrimeField(2**61 - 1).p)\n"
        "try:\n"
        "    PrimeField(318665857834031151167461)\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
        "try:\n"
        "    PrimeField(2**89 - 1)\n"
        "except ValueError as exc:\n"
        "    print(exc)\n")
    proc = subprocess.run([sys.executable, "-c", script], env=subprocess_env(),
                          capture_output=True, text=True, timeout=20)
    assert proc.stdout.splitlines() == [
        f"[True, True, False, False, False] {2**61 - 1}",
        "318665857834031151167461 is not prime",
        f"{2**89 - 1} is above the budget for a prime modulus: p must be below "
        f"{PRIME_BUDGET}"], proc.stderr
    assert PRIME_BUDGET == 3317044064679887385961981


def test_ring_flags():
    assert ring_from_flag("z") == ZZ
    assert ring_from_flag("q") == QQ
    assert ring_from_flag("fp:5") == PrimeField(5)
    with pytest.raises(ValueError):
        ring_from_flag("fp:8")
    with pytest.raises(ValueError):
        ring_from_flag("r")


def test_rational_canonical_form():
    assert QQ.parse("4/6") == Fraction(2, 3)
    v = QQ.mul(QQ.from_int(3), QQ.invert(QQ.from_int(-6)))
    assert v.denominator > 0 and v == Fraction(-1, 2)


def test_kernel_of_invertible_matrix_is_empty():
    assert kernel(QQ, [[1, 0], [0, 1]], 2) == ([], [])


def test_integer_kernel_is_saturated_on_rank_one_example():
    assert kernel(ZZ, [[2, -2]], 2) == ([{0: 1, 1: 1}], [0])


def test_kernel_of_zero_map_is_standard_basis():
    assert kernel(PrimeField(3), [[0, 0, 0]], 3) == ([{0: 1}, {1: 1}, {2: 1}], [0, 1, 2])


def test_smith_form_examples():
    assert divisors([[2, 0], [0, 3]]) == [1, 6]
    assert divisors([[1, 0], [0, 1]]) == [1, 1]
    assert divisors([[0]]) == [0]
    assert divisors([[2, 4], [4, 8], [0, 0]]) == [2, 0]


def test_echelon_forms_are_canonical():
    assert echelon(QQ, [{0: 2, 1: 4}, {0: 1, 1: 3}]) == ([{0: 1}, {1: 1}], [0, 1])
    assert echelon(ZZ, [{0: 4, 1: 1}, {0: 6}]) == ([{0: 2, 1: 2}, {1: 3}], [0, 1])
    assert echelon(PrimeField(2), [{0: 1, 1: 1}, {1: 1, 2: 1}, {0: 1, 2: 1}]) \
        == ([{0: 1, 2: 1}, {1: 1, 2: 1}], [0, 1])


def test_membership_examples():
    rows, pivots = echelon(ZZ, [{0: 2}])
    assert reduce(ZZ, rows, pivots, {0: 4}) == ({}, [2])
    assert reduce(ZZ, rows, pivots, {0: 3}) == ({0: 1}, [1])
    rows, pivots = echelon(QQ, [{0: Fraction(2)}])
    assert reduce(QQ, rows, pivots, {0: Fraction(3)}) == ({}, [Fraction(3)])
    # the remainder of a vector outside the span keeps its free part
    rows, pivots = echelon(ZZ, [{0: 1, 1: 2}])
    assert reduce(ZZ, rows, pivots, {0: 1, 1: 2, 2: 5}) == ({2: 5}, [1])


def test_smith_form_random_matrices_exact():
    # The divisor chain is a chain, has one nonzero entry per unit of rank,
    # and depends only on the matrix up to transposition and unimodular
    # row and column operations.
    rng = random.Random(1)
    for _ in range(60):
        m = rng.randint(1, 8)
        n = rng.randint(1, 8)
        M = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        d = divisors(M)
        assert len(d) == min(m, n)
        nonzero = [x for x in d if x]
        assert d == nonzero + [0] * (len(d) - len(nonzero))
        assert len(nonzero) == len(echelon(QQ, sparse_rows(QQ, M))[1])
        for a, b in zip(nonzero, nonzero[1:]):
            assert a > 0 and b % a == 0
        assert divisors([list(col) for col in zip(*M)]) == d
        i, j = rng.randrange(m), rng.randrange(n)
        q = rng.randint(-3, 3)
        moved = [row[:] for row in M]
        if m > 1:
            k = (i + 1) % m
            moved[i] = [x + q * y for x, y in zip(moved[i], moved[k])]
        if n > 1:
            k = (j + 1) % n
            for row in moved:
                row[j] += q * row[k]
        assert divisors(moved) == d


def test_integer_kernel_saturation_random():
    # Any integer kernel vector (rational kernel with denominators cleared)
    # must be an integer combination of the returned lattice basis.
    rng = random.Random(2)
    for _ in range(100):
        m = rng.randint(1, 4)
        n = rng.randint(1, 5)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        basis, pivots = kernel(ZZ, rows, n)
        for v in basis:
            for row in sparse_rows(ZZ, rows):
                assert dot(v, row) == 0
        qbasis, _ = kernel(QQ, rows, n)
        if not qbasis:
            assert basis == []
            continue
        combo = {}
        for vec in qbasis:
            c = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            for j, x in vec.items():
                combo[j] = combo.get(j, 0) + c * x
        denom = 1
        for x in combo.values():
            denom = denom * x.denominator // math.gcd(denom, x.denominator)
        target = {j: int(x * denom) for j, x in combo.items()}
        remainder, _ = reduce(ZZ, basis, pivots, target)
        assert remainder == {}


def test_field_axioms_random_triples():
    rng = random.Random(3)
    for ring in (QQ, PrimeField(5), PrimeField(97)):
        for _ in range(200):
            a, b, c = (ring.from_int(rng.randint(-30, 30)) for _ in range(3))
            assert ring.mul(a, ring.add(b, c)) == ring.add(ring.mul(a, b), ring.mul(a, c))
            assert ring.mul(ring.mul(a, b), c) == ring.mul(a, ring.mul(b, c))
            assert ring.add(ring.add(a, b), c) == ring.add(a, ring.add(b, c))
            if a != ring.zero:
                assert ring.mul(a, ring.invert(a)) == ring.one


def test_rank_and_kernel_dimensions_agree():
    rng = random.Random(4)
    for ring in (QQ, PrimeField(3), ZZ):
        for _ in range(50):
            m = rng.randint(1, 5)
            n = rng.randint(1, 5)
            M = [[ring.from_int(rng.randint(-4, 4)) for _ in range(n)] for _ in range(m)]
            rows, pivots = echelon(ring, sparse_rows(ring, M))
            kernel_rows, kernel_pivots = annihilator(ring, rows, pivots, n)
            assert kernel_pivots == [min(v) for v in kernel_rows]
            assert len(pivots) + len(kernel_pivots) == n


# ---------------------------------------------------------------------------
# sympy as an independent oracle for the sparse kernel

def random_sparse_matrix(rng, ring, density=0.25):
    m, n = rng.randint(1, 12), rng.randint(1, 12)
    return [[ring.from_int(rng.randint(-6, 6)) if rng.random() < density else ring.zero
             for _ in range(n)] for _ in range(m)]


def sympy_rank(ring, dense_rows):
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix
    if ring.is_field and ring.p is not None:
        domain = sympy.GF(ring.p)
    else:
        domain = sympy.QQ
    shape = (len(dense_rows), len(dense_rows[0]))
    return DomainMatrix([[domain(int(x) if ring.p else x) for x in row]
                         for row in dense_rows], shape, domain).rank()


def sympy_divisors(dense_rows):
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors
    return [int(d) for d in invariant_factors(sympy.Matrix(dense_rows), domain=sympy.ZZ)]


def test_echelon_rank_matches_sympy():
    rng = random.Random(11)
    for ring in (ZZ, QQ, PrimeField(2), PrimeField(3)):
        for density in (0.1, 0.25, 0.6):
            for _ in range(25):
                M = random_sparse_matrix(rng, ring, density)
                assert len(echelon(ring, sparse_rows(ring, M))[1]) == sympy_rank(ring, M), (ring, M)


def test_divisors_match_sympy_invariant_factors():
    rng = random.Random(12)
    for density in (0.1, 0.25, 0.6):
        for _ in range(40):
            M = random_sparse_matrix(rng, ZZ, density)
            assert divisors(M) == sympy_divisors(M), M
