"""Shared fixtures: alphabets, presentations, finite group tables, and
seeded random generators for words and tensors."""

import itertools
import os
from pathlib import Path

import pytest

import letterbraid as lb
from letterbraid.presented import Presentation, parse_presentation
from letterbraid.rings import echelon, reduce
from letterbraid.words import Word


XY = lb.Alphabet(["x", "y"])
XYZ = lb.Alphabet(["x", "y", "z"])


def subprocess_env():
    """The environment for a child Python that imports this checkout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, PYTHONPATH=path)


def random_word(rng, alphabet, max_len, min_len=0):
    n = rng.randint(min_len, max_len)
    letters = [(rng.randrange(len(alphabet)), rng.choice((1, -1))) for _ in range(n)]
    return Word(alphabet, letters)


def random_tensor(rng, alphabet, ring, max_weight, max_terms=4, coeff_range=3):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        wt = rng.randint(0, max_weight)
        key = tuple(rng.randrange(len(alphabet)) for _ in range(wt))
        c = ring.from_int(rng.randint(-coeff_range, coeff_range))
        if c != ring.zero:
            terms[key] = ring.add(terms.get(key, ring.zero), c)
    return lb.TensorElement(ring, alphabet, terms)


def all_words(alphabet, max_len):
    letters = [(g, s) for g in range(len(alphabet)) for s in (1, -1)]
    for n in range(max_len + 1):
        for combo in itertools.product(letters, repeat=n):
            yield Word(alphabet, combo)


def all_keys(n_gens, max_weight, min_weight=1):
    for r in range(min_weight, max_weight + 1):
        yield from itertools.product(range(n_gens), repeat=r)


def merge_keys(u, v, infiltrate):
    """Shuffle or infiltration product of two keys, as {key: multiplicity}:
    ua * vb = (u * vb) a + (ua * v) b, plus (u * v) a when a == b for the
    infiltration product."""
    if not u or not v:
        return {u + v: 1}
    out = {}
    parts = [(merge_keys(u[:-1], v, infiltrate), u[-1]),
             (merge_keys(u, v[:-1], infiltrate), v[-1])]
    if infiltrate and u[-1] == v[-1]:
        parts.append((merge_keys(u[:-1], v[:-1], infiltrate), u[-1]))
    for merged, last in parts:
        for key, m in merged.items():
            out[key + (last,)] = out.get(key + (last,), 0) + m
    return out


def sparse(vec):
    return {i: x for i, x in enumerate(vec) if x}


def span_rank(ring, vectors):
    """Rank of the span of dense vectors."""
    return len(echelon(ring, [sparse(v) for v in vectors])[1])


def in_span(ring, vectors, target):
    """Whether the dense target lies in the span of the dense vectors (over
    ZZ: in their integer lattice)."""
    rows, pivots = echelon(ring, [sparse(v) for v in vectors])
    return reduce(ring, rows, pivots, sparse(target))[0] == {}


def nested_commutator(alphabet, gens):
    """[[...[g0, g1], g2], ...]: an iterated commutator of generators."""
    w = Word.generator(alphabet, gens[0])
    for g in gens[1:]:
        w = lb.commutator(w, Word.generator(alphabet, g))
    return w


@pytest.fixture(scope="session")
def heisenberg_presentation():
    return parse_presentation(
        "gens: x y z\nrel: x^2\nrel: y^2\nrel: z^2\nrel: [x,y] z^-1\n")


@pytest.fixture(scope="session")
def surface_presentation():
    return parse_presentation(
        "gens: a1 b1 a2 b2\nrel: [a1,b1] [a2,b2]\n")


@pytest.fixture(scope="session")
def pb3_presentation():
    # Pure braids on three strands: the full twist is central.
    return parse_presentation(
        "gens: A12 A13 A23\n"
        "rel: [A12 A13 A23, A13]\n"
        "rel: [A12 A13 A23, A23]\n")


def cyclic_presentation(order, name="x"):
    return parse_presentation(f"gens: {name}\nrel: {name}^{order}\n")


def free_presentation(*names):
    return Presentation.free(lb.Alphabet(names))
