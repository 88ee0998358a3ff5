"""Seeded inputs for the four workloads.

Stdlib only: nothing here imports letterbraid, so making inputs never
counts toward set-up time.  Every pass of a workload has the same fixed
*shape* (sizes, weights, orders, rings, generator counts); the seed only
fills in the content (letters, keys, coefficients, relator rotations).
That keeps the cost of a pass nearly the same across seeds, so the
end-to-end figures of two seeds are comparable.

Inputs are plain data: words are lists of ``[gen, sign]`` pairs plus their
text, tensors are text in the ``lb`` tensor grammar.
"""

import random

GENS = ("x", "y", "z")

# name -> (generators, relators as letter tokens).  Rotating or inverting
# a relator gives a presentation of the same group with the same relator
# ideal, so every canonical output of presented_build is seed-independent.
PRESENTATIONS = {
    "heisenberg": ("x y z", ["x x", "y y", "z z", "x y x^-1 y^-1 z^-1"]),
    "surface": ("a1 b1 a2 b2", ["a1 b1 a1^-1 b1^-1 a2 b2 a2^-1 b2^-1"]),
    "pb3": ("A12 A13 A23", [
        "A12 A13 A23 A13 A23^-1 A13^-1 A12^-1 A13^-1",
        "A12 A13 A23 A23 A23^-1 A13^-1 A12^-1 A23^-1"]),
    "z2": ("x y", ["x y x^-1 y^-1"]),
    "bs12": ("a b", ["b a b^-1 a^-1 a^-1"]),
}

# presented_build: each (presentation, order, ring) key once per pass.
# The keys are chosen by cost so that neither figure sits between two keys
# of very different cost: item_p50_ms falls among keys of 30-70 ms, and
# p90 in the middle of five keys of about 180 ms (the order-5 surface
# builds, Z^2 over Z and BS(1,2) over F_3 at order 7), with none above
# them: keys that cost 0.4 s or more (Heisenberg over Q and Z at order 5
# and over F_2 at order 6, PB3 over Q at order 5 and over F_3 at order 6,
# BS(1,2) over Q at order 6) vary by 20% or more between identical passes
# on a shared host and would set items_per_s alone.
BUILD_KEYS = [
    ("heisenberg", 4, "fp:3"), ("heisenberg", 4, "z"), ("heisenberg", 4, "q"),
    ("heisenberg", 5, "fp:2"), ("heisenberg", 5, "fp:3"),
    ("surface", 3, "q"), ("surface", 4, "z"), ("surface", 4, "q"),
    ("surface", 4, "fp:2"), ("surface", 4, "fp:3"), ("surface", 5, "z"),
    ("surface", 5, "fp:2"), ("surface", 5, "fp:3"),
    ("pb3", 4, "z"), ("pb3", 4, "q"), ("pb3", 4, "fp:3"), ("pb3", 5, "z"),
    ("pb3", 5, "fp:2"), ("pb3", 5, "fp:3"),
    ("z2", 5, "q"), ("z2", 6, "fp:2"), ("z2", 7, "fp:2"), ("z2", 7, "fp:3"),
    ("z2", 7, "z"),
    ("bs12", 4, "q"), ("bs12", 5, "z"), ("bs12", 5, "q"), ("bs12", 6, "z"),
    ("bs12", 6, "fp:3"), ("bs12", 7, "fp:3"),
]

# free_eval shapes.  (op, generators, ring, word length, weight, terms);
# multi_evaluation takes a list of word lengths; magnus_expand takes the
# truncation order in place of the weight and pairs no tensor.
FREE_SHAPES = [
    ("polynomial", 2, "z", 1200, 8, 1),
    ("polynomial", 3, "fp:5", 1000, 6, 1),
    ("polynomial", 3, "z", 2000, 6, 2),
    ("polynomial", 2, "fp:3", 600, 6, 3),
    ("polynomial", 3, "z", 400, 7, 2),
    ("polynomial", 2, "fp:7", 2000, 4, 4),
    ("polynomial", 3, "fp:2", 600, 5, 3),
    ("polynomial", 2, "z", 200, 3, 4),
    ("number", 2, "z", 2000, 8, 2),
    ("number", 3, "fp:5", 2000, 6, 4),
    ("number", 2, "fp:3", 1000, 4, 3),
    ("number", 3, "z", 500, 2, 1),
    ("number", 3, "z", 1500, 7, 2),
    ("number", 2, "fp:2", 200, 5, 4),
    ("number", 2, "z", 800, 3, 3),
    ("number", 3, "fp:7", 300, 8, 1),
    ("multi", 2, "z", [1000, 1000], 6, 2),
    ("multi", 3, "fp:3", [300, 300, 300], 5, 3),
    ("multi", 2, "fp:5", [600, 400, 200], 4, 2),
    ("multi", 3, "z", [200, 200], 8, 1),
    ("magnus", 2, "z", 2000, 7, 0),
    ("magnus", 3, "fp:3", 1000, 5, 0),
    ("magnus", 2, "fp:5", 1500, 6, 0),
    ("magnus", 3, "z", 2000, 3, 0),
    ("magnus", 2, "fp:2", 500, 4, 0),
    ("number", 2, "z", 400, 4, 2),
    ("number", 3, "fp:3", 1200, 3, 3),
    ("number", 2, "fp:5", 600, 6, 1),
    ("number", 3, "z", 250, 5, 2),
    ("polynomial", 3, "fp:3", 300, 4, 2),
    ("polynomial", 2, "z", 600, 5, 1),
    ("polynomial", 3, "fp:2", 200, 2, 3),
    ("multi", 2, "z", [250, 250, 250], 3, 2),
    ("multi", 3, "fp:7", [500, 300], 4, 2),
    ("magnus", 3, "fp:7", 300, 4, 0),
    ("magnus", 2, "z", 800, 5, 0),
    # Blocks of items of nearly equal, content-independent cost, so that
    # item_p50_ms and p90 measure a block rather than whichever two shapes
    # sit at that rank.  Four Magnus expansions over Z of order 6 on words
    # of length 2000 (about 220 ms) hold p90: three shapes cost more, the
    # rest about two thirds as much or less.
    ("magnus", 2, "z", 2000, 6, 0),
    ("magnus", 2, "z", 2000, 6, 0),
    ("magnus", 2, "z", 2000, 6, 0),
    ("magnus", 2, "z", 2000, 6, 0),
    # Ten braiding numbers on words of length 2000 (about 12 ms) hold the
    # median.
    ("number", 3, "z", 2000, 8, 2),
    ("number", 2, "fp:3", 2000, 7, 2),
    ("number", 3, "fp:5", 2000, 7, 2),
    ("number", 2, "z", 2000, 6, 2),
    ("number", 3, "fp:7", 2000, 6, 2),
    ("number", 2, "fp:2", 2000, 8, 2),
    ("number", 3, "z", 2000, 7, 2),
    ("number", 2, "fp:5", 2000, 6, 2),
    ("number", 3, "fp:3", 2000, 8, 2),
    ("number", 2, "z", 2000, 7, 2),
]

# quotient_queries: the quotients built once per pass, as set-up, and the
# queries run against them.  (op, quotient index, count per pass)
QUOTIENTS = [("surface", "z"), ("surface", "fp:2"), ("heisenberg", "z"),
             ("pb3", "fp:3")]
QUERY_ORDER = 5
QUERY_SHAPES = [
    # Depths of random words on the surface group over F_2 (about 130 ms
    # each) are the block where p90 falls: fewer items cost more (the
    # depths over Z and johnson_level), and the next ones down cost 100 ms
    # or less.
    ("depth", 0, 4), ("depth", 1, 12), ("depth", 2, 4), ("depth", 3, 4),
    ("depth_commutator", 0, 4), ("depth_commutator", 1, 4),
    ("depth_commutator", 2, 4), ("depth_commutator", 3, 4),
    # The pb3 pairings (about 8 ms each) are the block where the median
    # falls, with about as many cheaper items (invariance checks,
    # pullbacks, shallow depths) below it as dearer ones above it.
    ("pair", 0, 12), ("pair", 1, 12), ("pair", 2, 8), ("pair", 3, 40),
    ("is_invariant", 0, 11), ("is_invariant", 1, 11), ("is_invariant", 2, 11),
    ("is_invariant", 3, 11),
    ("pullback", 0, 4), ("pullback", 1, 4), ("pullback", 3, 4),
    ("johnson_level", 0, 4), ("johnson_tau", 0, 4),
]


def rng_for(workload, seed, pass_index):
    return random.Random(f"{workload}:{seed}:{pass_index}")


def interleave(workload, items):
    """Shuffle ``items`` into an order that is the same for every seed.
    An item's cost depends on what ran before it in the pass (the garbage
    collector walks every quotient built so far; the first depth query on
    a quotient builds its image matrices), so a seed-dependent order would
    make the same item cost differently from seed to seed."""
    random.Random(f"{workload}:order").shuffle(items)


def random_letters(rng, n_gens, length):
    return [[rng.randrange(n_gens), rng.choice((1, -1))] for _ in range(length)]


def word_text(names, letters):
    if not letters:
        return ""
    return " ".join(names[g] if s == 1 else f"{names[g]}^-1" for g, s in letters)


def ring_modulus(ring):
    return int(ring[3:]) if ring.startswith("fp:") else None


def random_tensor(rng, names, ring, weight, n_terms):
    """Text of a tensor with ``n_terms`` distinct keys, all of the given
    weight, and nonzero coefficients."""
    n_keys = len(names) ** weight
    keys = set()
    while len(keys) < min(n_terms, n_keys):
        keys.add(tuple(rng.randrange(len(names)) for _ in range(weight)))
    p = ring_modulus(ring)
    parts = []
    for key in sorted(keys):
        c = rng.randrange(1, p) if p else rng.choice((1, 2, 3, -1, -2, -3))
        body = "|".join(names[g] for g in key)
        sign = "-" if c < 0 else "+"
        parts.append((sign, f"{abs(c)} {body}"))
    text = ("-" if parts[0][0] == "-" else "") + parts[0][1]
    for sign, piece in parts[1:]:
        text += f" {sign} {piece}"
    return text


def presentation_text(rng, name):
    gens, rels = PRESENTATIONS[name]
    lines = [f"gens: {gens}"]
    for rel in rels:
        toks = rel.split()
        k = rng.randrange(len(toks))
        toks = toks[k:] + toks[:k]
        if rng.random() < 0.5:
            toks = [t[:-3] if t.endswith("^-1") else t + "^-1" for t in reversed(toks)]
        lines.append("rel: " + " ".join(toks))
    return "\n".join(lines) + "\n"


def free_eval(seed, pass_index):
    rng = rng_for("free_eval", seed, pass_index)
    items = []
    for op, n_gens, ring, length, weight, n_terms in FREE_SHAPES:
        names = GENS[:n_gens]
        item = {"op": op, "gens": list(names), "ring": ring}
        if op == "multi":
            item["words"] = [random_letters(rng, n_gens, n) for n in length]
        else:
            item["word"] = random_letters(rng, n_gens, length)
        if op == "magnus":
            item["order"] = weight
            # keys whose coefficients the check recomputes independently
            item["keys"] = [[rng.randrange(n_gens) for _ in range(rng.randint(1, weight - 1))]
                            for _ in range(3)]
        else:
            item["tensor"] = random_tensor(rng, names, ring, weight, n_terms)
        if op == "number":
            # where the check splits the word for the product law
            item["split"] = rng.randrange(1, length)
        items.append(item)
    interleave("free_eval", items)
    return {"items": items}


def presented_build(seed, pass_index):
    rng = rng_for("presented_build", seed, pass_index)
    texts = {name: presentation_text(rng, name) for name in PRESENTATIONS}
    keys = list(BUILD_KEYS)
    interleave("presented_build", keys)
    return {"presentations": texts,
            "items": [{"op": "build", "presentation": p, "order": n, "ring": r}
                      for p, n, r in keys]}


def _nested_commutator(rng, names, depth):
    """Text of [[...[u1, u2], u3]..., u_depth] with short random entries."""
    def short():
        return word_text(names, random_letters(rng, len(names), rng.randint(1, 2)))
    text = short()
    for _ in range(depth - 1):
        text = f"[{text}, {short()}]"
    return text


def _depth_one_letters(rng, n_gens, length):
    """Random letters whose exponent sum in the first generator is 1 mod 6,
    so the word is nonzero in the abelianization over Z, F_2 and F_3 and
    its depth is 1 in every quotient: the depth queries on random words
    all make the same number of membership tests, and deeper words come
    from the nested commutators."""
    while True:
        letters = random_letters(rng, n_gens, length)
        if sum(s for g, s in letters if g == 0) % 6 == 1:
            return letters


def quotient_queries(seed, pass_index):
    rng = rng_for("quotient_queries", seed, pass_index)
    texts = {name: presentation_text(rng, name) for name, _ in QUOTIENTS}
    items = []
    for op, qi, count in QUERY_SHAPES:
        pres = QUOTIENTS[qi][0]
        names = PRESENTATIONS[pres][0].split()
        # Choices that set an item's cost (which basis element, how deep a
        # commutator, which power of a twist) are spread evenly over each
        # shape, from a random start, so that a pass costs about the same
        # for every seed; only the content in between is random.
        offset = rng.random()
        for n in range(count):
            stratum = (n + offset) / count
            item = {"op": op, "quotient": qi}
            if op == "depth_commutator":
                # A second depth query costs as much as the first, so the
                # conjugation check runs on one commutator in four.
                if n % 4 == 0:
                    item["conjugator"] = word_text(names, random_letters(rng, len(names), 3))
            if op == "depth":
                item["word"] = word_text(names, _depth_one_letters(rng, len(names), 30))
            elif op == "depth_commutator":
                item["depth"] = 2 + n % 3
                item["word"] = _nested_commutator(rng, names, item["depth"])
            elif op == "pair":
                item["basis_index"] = stratum
                item["word"] = word_text(names, random_letters(rng, len(names), 100))
                # The relator-insertion check is a second pairing as dear
                # as the first, so it runs on one item in three.
                if n % 3 == 0:
                    item["insert_at"] = rng.random()
                    item["relator_pick"] = rng.random()
                    item["relator_conjugator"] = word_text(names,
                                                           random_letters(rng, len(names), 4))
                    item["relator_sign"] = rng.choice((1, -1))
            elif op == "is_invariant":
                # one random tensor (almost never invariant) and one random
                # combination of top-weight basis invariants (always invariant)
                item["kind"] = "random" if n % 2 == 0 else "combination"
                item["tensor"] = random_tensor(rng, names, QUOTIENTS[qi][1],
                                               QUERY_ORDER - 1, 3)
                item["mix"] = [rng.random() for _ in range(3)]
            elif op == "pullback":
                item["images"] = [word_text(names, random_letters(rng, len(names), rng.randint(2, 5)))
                                  for _ in range(2)]
                item["basis_index"] = stratum
                item["probe"] = random_letters(rng, 2, 12)
            else:  # johnson: a separating twist on one half, to a power
                item["half"] = 1 + n % 2
                item["power"] = 1 + n % 3
            items.append(item)
    interleave("quotient_queries", items)
    return {"presentations": texts, "items": items}


def cyclic_group(n):
    return {"size": n, "mul": [[(a + b) % n for b in range(n)] for a in range(n)],
            "gens": {"x": 1}}


def product_group(m, n):
    def enc(a, b):
        return a * n + b
    mul = [[enc((a1 + a2) % m, (b1 + b2) % n) for a2 in range(m) for b2 in range(n)]
           for a1 in range(m) for b1 in range(n)]
    return {"size": m * n, "mul": mul, "gens": {"x": enc(1, 0), "y": enc(0, 1)}}


def _image(table, letters):
    """The element a word names in one of the abelian tables above."""
    gens = sorted(table["gens"])
    element = 0
    for g, s in letters:
        step = table["gens"][gens[g]]
        if s == -1:
            step = table["mul"][step].index(0)
        element = table["mul"][element][step]
    return element


def cli_session(seed, pass_index):
    """argv lists for ``python -m letterbraid.cli``; file arguments name
    entries of ``files``, which the worker writes before set-up."""
    rng = rng_for("cli_session", seed, pass_index)
    m, n = rng.randint(2, 4), rng.randint(2, 4)
    files = {
        "z2.pres": "gens: x y\nrel: [x,y]\n",
        "heis.pres": presentation_text(rng, "heisenberg"),
        "cyclic.json": cyclic_group(rng.randint(3, 8)),
        "product.json": product_group(m, n),
    }
    xy = ("x", "y")
    xyz = ("x", "y", "z")
    items = []

    def word(names, lo, hi):
        return word_text(names, random_letters(rng, len(names), rng.randint(lo, hi)))

    def add(cmd, *argv, expect=0, **extra):
        items.append(dict(cmd=cmd, argv=[cmd, *argv], expect=expect, **extra))

    for _ in range(2):
        add("magnus", "--gens", "x y", "--word", word(xy, 4, 10),
            "--order", str(rng.randint(3, 5)))
        add("braid", "--gens", "x y z", "--ring", rng.choice(("z", "fp:3")),
            "--tensor", random_tensor(rng, xyz, "z", rng.randint(2, 4), 2),
            "--word", word(xyz, 10, 40))
        add("pair", "--presentation", "z2.pres", "--tensor",
            random_tensor(rng, xy, "z", rng.randint(1, 3), 2), "--word", word(xy, 3, 12))
        add("invariants", "--presentation", rng.choice(("z2.pres", "heis.pres")),
            "--ring", rng.choice(("z", "fp:2")), "--weight", str(rng.randint(2, 3)))
        add("check", "--presentation", "heis.pres", "--ring", "fp:2",
            "--tensor", random_tensor(rng, xyz, "fp:2", rng.randint(1, 2), 2))
        add("depth", "--presentation", "z2.pres", "--order", str(rng.randint(3, 4)),
            "--word", word(xy, 4, 12))
        add("pullback", "--gens", "x y", "--endo",
            f"s -> {word(xy, 1, 3)}, t -> {word(xy, 1, 3)}",
            "--tensor", random_tensor(rng, xy, "z", rng.randint(1, 3), 2))
        k = rng.randint(1, 3)
        add("johnson", "--gens", "x y", "--endo", f"x -> x, y -> x^{k} y x^-{k}",
            "--order", "4")
        table, letters = rng.choice((("cyclic.json", ("x",)), ("product.json", xy)))
        w = random_letters(rng, len(letters), rng.randint(3, 9))
        add("oracle", "--table", table, "--ring", rng.choice(("fp:2", "fp:3")),
            "--order", "3", "--word", word_text(letters, w),
            image=_image(files[table], w))
    # invalid inputs that the CLI handles today: a parse error and a usage error
    add("braid", "--gens", "x y", "--tensor", "x|y", "--word",
        word(xy, 2, 6) + " )", expect=2, invalid="parse error")
    add("braid", "--gens", "x y", "--word", word(xy, 2, 6), expect=2,
        invalid="missing --tensor")
    interleave("cli_session", items)
    return {"files": files, "items": items}


# A known defect, graded on every cli_session run but outside the timed
# loop: an oracle table without "mul" should exit 1 with a message, and
# today ends in a KeyError traceback.
KNOWN_DEFECT_PROBES = [
    {"name": "oracle_table_without_mul",
     "files": {"nomul.json": {"size": 2, "gens": {"x": 1}}},
     "argv": ["oracle", "--table", "nomul.json", "--order", "2"],
     "expect": 1, "known": "traceback on stderr"},
]

GENERATORS = {"free_eval": free_eval, "presented_build": presented_build,
              "quotient_queries": quotient_queries, "cli_session": cli_session}
