"""One pass of one workload, in a fresh interpreter.

    python3 bench/worker.py --workload W --seed S --pass K --mode M --out DIR

Modes: ``timed`` times each item untraced (``cli_session`` items are
``python -m letterbraid.cli`` subprocesses); ``inproc`` runs the
``cli_session`` items through ``letterbraid.cli.main`` in this process;
``traced`` is ``inproc`` for ``cli_session`` and ``timed`` otherwise, with
the boundary tracer installed.  The pass makes its inputs, then times
set-up (``import letterbraid`` and the program-side preparation), then
times every item, then checks every answer outside the timed region.  It
times the pace probe (``pace_ms``) before set-up, after set-up and after
every item, outside the timed spans.  The last line of standard output is
one JSON object for ``run.py``.
"""

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import time
import traceback
from collections import namedtuple

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import inputs  # noqa: E402

TRACEBACK = "Traceback (most recent call last)"
PACE_SIZE = 26
PACE_PRIME = 101
PACE_MATRIX = [[(7 * i + 13 * j) % 97 + 1 for j in range(PACE_SIZE)] for i in range(PACE_SIZE)]
PACE_SERIES = {(): 1, **{(g,): g + 1 for g in range(3)},
               **{(g, h): g - h for g in range(3) for h in range(3)}}


def _pace_work():
    """Row reduction of a fixed matrix mod a prime, then the product of two
    fixed dict-of-tuple series truncated at degree 3: list, int, dict and
    tuple work of the kind the program does, written independently of it."""
    rows = [list(r) for r in PACE_MATRIX]
    for c in range(PACE_SIZE):
        pivot = next((r for r in range(c, PACE_SIZE) if rows[r][c] % PACE_PRIME), None)
        if pivot is None:
            continue
        rows[c], rows[pivot] = rows[pivot], rows[c]
        inv = pow(rows[c][c], PACE_PRIME - 2, PACE_PRIME)
        rows[c] = [v * inv % PACE_PRIME for v in rows[c]]
        for r in range(PACE_SIZE):
            f = rows[r][c]
            if r != c and f:
                rows[r] = [(a - f * b) % PACE_PRIME for a, b in zip(rows[r], rows[c])]
    product = {}
    for k1, v1 in PACE_SERIES.items():
        for k2, v2 in PACE_SERIES.items():
            if len(k1) + len(k2) <= 3:
                k = k1 + k2
                product[k] = product.get(k, 0) + v1 * v2
    return rows, product


def pace_ms():
    """Milliseconds of ``_pace_work``, the best of three, with the garbage
    collector off so that its time does not depend on how much the program
    keeps alive.  It runs no letterbraid code, so its time follows only the
    speed the shared host gives this process at the moment; ``run.py``
    scales each timing by the paces taken just before and just after it."""
    best = None
    gc.disable()
    try:
        for _ in range(3):
            start = time.perf_counter()
            _pace_work()
            elapsed = time.perf_counter() - start
            best = elapsed if best is None or elapsed < best else best
    finally:
        gc.enable()
    return best * 1000.0


# A timed call plus the check that grades its answer: ``check(output)``
# returns the canonical output (digested for the reference comparison) or
# raises.  ``key`` names a presented_build item for the reference.
Item = namedtuple("Item", "kind run check key", defaults=(None,))


class Wrong(Exception):
    pass


def expect(condition, message):
    if not condition:
        raise Wrong(message)


# --------------------------------------------------------------------------
# free_eval: braiding, tensors, magnus and words on free groups; no rings
# kernel is ever called.

def prep_free_eval(lb, spec, _ctx):
    items = []
    for it in spec["items"]:
        ring = lb.ring_from_flag(it["ring"])
        alphabet = lb.Alphabet(it["gens"])
        op = it["op"]
        if op == "magnus":
            items.append(_magnus_item(lb, ring, alphabet, it))
            continue
        T = lb.parse_tensor(it["tensor"], alphabet, ring)
        if op == "multi":
            words = [lb.Word(alphabet, letters) for letters in it["words"]]
            items.append(_multi_item(lb, ring, T, words))
            continue
        w = lb.Word(alphabet, it["word"])
        if op == "polynomial":
            items.append(_polynomial_item(lb, ring, T, w))
        else:
            items.append(_number_item(lb, ring, T, w, it["split"]))
    return items


def _polynomial_item(lb, ring, T, w):
    def check(poly):
        coeffs = poly.to_strings()
        linear = coeffs[1] if len(coeffs) > 1 else "0"
        expect(linear == ring.format(lb.braiding_number(T, w)),
               "linear coefficient differs from the braiding number")
        return coeffs
    return Item("braiding_polynomial", lambda: lb.braiding_polynomial(T, w), check)


def _number_item(lb, ring, T, w, split):
    def check(value):
        # Chen's product law on a split of the word: a second route
        w1 = lb.Word(w.alphabet, w.letters[:split])
        w2 = lb.Word(w.alphabet, w.letters[split:])
        law = lb.product_check(T, w1, w2)
        expect(law.product_value == value, "braiding number differs on the same word")
        expect(law.product_value == ring.add(law.additive_part, law.coproduct_part),
               "product law fails")
        return ring.format(value)
    return Item("braiding_number", lambda: lb.braiding_number(T, w), check)


def _multi_item(lb, ring, T, words):
    def check(value):
        # ell_T((w1-1)...(wm-1)) summed over the (m-1)-fold reduced
        # coproduct of T, one iterated sum per word: no concatenation
        total = ring.zero
        for keys, c in lb.iterated_reduced_coproduct(T, len(words) - 1).items():
            prod = c
            for key, w in zip(keys, words):
                prod = ring.mul(prod, lb.iterated_sum(T.functionals(key), w, ring))
            total = ring.add(total, prod)
        expect(total == value, "multi-evaluation differs from the coproduct formula")
        return ring.format(value)
    return Item("multi_evaluation", lambda: lb.multi_evaluation(T, words), check)


def _magnus_item(lb, ring, alphabet, it):
    w = lb.Word(alphabet, it["word"])
    order = it["order"]

    def check(series):
        terms = lb.magnus.series_to_json(series)
        coeff = {tuple(t["key"]): t["coeff"] for t in terms}
        keys = [tuple(k) for k in it["keys"]]
        keys += [tuple(alphabet.index(n) for n in t["key"]) for t in terms[-2:]]
        for key in keys:
            unit = lb.TensorElement.from_key(ring, alphabet, key)
            names = tuple(alphabet.names[g] for g in key)
            want = ring.format(lb.braiding_number(unit, w)) if key else "1"
            expect(coeff.get(names, "0") == want,
                   f"Magnus coefficient at {names} differs from the braiding number")
        return terms
    return Item("magnus_expand", lambda: lb.magnus_expand(w, order, ring), check)


# --------------------------------------------------------------------------
# presented_build: cold invariant-basis builds, each key once per pass.

def prep_presented_build(lb, spec, _ctx):
    groups = {name: lb.parse_presentation(text)
              for name, text in spec["presentations"].items()}
    items = []
    for it in spec["items"]:
        P = groups[it["presentation"]]
        ring = lb.ring_from_flag(it["ring"])
        key = f"{it['presentation']}:{it['order']}:{it['ring']}"
        items.append(_build_item(lb, P, it["order"], ring, key))
    return items


def _build_item(lb, P, order, ring, key):
    def check(basis):
        Q = lb.build_truncated_quotient(P, order, ring)
        expect(len(basis) == Q.rank, f"{len(basis)} basis elements, quotient rank {Q.rank}")
        for element in basis.elements[-2:]:
            expect(lb.is_invariant(P, element)[0], "basis element is not invariant")
        divisors = basis.elementary_divisors
        return {"elements": [[w, lb.format_tensor(e)]
                             for e, w in zip(basis.elements, basis.weights)],
                "divisors": None if divisors is None else list(divisors)}
    return Item("invariants_basis", lambda: lb.invariants_basis(P, order, ring), check, key)


# --------------------------------------------------------------------------
# quotient_queries: build a few quotients once (set-up), then read them.

def prep_quotient_queries(lb, spec, _ctx):
    groups = {name: lb.parse_presentation(text)
              for name, text in spec["presentations"].items()}
    quotients = []
    for name, flag in inputs.QUOTIENTS:
        P, ring = groups[name], lb.ring_from_flag(flag)
        Q = lb.build_truncated_quotient(P, inputs.QUERY_ORDER, ring)
        basis = lb.invariants_basis(P, inputs.QUERY_ORDER, ring)
        quotients.append((P, ring, Q, basis))
    taus, basis_terms = {}, {}
    items = []
    for it in spec["items"]:
        P, ring, Q, basis = quotients[it["quotient"]]
        op = it["op"]
        if op in ("depth", "depth_commutator"):
            items.append(_depth_item(lb, Q, basis, it, basis_terms))
        elif op == "pair":
            items.append(_pair_item(lb, P, Q, basis, it))
        elif op == "is_invariant":
            items.append(_invariance_item(lb, P, ring, basis, it))
        elif op == "pullback":
            items.append(_pullback_item(lb, P, Q, basis, it))
        else:
            items.append(_johnson_item(lb, P, ring, it, taus))
    return items


def _pick(seq, fraction):
    return seq[min(int(fraction * len(seq)), len(seq) - 1)]


def _depth_item(lb, Q, basis, it, basis_terms):
    w = lb.parse_word(it["word"], Q.alphabet)
    ring = Q.ring

    def terms_of_basis():
        """(weight, [(key, coefficient)]) per basis element, read once per
        quotient through the JSON form."""
        if id(basis) not in basis_terms:
            basis_terms[id(basis)] = [
                (weight, [(tuple(t["key"]), ring.parse(t["coeff"]))
                          for t in lb.tensor_to_json(element)["terms"] if t["key"]])
                for element, weight in zip(basis.elements, basis.weights)]
        return basis_terms[id(basis)]

    def check(report):
        # Bounds from the Magnus expansion M(w), without the quotient's
        # elimination.  Lower: the free-group depth, the lowest degree of
        # M(w) - 1, since the dimension series maps into the quotient's.
        # Upper: an invariant of weight j that is nonzero on w - 1 shows
        # w - 1 is not in I^(j+1).
        series = lb.magnus.series_to_json(lb.magnus_expand(w, Q.order, ring))
        coeff = {tuple(t["key"]): ring.parse(t["coeff"]) for t in series if t["key"]}
        free = min((len(k) for k, c in coeff.items() if c != ring.zero), default=Q.order)
        expect(report.value >= free, f"depth {report} below the free-group depth {free}")
        for weight, terms in terms_of_basis():
            value = ring.sum(ring.mul(c, coeff.get(key, ring.zero)) for key, c in terms)
            if value != ring.zero:
                expect(report.value <= weight,
                       f"depth {report}, but a weight-{weight} invariant sees w - 1")
        if "depth" in it:  # a c-fold commutator lies in the c-th dimension subgroup
            expect(report.value >= it["depth"], f"commutator depth {report} < {it['depth']}")
        if "conjugator" in it:  # depth is a conjugacy invariant
            u = lb.parse_word(it["conjugator"], Q.alphabet)
            conj = lb.free_reduce(lb.concat(lb.concat(u, w), lb.inverse(u)))
            expect(lb.dimension_depth(Q, conj).json_value() == report.json_value(),
                   "depth changes under conjugation")
        return report.json_value()
    return Item("dimension_depth", lambda: lb.dimension_depth(Q, w), check)


def _pair_item(lb, P, Q, basis, it):
    T = _pick(basis.elements, it["basis_index"])
    w = lb.parse_word(it["word"], Q.alphabet)
    ring = Q.ring

    def check(value):
        if "insert_at" not in it:
            return ring.format(value)
        # an invariant cannot see a conjugated relator inserted into the word
        r = _pick(P.relators, it["relator_pick"])
        if it["relator_sign"] == -1:
            r = lb.inverse(r)
        u = lb.parse_word(it["relator_conjugator"], Q.alphabet)
        cut = int(it["insert_at"] * len(w))
        inserted = lb.concat(lb.concat(u, r), lb.inverse(u))
        longer = lb.concat(lb.concat(lb.Word(w.alphabet, w.letters[:cut]), inserted),
                           lb.Word(w.alphabet, w.letters[cut:]))
        expect(lb.pair(Q, T, longer) == value, "pairing sees an inserted relator")
        return ring.format(value)
    return Item("pair", lambda: lb.pair(Q, T, w), check)


def _invariance_item(lb, P, ring, basis, it):
    if it["kind"] == "random":
        T = lb.parse_tensor(it["tensor"], P.alphabet, ring)
    else:
        top = [e for e, w in zip(basis.elements, basis.weights)
               if w == inputs.QUERY_ORDER - 1] or basis.elements
        T = lb.TensorElement.zero(ring, P.alphabet)
        for i, fraction in enumerate(it["mix"]):
            T = T.add(_pick(top, fraction).scale(ring.from_int(i + 1)))

    def check(result):
        ok, witness = result
        if it["kind"] != "random":
            expect(ok, "a combination of basis invariants is not invariant")
        if ok:
            return [True]
        # the witness sandwich, re-evaluated as a multi-evaluation
        value = lb.multi_evaluation(T, witness.multi_evaluation_words(P.alphabet))
        expect(value == witness.value, "witness value differs from its multi-evaluation")
        return [False, list(witness.left), witness.relator_index,
                list(witness.right), ring.format(witness.value)]
    return Item("is_invariant", lambda: lb.is_invariant(P, T), check)


def _pullback_item(lb, P, Q, basis, it):
    source = lb.Alphabet(["s", "t"])
    images = {name: lb.parse_word(text, P.alphabet)
              for name, text in zip(source.names, it["images"])}
    hom = lb.GroupHom.from_mapping(source, images, target=P.alphabet)
    T = _pick(basis.elements, it["basis_index"])
    probe = lb.Word(source, it["probe"])
    ring = Q.ring

    def check(pulled):
        # push-pull: <h^*T, v> = <T, h(v)>
        lhs = ring.add(lb.braiding_number(pulled, probe), pulled.counit)
        expect(lhs == lb.pair(Q, T, hom.apply(probe)), "push-pull identity fails")
        return lb.format_tensor(pulled)
    return Item("pullback", lambda: lb.pullback(hom, T, Q), check)


def _twist(lb, P, half, power):
    """A separating Dehn twist of the genus-2 surface, to a power: it
    conjugates one handle by the power of that handle's commutator."""
    a, b = f"a{half}", f"b{half}"
    c, c_inv = f"[{a},{b}]^{power}", f"[{b},{a}]^{power}"
    other = "a2, b2" if half == 1 else "a1, b1"
    images = [f"{a} -> {c} {a} {c_inv}", f"{b} -> {c} {b} {c_inv}"]
    images += [f"{g} -> {g}" for g in other.split(", ")]
    return lb.parse_endo(", ".join(images), P)


def _johnson_item(lb, P, ring, it, taus):
    endo = _twist(lb, P, it["half"], it["power"])
    if it["op"] == "johnson_level":
        def check(level):
            expect(level.json_value() == 2, f"separating twist at level {level}, not 2")
            return level.json_value()
        return Item("johnson_level",
                    lambda: lb.johnson_level(P, endo, ring, inputs.QUERY_ORDER), check)

    def check(report):
        # tau is a homomorphism: tau(twist^k) = k tau(twist)
        if it["half"] not in taus:
            taus[it["half"]] = lb.johnson_tau(P, _twist(lb, P, it["half"], 1), 2, ring)
        base = taus[it["half"]]
        k = ring.from_int(it["power"])
        expect(report.row_labels == base.row_labels, "tau rows differ")
        expect(report.matrix == [[ring.mul(k, v) for v in row] for row in base.matrix],
               "tau is not additive")
        return {"rows": report.row_labels, "cols": report.col_labels,
                "matrix": [[ring.format(v) for v in row] for row in report.matrix]}
    return Item("johnson_tau", lambda: lb.johnson_tau(P, endo, 2, ring), check)


# --------------------------------------------------------------------------
# cli_session: the lb command line, as a shell user runs it.

REQUIRED_KEYS = {
    "magnus": {"order", "terms"}, "braid": {"polynomial", "number"},
    "pair": {"value"}, "invariants": {"max_weight", "elements"},
    "check": {"invariant"}, "depth": {"depth"}, "pullback": {"gens", "terms"},
    "johnson": {"level"}, "oracle": {"dims", "word_image"},
}


def cli_argv(argv, files_dir):
    """Point file arguments at the written input files."""
    out = list(argv)
    for i, arg in enumerate(out[:-1]):
        if arg in ("--presentation", "--table"):
            out[i + 1] = os.path.join(files_dir, out[i + 1])
    return out


def write_files(files, files_dir):
    os.makedirs(files_dir, exist_ok=True)
    for name, content in files.items():
        with open(os.path.join(files_dir, name), "w", encoding="utf-8") as fh:
            fh.write(content if isinstance(content, str) else json.dumps(content))


def run_cli_subprocess(argv):
    proc = subprocess.run([sys.executable, "-m", "letterbraid.cli", *argv],
                          capture_output=True, text=True, timeout=60)
    return proc.returncode, proc.stdout, proc.stderr


def grade_cli(it, output):
    """Exit status, no traceback, and for successes a JSON document with
    the command's keys.  Returns the canonical output."""
    code, out, err = output
    expect(TRACEBACK not in err, "traceback on stderr")
    expect(code == it["expect"], f"exit {code}, expected {it['expect']}")
    if code != 0:
        expect(err.strip().startswith(("lb:", "usage:")), "no message on stderr")
        return [code, out]
    doc = json.loads(out)
    missing = REQUIRED_KEYS[it["cmd"]] - set(doc)
    expect(not missing, f"missing keys {sorted(missing)}")
    if it["cmd"] == "braid":
        poly = doc["polynomial"]
        expect(doc["number"] == (poly[1] if len(poly) > 1 else "0"),
               "braiding number differs from the linear coefficient")
    if it["cmd"] == "oracle":
        expect(doc["word_image"] == it["image"], "word image differs")
    return [code, out]


def prep_cli_session(lb, spec, ctx):
    files_dir = ctx["files_dir"]
    items = []
    for it in spec["items"]:
        argv = cli_argv(it["argv"], files_dir)
        if ctx["mode"] == "timed":
            run = (lambda argv=argv: run_cli_subprocess(argv))
        else:
            run = (lambda argv=argv: _cli_inproc(lb, argv))
        items.append(Item("lb " + it["cmd"], run, lambda out, it=it: grade_cli(it, out)))
    return items


def _cli_inproc(lb, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = lb.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


PREP = {"free_eval": prep_free_eval, "presented_build": prep_presented_build,
        "quotient_queries": prep_quotient_queries, "cli_session": prep_cli_session}


# --------------------------------------------------------------------------

def digest(payload):
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(PREP))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pass", dest="pass_index", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=["timed", "inproc", "traced"])
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    if sys.flags.optimize:
        sys.exit("worker: refusing to run under -O; it would drop asserts the program relies on")

    spec = inputs.GENERATORS[args.workload](args.seed, args.pass_index)
    ctx = {"mode": args.mode, "files_dir": os.path.join(args.out, "inputs")}
    if "files" in spec:
        write_files(spec["files"], ctx["files_dir"])

    tracer = None
    paces = [pace_ms()]
    t0 = time.perf_counter()
    import letterbraid as lb
    import letterbraid.cli  # noqa: F401  (the package does not import it)
    if args.mode == "traced":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install(lb)
        tracer.on = True
    items = PREP[args.workload](lb, spec, ctx)
    setup_s = time.perf_counter() - t0
    paces.append(pace_ms())

    outputs, records = [], []
    timed_s = 0.0
    for i, item in enumerate(items):
        if tracer is not None:
            tracer.item = i
        start = time.perf_counter()
        try:
            output, error = item.run(), None
        except Exception as exc:  # graded below; the pass goes on
            output, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        timed_s += elapsed
        paces.append(pace_ms())
        outputs.append(output)
        records.append({"kind": item.kind, "ms": elapsed * 1000.0, "error": error,
                        "key": item.key, "pace_ms": (paces[-2] + paces[-1]) / 2.0})
    if tracer is not None:
        tracer.on = False

    checks_started = time.perf_counter()
    for item, output, rec in zip(items, outputs, records):
        rec["digest"] = None
        if rec["error"] is not None:
            continue
        try:
            rec["digest"] = digest(item.check(output))
        except Wrong as exc:
            rec["error"] = f"wrong answer: {exc}"
        except Exception:  # an exception in a check is a failed item too
            rec["error"] = "check raised: " + traceback.format_exc(limit=2)

    checks_s = time.perf_counter() - checks_started
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result = {
        "setup_s": setup_s,
        "setup_pace_ms": (paces[0] + paces[1]) / 2.0,
        "timed_s": timed_s,
        "checks_s": checks_s,
        "items": records,
        # the CLI children did the work of a timed cli_session pass
        "peak_rss_kb": child_kb if args.workload == "cli_session" and args.mode == "timed"
        else self_kb,
        "optimize": sys.flags.optimize,
        "cross_check": getattr(getattr(lb, "braiding", None), "CROSS_CHECK", None),
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["absent"] = tracer.absent
        result["spans_dropped"] = tracer.dropped
        tracer.write_spans(os.path.join(args.out, "spans.jsonl"))
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
