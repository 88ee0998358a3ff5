"""Command-line front end.

Exit codes: 0 on success (a failed invariance *check* is a result, not an
error), 1 on domain errors, 2 on usage or parse errors (with character
positions where available).  Output is deterministic: identical inputs
give byte-identical documents.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings

from . import finite
from .braiding import braiding_polynomial
from .johnson import johnson_level, johnson_tau, parse_endo
from .magnus import check_monomial_budget, magnus_expand, series_to_json
from .presented import (Presentation, build_truncated_quotient, dimension_depth,
                        invariants_basis, is_invariant, pair, parse_presentation,
                        pullback)
from .rings import ring_from_flag
from .tensors import format_tensor, parse_tensor, tensor_to_json
from .words import Alphabet, ParseError, format_word, parse_hom, parse_word


def _warning_line(message, category, filename, lineno, line=None):
    return f"lb: warning: {message}\n"


def _emit(doc):
    sys.stdout.write(json.dumps(doc, separators=(", ", ": ")) + "\n")


def _load_presentation(args, parser):
    if args.presentation:
        with open(args.presentation, "r", encoding="utf-8") as fh:
            return parse_presentation(fh.read())
    if args.gens:
        return Presentation.free(Alphabet.parse(args.gens))
    parser.error(f"'{args.command}' needs --presentation or --gens")


def _cmd_magnus(args, ring, P):
    w = parse_word(args.word, P.alphabet)
    series = magnus_expand(w, args.order, ring)
    terms = series_to_json(series)
    if args.format == "json":
        _emit({"order": args.order, "terms": terms})
    else:
        for t in terms:
            print(f"{t['coeff']}  {' '.join(t['key']) if t['key'] else '1'}")
    return 0


def _cmd_braid(args, ring, P):
    T = parse_tensor(args.tensor, P.alphabet, ring)
    w = parse_word(args.word, P.alphabet)
    poly = braiding_polynomial(T, w)
    number = poly.linear_coefficient
    if args.format == "json":
        _emit({"polynomial": poly.to_strings(), "number": ring.format(number)})
    else:
        print(f"polynomial coefficients: {poly.to_strings()}")
        print(f"braiding number: {ring.format(number)}")
        print("convention: the leftmost tensor factor pairs with the "
              "earliest letter of the word")
    return 0


def _weight_quotient(P, T, ring):
    """The quotient at order weight(T) + 1, which a command with no --order
    truncates at: over the monomial cap, the message names the weight."""
    check_monomial_budget(len(P.alphabet), T.weight + 1, T.weight)
    return build_truncated_quotient(P, T.weight + 1, ring)


def _cmd_pair(args, ring, P):
    T = parse_tensor(args.tensor, P.alphabet, ring)
    Q = _weight_quotient(P, T, ring)
    w = parse_word(args.word, P.alphabet)
    value = pair(Q, T, w)
    if args.format == "json":
        _emit({"value": ring.format(value)})
    else:
        print(ring.format(value))
    return 0


def _cmd_invariants(args, ring, P):
    if args.weight < 0:
        raise ValueError("weight must be >= 0")
    basis = invariants_basis(P, args.weight + 1, ring)
    if args.format == "json":
        elements = [dict(weight=w, **tensor_to_json(e))
                    for e, w in zip(basis.elements, basis.weights)]
        doc = {"max_weight": basis.max_weight, "elements": elements}
        if basis.elementary_divisors is not None:
            doc["elementary_divisors"] = list(basis.elementary_divisors)
        _emit(doc)
    elif args.format == "latex":
        print(r"\begin{tabular}{rl}")
        print(r"weight & invariant \\ \hline")
        for e, w in zip(basis.elements, basis.weights):
            body = format_tensor(e).replace("|", r" \otimes ")
            print(f"{w} & ${body}$ " + r"\\")
        print(r"\end{tabular}")
    else:
        for e, w in zip(basis.elements, basis.weights):
            print(f"[weight {w}] {format_tensor(e)}")
        if any(d not in (0, 1) for d in basis.elementary_divisors or ()):
            print("elementary divisors: "
                  + " ".join(str(d) for d in basis.elementary_divisors))
    return 0


def _cmd_check(args, ring, P):
    T = parse_tensor(args.tensor, P.alphabet, ring)
    ok, witness = is_invariant(P, T)
    if args.format == "json":
        if ok:
            _emit({"invariant": True})
        else:
            _emit({"invariant": False, "witness": {
                "left": [P.alphabet.names[g] for g in witness.left],
                "relator": format_word(witness.relator),
                "right": [P.alphabet.names[g] for g in witness.right],
                "value": ring.format(witness.value)}})
    elif ok:
        print("invariant")
    else:
        left = " ".join(P.alphabet.names[g] for g in witness.left) or "1"
        right = " ".join(P.alphabet.names[g] for g in witness.right) or "1"
        print("not invariant:"
              f" sandwich ({left}) * (relator {format_word(witness.relator)} - 1)"
              f" * ({right}) pairs to {ring.format(witness.value)}")
    return 0


def _cmd_depth(args, ring, P):
    Q = build_truncated_quotient(P, args.order, ring)
    w = parse_word(args.word, P.alphabet)
    report = dimension_depth(Q, w)
    if args.format == "json":
        _emit({"depth": report.json_value()})
    else:
        print(str(report))
    return 0


def _cmd_pullback(args, ring, P):
    hom = parse_hom(args.endo, P.alphabet)
    T = parse_tensor(args.tensor, P.alphabet, ring)
    Q = _weight_quotient(P, T, ring)
    result = pullback(hom, T, Q)
    if args.format == "json":
        _emit(dict(gens=list(hom.source.names), **tensor_to_json(result)))
    else:
        print(format_tensor(result))
    return 0


def _cmd_johnson(args, ring, P):
    if args.weight is not None and args.weight < 1:
        raise ValueError("weight (the tau stage) must be >= 1")
    endo = parse_endo(args.endo, P)
    order = 4 if args.order is None else args.order
    level = johnson_level(P, endo, ring, order)
    # Without --weight, tau at the level itself when the level is exact.
    stage = args.weight or (0 if level.is_lower_bound else level.value)
    doc = {"level": level.json_value()}
    if stage >= 1:
        report = johnson_tau(P, endo, stage, ring)
        doc["tau"] = {"stage": report.stage,
                      "rows": report.row_labels,
                      "cols": report.col_labels,
                      "matrix": [[ring.format(v) for v in row] for row in report.matrix]}
    if args.format == "json":
        _emit(doc)
    else:
        print(f"level: {level}")
        if "tau" in doc:
            print(f"tau at stage {doc['tau']['stage']} "
                  f"(columns: {', '.join(doc['tau']['cols']) or 'none'})")
            for label, row in zip(doc["tau"]["rows"], doc["tau"]["matrix"]):
                print(f"  {label}: [{', '.join(row)}]")
    return 0


def _cmd_oracle(args, ring, _P):
    with open(args.table, "r", encoding="utf-8") as fh:
        table = finite.FiniteGroupTable.from_json(json.load(fh))
    doc = {}
    if args.order is not None:
        dims = finite.ideal_power_dims(table, ring, args.order)
        if ring.is_field:
            doc["dims"] = dims
        else:
            doc["dims"] = [{"rank": r, "divisors": list(d)} for r, d in dims]
    if args.word:
        alphabet = Alphabet(sorted(table.gens))
        w = parse_word(args.word, alphabet)
        doc["word_image"] = finite.word_image(table, w)
    if not doc:
        raise ValueError("oracle needs --order and/or --word")
    if args.format == "json":
        _emit(doc)
    else:
        for k, v in doc.items():
            print(f"{k}: {v}")
    return 0


# Each command's required flags, then the flags it may take besides
# --ring and --format; a command given any other flag is a usage error.
_SOURCE = ("gens", "presentation")
_COMMANDS = {
    "magnus": (_cmd_magnus, ("word", "order"), _SOURCE),
    "braid": (_cmd_braid, ("tensor", "word"), _SOURCE),
    "pair": (_cmd_pair, ("tensor", "word"), _SOURCE),
    "invariants": (_cmd_invariants, ("weight",), _SOURCE),
    "check": (_cmd_check, ("tensor",), _SOURCE),
    "depth": (_cmd_depth, ("word", "order"), _SOURCE),
    "pullback": (_cmd_pullback, ("tensor", "endo"), _SOURCE),
    "johnson": (_cmd_johnson, ("endo",), _SOURCE + ("order", "weight")),
    "oracle": (_cmd_oracle, ("table",), ("order", "word")),
}

# In the order the subparsers list them.
_FLAGS = {
    "gens": dict(help="inline free-group generators, e.g. 'x y'"),
    "presentation": dict(help="path to a presentation file"),
    "word": dict(help="word expression, e.g. '[x,y] x^2'"),
    "tensor": dict(help="tensor expression, e.g. 'x|y + z'"),
    "order": dict(type=int, help="truncation order N"),
    "weight": dict(type=int, help="weight bound (invariants) or tau stage (johnson)"),
    "endo": dict(help="generator map, e.g. 'x -> x, y -> x y x^-1'"),
    "table": dict(help="path to a finite group table JSON"),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="lb", description="letter-braiding invariants, exactly")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_fn, required, optional) in _COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--ring", default="z", help="z | q | fp:<p>")
        # Only the invariants table is rendered in LaTeX.
        formats = ["text", "json"] + (["latex"] if name == "invariants" else [])
        p.add_argument("--format", default="json", choices=formats)
        for flag, spec in _FLAGS.items():
            if flag in required or flag in optional:
                p.add_argument(f"--{flag}", **spec)
    return parser


def main(argv=None):
    parser = build_parser()
    default_format, warnings.formatwarning = warnings.formatwarning, _warning_line
    try:
        args = parser.parse_args(argv)
        fn, required, optional = _COMMANDS[args.command]
        ring = ring_from_flag(args.ring)
        for flag in required:
            if getattr(args, flag) is None:
                parser.error(f"--{flag} is required for '{args.command}'")
        P = _load_presentation(args, parser) if "gens" in optional else None
        return fn(args, ring, P)
    except SystemExit as exc:  # argparse usage errors carry code 2
        return exc.code
    except ParseError as exc:
        print(f"lb: parse error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, ZeroDivisionError) as exc:
        print(f"lb: {exc}", file=sys.stderr)
        return 1
    finally:
        warnings.formatwarning = default_format


if __name__ == "__main__":
    raise SystemExit(main())
