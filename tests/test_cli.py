import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

jsonschema = pytest.importorskip("jsonschema")

import letterbraid as lb
from letterbraid.cli import main
from letterbraid.finite import cyclic_table, direct_product_table, heisenberg_table
from letterbraid.tensors import parse_tensor, tensor_from_json
from letterbraid.rings import PrimeField

from conftest import in_span, subprocess_env

SCHEMA_DIR = Path(__file__).resolve().parents[1] / "src" / "letterbraid" / "schemas"

HEIS = "gens: x y z\nrel: x^2\nrel: y^2\nrel: z^2\nrel: [x,y] z^-1\n"
CP2 = "gens: x\nrel: x^9\n"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def check_schema(name, doc):
    with open(SCHEMA_DIR / f"{name}.json") as fh:
        schema = json.load(fh)
    jsonschema.validate(doc, schema)


def test_braid_intro_example(capsys):
    code, out, _ = run(capsys, "braid", "--gens", "x y", "--tensor", "x|x|y|x",
                       "--word", "[x*y, x^-2]", "--ring", "z")
    assert code == 0
    doc = json.loads(out)
    assert doc == {"polynomial": ["0", "-1"], "number": "-1"}
    check_schema("braid", doc)


def test_braid_is_byte_deterministic(capsys):
    args = ("braid", "--gens", "x y", "--tensor", "x|y|x|x",
            "--word", "[x*y, x^-2]", "--ring", "z")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2
    assert json.loads(out1)["number"] == "1"


def test_invariants_heisenberg(capsys, tmp_path):
    pres = tmp_path / "heis.pres"
    pres.write_text(HEIS)
    code, out, _ = run(capsys, "invariants", "--presentation", str(pres),
                       "--ring", "fp:2", "--weight", "2")
    assert code == 0
    doc = json.loads(out)
    check_schema("invariants", doc)
    assert len(doc["elements"]) == 5
    # the span contains x|y + z even if row reduction presents another basis
    F2 = PrimeField(2)
    ab = lb.Alphabet(["x", "y", "z"])
    elements = [tensor_from_json(e, ab, F2) for e in doc["elements"]]
    keys = sorted({k for e in elements for k in e.terms} | {(0, 1), (2,)})
    vectors = [[e.coefficient(k) for k in keys] for e in elements]
    target_tensor = parse_tensor("x|y + z", ab, F2)
    target = [target_tensor.coefficient(k) for k in keys]
    assert in_span(F2, vectors, target)


def test_invariants_latex_table(capsys, tmp_path):
    pres = tmp_path / "c3.pres"
    pres.write_text("gens: x\nrel: x^3\n")
    code, out, _ = run(capsys, "invariants", "--presentation", str(pres),
                       "--ring", "fp:3", "--weight", "2", "--format", "latex")
    assert code == 0
    assert out.startswith("\\begin{tabular}")
    assert "x \\otimes x" in out


def test_depth_example(capsys, tmp_path):
    pres = tmp_path / "cp2.pres"
    pres.write_text(CP2)
    code, out, _ = run(capsys, "depth", "--presentation", str(pres),
                       "--ring", "fp:3", "--word", "x^3", "--order", "5")
    assert code == 0
    doc = json.loads(out)
    assert doc == {"depth": 3}
    check_schema("depth", doc)


def test_depth_bound_formatting(capsys):
    code, out, _ = run(capsys, "depth", "--gens", "x y", "--word", "",
                       "--order", "3", "--ring", "z")
    assert code == 0
    doc = json.loads(out)
    assert doc == {"depth": ">= 3"}
    check_schema("depth", doc)


def test_magnus_schema_and_values(capsys):
    code, out, _ = run(capsys, "magnus", "--gens", "x y", "--word", "[x,y]",
                       "--order", "3", "--ring", "z")
    assert code == 0
    doc = json.loads(out)
    check_schema("magnus", doc)
    assert {"key": ["x", "y"], "coeff": "1"} in doc["terms"]
    assert {"key": ["y", "x"], "coeff": "-1"} in doc["terms"]


ORDER_ZERO_ARGS = {
    "magnus": ["--word", "x y"],
    "depth": ["--word", "x y"],
    "johnson": ["--endo", "x -> x, y -> y"],
}


@pytest.mark.parametrize("command", [*ORDER_ZERO_ARGS, "oracle"])
def test_magnus_order_zero_exits_one(capsys, tmp_path, monkeypatch, command):
    # An explicit order below 1 is refused, never replaced by a default
    # order or read as no order.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "heis.json").write_text(json.dumps(heisenberg_table(2).to_json()))
    source = (["--table", "heis.json"] if command == "oracle"
              else ["--gens", "x,y", *ORDER_ZERO_ARGS[command]])
    for order in ("0", "-1"):
        code, out, err = run(capsys, command, *source, "--order", order, "--ring", "z")
        assert (code, out) == (1, "")
        assert err == "lb: order must be >= 1\n"


@pytest.mark.parametrize("command", list(ORDER_ZERO_ARGS))
def test_order_above_the_monomial_budget_exits_one(capsys, command):
    # The monomial count stops at the cap before anything is allocated, so
    # even 10^9 is refused at once, and the message names the cap.
    for order in ("20000", "2000000", "1000000000"):
        code, out, err = run(capsys, command, "--gens", "x,y", *ORDER_ZERO_ARGS[command],
                             "--order", order, "--ring", "z")
        assert (code, out) == (1, "")
        assert err == (f"lb: truncation order {order} over 2 generators needs more "
                       "than the cap of 200000 monomials; lower the order\n")


@pytest.mark.parametrize("argv", [
    ["check"], ["pair", "--word", "x y"], ["pullback", "--endo", "s -> x y"]],
    ids=["check", "pair", "pullback"])
def test_tensor_weight_above_the_monomial_budget_exits_one(capsys, argv):
    # These commands truncate at weight + 1 and take no --order, so the
    # tensor's weight alone meets the cap, and the message names the weight.
    code, out, err = run(capsys, *argv, "--gens", "x,y", "--tensor", "|".join("x" * 20),
                         "--ring", "z")
    assert (code, out) == (1, "")
    assert err == ("lb: a tensor of weight 20 over 2 generators needs truncation "
                   "order 21, more than the cap of 200000 monomials; lower the weight\n")


def test_word_above_the_letter_budget_exits_two(capsys):
    # The second exponent has more digits than int() converts.
    for word in ("((x^1000)^1000)^1000", "x^" + "9" * 4400):
        code, out, err = run(capsys, "magnus", "--gens", "x", "--word",
                             word, "--order", "2", "--ring", "z")
        assert (code, out) == (2, "")
        assert err.startswith("lb: parse error: ") and "budget" in err


def test_brackets_above_the_depth_budget_exit_two(capsys):
    deep = "(" * 1000 + "x" + ")" * 1000
    for tensor, word in ((deep, "x"), ("x", deep)):
        code, out, err = run(capsys, "braid", "--gens", "x", "--tensor", tensor, "--word", word)
        assert (code, out) == (2, "")
        assert err.startswith("lb: parse error: ") and "budget of 100" in err


def test_pair_command(capsys, tmp_path):
    pres = tmp_path / "ab.pres"
    pres.write_text("gens: x y\nrel: [x,y]\n")
    code, out, _ = run(capsys, "pair", "--presentation", str(pres),
                       "--tensor", "x|y + y|x", "--word", "x y", "--ring", "z")
    assert code == 0
    doc = json.loads(out)
    assert doc == {"value": "1"}
    check_schema("pair", doc)


def test_check_failure_is_a_result_not_an_error(capsys, tmp_path):
    pres = tmp_path / "heis.pres"
    pres.write_text(HEIS)
    code, out, _ = run(capsys, "check", "--presentation", str(pres),
                       "--tensor", "z", "--ring", "fp:2")
    assert code == 0
    doc = json.loads(out)
    check_schema("check", doc)
    assert doc["invariant"] is False
    assert doc["witness"]["value"] == "1"
    code, out, _ = run(capsys, "check", "--presentation", str(pres),
                       "--tensor", "x|y + z", "--ring", "fp:2")
    assert code == 0
    assert json.loads(out) == {"invariant": True}


def test_pullback_command(capsys):
    code, out, _ = run(capsys, "pullback", "--gens", "e1 e2",
                       "--endo", "s -> e1 e2", "--tensor", "e1|e2",
                       "--ring", "z")
    assert code == 0
    doc = json.loads(out)
    check_schema("pullback", doc)
    assert doc == {"gens": ["s"],
                   "terms": [{"key": ["s"], "coeff": "1"},
                             {"key": ["s", "s"], "coeff": "1"}]}


def test_johnson_command(capsys):
    code, out, _ = run(capsys, "johnson", "--gens", "x y",
                       "--endo", "x -> x, y -> x y x^-1", "--ring", "z",
                       "--order", "4")
    assert code == 0
    doc = json.loads(out)
    check_schema("johnson", doc)
    assert doc["level"] == 1
    assert doc["tau"]["matrix"] == [["0", "0"], ["0", "-1"], ["0", "1"], ["0", "0"]]


def test_oracle_command(capsys, tmp_path):
    table = tmp_path / "heis.json"
    table.write_text(json.dumps(heisenberg_table(2).to_json()))
    code, out, _ = run(capsys, "oracle", "--table", str(table),
                       "--ring", "fp:2", "--order", "3", "--word", "[x,y]")
    assert code == 0
    doc = json.loads(out)
    check_schema("oracle", doc)
    assert doc["dims"] == [1, 3, 5]
    assert doc["word_image"] == heisenberg_table(2).gens["z"]


@pytest.mark.parametrize("ring", ["fp:2", "z"])
def test_oracle_refuses_a_huge_order_at_once(tmp_path, ring):
    # Over a field the powers settle, but the answer would still list 10^9
    # entries; over Z they need not settle.  Both are refused up front.
    table = tmp_path / "heis.json"
    table.write_text(json.dumps(heisenberg_table(2).to_json()))
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "letterbraid.cli", "oracle", "--table", str(table),
         "--ring", ring, "--order", "1000000000"],
        env=subprocess_env(), capture_output=True, text=True, timeout=60)
    assert time.monotonic() - started < 1.0
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == "lb: order 1000000000 is above the budget of 10000 ideal powers\n"


@pytest.mark.parametrize("argv", [
    ["braid", "--gens", "x y", "--tensor", "|".join(["x", "y", "y", "x"] * 10),
     "--word", "[x*y, x^-2] y x^-1 x^-1 y^3", "--ring", "z"],
    ["pullback", "--gens", "x", "--endo", "x -> x^2", "--tensor", "|".join(["x"] * 24),
     "--ring", "z"],
], ids=["braid-weight-40", "pullback-weight-24"])
def test_long_tensors_are_answered_without_listing_cuts(argv):
    # A weight-r key has 2^(r-1) cuts: a route that lists them does not
    # finish within the timeout.
    proc = subprocess.run([sys.executable, "-m", "letterbraid.cli", *argv],
                          env=subprocess_env(), capture_output=True, text=True, timeout=20)
    assert proc.returncode == 0, proc.stderr
    json.loads(proc.stdout)


def test_invariance_check_reads_only_the_tensors_sandwiches(tmp_path):
    # Weight 8 on the genus-2 surface group: a quotient at order 9 has
    # 87,381 monomials, and eliminating it takes longer than the timeout.
    pres = tmp_path / "surface.pres"
    pres.write_text("gens: a1 b1 a2 b2\nrel: [a1,b1] [a2,b2]\n")
    proc = subprocess.run(
        [sys.executable, "-m", "letterbraid.cli", "check", "--presentation", str(pres),
         "--tensor", "a1|a1|a1|a1|a1|a1|a1|b1", "--ring", "fp:2"],
        env=subprocess_env(), capture_output=True, text=True, timeout=10)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout) == {"invariant": False, "witness": {
        "left": ["a1"] * 6, "relator": "a1 b1 a1^-1 b1^-1 a2 b2 a2^-1 b2^-1",
        "right": [], "value": "1"}}


def test_the_runtime_imports_only_the_standard_library():
    code = ("import sys, letterbraid, letterbraid.cli; "
            "print(' '.join(sorted(sys.modules)))")

    def loaded(*flags):
        proc = subprocess.run([sys.executable, *flags, "-c", code], env=subprocess_env(),
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        return {name.partition(".")[0] for name in proc.stdout.split()}

    assert not loaded() & {"oracles", "sympy", "hypothesis", "jsonschema", "pytest"}
    # Every lb process pays for its imports; without site, nothing else
    # would load these.
    assert not loaded("-S") & {"dataclasses", "typing", "inspect"}


@pytest.mark.parametrize("missing", ["size", "mul", "gens"])
def test_oracle_rejects_a_table_without_a_key(capsys, tmp_path, missing):
    doc = heisenberg_table(2).to_json()
    del doc[missing]
    table = tmp_path / "bad.json"
    table.write_text(json.dumps(doc))
    code, out, err = run(capsys, "oracle", "--table", str(table),
                         "--ring", "fp:2", "--order", "2")
    assert (code, out) == (1, "")
    assert repr(missing) in err


def test_oracle_rejects_malformed_tables(capsys, tmp_path):
    bad = [[1, 2], {"size": "2", "mul": [[0, 1], [1, 0]], "gens": {"x": 1}},
           {"size": 2, "mul": [[0, 1], [1, "0"]], "gens": {"x": 1}},
           {"size": 2, "mul": [[0, 1], [1, 0]], "gens": ["x"]},
           {"size": 2, "mul": [[0, 1], [1, 0]], "gens": {"x": True}}]
    table = tmp_path / "bad.json"
    for doc in bad:
        table.write_text(json.dumps(doc))
        code, out, err = run(capsys, "oracle", "--table", str(table),
                             "--ring", "fp:2", "--order", "2")
        assert (code, out) == (1, ""), doc
        assert err.startswith("lb: table"), doc


def test_oracle_rejects_a_table_that_is_not_associative(capsys, tmp_path):
    doc = direct_product_table(cyclic_table(8, "x"), cyclic_table(8, "y")).to_json()
    doc["mul"][1][1] = 1
    table = tmp_path / "bad.json"
    table.write_text(json.dumps(doc))
    code, out, err = run(capsys, "oracle", "--table", str(table),
                         "--ring", "fp:2", "--order", "2")
    assert (code, out) == (1, "")
    assert err.startswith("lb: table is not associative at ")


def test_johnson_domain_failures_exit_one(capsys, tmp_path):
    # x -> x, y -> x y x^-1 has level 1, so stage 2 is out of reach.
    code, out, err = run(capsys, "johnson", "--gens", "x y",
                         "--endo", "x -> x, y -> x y x^-1", "--ring", "z",
                         "--order", "4", "--weight", "2")
    assert (code, out) == (1, "")
    assert "< stage 2" in err
    # z -> z [x,y] breaks a relator, so tau is not defined.
    pres = tmp_path / "heis.pres"
    pres.write_text(HEIS)
    with pytest.warns(UserWarning, match="relator"):
        code, out, err = run(capsys, "johnson", "--presentation", str(pres),
                             "--endo", "x -> x, y -> y, z -> z [x,y]",
                             "--ring", "fp:2", "--weight", "1")
    assert (code, out) == (1, "")
    assert "weight-1 invariants" in err


def test_johnson_warning_is_one_line_without_a_source_path(tmp_path):
    pres = tmp_path / "heis.pres"
    pres.write_text(HEIS)
    proc = subprocess.run(
        [sys.executable, "-m", "letterbraid.cli", "johnson", "--presentation", str(pres),
         "--endo", "x -> x, y -> y, z -> z [x,y]", "--ring", "fp:2", "--weight", "1"],
        env=subprocess_env(), capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == (
        "lb: warning: endomorphism does not kill relator 'x y x^-1 y^-1 z^-1' "
        "at truncation order 3; it may not be well defined on the group\n"
        "lb: tau image is not a combination of weight-1 invariants\n")


def test_parse_errors_exit_two(capsys):
    code, _, err = run(capsys, "braid", "--gens", "x y", "--tensor", "x|w",
                       "--word", "x", "--ring", "z")
    assert code == 2
    assert "position" in err
    code, _, err = run(capsys, "depth", "--gens", "x", "--word", "x^",
                       "--order", "2", "--ring", "z")
    assert code == 2


def test_domain_errors_exit_one(capsys):
    code, _, err = run(capsys, "braid", "--gens", "x", "--tensor", "x",
                       "--word", "x", "--ring", "fp:9")
    assert code == 1


def test_missing_required_flag_exits_two(capsys):
    assert main(["braid", "--gens", "x y", "--word", "x"]) == 2
    assert main(["oracle", "--ring", "fp:2"]) == 2


@pytest.mark.parametrize("flag", [["--gens", "x y"], ["--presentation", "heis.pres"]])
def test_a_flag_the_command_does_not_read_is_a_usage_error(capsys, tmp_path, flag):
    table = tmp_path / "heis.json"
    table.write_text(json.dumps(heisenberg_table(2).to_json()))
    code, out, err = run(capsys, "oracle", "--table", str(table), "--ring", "fp:2",
                         "--order", "3", *flag)
    assert (code, out) == (2, "")
    assert err.endswith(f"lb: error: unrecognized arguments: {' '.join(flag)}\n")


# The least argv of each command; --format latex is rendered by invariants
# alone, and pair and pullback truncate at the tensor's weight + 1.
LEAST_ARGS = {
    "magnus": ["--gens", "x y", "--word", "x", "--order", "2"],
    "braid": ["--gens", "x y", "--tensor", "x|y", "--word", "x y"],
    "pair": ["--gens", "x y", "--tensor", "x|y", "--word", "x y"],
    "check": ["--gens", "x y", "--tensor", "x|y"],
    "depth": ["--gens", "x y", "--word", "x", "--order", "2"],
    "pullback": ["--gens", "x y", "--endo", "s -> x y", "--tensor", "x"],
    "johnson": ["--gens", "x y", "--endo", "x -> x, y -> y", "--order", "3"],
    "oracle": ["--table", "heis.json", "--order", "2"],
}


@pytest.mark.parametrize("command, extra, message", [
    *[pytest.param(c, ["--format", "latex"], "argument --format: invalid choice: 'latex'",
                   id=f"{c}-latex") for c in LEAST_ARGS],
    *[pytest.param(c, ["--order", "3"], "lb: error: unrecognized arguments: --order 3",
                   id=f"{c}-order") for c in ("pair", "pullback")],
])
def test_an_option_that_changes_nothing_is_a_usage_error(capsys, tmp_path, monkeypatch,
                                                         command, extra, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "heis.json").write_text(json.dumps(heisenberg_table(2).to_json()))
    assert run(capsys, command, *LEAST_ARGS[command])[0] == 0
    code, out, err = run(capsys, command, *LEAST_ARGS[command], *extra)
    assert (code, out) == (2, "")
    assert message in err


def test_a_negative_weight_is_named_as_a_weight(capsys):
    endo = ("--endo", "x -> x, y -> x y x^-1")
    for argv, message in [
            (("invariants", "--gens", "x y", "--weight", "-1"), "weight must be >= 0"),
            (("johnson", "--gens", "x y", *endo, "--weight", "-3"),
             "weight (the tau stage) must be >= 1"),
            (("johnson", "--gens", "x y", *endo, "--weight", "0"),
             "weight (the tau stage) must be >= 1")]:
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (1, "", f"lb: {message}\n"), argv


def test_a_large_prime_field_answers_at_once():
    # 2^61 - 1: trial division up to its square root does not end in time.
    proc = subprocess.run(
        [sys.executable, "-m", "letterbraid.cli", "braid", "--gens", "x y", "--tensor", "x",
         "--word", "x", "--ring", "fp:2305843009213693951"],
        env=subprocess_env(), capture_output=True, text=True, timeout=20)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout) == {"polynomial": ["0", "1"], "number": "1"}


def test_text_format_mentions_the_convention(capsys):
    code, out, _ = run(capsys, "braid", "--gens", "x y", "--tensor", "x|x|y|x",
                       "--word", "[x*y, x^-2]", "--ring", "z", "--format", "text")
    assert code == 0
    assert "leftmost" in out

