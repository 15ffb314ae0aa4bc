"""Command-line interface: subcommands, exit codes, output channels."""

import json
import os
import pathlib
import random
import re
import shlex
import subprocess
import sys
import time

import pytest

import gapmc
from gapmc import oracle
from gapmc.cli import main
from gapmc.frontend import (
    ParseError,
    _parse_gcs_tokens,
    _parse_plain_gcs,
    parse_gcs,
    parse_qbf,
    serialize_formula,
    serialize_gcs,
    serialize_valuation,
)
from gapmc.logic import Ef
from gapmc.reductions import qbf_to_gcs

COUNTDOWN = """
gcs {
  vars: x, y;
  consts: 0;
}
rule CX [a]: x > x' & x' >= 0 & y = y';
rule CY [b]: y > y' & x' >= x & y' >= 0;
"""


@pytest.fixture
def system_file(tmp_path):
    p = tmp_path / "countdown.gcs"
    p.write_text(COUNTDOWN)
    return str(p)


def test_check_true(system_file, capsys):
    assert main(["check", system_file, "x=3, y=1", "EF (x = 0 & y = 0)"]) == 0
    assert capsys.readouterr().out.strip() == "true"


def test_check_false(system_file, capsys):
    assert main(["check", system_file, "x=-1, y=0", "EF (x = 0 & y = 0)"]) == 1


def test_check_false_exit_code(system_file, capsys):
    assert main(["check", system_file, "x=5, y=5", "x - 0 >= 9"]) == 1
    assert capsys.readouterr().out.strip() == "false"


def test_check_metrics_on_stderr(system_file, capsys):
    # the early stop counts the compositions up to and including the hit,
    # not the rest of the batch that holds it
    common = {"degree_bound": 0, "constants_magnitude": 0, "dimension": 9,
              "constraint_count": 2, "nesting_depth": 1}
    for valuation, counted in (
        ("x=3, y=1", {"graphs_created": 4, "pool_size": 3, "max_norm": 3}),
        ("x=1, y=0", {"graphs_created": 1, "pool_size": 0, "max_norm": 2}),
    ):
        assert main(["check", system_file, valuation, "--metrics", "EF (x = 0 & y = 0)"]) == 0
        captured = capsys.readouterr()
        assert captured.out == "true\n"
        assert json.loads(captured.err) == {**counted, **common}


def test_check_eg_is_rejected(system_file, capsys):
    assert main(["check", system_file, "x=0, y=0", "EG true"]) == 2
    assert "undecidable" in capsys.readouterr().err


def test_check_eu_is_rejected(system_file, capsys):
    assert main(["check", system_file, "x=0, y=0", "E (true U x >= 0)"]) == 2
    assert "undecidable" in capsys.readouterr().err


def test_parse_error_exit_2(system_file, capsys):
    assert main(["check", system_file, "x=3, y=1", "EF (("]) == 2
    assert "error" in capsys.readouterr().err


def test_bad_system_file_exit_2(tmp_path, capsys):
    p = tmp_path / "bad.gcs"
    p.write_text("gcs { vars x; }")
    assert main(["check", str(p), "x=0", "true"]) == 2


def test_integers_beyond_the_exact_range_exit_2(tmp_path, capsys):
    p = tmp_path / "big.gcs"
    p.write_text("gcs {\n  vars: x;\n  consts: 0;\n}\nrule A [a]: x > x' & x' >= 0;\n")
    # 2^53 + 1 rounds to 2^53 in float64, which once made this print true
    assert main(["check", str(p), "x=9007199254740992", "x - 0 >= 9007199254740993"]) == 2
    assert "2^53" in capsys.readouterr().err
    # over the two nodes x and 0, magnitudes up to 2^53 // 3 are exact
    ok = 2**53 // 3
    assert main(["check", str(p), f"x={ok}", f"x - 0 >= {ok}"]) == 0
    assert main(["check", str(p), f"x={ok - 1}", f"x - 0 >= {ok}"]) == 1
    assert main(["check", str(p), f"x={ok + 1}", "x - 0 >= 0"]) == 2
    assert main(["check", str(p), "x=0", f"0 - x >= {-ok - 1}"]) == 2


def test_the_exact_range_is_that_of_every_constant(tmp_path, capsys):
    # the engine keeps one constant node of two, but the exact range stays
    # the full layout's: x, x', 0, 5 are 4 nodes of a rule, x, 0, 5 are 3
    # of a set or a valuation
    rule, plain = 2**53 // 5, 2**53 // 4
    spec = "gcs {{\n  vars: x;\n  consts: 0, 5;\n}}\nrule A [a]: x > x' & x' - 5 >= {};\n"
    p = tmp_path / "big.gcs"
    p.write_text(spec.format(rule + 1))
    assert main(["check", str(p), "x=3", "EF(x - 0 >= 1)"]) == 2
    assert capsys.readouterr().err == (
        f"error: |{rule + 1}| x (4 nodes + 1) exceeds 2^53, the exact range of weights\n"
    )
    p.write_text(spec.format(rule))
    assert main(["check", str(p), "x=3", "EF(x - 0 >= 1)"]) == 0
    p.write_text(spec.format(0))
    assert main(["check", str(p), f"x={plain + 1}", "EF(x - 5 >= 0)"]) == 2
    assert capsys.readouterr().err == (
        f"error: |{plain + 1}| x (3 nodes + 1) exceeds 2^53, the exact range of weights\n"
    )
    assert main(["check", str(p), f"x={plain}", f"EF(x - 5 >= {plain})"]) == 1
    assert main(["check", str(p), f"x={plain}", f"EF(x - 5 >= {plain - 5})"]) == 0
    # a constant as large, which only a shift of the engine layout holds
    spec = "gcs {{\n  vars: x;\n  consts: 0, {};\n}}\nrule A [a]: x > x' & x' >= 0;\n"
    p.write_text(spec.format(rule + 1))
    capsys.readouterr()
    assert main(["check", str(p), "x=3", "EF(0 - x >= 0)"]) == 2
    assert capsys.readouterr().err == (
        f"error: |{rule + 1}| x (4 nodes + 1) exceeds 2^53, the exact range of weights\n"
    )
    p.write_text(spec.format(rule))
    assert main(["check", str(p), "x=3", "EF(0 - x >= 0)"]) == 0


def test_denote_declared_unused_action(tmp_path, capsys):
    p = tmp_path / "acts.gcs"
    p.write_text("gcs {\n  vars: x;\n  consts: 0;\n  acts: a, b;\n}\nrule B [b]: x > x';\n")
    assert main(["denote", str(p), "<a> true"]) == 0
    assert json.loads(capsys.readouterr().out) == []


def test_missing_file_exit_2(capsys):
    assert main(["check", "/nonexistent.gcs", "x=0", "true"]) == 2


def test_usage_error_exit_2(capsys):
    assert main(["check"]) == 2
    assert main(["frobnicate"]) == 2


def test_denote_emits_json(system_file, capsys):
    assert main(["denote", system_file, "<a> true"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc) == 1
    edges = {(e["from"], e["to"], e["weight"]) for e in doc[0]["edges"]}
    assert ("x", 0, 1) in edges


def test_prestar_consumes_denote_output(system_file, tmp_path, capsys):
    assert main(["denote", system_file, "x = 0 & y = 0"]) == 0
    set_doc = capsys.readouterr().out
    set_file = tmp_path / "target.json"
    set_file.write_text(set_doc)
    assert main(["prestar", system_file, str(set_file)]) == 0
    doc = json.loads(capsys.readouterr().out)
    from gapmc.frontend import set_from_json
    from gapmc.mg import Clause
    from gapmc.sets import atom_set, same_set, union

    got = set_from_json(doc, ("x", "y"), (0,))
    expect = union(
        atom_set(("x", "y"), (0,), [Clause("y", 0, 1)]),
        atom_set(("x", "y"), (0,), [Clause("x", 0, 0), Clause("y", 0, 0), Clause(0, "y", 0)]),
    )
    assert same_set(got, expect)


def test_prestar_actions_and_guard(system_file, tmp_path, capsys):
    main(["denote", system_file, "x = 0 & y = 0"])
    set_file = tmp_path / "t.json"
    set_file.write_text(capsys.readouterr().out)
    assert main(["prestar", system_file, str(set_file), "--actions", "a"]) == 0
    capsys.readouterr()
    assert main(["prestar", system_file, str(set_file), "--guard", "x' - x >= 0"]) == 0
    capsys.readouterr()
    # a negative-offset guard is outside the decidable fragment
    assert main(["prestar", system_file, str(set_file), "--guard", "x - x' >= -1"]) == 2


# x' = x + 1: the rule's clause x - x' >= -1 is outside the paper's GCS (k >= 0)
INCREMENT = """
gcs {
  vars: x;
  consts: 0;
}
rule inc [a]: x' - x >= 1 & x - x' >= -1;
"""


def test_reachability_over_a_non_positive_rule_exits_2(tmp_path, capsys):
    # pre* of x = 0 is x = -1, -2, ..., none covering another: the query is
    # refused before any fixpoint work instead of running forever
    system = tmp_path / "inc.gcs"
    system.write_text(INCREMENT)
    set_file = tmp_path / "zero.json"
    assert main(["denote", str(system), "x = 0"]) == 0
    set_file.write_text(capsys.readouterr().out)
    for argv in (
        ["check", str(system), "x=5", "EF (x = 0)"],
        ["check", str(system), "x=5", "AG (x >= 0)"],
        ["denote", str(system), "EF[a] (x = 0)"],
        ["prestar", str(system), str(set_file)],
    ):
        start = time.monotonic()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "error: reachability needs positive rules: rule inc has x - x' >= -1" in err
        assert time.monotonic() - start < 5
    # one step over the rule still gets an answer
    assert main(["check", str(system), "x=5", "<a> true"]) == 0
    assert main(["check", str(system), "x=5", "<a> x = 0"]) == 1


def test_a_warning_is_printed_once_per_rule(tmp_path, capsys):
    # x = 7 is two clauses, each naming the undeclared constant 7
    system = tmp_path / "seven.gcs"
    system.write_text("gcs {\n  vars: x;\n}\nrule r0 [a]: x = 7;\n")
    assert main(["check", str(system), "x=1", "true"]) == 0
    assert capsys.readouterr().err == "warning: rule r0: unknown symbol 7\n"


def test_metrics_describe_the_system_without_an_ef(system_file, tmp_path, capsys):
    # dimension, constraint_count and constants_magnitude are the system's
    # size, whether or not a fixpoint ran
    other = tmp_path / "other.gcs"
    other.write_text("gcs {\n  vars: x;\n  consts: -3, 2;\n}\nrule up [a]: x' > x;\n")
    for argv, size in (
        (["check", system_file, "x=1, y=0", "<a> true"], (9, 2, 0)),
        (["check", system_file, "x=1, y=0", "x >= 0"], (9, 2, 0)),
        (["denote", system_file, "x = 0 & y = 0"], (9, 2, 0)),
        (["check", str(other), "x=1", "<a> true"], (9, 1, 3)),
        (["denote", str(other), "x >= 2"], (9, 1, 3)),
    ):
        assert main(argv + ["--metrics"]) in (0, 1)
        m = json.loads(capsys.readouterr().err)
        assert (m["dimension"], m["constraint_count"], m["constants_magnitude"]) == size
        assert m["graphs_created"] <= 2


def test_max_pool_exit_2(system_file, capsys):
    assert main(["check", system_file, "x=3, y=3", "--max-pool", "1",
                 "EF (x = 0 & y = 0)"]) == 2


def test_bisim_true_and_false(system_file, tmp_path, capsys):
    lts = tmp_path / "dead.lts"
    lts.write_text("d\n")
    assert main(["bisim", system_file, "x=-5, y=-5", str(lts), "d"]) == 0
    assert capsys.readouterr().out.strip() == "true"
    assert main(["bisim", system_file, "x=1, y=0", str(lts), "d"]) == 1
    assert capsys.readouterr().out.strip() == "false"


def test_gen_qbf_round_trip(tmp_path, capsys):
    out = tmp_path / "inst"
    assert main(["gen-qbf", "A x E y : (x & y) | (!x & !y)", "--out", str(out)]) == 0
    manifest = json.loads(capsys.readouterr().out)
    assert sorted(manifest["files"]) == ["initial.val", "instance.gcs", "target.ef"]
    code = main([
        "check",
        str(out / "instance.gcs"),
        (out / "initial.val").read_text().strip(),
        (out / "target.ef").read_text().strip(),
    ])
    assert code == 0  # the QBF is true


def test_gen_qbf_output_matches_golden_files(tmp_path, capsys):
    # the files that earlier releases wrote for the README QBF, byte for byte
    out = tmp_path / "inst"
    assert main(["gen-qbf", "A x E y : (x & y) | (!x & !y)", "--out", str(out)]) == 0
    for name in ("instance.gcs", "initial.val", "target.ef"):
        assert (out / name).read_bytes() == (DATA / "gen_qbf_readme" / name).read_bytes(), name


def _random_clashing_qbf(rng):
    """A prenex QBF over names that gen-qbf's control variable and flags
    could take, with a matrix of one to three literal disjunctions."""
    names = rng.sample(["x", "state", "y_1", "y_2", "y_3"], rng.randint(1, 4))
    prefix = " ".join(f"{rng.choice('AE')} {v}" for v in names)
    clauses = [" | ".join(rng.choice(("", "!")) + rng.choice(names) for _ in range(rng.randint(1, 3)))
               for _ in range(rng.randint(1, 3))]
    return prefix + " : " + " & ".join(f"({c})" for c in clauses)


def test_gen_qbf_names_its_variables_apart_from_the_qbfs(tmp_path, capsys):
    # the control variable and the flags are named outside the QBF's own
    # variables, so every instance parses back and answers as the QBF
    # evaluates; these five once repeated a variable and answered wrongly
    rng = random.Random(28)
    texts = ["A x A y_1 : !x | y_1", "A y_2 A x : !y_2 | x", "E y_2 A x : y_2 & x",
             "E state : state", "A state : state | !state"]
    texts += [_random_clashing_qbf(rng) for _ in range(40)]
    for i, text in enumerate(texts):
        out = tmp_path / str(i)
        assert main(["gen-qbf", text, "--out", str(out)]) == 0
        code = main([
            "check",
            str(out / "instance.gcs"),
            (out / "initial.val").read_text().strip(),
            (out / "target.ef").read_text().strip(),
        ])
        assert capsys.readouterr().err == ""
        assert code == (0 if oracle.qbf_eval(parse_qbf(text)) else 1), text


def test_gen_qbf_refuses_a_variable_quantified_twice(tmp_path, capsys):
    out = tmp_path / "inst"
    assert main(["gen-qbf", "A x E x : x", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: variables ['x'] are quantified more than once\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "matrix", [" & ".join(["x"] * 3000), " | ".join(["x"] * 3000)], ids=["and-chain", "or-chain"],
)
def test_gen_qbf_wide_matrix_is_translated(matrix, tmp_path, capsys):
    # a flat chain does not nest: it is translated at any length, and the
    # written instance answers as the QBF evaluates
    text = "A x : " + matrix
    out = tmp_path / "inst"
    assert main(["gen-qbf", text, "--out", str(out)]) == 0
    code = main([
        "check",
        str(out / "instance.gcs"),
        (out / "initial.val").read_text().strip(),
        (out / "target.ef").read_text().strip(),
    ])
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert code == (0 if oracle.qbf_eval(parse_qbf(text)) else 1)
    assert captured.out.split()[-1] == ("true" if code == 0 else "false")


@pytest.mark.parametrize("matrix", ["!" * 3000 + "x"], ids=["negations"])
def test_gen_qbf_deep_matrix_exits_2_without_a_traceback(matrix, tmp_path, capsys):
    assert main(["gen-qbf", "A x : " + matrix, "--out", str(tmp_path / "inst")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "nests too deeply" in captured.err
    assert "Traceback" not in captured.err


def test_gen_qbf_deeply_nested_parentheses_exit_2(tmp_path, capsys):
    out = tmp_path / "inst"
    assert main(["gen-qbf", "E x : " + "(" * 2000 + "x" + ")" * 2000, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the QBF nests too deeply to parse\n"
    assert not out.exists()


def _alone(argv):
    """Exit code, stdout and stderr of argv as the only call of a fresh
    interpreter."""
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(gapmc.__file__).parents[1]), "COLUMNS": "80"}
    run = subprocess.run([sys.executable, "-m", "gapmc.cli", *argv], capture_output=True,
                         text=True, env=env, check=False)
    return run.returncode, run.stdout, run.stderr


def test_one_parser_serves_every_call_of_a_process(system_file, tmp_path, capsys, monkeypatch):
    # cli.main parses with one parser built at import; no call may leave a
    # trace in the next, whatever it was (a verdict, a usage error, --help,
    # an option given once and then left out)
    monkeypatch.setenv("COLUMNS", "80")
    lts = tmp_path / "loop.lts"
    lts.write_text("d\n")
    calls = [
        ["check", system_file, "x=3, y=3", "EF (x = 0 & y = 0)", "--max-pool", "1"],
        ["check", system_file, "x=3, y=3", "EF (x = 0 & y = 0)"],
        ["denote", system_file, "<a> true", "--metrics"],
        ["check"],
        ["--help"],
        ["denote", system_file, "x = 0 & y = 0"],
        ["bisim", system_file, "x=-5, y=-5", str(lts), "d", "--mode", "weak"],
        ["bisim", system_file, "x=1, y=0", str(lts), "d"],
        ["denote", "--help"],
        ["check", system_file, "x=1, y=0", "EF (x = 0)", "--max-pool", "-1"],
        ["check", system_file, "x=1, y=0", "EF (x = 0)"],
    ]
    alone = {i: _alone(argv) for i, argv in enumerate(calls)}
    assert {code for code, _, _ in alone.values()} == {0, 1, 2}
    for i in [*range(len(calls)), *reversed(range(len(calls))), 1, 0, 1, 4, 3, 2]:
        code = main(list(calls[i]))
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == alone[i], calls[i]


def test_oracle_diff(capsys):
    assert main(["oracle", "diff", "--seed", "3", "--cases", "5"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["mismatches"] == []


# -- stable output and inputs refused with exit 2 --------------------------------

DATA = pathlib.Path(__file__).parent / "data"


def test_denote_output_matches_golden_files(system_file, tmp_path, capsys):
    # the golden files hold the stdout of earlier releases, byte for byte
    for formula, golden in (("<a> true", "denote_countdown_diamond_a.json"),
                            ("x = 0 & y = 0", "denote_countdown_origin.json")):
        assert main(["denote", system_file, formula]) == 0
        assert capsys.readouterr().out == (DATA / golden).read_text()
    out = tmp_path / "inst"
    assert main(["gen-qbf", "A x E y : (x & y) | (!x & !y)", "--out", str(out)]) == 0
    capsys.readouterr()
    target = (out / "target.ef").read_text().strip()
    assert main(["denote", str(out / "instance.gcs"), target]) == 0
    assert capsys.readouterr().out == (DATA / "denote_qbf_readme.json").read_text()


def test_denote_prints_the_same_for_a_commented_text_and_its_canonical_form(tmp_path, capsys):
    # the token parser reads the commented, oddly spaced text and the
    # clause-group reading its serialize_gcs form
    messy = tmp_path / "messy.gcs"
    messy.write_text(
        "# the countdown of the fixture, spaced oddly\n"
        "gcs{vars:x ,y;\tconsts :0;}\n"
        "rule CX[a]:x>x'&\n   x'>=0 # x stays natural\n & y=y' ;\n"
        "rule CY [ b ] :  y - y' >= 1&x'>=x&y'>= 0;"
    )
    canonical = tmp_path / "canonical.gcs"
    canonical.write_text(serialize_gcs(parse_gcs(messy.read_text())))
    assert _parse_plain_gcs(messy.read_text()) is None
    assert _parse_plain_gcs(canonical.read_text()) == parse_gcs(COUNTDOWN)
    for formula in ("x = 0 & y = 0", "EF (x = 0 & y = 0)", "<b> true"):
        outs = []
        for path in (messy, canonical):
            code = main(["denote", str(path), formula])
            outs.append((code, *capsys.readouterr()))
        assert outs[0] == outs[1] and outs[0][0] == 0 and outs[0][1].startswith("[")


def test_a_bad_clause_in_the_last_rule_of_a_long_file_is_reported_where_it_is(tmp_path, capsys):
    g, _, f = qbf_to_gcs(parse_qbf("A x1 E x2 A x3 E x4 : (x1 | !x2 | x3) & (!x1 | x4) & (x2 | !x4)"))
    lines = serialize_gcs(g).splitlines()
    cut = lines[-1].rindex(" - ")
    lines[-1] = lines[-1][:cut] + " -5 >= 0;"  # "-5" is a number: no comparison follows 10
    path = tmp_path / "instance.gcs"
    path.write_text("\n".join(lines) + "\n")
    where = f"line {len(lines)}, column {cut + 2}"
    with pytest.raises(ParseError) as e:
        _parse_gcs_tokens(path.read_text())
    assert str(e.value) == f"expected a comparison, found '-5' at {where}"
    assert len(lines) > 10 and _parse_plain_gcs(path.read_text()) is None
    assert main(["denote", str(path), serialize_formula(f)]) == 2
    assert capsys.readouterr().err == f"error: {e.value}\n"


@pytest.mark.parametrize("argv, message", [
    (["check", "{sys}", "x=1", "y >= 0"], "no value to: y"),
    (["check", "{sys}", "x=1", "EF (y >= 0)"], "no value to: y"),
    (["check", "{sys}", "x=1", "y >= 0 & !(y >= 0)"], "no value to: y"),
    (["check", "{sys}", "x=1, y=0, z=4", "y >= 0"], "unknown variables: z"),
    (["bisim", "{sys}", "x=1", "{dir}/loop.lts", "s"], "no value to: y"),
    (["bisim", "{sys}", "x=1, y=0", "{dir}/loop.lts", "nowhere"], "unknown LTS state"),
    (["prestar", "{sys}", "{dir}/no_weight.json"], '"weight"'),
    (["prestar", "{sys}", "{dir}/object.json"], "JSON array"),
    (["prestar", "{sys}", "{dir}/bad_node.json"], "bad graph node"),
    (["prestar", "{sys}", "{dir}/bad_weight.json"], "bad edge weight"),
    (["prestar", "{sys}", "{dir}/fractional_weight.json"], "bad edge weight 2.5"),
    # JSON integers: Python would read true as 1, false as 0 and "5" as 5
    (["prestar", "{sys}", "{dir}/bool_weight.json"], "bad edge weight True"),
    (["prestar", "{sys}", "{dir}/string_weight.json"], "bad edge weight '5'"),
    (["prestar", "{sys}", "{dir}/bool_node.json"], "bad graph node False"),
    (["prestar", "{sys}", "{dir}/deep.json"], "nests too deeply"),
    # a header entry, a name in it and a variable of a valuation appear once
    (["check", "{dir}/vars_twice.gcs", "x=1", "true"], "repeated header entry 'vars'"),
    (["check", "{dir}/names_twice.gcs", "x=1", "true"], "repeated variable 'x'"),
    (["check", "{dir}/consts_twice.gcs", "x=1", "true"], "repeated constant '0'"),
    (["check", "{sys}", "x=2, x=3, y=0", "true"], "'x' is assigned twice"),
    # every action filter takes declared actions only
    (["check", "{sys}", "x=1, y=0", "<zz> true"], "unknown action 'zz'"),
    (["check", "{sys}", "x=1, y=0", "EF[zz] (x >= 0)"], "unknown action 'zz'"),
    (["check", "{sys}", "x=1, y=0", "AG[zz] (x >= 0)"], "unknown action 'zz'"),
    (["denote", "{sys}", "EF[a,zz] (x >= 0)"], "unknown action 'zz'"),
    (["prestar", "{sys}", "{dir}/origin.json", "--actions", "zz"], "unknown action 'zz'"),
    # counts are not negative
    (["check", "{sys}", "x=1, y=0", "EF (x = 0)", "--max-pool", "-1"],
     "--max-pool must not be negative, got -1"),
    (["oracle", "diff", "--cases", "-1"], "--cases must not be negative, got -1"),
])
def test_bad_inputs_exit_2_without_a_traceback(argv, message, system_file, tmp_path, capsys):
    (tmp_path / "loop.lts").write_text("s -a-> s\n")
    (tmp_path / "vars_twice.gcs").write_text("gcs { vars: x; consts: 0; vars: y; }\n")
    (tmp_path / "names_twice.gcs").write_text("gcs { vars: x, x; consts: 0; }\n")
    (tmp_path / "consts_twice.gcs").write_text("gcs { vars: x; consts: 0, 0; }\n")
    edge = {"from": "x", "to": 0}
    docs = {
        "origin.json": [{"nodes": ["x", "y", 0], "edges": []}],
        "bool_weight.json": [{"nodes": ["x", "y", 0], "edges": [dict(edge, weight=True)]}],
        "string_weight.json": [{"nodes": ["x", "y", 0], "edges": [dict(edge, weight="5")]}],
        "bool_node.json": [{"nodes": ["x", "y", False], "edges": []}],
        "no_weight.json": [{"nodes": ["x", "y", 0], "edges": [edge]}],
        "object.json": {"a": 1},
        "bad_node.json": [{"nodes": ["x", "y", None], "edges": []}],
        "bad_weight.json": [{"nodes": ["x", "y", 0], "edges": [dict(edge, weight=[1])]}],
        # x - 0 >= 2.5 holds for x >= 3: truncating to 2 would change the set
        "fractional_weight.json": [{"nodes": ["x", "y", 0], "edges": [dict(edge, weight=2.5)]}],
    }
    for name, doc in docs.items():
        (tmp_path / name).write_text(json.dumps(doc))
    (tmp_path / "deep.json").write_text("[" * 3000 + "]" * 3000)
    argv = [a.format(sys=system_file, dir=tmp_path) for a in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and message in captured.err
    assert "Traceback" not in captured.err


def test_long_flat_formulas_get_a_verdict(system_file, capsys):
    # evaluation walks formulas without recursion: a 3000-atom conjunction
    # and a 2000-atom disjunction under EF are answered like short ones
    assert main(["denote", system_file, " & ".join(["x >= 0"] * 3000)]) == 0
    out = capsys.readouterr().out
    assert main(["denote", system_file, "x >= 0"]) == 0
    assert capsys.readouterr().out == out
    wide = "EF (" + " | ".join(f"x - 0 >= {k}" for k in range(2000)) + ")"
    assert main(["check", system_file, "x=3, y=1", wide]) == 0
    assert main(["check", system_file, "x=-1, y=0", wide]) == 1
    assert capsys.readouterr().out.split() == ["true", "false"]


def test_long_flat_formulas_get_a_verdict_from_check(system_file, capsys):
    # check walks the boolean skeleton above the first modality without
    # recursion: a 3000-atom conjunction and a 2000-atom disjunction at the
    # top are answered at the valuation like short ones; the leading negation
    # keeps every ∧ of the chain in the skeleton, not one graph of atoms
    conj = "!(x - 0 >= 5) & " + " & ".join(f"x - 0 >= {k}" for k in range(-3000, 0))
    assert main(["check", system_file, "x=0, y=1", conj]) == 0
    assert main(["check", system_file, "x=-2, y=1", conj]) == 1
    disj = " | ".join(f"x - 0 >= {k}" for k in range(2000, 0, -1))
    assert main(["check", system_file, "x=1, y=0", disj]) == 0
    assert main(["check", system_file, "x=0, y=0", disj]) == 1
    captured = capsys.readouterr()
    assert captured.out.split() == ["true", "false", "true", "false"]
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("formula", [
    "!" * 3000 + "true",
    "EF " * 3000 + "(x >= 0)",
    "(" * 3000 + "x >= 0" + ")" * 3000,
], ids=["not", "ef", "parentheses"])
def test_too_deeply_nested_formulas_exit_2_without_a_traceback(formula, system_file, capsys):
    for argv in (["denote", system_file, formula], ["check", system_file, "x=1, y=0", formula]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "nests too deeply" in captured.err
        assert "Traceback" not in captured.err


def test_nesting_accepted_by_the_parser_is_evaluated(system_file, capsys):
    # the deepest unary nesting the parser takes must not fail later on;
    # 400 levels is well within the parser's reach under pytest
    for formula in ("!" * 400 + "(x >= 0)", "<a> " * 400 + "true", "EF " * 400 + "(x >= 0)"):
        assert main(["check", system_file, "x=1, y=0", formula]) in (0, 1)
        assert capsys.readouterr().out.strip() in ("true", "false")


# -- the README's quick start, command by command --------------------------------

# every command of the README's quick-start block, with its documented exit code
QUICK_START_EXITS = {
    'gapmc check countdown.gcs "x=3, y=1" "EF (x = 0 & y = 0)"': 0,
    'gapmc denote countdown.gcs "<a> true"': 0,
    'gapmc denote countdown.gcs "x = 0 & y = 0" > target.json': 0,
    "gapmc prestar countdown.gcs target.json --actions a,b": 0,
    "printf 's -a-> s\\n' > loop.lts": None,
    'gapmc bisim countdown.gcs "x=1, y=0" loop.lts s --mode strong': 1,
    'gapmc gen-qbf "A x E y : (x & y) | (!x & !y)" --out inst/': 0,
    'gapmc check inst/instance.gcs "$(cat inst/initial.val)" "$(cat inst/target.ef)"': 0,
    "gapmc oracle diff --seed 1 --cases 100": 0,
}


def _readme_block(readme: str, after: str, lang: str) -> str:
    start = readme.index("```" + lang + "\n", readme.index(after)) + len(lang) + 4
    return readme[start:readme.index("```", start)]


def test_readme_quick_start_commands(tmp_path, monkeypatch, capsys):
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    monkeypatch.chdir(tmp_path)
    pathlib.Path("countdown.gcs").write_text(_readme_block(readme, "## Quick start", "text"))
    commands = [ln for ln in _readme_block(readme, "Primed variables", "sh").splitlines()
                if ln and not ln.startswith("#")]
    assert commands == list(QUICK_START_EXITS)
    for command, code in QUICK_START_EXITS.items():
        command = re.sub(r"\$\(cat ([^)]+)\)",
                         lambda m: pathlib.Path(m.group(1)).read_text().strip(), command)
        words, target = shlex.split(command), None
        if words[-2] == ">":
            words, target = words[:-2], words[-1]
        if words[0] == "printf":
            pathlib.Path(target).write_text(words[1].replace("\\n", "\n"))
            continue
        assert words[0] == "gapmc"
        assert main(words[1:]) == code, command
        out = capsys.readouterr().out
        if target:
            pathlib.Path(target).write_text(out)


def test_check_verdicts_agree_with_the_window_oracle(tmp_path, capsys):
    # random window-closed systems written as files, random formulas (half
    # of them under a top-level EF, the early-stop path) at random window
    # states: exit 0 or 1 is the explicit search's verdict
    rng = random.Random(44)
    verdicts = {0: 0, 1: 0}
    for case in range(250):
        g = oracle.random_window_closed_gcs(rng)
        window = oracle.WindowGraph(g, 0, 4)
        path = tmp_path / f"system{case}.gcs"
        path.write_text(serialize_gcs(g))
        for _ in range(3):
            f = oracle.random_formula(rng, g, depth=3)
            if rng.random() < 0.5:
                f = Ef(f)
            v = rng.choice(window.states)
            code = main(["check", str(path), serialize_valuation(v), serialize_formula(f)])
            captured = capsys.readouterr()
            if code == 2:
                assert captured.err.startswith("error:") and "Traceback" not in captured.err
                continue
            assert code == (0 if oracle.explicit_check(window, v, f) else 1), (g, v, f)
            assert captured.out == ("true\n" if code == 0 else "false\n")
            verdicts[code] += 1
    assert min(verdicts.values()) >= 250, verdicts
