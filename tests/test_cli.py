"""Command-line interface: subcommands, exit codes, output channels."""

import json

import pytest

from gapmc.cli import main

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
    assert main(["check", system_file, "x=3, y=1", "--metrics", "EF (x = 0 & y = 0)"]) == 0
    captured = capsys.readouterr()
    m = json.loads(captured.err.strip().splitlines()[-1])
    assert m["graphs_created"] > 0
    assert m["nesting_depth"] >= 1


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


def test_oracle_diff(capsys):
    assert main(["oracle", "diff", "--seed", "3", "--cases", "5"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["mismatches"] == []
