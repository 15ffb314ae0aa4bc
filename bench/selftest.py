#!/usr/bin/env python3
"""Self-test of the benchmark harness.

    python3 bench/selftest.py        (or: python3 -m pytest bench/selftest.py)

Checks the judges on hand-worked cases and that the measuring loop counts a
flipped verdict and a corrupted JSON edge as failed operations.
"""

from __future__ import annotations

import copy
import json
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import judges  # noqa: E402
import workloads  # noqa: E402
from run import measure  # noqa: E402


def _pairs(transitions, weak):
    states = sorted({s for s, _, _ in transitions} | {t for _, _, t in transitions})
    return judges.bisimilar(states, transitions, weak)


def test_bisimilar_hand_worked():
    # s loops on a; t and t1 alternate on a: all three strongly bisimilar
    loop = {("s", "a", "s"), ("t", "a", "t1"), ("t1", "a", "t")}
    assert {("s", "t"), ("t", "t1"), ("s", "t1")} <= _pairs(loop, weak=False)
    # a.(b + c) against a.b + a.c: different strongly and weakly
    branch = {
        ("p", "a", "p1"), ("p1", "b", "p2"), ("p1", "c", "p3"),
        ("q", "a", "q1"), ("q1", "b", "q2"), ("q", "a", "q3"), ("q3", "c", "q4"),
    }
    for weak in (False, True):
        assert ("p", "q") not in _pairs(branch, weak)
        assert ("p2", "q4") in _pairs(branch, weak)  # both deadlocked
    # tau.a against a: weakly but not strongly bisimilar
    lead = {("s", "tau", "t"), ("t", "a", "u"), ("p", "a", "q")}
    assert ("s", "p") not in _pairs(lead, weak=False)
    assert ("s", "p") in _pairs(lead, weak=True)
    # a + tau.0 against a: the silent step to a deadlock is observable
    choice = {("s", "a", "t"), ("s", "tau", "u"), ("p", "a", "q")}
    assert ("s", "p") not in _pairs(choice, weak=True)
    # a.tau.b against a.b: weakly bisimilar
    inner = {
        ("s", "a", "s1"), ("s1", "tau", "s2"), ("s2", "b", "s3"),
        ("p", "a", "p1"), ("p1", "b", "p2"),
    }
    assert ("s", "p") in _pairs(inner, weak=True)
    assert ("s", "p") not in _pairs(inner, weak=False)
    # a tau loop is invisible to weak bisimilarity
    div = {("s", "tau", "s"), ("s", "a", "t"), ("p", "a", "q")}
    assert ("s", "p") in _pairs(div, weak=True)


def test_qbf_value_hand_worked():
    xor = [[("x", True), ("y", True)], [("x", False), ("y", False)]]
    assert judges.qbf_value([("A", "x"), ("E", "y")], xor)
    assert not judges.qbf_value([("E", "y"), ("A", "x")], xor)


def _run_once(ops):
    """One round of the measuring loop."""
    return measure(ops, 0.0)


def test_flipped_verdict_counts_as_failed():
    ops = workloads.qbf_ops(3, 0.0, "")[:6] + workloads.bisim_ops(3, 0.0, "")[:6]
    good = _run_once(ops)
    assert (len(good.times), good.failed, good.wrong) == (12, 0, 0)

    def flip(run):
        def flipped():
            verdict, metrics = run()
            return not verdict, metrics

        return flipped

    flipped = [workloads.Op(flip(op.run), op.judge, op.counts) for op in ops]
    bad = _run_once(flipped)
    assert (len(bad.times), bad.failed, bad.wrong) == (12, 12, 12)


def _workdir():
    (BENCH / "work").mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(dir=BENCH / "work")


def test_corrupted_edge_counts_as_failed():
    with _workdir() as workdir:
        op = workloads.denote_ops(3, 0.0, workdir)[0]
        code, out, err = op.run()
        assert code == 0 and op.judge((code, out, err))
        doc = json.loads(out)
        inst = op.judge.inst
        before = inst.members(doc)
        # tighten edges of the first graph by one until the set changes
        for i, edge in enumerate(doc[0]["edges"]):
            if isinstance(edge["weight"], int):
                bad = copy.deepcopy(doc)
                bad[0]["edges"][i]["weight"] += 1
                if (inst.members(bad) != before).any():
                    break
        else:
            raise AssertionError("no single-edge corruption changes the set")
        corrupted = (code, json.dumps(bad), err)
        unknown = copy.deepcopy(doc)
        unknown[0]["edges"][0]["from"] = "nowhere"
        for answer in (corrupted, (code, json.dumps(unknown), err)):
            run = _run_once([workloads.Op(lambda a=answer: a, op.judge, op.counts)])
            assert (len(run.times), run.failed, run.wrong) == (1, 1, 1)


def test_instance_search_matches_truth():
    with _workdir() as workdir:
        for op in workloads.denote_ops(4, 0.0, workdir)[:8]:
            assert bool(op.judge.inst.reach[op.judge.inst.initial]) is op.judge.truth


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"ok {name}")
