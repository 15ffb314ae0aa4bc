"""System model: validation, explicit stepping, window enumeration, LTS encoding."""

import pathlib
import random

import pytest

from gapmc.bisim import FiniteLts
from gapmc.frontend import serialize_gcs
from gapmc.gcs import Gcs, TransitionRule, encode_finite_lts, step, successors_in_window, validate
from gapmc.mg import Clause, from_constraint

from conftest import random_valuation


def test_validate_countdown_clean(countdown):
    assert validate(countdown) == []


def test_validate_negative_offset():
    g = Gcs(("x",), (0,), ("a",), (TransitionRule("r", (Clause("x", "x'", -1),), "a"),))
    diags = validate(g)
    assert any("positive" in d for d in diags)


def test_validate_unknown_symbol():
    g = Gcs(("x",), (0,), ("a",), (TransitionRule("r", (Clause("z", "x'", 0),), "a"),))
    diags = validate(g)
    assert any("z" in d for d in diags)


def test_validate_unknown_label():
    g = Gcs(("x",), (0,), ("a",), (TransitionRule("r", (Clause("x", "x'", 1),), "b"),))
    assert validate(g)


def test_validate_reports_each_diagnostic_once_per_rule():
    # x = 7 is two clauses, and both name the undeclared constant 7
    clauses = (Clause("x", 7, 0), Clause(7, "x", 0))
    g = Gcs(("x",), (), ("a",), (TransitionRule("r0", clauses, "a"), TransitionRule("r1", clauses, "b")))
    assert validate(g) == [
        "rule r0: unknown symbol 7",
        "rule r1: label 'b' is not a declared action",
        "rule r1: unknown symbol 7",
    ]


def _reference_validate(g):
    # every clause of every rule checked in turn, repeats included
    diags = []
    symbols = set(g.vars) | {x + "'" for x in g.vars} | set(g.consts)
    for rule in g.rules:
        found = [] if rule.label in g.acts else [f"label {rule.label!r} is not a declared action"]
        for c in rule.clauses:
            if not c.is_positive():
                found.append(f"clause {c.left}-{c.right}>={c.k} is not positive")
            found += [f"unknown symbol {e!r}" for e in (c.left, c.right) if e not in symbols]
        diags += [f"rule {rule.name}: {d}" for d in dict.fromkeys(found)]
    return diags


def test_validate_matches_the_clause_by_clause_reference():
    rng = random.Random(23)
    nodes = ["x", "y", "x'", "y'", "z", "z'", 0, 1, 5, -2]
    seen = set()
    for _ in range(300):
        rules = []
        for i in range(rng.randint(0, 4)):
            pool = [Clause(rng.choice(nodes), rng.choice(nodes), rng.randint(-2, 2)) for _ in range(3)]
            clauses = tuple(rng.choice(pool) for _ in range(rng.randint(0, 6)))  # with repeats
            rules.append(TransitionRule(f"r{i}", clauses, rng.choice("abc")))
        g = Gcs(("x", "y"), (0, 1), ("a", "b"), tuple(rules))
        diags = validate(g)
        assert diags == _reference_validate(g)
        seen.update(d.split(": ", 1)[1].split(" ")[0] for d in diags)
    assert seen == {"label", "clause", "unknown"}


# -- step --------------------------------------------------------------------


def test_step_examples(countdown):
    assert step(countdown, {"x": 3, "y": 2}, {"x": 1, "y": 2}) == {"a"}
    assert step(countdown, {"x": 3, "y": 2}, {"x": 9, "y": 1}) == {"b"}
    assert step(countdown, {"x": 0, "y": 0}, {"x": 0, "y": 0}) == set()


def test_step_agrees_with_graph_evaluation(countdown):
    rng = random.Random(41)
    vars, consts = ("x", "y"), (0,)
    rule_graphs = {
        r.label: from_constraint(r.clauses, vars, consts, transitional=True)
        for r in countdown.rules
    }
    for _ in range(1000):
        v = random_valuation(rng, vars, -4, 6)
        v2 = random_valuation(rng, vars, -4, 6)
        both = {**v, "x'": v2["x"], "y'": v2["y"]}
        expect = {a for a, g in rule_graphs.items() if g.evaluate(both)}
        assert step(countdown, v, v2) == expect


# -- successors_in_window ------------------------------------------------------


def test_window_successors_example(countdown):
    succ = successors_in_window(countdown, {"x": 2, "y": 1}, 0, 3)
    a_succ = sorted((s["x"], s["y"]) for act, s in succ if act == "a")
    b_succ = sorted((s["x"], s["y"]) for act, s in succ if act == "b")
    assert a_succ == [(0, 1), (1, 1)]
    assert b_succ == [(2, 0), (3, 0)]


def test_window_successors_empty(countdown):
    assert successors_in_window(countdown, {"x": 2, "y": 1}, 5, 5) == []


def test_window_successors_deterministic_order(countdown):
    s1 = successors_in_window(countdown, {"x": 3, "y": 2}, 0, 3)
    s2 = successors_in_window(countdown, {"x": 3, "y": 2}, 0, 3)
    assert s1 == s2
    vals = [tuple(sorted(v.items())) + (a,) for a, v in s1]
    assert vals == sorted(vals)


def test_window_successors_match_brute_force(countdown):
    lo, hi = -1, 3
    for vx in range(lo, hi + 1):
        for vy in range(lo, hi + 1):
            v = {"x": vx, "y": vy}
            got = {(a, w["x"], w["y"]) for a, w in successors_in_window(countdown, v, lo, hi)}
            expect = set()
            for wx in range(lo, hi + 1):
                for wy in range(lo, hi + 1):
                    for a in step(countdown, v, {"x": wx, "y": wy}):
                        expect.add((a, wx, wy))
            assert got == expect


def test_window_successors_enumeration_cap(countdown):
    with pytest.raises(ValueError):
        successors_in_window(countdown, {"x": 0, "y": 0}, -500, 500, max_enumeration=100)


def test_countdown_steps_decrease_lexicographically(countdown):
    """Every step strictly decreases (y, x)."""
    for vx in range(0, 4):
        for vy in range(0, 4):
            for _, w in successors_in_window(countdown, {"x": vx, "y": vy}, 0, 5):
                assert (w["y"], w["x"]) < (vy, vx)


# -- encode_finite_lts ------------------------------------------------------------


def test_encode_matches_the_golden_file():
    # the text that earlier releases wrote for this LTS, byte for byte
    l = FiniteLts(("s", "t", "u"), ("a", "b", "tau"), frozenset(
        {("s", "a", "t"), ("s", "a", "s"), ("t", "b", "u"), ("u", "tau", "s"), ("u", "a", "t")}))
    golden = pathlib.Path(__file__).parent / "data" / "encode_lts_three_states.gcs"
    assert serialize_gcs(encode_finite_lts(l)).encode() == golden.read_bytes()


def test_encode_self_loop():
    l = FiniteLts(states=("s",), acts=("a",), transitions=frozenset({("s", "a", "s")}))
    g = encode_finite_lts(l)
    assert g.vars == ("state",)
    assert len(g.rules) == 1
    assert step(g, {"state": 1}, {"state": 1}) == {"a"}
    assert step(g, {"state": 1}, {"state": 2}) == set()


def test_encode_two_state_chain():
    l = FiniteLts(states=("s", "t"), acts=("a",), transitions=frozenset({("s", "a", "t")}))
    g = encode_finite_lts(l)
    idx = {name: i + 1 for i, name in enumerate(l.states)}
    assert step(g, {"state": idx["s"]}, {"state": idx["t"]}) == {"a"}
    # t is a deadlock
    for target in range(-1, 4):
        assert step(g, {"state": idx["t"]}, {"state": target}) == set()


def test_encode_preserves_step_graph_exactly():
    l = FiniteLts(
        states=("p", "q", "r"),
        acts=("a", "b"),
        transitions=frozenset(
            {("p", "a", "q"), ("q", "b", "r"), ("p", "b", "p"), ("r", "a", "p")}
        ),
    )
    g = encode_finite_lts(l)
    idx = {name: i + 1 for i, name in enumerate(l.states)}
    trans = {(idx[s], a, idx[t]) for s, a, t in l.transitions}
    for src in range(-1, 6):
        for dst in range(-1, 6):
            acts = step(g, {"state": src}, {"state": dst})
            expect = {a for s, a, t in trans if (s, t) == (src, dst)}
            assert acts == expect
