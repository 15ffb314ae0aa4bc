"""Ground-truth machinery: explicit window evaluation and the differential harness."""

import random

import pytest

from gapmc import logic
from gapmc.gcs import Gcs, TransitionRule, clause_holds, combine
from gapmc.logic import Atom, Diamond, Ef, NotF, TrueF, and_all
from gapmc.mg import Clause, prime
from gapmc.oracle import (
    WindowGraph,
    differential_run,
    explicit_check,
    qbf_eval,
    random_window_closed_gcs,
    window_closed,
)
from gapmc.reductions import BVar, Qbf

from conftest import CX_CLAUSES, CY_CLAUSES

XY_ZERO = and_all(
    [Atom(Clause("x", 0, 0)), Atom(Clause(0, "x", 0)),
     Atom(Clause("y", 0, 0)), Atom(Clause(0, "y", 0))]
)


def bounded_countdown(hi=5):
    """The countdown with upper window clauses added, making it window-closed."""
    cap = lambda clauses: clauses + (
        Clause("x'", 0, 0), Clause(hi, "x'", 0),
        Clause("y'", 0, 0), Clause(hi, "y'", 0),
    )
    return Gcs(
        vars=("x", "y"), consts=(0, hi), acts=("a", "b"),
        rules=(
            TransitionRule("CX", cap(CX_CLAUSES), "a"),
            TransitionRule("CY", cap(CY_CLAUSES), "b"),
        ),
    )


# -- explicit_check --------------------------------------------------------------


def test_explicit_check_reaches_origin(countdown):
    w = WindowGraph(countdown, 0, 5)
    assert explicit_check(w, {"x": 3, "y": 1}, Ef(XY_ZERO))
    assert explicit_check(w, {"x": 3, "y": 1}, TrueF())


def test_explicit_check_deadlock_has_no_steps(countdown):
    w = WindowGraph(countdown, 0, 5)
    assert not explicit_check(w, {"x": 0, "y": 0}, Diamond("a", TrueF()))
    assert not explicit_check(w, {"x": 0, "y": 0}, Diamond("b", TrueF()))


def test_explicit_check_outside_window(countdown):
    w = WindowGraph(countdown, 0, 5)
    with pytest.raises(ValueError):
        explicit_check(w, {"x": 9, "y": 0}, TrueF())


def test_explicit_matches_symbolic_on_closed_system():
    g = bounded_countdown()
    w = WindowGraph(g, 0, 5)
    f = Ef(XY_ZERO)
    d = logic.denote(g, f).set
    from gapmc.sets import contains

    for s in w.states:
        assert explicit_check(w, s, f) == contains(d, s)


# -- window_closed ------------------------------------------------------------------


def test_window_closed_examples(countdown):
    assert not window_closed(countdown, 0, 5).ok  # CY lets x' grow unboundedly
    cert = window_closed(bounded_countdown(), 0, 5)
    assert cert.ok, cert.violation


# -- qbf_eval ------------------------------------------------------------------------


def test_qbf_eval_trivia():
    assert qbf_eval(Qbf((("E", "x"),), BVar("x")))
    assert not qbf_eval(Qbf((("A", "x"),), BVar("x")))


def test_qbf_eval_size_cap():
    prefix = tuple(("E", f"x{i}") for i in range(21))
    with pytest.raises(ValueError):
        qbf_eval(Qbf(prefix, BVar("x0")))


# -- differential harness ----------------------------------------------------------------


def test_differential_run_small():
    report = differential_run(1, 25)
    assert report["mismatches"] == []
    assert report["cases"] == 25


def test_differential_run_refuses_a_system_that_is_not_window_closed(monkeypatch):
    # the explicit side would silently drop the steps that leave the window
    from gapmc import oracle

    open_system = Gcs(("x",), (0, 4), ("a",), (TransitionRule("r", (), "a"),))
    monkeypatch.setattr(oracle, "random_window_closed_gcs", lambda rng, lo, hi: open_system)
    with pytest.raises(RuntimeError, match="not window-closed"):
        differential_run(1, 1)


def test_differential_run_deterministic():
    r1 = differential_run(7, 5)
    r2 = differential_run(7, 5)
    assert r1 == r2


def test_zero_rule_system_ef_equals_operand():
    g = Gcs(vars=("x",), consts=(0,), acts=("a",), rules=())
    atom = Atom(Clause("x", 0, 2))
    from gapmc.sets import same_set

    assert same_set(logic.denote(g, Ef(atom)).set, logic.denote(g, atom).set)
    w = WindowGraph(g, 0, 4)
    for s in w.states:
        assert explicit_check(w, s, Ef(atom)) == explicit_check(w, s, atom)


def test_atom_only_agreement():
    g = bounded_countdown()
    w = WindowGraph(g, 0, 5)
    atom = Atom(Clause("x", "y", 1))
    for s in w.states:
        assert explicit_check(w, s, atom) == (s["x"] - s["y"] >= 1)
    # and negation flips it
    neg = NotF(atom)
    for s in w.states:
        assert explicit_check(w, s, neg) == (s["x"] - s["y"] < 1)


def test_window_matrices_match_the_step_relation():
    # the window oracle's broadcast matrices against gcs.clause_holds, pair by
    # pair: adjacency (i, j) iff some rule with a label in actions has all
    # its clauses and the guard's hold on s_i combined with s_j, and a clause
    # vector holds at s_i iff its clause does; windows hold at most 27 states
    rng = random.Random(28)
    for _ in range(40):
        hi = rng.randint(1, 2)
        g = random_window_closed_gcs(rng, 0, hi)
        w = WindowGraph(g, 0, hi)
        terms = list(g.vars) + [prime(x) for x in g.vars] + [-1, 0, hi, hi + 1]
        guard = tuple(Clause(*rng.sample(terms, 2), rng.randint(-2, 2))
                      for _ in range(rng.randint(0, 2)))
        pairs = [combine(s, t) for s in w.states for t in w.states]
        for actions in (None, g.acts[:1], g.acts):
            holds = [any(all(clause_holds(c, both) for c in rule.clauses + guard)
                         for rule in g.rules if actions is None or rule.label in actions)
                     for both in pairs]
            assert w.adjacency(actions, guard).ravel().tolist() == holds
        state_terms = list(g.vars) + [-1, 0, hi, hi + 1]
        for _ in range(4):
            c = Clause(*rng.sample(state_terms, 2), rng.randint(-2, 2))
            assert w.clause_vector(c).tolist() == [clause_holds(c, s) for s in w.states]
        x = rng.choice(g.vars)
        for c in (Clause(prime(x), 0, 0), Clause(hi, prime(x), 1), Clause(x, prime(x), 0)):
            with pytest.raises(ValueError, match="primed"):
                w.clause_vector(c)
