"""Ground-truth machinery: explicit window evaluation and the differential harness."""

import pytest

from gapmc import logic
from gapmc.gcs import Gcs, TransitionRule
from gapmc.logic import Atom, Diamond, Ef, NotF, TrueF, and_all
from gapmc.mg import Clause
from gapmc.oracle import (
    WindowGraph,
    differential_run,
    explicit_check,
    qbf_eval,
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
