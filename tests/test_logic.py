"""Formula evaluation: denotations, semantic laws, fragment boundaries."""

import random

import pytest

from gapmc import sets
from gapmc.logic import (
    AndF,
    Atom,
    Diamond,
    Ef,
    Eg,
    Eu,
    NotF,
    OrF,
    TrueF,
    UndecidableFormulaError,
    ag,
    box,
    check,
    denote,
    false_,
    nesting_depth,
)
from gapmc.mg import Clause
from gapmc.sets import Metrics, atom_set, contains, full_set, same_set, subset_of, union

from conftest import random_plain_mg, random_valuation

VARS, CONSTS = ("x", "y"), (0,)

XY_ZERO = AndF(
    AndF(Atom(Clause("x", 0, 0)), Atom(Clause(0, "x", 0))),
    AndF(Atom(Clause("y", 0, 0)), Atom(Clause(0, "y", 0))),
)


def random_formula(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        a, b = rng.sample(["x", "y", 0], 2)
        return Atom(Clause(a, b, rng.randint(-2, 2)))
    kind = rng.choice(["not", "and", "or", "dia", "ef"])
    if kind == "not":
        return NotF(random_formula(rng, depth - 1))
    if kind == "and":
        return AndF(random_formula(rng, depth - 1), random_formula(rng, depth - 1))
    if kind == "or":
        return OrF(random_formula(rng, depth - 1), random_formula(rng, depth - 1))
    if kind == "dia":
        return Diamond(rng.choice(["a", "b"]), random_formula(rng, depth - 1))
    return Ef(random_formula(rng, depth - 1))


# -- denote examples ---------------------------------------------------------


def test_denote_ef_origin(countdown):
    d = denote(countdown, Ef(XY_ZERO))
    expect = union(
        atom_set(VARS, CONSTS, [Clause("y", 0, 1)]),
        atom_set(
            VARS, CONSTS,
            [Clause("x", 0, 0), Clause("y", 0, 0), Clause(0, "y", 0)],
        ),
    )
    assert same_set(d.set, expect)


def test_denote_true_is_full(countdown):
    assert same_set(denote(countdown, TrueF()).set, full_set(VARS, CONSTS))


def test_denote_diamond_a_true(countdown):
    d = denote(countdown, Diamond("a", TrueF()))
    assert same_set(d.set, atom_set(VARS, CONSTS, [Clause("x", 0, 1)]))
    # window confirmation: a enabled iff x >= 1 (regardless of y)
    from gapmc.gcs import successors_in_window

    for vx in range(-2, 4):
        for vy in range(-2, 4):
            enabled = any(
                a == "a"
                for a, _ in successors_in_window(countdown, {"x": vx, "y": vy}, -3, 4)
            )
            assert enabled == contains(d.set, {"x": vx, "y": vy})


def test_denote_diamond_guard(countdown):
    # guarded step: CX restricted to landing exactly on x'=0
    d = denote(countdown, Diamond("a", TrueF(), guard=(Clause(0, "x'", 0),)))
    assert same_set(d.set, atom_set(VARS, CONSTS, [Clause("x", 0, 1)]))
    # guard forcing an increase contradicts CX entirely
    d2 = denote(countdown, Diamond("a", TrueF(), guard=(Clause("x'", "x", 0),)))
    assert d2.set.is_empty()


def test_denote_unknown_action(countdown):
    with pytest.raises(ValueError):
        denote(countdown, Diamond("zz", TrueF()))


# -- check examples -------------------------------------------------------------


def test_check_examples(countdown):
    f = Ef(XY_ZERO)
    assert check(countdown, {"x": 3, "y": 1}, f)
    assert not check(countdown, {"x": -1, "y": 0}, f)
    assert check(countdown, {"x": -5, "y": -5}, NotF(false_()))


def test_check_matches_denote(countdown):
    rng = random.Random(51)
    for _ in range(30):
        f = random_formula(rng, 2)
        d = denote(countdown, f)
        for _ in range(5):
            v = random_valuation(rng, VARS, -3, 4)
            assert check(countdown, v, f) == contains(d.set, v)


# -- sugar -----------------------------------------------------------------------


def test_ag_and_box_sugar(countdown):
    assert ag(TrueF()) == NotF(Ef(NotF(TrueF()), (), None))
    assert box("a", TrueF()) == NotF(Diamond("a", NotF(TrueF()), ()))
    # AG true holds everywhere; [a]false = "a disabled" holds iff x < 1
    assert check(countdown, {"x": -7, "y": 9}, ag(TrueF()))
    assert check(countdown, {"x": 0, "y": 5}, box("a", false_()))
    assert not check(countdown, {"x": 1, "y": 5}, box("a", false_()))


# -- undecidable fragment -----------------------------------------------------------


def test_eg_and_eu_are_rejected(countdown):
    with pytest.raises(UndecidableFormulaError) as e:
        denote(countdown, Eg(TrueF()))
    assert "undecidable" in str(e.value)
    with pytest.raises(UndecidableFormulaError):
        check(countdown, {"x": 0, "y": 0}, Eu(TrueF(), TrueF()))
    # rejection applies under nesting too
    with pytest.raises(UndecidableFormulaError):
        denote(countdown, NotF(AndF(TrueF(), Eg(TrueF()))))


# -- nesting depth ---------------------------------------------------------------------


def test_nesting_depth_examples():
    assert nesting_depth(Atom(Clause("x", 0, 0))) == 0
    assert nesting_depth(Ef(NotF(Diamond("a", TrueF())))) == 3
    assert nesting_depth(AndF(NotF(TrueF()), TrueF())) == 1


def test_nesting_depth_of_shared_subformulas():
    # 2**100 nodes as a tree, 201 distinct node objects
    f = TrueF()
    for _ in range(100):
        f = AndF(NotF(f), Diamond("a", f))
    assert nesting_depth(f) == 100


def test_nesting_depth_reported_in_metrics(countdown):
    metrics = Metrics()
    denote(countdown, Ef(NotF(Diamond("a", TrueF()))), metrics=metrics)
    assert metrics.nesting_depth == 3
    metrics2 = Metrics()
    check(countdown, {"x": 0, "y": 0}, NotF(TrueF()), metrics=metrics2)
    assert metrics2.nesting_depth == 1


# -- semantic laws -------------------------------------------------------------------------


def test_law_double_negation(countdown):
    rng = random.Random(52)
    for _ in range(20):
        f = random_formula(rng, 2)
        a = denote(countdown, f).set
        b = denote(countdown, NotF(NotF(f))).set
        assert same_set(a, b)


def test_law_and_idempotent(countdown):
    rng = random.Random(53)
    for _ in range(20):
        f = random_formula(rng, 2)
        a = denote(countdown, f).set
        b = denote(countdown, AndF(f, f)).set
        assert same_set(a, b)


def test_atom_conjunction_matches_intersection(countdown):
    # a conjunction of atoms is denoted as one graph; it must give the
    # same members as intersecting the atoms' sets one by one
    rng = random.Random(57)
    terms = list(VARS) + list(CONSTS)
    for _ in range(200):
        atoms = [
            Atom(Clause(*rng.sample(terms, 2), rng.randint(-3, 3)))
            for _ in range(rng.randint(2, 4))
        ]
        f = atoms[0]
        expect = atom_set(VARS, CONSTS, [atoms[0].clause])
        for a in atoms[1:]:
            f = AndF(f, a) if rng.random() < 0.5 else AndF(a, f)
            expect = sets.intersect_sets(expect, atom_set(VARS, CONSTS, [a.clause]))
        got = denote(countdown, f).set
        assert [m.w.tobytes() for m in got.members] == [m.w.tobytes() for m in expect.members]


def test_law_ef_idempotent(countdown):
    rng = random.Random(54)
    for _ in range(15):
        f = random_formula(rng, 1)
        a = denote(countdown, Ef(f)).set
        b = denote(countdown, Ef(Ef(f))).set
        assert same_set(a, b)


def test_law_f_implies_ef(countdown):
    rng = random.Random(55)
    for _ in range(20):
        f = random_formula(rng, 2)
        assert subset_of(denote(countdown, f).set, denote(countdown, Ef(f)).set)


def test_degree_discipline(countdown):
    """Diamond and EF never raise the operand set's degree."""
    rng = random.Random(56)
    for _ in range(30):
        g = random_plain_mg(rng)
        if not g.is_satisfiable():
            continue
        s = sets.make_set(VARS, CONSTS, [g])
        for a in countdown.acts:
            assert sets.pre_action(countdown, a, s).degree() <= s.degree()
        assert sets.pre_star(countdown, s).degree() <= s.degree()


def test_memoization_shares_subformulas(countdown):
    f = Atom(Clause("x", 0, 0))
    big = AndF(Ef(f), OrF(Ef(f), Ef(f)))
    m1 = Metrics()
    denote(countdown, big, metrics=m1)
    m2 = Metrics()
    denote(countdown, Ef(f), metrics=m2)
    # three occurrences cost the same exploration as one
    assert m1.graphs_created == m2.graphs_created
