"""Symbolic sets: boolean algebra, predecessor operators and Pre*."""

import random
from collections import deque

import pytest

from gapmc import logic
from gapmc.mg import Clause, compose, covers, from_constraint
from gapmc.reductions import BAnd, BNot, BOr, BVar, Qbf, qbf_to_gcs
from gapmc.sets import (
    GuardError,
    Metrics,
    PoolLimitExceeded,
    atom_set,
    complement,
    contains,
    empty_set,
    full_set,
    intersect_sets,
    make_set,
    pre_action,
    pre_constraint,
    pre_star,
    reaches,
    same_set,
    subset_of,
    union,
)

from conftest import random_plain_mg, random_valuation

VARS, CONSTS = ("x", "y"), (0,)


def aset(*clauses):
    return atom_set(VARS, CONSTS, clauses)


X_GE_5 = (Clause("x", 0, 5),)
X_GE_3 = (Clause("x", 0, 3),)
Y_GE_0 = (Clause("y", 0, 0),)
XY_ZERO = (Clause("x", 0, 0), Clause(0, "x", 0), Clause("y", 0, 0), Clause(0, "y", 0))
X1_Y0 = (Clause("x", 0, 1), Clause("y", 0, 0), Clause(0, "y", 0))
X2_Y0 = (Clause("x", 0, 2), Clause("y", 0, 0), Clause(0, "y", 0))


# -- construction -------------------------------------------------------------


def test_make_set_prunes_unsat_members():
    bad = from_constraint([Clause("x", "y", 1), Clause("y", "x", 0)], VARS, CONSTS)
    assert make_set(VARS, CONSTS, [bad]).is_empty()


def test_make_set_rejects_foreign_universe():
    g = from_constraint([], ("x",), (0,))
    with pytest.raises(ValueError):
        make_set(VARS, CONSTS, [g])


def test_full_and_empty():
    assert empty_set(VARS, CONSTS).is_empty()
    assert len(full_set(VARS, CONSTS).members) == 1


# -- union ---------------------------------------------------------------------


def test_union_with_empty_is_identity():
    s = aset(*X_GE_5)
    assert same_set(union(s, empty_set(VARS, CONSTS)), s)


def test_union_subsumption():
    got = union(aset(*X_GE_5), aset(*X_GE_3))
    assert len(got.members) == 1
    assert same_set(got, aset(*X_GE_3))


def test_union_incomparable_members_kept():
    got = union(aset(*X_GE_5), aset(*Y_GE_0))
    assert len(got.members) == 2


# -- intersect -------------------------------------------------------------------


def test_intersect_with_full_is_identity():
    s = aset(*X_GE_5)
    assert same_set(intersect_sets(s, full_set(VARS, CONSTS)), s)


def test_intersect_product_graph():
    got = intersect_sets(aset(*X_GE_5), aset(Clause("y", "x", -4)))
    assert len(got.members) == 1
    assert contains(got, {"x": 5, "y": 1})
    assert not contains(got, {"x": 5, "y": 0})  # y-x >= -4 fails at -5


def test_intersect_with_own_complement_is_empty():
    s = aset(*X_GE_5)
    assert intersect_sets(s, complement(s)).is_empty()


# -- complement --------------------------------------------------------------------


def test_complement_single_clause_degree_4():
    got = complement(aset(Clause("x", "y", 5)))
    assert len(got.members) == 1
    assert got.members[0].weight("y", "x") == -4
    assert got.degree() == 4


def test_complement_of_full_is_empty():
    assert complement(full_set(VARS, CONSTS)).is_empty()


def test_complement_of_empty_is_full():
    assert same_set(complement(empty_set(VARS, CONSTS)), full_set(VARS, CONSTS))


def test_double_complement_sampling():
    rng = random.Random(31)
    for _ in range(60):
        graphs = [random_plain_mg(rng) for _ in range(rng.randint(0, 3))]
        s = make_set(VARS, CONSTS, [g for g in graphs if g.is_satisfiable()])
        cc = complement(complement(s))
        for _ in range(20):
            v = random_valuation(rng, VARS)
            assert contains(s, v) == contains(cc, v)


# -- boolean algebra membership laws ---------------------------------------------------


def test_property_membership_laws():
    rng = random.Random(32)
    pairs = 0
    while pairs < 1000:
        g1, g2 = random_plain_mg(rng), random_plain_mg(rng)
        s = make_set(VARS, CONSTS, [g1] if g1.is_satisfiable() else [])
        t = make_set(VARS, CONSTS, [g2] if g2.is_satisfiable() else [])
        u, i, c = union(s, t), intersect_sets(s, t), complement(s)
        for _ in range(5):
            v = random_valuation(rng, VARS)
            assert contains(u, v) == (contains(s, v) or contains(t, v))
            assert contains(i, v) == (contains(s, v) and contains(t, v))
            assert contains(c, v) == (not contains(s, v))
            pairs += 1


# -- membership / subset examples ------------------------------------------------------


def test_contains_examples():
    assert not contains(empty_set(VARS, CONSTS), {"x": 0, "y": 0})
    s = aset(*X2_Y0)
    assert contains(s, {"x": 2, "y": 0})
    assert not contains(s, {"x": 2, "y": 1})


def test_subset_examples():
    s = aset(*X_GE_5)
    assert subset_of(s, s)
    assert subset_of(aset(*X_GE_5), aset(*X_GE_3))
    assert not subset_of(aset(*X_GE_3), aset(*X_GE_5))


# -- predecessors ------------------------------------------------------------------------


def test_pre_constraint_countdown_step(cx_graph):
    got = pre_constraint(cx_graph, aset(*X1_Y0))
    assert same_set(got, aset(*X2_Y0))


def test_pre_constraint_of_empty(cx_graph):
    assert pre_constraint(cx_graph, empty_set(VARS, CONSTS)).is_empty()


def test_pre_constraint_unsat_prunes(cy_graph):
    guard = from_constraint([Clause("y'", "y", 0)], VARS, CONSTS, transitional=True)
    got = pre_constraint(cy_graph.intersect(guard), aset(*X2_Y0))
    assert got.is_empty()


def test_pre_action_b_of_y_zero(countdown):
    target = aset(Clause("y", 0, 0), Clause(0, "y", 0))
    got = pre_action(countdown, "b", target)
    assert same_set(got, aset(Clause("y", 0, 1)))
    # bounded confirmation: exactly the window states with y >= 1 step there
    for vx in range(-2, 5):
        for vy in range(-2, 5):
            expect = vy >= 1
            assert contains(got, {"x": vx, "y": vy}) == expect


def test_pre_action_of_empty(countdown):
    assert pre_action(countdown, "a", empty_set(VARS, CONSTS)).is_empty()


def test_pre_action_unknown_action(countdown):
    with pytest.raises(ValueError):
        pre_action(countdown, "nope", full_set(VARS, CONSTS))


def test_pre_action_two_rules_same_label(countdown):
    from gapmc.gcs import Gcs, TransitionRule

    g2 = Gcs(
        vars=VARS, consts=CONSTS, acts=("a",),
        rules=(
            TransitionRule("r1", (Clause("x", "x'", 1), Clause("x'", 0, 0)), "a"),
            TransitionRule("r2", (Clause("x'", "x", 1),), "a"),
        ),
    )
    s = aset(Clause("x", 0, 3))
    both = pre_action(g2, "a", s)
    one = pre_constraint(
        from_constraint(g2.rules[0].clauses, VARS, CONSTS, transitional=True), s
    )
    two = pre_constraint(
        from_constraint(g2.rules[1].clauses, VARS, CONSTS, transitional=True), s
    )
    assert same_set(both, union(one, two))
    # a guard of either sign restricts every step, and pre_action agrees
    # member for member with the full-closure reference
    rng = random.Random(37)
    terms = ["x", "y", "x'", "y'", 0]
    nonempty = 0
    for i in range(60):
        lo = 0 if i % 2 else -3
        guard = tuple(
            Clause(*rng.sample(terms, 2), rng.randint(lo, 3)) for _ in range(rng.randint(1, 3))
        )
        s = make_set(VARS, CONSTS, [random_plain_mg(rng) for _ in range(rng.randint(1, 2))])
        guard_g = from_constraint(guard, VARS, CONSTS, transitional=True)
        expect = empty_set(VARS, CONSTS)
        for r in g2.rules:
            rule_g = from_constraint(r.clauses, VARS, CONSTS, transitional=True)
            expect = union(expect, pre_constraint(rule_g.intersect(guard_g), s))
        got = pre_action(g2, "a", s, guard)
        assert [m.w.tobytes() for m in got.members] == [
            m.w.tobytes() for m in expect.members
        ]
        nonempty += not got.is_empty()
    assert 10 <= nonempty < 60


# -- pre_star ------------------------------------------------------------------------------


def test_pre_star_countdown_target_origin(countdown):
    got = pre_star(countdown, aset(*XY_ZERO))
    expect = union(
        aset(Clause("y", 0, 1)),
        aset(Clause("x", 0, 0), Clause("y", 0, 0), Clause(0, "y", 0)),
    )
    assert same_set(got, expect)


def test_pre_star_of_full_is_full(countdown):
    full = full_set(VARS, CONSTS)
    assert same_set(pre_star(countdown, full), full)


def test_pre_star_of_empty_is_empty(countdown):
    assert pre_star(countdown, empty_set(VARS, CONSTS)).is_empty()


def _reference_pre_star(gcs, s, guard=(), actions=None):
    """pre_star composing one rule graph at a time with compose(), over the
    same worklist order and covering test."""
    guard_g = from_constraint(guard, s.vars, s.consts, transitional=True)
    rules = [
        from_constraint(r.clauses, s.vars, s.consts, transitional=True)
        .intersect(guard_g)
        .closure()
        for r in gcs.rules
        if actions is None or r.label in actions
    ]
    rules = [g for g in rules if g.is_satisfiable()]
    pool = list(s.members)
    work = deque(pool)
    while work:
        n = work.popleft()
        for g in rules:
            p = compose(g, n)
            if p.is_satisfiable() and not any(covers(q, p) for q in pool):
                pool.append(p)
                work.append(p)
    return make_set(s.vars, s.consts, pool)


def test_pre_star_matches_per_rule_reference(countdown):
    rng = random.Random(36)
    cases = []
    for _ in range(20):
        graphs = [random_plain_mg(rng) for _ in range(rng.randint(1, 2))]
        s = make_set(VARS, CONSTS, [g for g in graphs if g.is_satisfiable()])
        cases.append((countdown, s, (), None))
    cases.append((countdown, aset(*XY_ZERO), (Clause("x'", 0, 3),), None))
    cases.append((countdown, aset(*XY_ZERO), (), ("b",)))
    x1, x2 = BVar("x1"), BVar("x2")
    for q in [
        Qbf((("A", "x1"), ("E", "x2")), BOr(BAnd(x1, x2), BAnd(BNot(x1), BNot(x2)))),
        Qbf((("E", "x1"), ("A", "x2")), BOr(x1, BNot(x2))),
    ]:
        g, _, f = qbf_to_gcs(q)
        cases.append((g, logic.denote(g, f.f).set, (), None))
    for gcs, s, guard, actions in cases:
        got = pre_star(gcs, s, guard, actions)
        expect = _reference_pre_star(gcs, s, guard, actions)
        assert [m.w.tobytes() for m in got.members] == [m.w.tobytes() for m in expect.members]


def test_pre_star_includes_s_and_is_fixpoint(countdown):
    rng = random.Random(33)
    for _ in range(40):
        graphs = [random_plain_mg(rng) for _ in range(rng.randint(1, 2))]
        s = make_set(VARS, CONSTS, [g for g in graphs if g.is_satisfiable()])
        star = pre_star(countdown, s)
        assert subset_of(s, star)
        for a in countdown.acts:
            assert subset_of(pre_action(countdown, a, star), star)


def test_pre_star_degree_never_increases(countdown):
    rng = random.Random(34)
    for _ in range(40):
        graphs = [random_plain_mg(rng) for _ in range(rng.randint(1, 2))]
        s = make_set(VARS, CONSTS, [g for g in graphs if g.is_satisfiable()])
        assert pre_star(countdown, s).degree() <= s.degree()


def test_pre_star_action_restriction(countdown):
    # only action a (CX) available: y never changes, so target y=0 is
    # reachable exactly from y=0 (with any x >= 0 allowing the jump, or x=0
    # already there)
    target = aset(*XY_ZERO)
    got = pre_star(countdown, target, actions=("a",))
    assert contains(got, {"x": 5, "y": 0})
    assert not contains(got, {"x": 5, "y": 1})
    assert not contains(got, {"x": -1, "y": 0})  # CX needs x' >= 0 and x > x'


def test_pre_star_guard(countdown):
    # guard x' >= 3 forbids ever landing below 3, so x=0 targets are only
    # reachable as the start itself
    target = aset(Clause("x", 0, 0), Clause(0, "x", 0), Clause("y", 0, 0), Clause(0, "y", 0))
    guard = (Clause("x'", 0, 3),)
    got = pre_star(countdown, target, guard=guard)
    assert contains(got, {"x": 0, "y": 0})
    assert not contains(got, {"x": 5, "y": 1})


def test_pre_star_rejects_negative_guard(countdown):
    with pytest.raises(GuardError):
        pre_star(countdown, full_set(VARS, CONSTS), guard=(Clause("x'", "x", -1),))


def test_pre_star_metrics(countdown):
    metrics = Metrics()
    pre_star(countdown, aset(*XY_ZERO), metrics=metrics)
    assert metrics.graphs_created > 0
    assert metrics.pool_size >= 1
    assert metrics.dimension == 9
    assert metrics.constraint_count == 2
    assert metrics.max_norm >= 1
    d = metrics.as_dict()
    assert set(d) >= {"graphs_created", "pool_size", "max_norm", "degree_bound"}


def test_pre_star_pool_limit(countdown):
    with pytest.raises(PoolLimitExceeded):
        pre_star(countdown, aset(*XY_ZERO), max_pool=1)


# -- reaches ---------------------------------------------------------------------------------


def test_reaches_examples(countdown):
    target = aset(*XY_ZERO)
    assert reaches(countdown, {"x": 3, "y": 1}, target)
    assert reaches(countdown, {"x": 0, "y": 0}, target)
    assert not reaches(countdown, {"x": -1, "y": 0}, target)
    assert not reaches(countdown, {"x": 3, "y": -2}, target)


def test_reaches_agrees_with_pre_star(countdown):
    rng = random.Random(35)
    target = aset(*XY_ZERO)
    star = pre_star(countdown, target)
    for _ in range(200):
        v = random_valuation(rng, VARS)
        assert reaches(countdown, v, target) == contains(star, v)
