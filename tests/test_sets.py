"""Symbolic sets: boolean algebra, predecessor operators and Pre*."""

import random
from collections import deque

import numpy as np
import pytest

from gapmc import logic, oracle, sets
from gapmc.gcs import Gcs, TransitionRule
from gapmc.mg import (
    NEG_INF,
    POS_INF,
    Clause,
    MonotonicityGraph,
    clause_stack,
    close_seeded,
    compose,
    compose_batch,
    covers,
    degree_norm,
    differences,
    from_constraint,
    is_const,
    universe,
)
from gapmc.reductions import BAnd, BNot, BOr, BVar, Qbf, qbf_to_gcs
from gapmc.sets import (
    GuardError,
    Metrics,
    PoolLimitExceeded,
    SymbolicSet,
    atom_set,
    complement,
    contains,
    full_set,
    intersect_sets,
    make_set,
    pre_action,
    pre_constraint,
    pre_star,
    reaches,
    same_set,
    subset_of,
    transitional_graphs,
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


def test_a_set_refuses_a_stack_outside_its_engine_layout():
    # the full layout of two or more constants, a lone matrix or a stack of
    # another universe is refused, not read as engine rows
    consts = (0, 4)
    s = make_set(VARS, consts, [from_constraint([Clause("x", 4, 1)], VARS, consts)])
    assert s.w.shape == (1, 3, 3) and SymbolicSet(VARS, consts, s.w.copy()) == s
    for w in (s.u.leave(s.w), s.w[0], np.zeros((1, 2, 2)), np.zeros((1, 1, 3, 3))):
        with pytest.raises(ValueError, match=r"for \(m, 3, 3\) engine rows"):
            SymbolicSet(VARS, consts, w)


def test_full_and_empty():
    assert make_set(VARS, CONSTS).is_empty()
    assert len(full_set(VARS, CONSTS).members) == 1


def _reference_normalise(graphs) -> list[bytes]:
    """The per-graph route of a normalised set: close each graph, drop those
    with a +inf weight, dedupe by bytes, drop every graph that another
    covers (pairwise) and sort by bytes."""
    ws = [g.closure().w for g in graphs]
    ws = list({w.tobytes(): w for w in ws if not np.isposinf(w).any()}.values())
    kept = [w for w in ws if not any(p is not w and (p <= w).all() for p in ws)]
    return sorted(w.tobytes() for w in kept)


def _random_universe(rng):
    return ("x", "y", "z")[: rng.randint(1, 3)], tuple(sorted(rng.sample(range(-2, 5), 2)))


def test_make_set_matches_per_graph_reference():
    rng = random.Random(41)
    covered = plus_inf = 0
    for i in range(300):
        vars, consts = _random_universe(rng)
        graphs = [random_plain_mg(rng, vars, consts) for _ in range(rng.randint(0, 5))]
        if graphs and i % 3 == 0:
            graphs.append(rng.choice(graphs))  # a duplicate
        if len(graphs) > 1 and i % 4 == 0:
            graphs.append(graphs[0].intersect(graphs[1]))  # covered by both
        if graphs and i % 5 == 0:
            # a +inf entry that no cycle reaches: only the +inf filter drops it
            w = np.full(graphs[0].w.shape, NEG_INF)
            w[0, -1] = POS_INF
            graphs.append(graphs[0].with_weights(w))
            plus_inf += 1
        got = make_set(vars, consts, graphs)
        expect = _reference_normalise(graphs)
        assert [m.w.tobytes() for m in got.members] == expect
        closed = [g.closure().w for g in graphs]
        covered += len(expect) < len({w.tobytes() for w in closed if not np.isposinf(w).any()})
    assert covered > 50 and plus_inf > 30
    assert make_set(VARS, CONSTS, []).members == ()


def test_complement_matches_per_clause_reference():
    """complement against the route through each member's basis clauses:
    one graph per negated clause, normalised per member, then the running
    intersection normalised after every member."""
    rng = random.Random(43)
    for _ in range(150):
        vars, consts = _random_universe(rng)
        s = make_set(vars, consts, [random_plain_mg(rng, vars, consts) for _ in range(3)])
        full = full_set(vars, consts).members[0]
        expect = [full.w.tobytes()]
        for m in s.members:
            ns = m.u.nodes
            basis = [
                Clause(x, y, int(m.w[i, j]))
                for i, x in enumerate(ns)
                for j, y in enumerate(ns)
                if i != j and not (isinstance(x, int) and isinstance(y, int))
                and np.isfinite(m.w[i, j])
            ]
            # not(x - y >= k)  <=>  y - x >= 1 - k
            negs = [
                from_constraint([Clause(c.right, c.left, 1 - c.k)], vars, consts, transitional=False)
                for c in basis
            ]
            rows = [np.frombuffer(b).reshape(m.w.shape) for b in expect]
            comp = [np.frombuffer(b).reshape(m.w.shape) for b in _reference_normalise(negs)]
            expect = _reference_normalise(
                full.with_weights(np.maximum(a, b)) for a in rows for b in comp
            )
        assert [m.w.tobytes() for m in complement(s).members] == expect


def _full_layout_normalise(u, ws, close=True) -> np.ndarray:
    """The set normaliser over the full layout, one node per constant, kept
    as the reference of the engine layout's: the rows closed over u.seed,
    those with +inf or a positive cycle dropped, then the repeats and the
    covered rows."""
    n = len(u.nodes)
    ws = np.array(ws, dtype=float).reshape(len(ws), n, n)
    if close:
        ws = ws[~np.isposinf(ws).any(axis=(1, 2))]
        ws = ws[close_seeded(ws, u.seed)]
    rows = sorted({w.tobytes(): i for i, w in enumerate(ws)}.items())
    ws = ws[[i for _, i in rows]]
    keep = [np.count_nonzero((ws <= w).all(axis=(1, 2))) == 1 for w in ws]
    return ws[np.array(keep, dtype=bool)]


def _full_layout_complement(u, ws) -> np.ndarray:
    """complement over the full layout, with the full floor."""
    n = len(u.nodes)
    if not len(ws):
        return _full_layout_normalise(u, np.full((1, n, n), NEG_INF))
    result = None
    for w in ws:
        i, j = np.nonzero(w > u.floor)
        negs = np.full((len(i), n, n), NEG_INF)
        negs[np.arange(len(i)), j, i] = 1 - w[i, j]
        if result is not None:
            negs = np.maximum(result[:, None], negs[None, :]).reshape(-1, n, n)
        result = _full_layout_normalise(u, negs)
        if not len(result):
            break
    return result


@pytest.mark.parametrize("consts", [(), (0,), (-1, 3), (-3, 0, 2, 5)])
def test_set_algebra_in_the_engine_layout_matches_the_full_layout(consts):
    # atom_set, complement, intersect_sets, union, contains and make_set
    # against the full-layout normaliser, byte for byte after leaving the
    # engine layout: clauses between two constants true and false, graphs
    # unclosed, unsatisfiable or with +inf, the empty and the full set
    rng = random.Random(49)
    seen = dict.fromkeys(("empty", "full", "several", "false pair", "+inf"), 0)
    for _ in range(40):
        vars = ("x", "y", "z")[: rng.randint(2 - min(len(consts), 1), 3)]
        u = universe(vars, consts)
        terms = list(vars) + list(consts)

        def clause():
            a, b = rng.sample(terms, 2)
            if is_const(a) and is_const(b):
                return Clause(a, b, a - b + rng.choice((-1, 0, 1)))
            return Clause(a, b, rng.randint(-3, 3))

        def atom():
            clauses = [clause() for _ in range(rng.randint(0, 3))]
            seen["false pair"] += any(is_const(c.left) and is_const(c.right)
                                      and c.left - c.right < c.k for c in clauses)
            return atom_set(vars, consts, clauses), _full_layout_normalise(u, clause_stack(u, [clauses]))

        def graphs():
            gs = [random_plain_mg(rng, vars, consts, 4, -3, 3) for _ in range(rng.randint(0, 3))]
            if gs and rng.random() < 0.3:
                # a +inf entry, which no cycle need meet
                w = np.full(gs[0].w.shape, NEG_INF)
                w[tuple(rng.sample(range(len(w)), 2))] = POS_INF
                gs.append(gs[0].with_weights(w))
                seen["+inf"] += 1
            return make_set(vars, consts, gs), _full_layout_normalise(u, [g.w for g in gs])

        n = len(u.nodes)
        pairs = [atom(), atom(), graphs(), graphs(),
                 (full_set(vars, consts), _full_layout_normalise(u, np.full((1, n, n), NEG_INF))),
                 (make_set(vars, consts), np.empty((0, n, n)))]
        for _ in range(6):
            (s, a), (t, b) = rng.choice(pairs), rng.choice(pairs)
            op = rng.randrange(3)
            if op == 0:
                pairs.append((complement(s), _full_layout_complement(u, a)))
            elif op == 1:
                prods = np.maximum(a[:, None], b[None, :]).reshape(-1, n, n)
                pairs.append((intersect_sets(s, t), _full_layout_normalise(u, prods)))
            else:
                pairs.append((union(s, t), _full_layout_normalise(u, np.concatenate((a, b)), False)))
        for s, a in pairs:
            assert s.w.shape[1:] == (u.size, u.size)
            assert u.leave(s.w).tobytes() == a.tobytes()
            assert [m.w.tobytes() for m in s.members] == [w.tobytes() for w in a]
            for _ in range(3):
                v = random_valuation(rng, vars)
                assert contains(s, v) == bool((differences(u.nodes, v) >= a).all(axis=(1, 2)).any())
            seen["empty"] += len(a) == 0
            seen["full"] += len(a) == 1 and bool((a[0] <= u.floor).all())
            seen["several"] += len(a) > 1
    if len(consts) < 2:
        del seen["false pair"]
    assert all(k >= 5 for k in seen.values()), seen


# -- union ---------------------------------------------------------------------


def test_union_with_empty_is_identity():
    s = aset(*X_GE_5)
    assert same_set(union(s, make_set(VARS, CONSTS)), s)


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
    assert same_set(complement(make_set(VARS, CONSTS)), full_set(VARS, CONSTS))


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
    assert not contains(make_set(VARS, CONSTS), {"x": 0, "y": 0})
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
    assert pre_constraint(cx_graph, make_set(VARS, CONSTS)).is_empty()


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
    assert pre_action(countdown, "a", make_set(VARS, CONSTS)).is_empty()


def test_pre_action_unknown_action(countdown):
    # an action that no rule carries makes no step, as in an EF action filter
    assert pre_action(countdown, "nope", full_set(VARS, CONSTS)).is_empty()


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
        expect = make_set(VARS, CONSTS)
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
    assert pre_star(countdown, make_set(VARS, CONSTS)).is_empty()


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


def test_reachability_refuses_a_non_positive_rule(countdown, monkeypatch):
    # x' = x + 1 (x' - x >= 1 and x - x' >= -1): pre* of x = 0 is x = -1,
    # -2, ..., no member covering another, so the fixpoint would not end
    inc = TransitionRule("inc", (Clause("x'", "x", 1), Clause("x", "x'", -1)), "c")
    g = Gcs(VARS, CONSTS, ("a", "b", "c"), countdown.rules + (inc,))
    target = aset(*XY_ZERO)
    calls = []
    monkeypatch.setattr(sets, "compose_batch", lambda *a: calls.append(a) or compose_batch(*a))
    with pytest.raises(GuardError, match="rule inc has x - x' >= -1"):
        pre_star(g, target)
    with pytest.raises(GuardError, match="rule inc has x - x' >= -1"):
        reaches(g, {"x": 5, "y": 0}, target, actions=("c",))
    assert calls == []
    # a query whose actions leave the rule out, and one step over it, answer
    assert same_set(pre_star(g, target, actions=("a", "b")), pre_star(countdown, target))
    step = pre_action(g, "c", target)
    assert contains(step, {"x": -1, "y": 3}) and not contains(step, {"x": 0, "y": 0})


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


# -- pre_star explores one BFS layer per compose_batch call ------------------------------


def _one_at_a_time_pool(gcs, s, guard, actions, metrics, max_pool, stop_at, seen):
    """The pre_star pool explored one member at a time under the antichain
    rule: a layer's results are composed one member at a time, then taken
    in (member, rule) order, each counted as it comes and dropped if a row
    covers it by the pairwise definition: a pool row of an earlier layer,
    an earlier result of its own layer, or a later one that differs from
    it.  The reference of the batched loop.  Returns the pool stack,
    entered into the engine layout as pre_star's is, True on an early-stop
    hit, or raises PoolLimitExceeded; counts in seen the results that only
    a row of their own layer covers, and those only a later one covers.
    The pool is kept in the full layout, which s leaves first."""
    metrics.dimension = len(s.u.nodes) ** 2
    metrics.constants_magnitude = max((abs(c) for c in s.consts), default=0)
    metrics.constraint_count = len(gcs.rules)
    rules = transitional_graphs(gcs, guard, actions)
    start = s.u.leave(s.w)
    diff = None if stop_at is None else differences(s.u.nodes, stop_at)
    if diff is not None and any((diff >= w).all() for w in start):
        return True
    pool, head = list(start), 0
    while head < len(pool) and len(rules):
        results = []
        for w in pool[head:]:
            for pw in compose_batch(rules, s.u.enter(w)[None]):
                results.append(None if pw is None else s.u.leave(pw[None])[0])
        layer_start = head = len(pool)
        layer = [pw for pw in results if pw is not None]
        t = -1
        for pw in results:
            metrics.graphs_created += 1
            if pw is None:
                continue
            t += 1
            degree, norm = degree_norm(pw[None], s.u)
            metrics.max_norm = max(metrics.max_norm, int(norm[0]))
            metrics.degree_bound = max(metrics.degree_bound, int(degree[0]))
            earlier = pool[:layer_start] + layer[:t]
            later = [q for q in layer[t + 1 :] if (q != pw).any()]
            covered = [i for i, p in enumerate(earlier + later) if (p <= pw).all()]
            if covered:
                seen["covered in layer"] += covered[0] >= layer_start
                seen["covered by a later row"] += covered[0] >= len(earlier)
                continue
            if diff is not None and (diff >= pw).all():
                return True
            pool.append(pw)
            metrics.pool_size = max(metrics.pool_size, len(pool))
            if max_pool is not None and len(pool) > max_pool:
                raise PoolLimitExceeded(f"reachability pool exceeded the cap of {max_pool} graphs")
    return s.u.enter(np.array(pool).reshape(len(pool), *start.shape[1:]))


def _explore(explore):
    """(pool bytes, True or the cap's message; the Metrics fields) of
    explore(metrics)."""
    metrics = Metrics()
    try:
        out = explore(metrics)
    except PoolLimitExceeded as e:
        out = str(e)
    return (out if out is True or isinstance(out, str) else out.tobytes()), metrics.as_dict()


def _without_constants(g):
    def plain(c):
        return not (is_const(c.left) or is_const(c.right))

    rules = tuple(TransitionRule(r.name, tuple(filter(plain, r.clauses)), r.label) for r in g.rules)
    return Gcs(g.vars, (), g.acts, rules)


def _random_query(rng, plain):
    """A random window system, without its constants if plain and it has
    two or more variables, with a guard, an action filter and a start set."""
    g = oracle.random_window_closed_gcs(rng)
    if plain and len(g.vars) > 1:
        g = _without_constants(g)
    terms = list(g.vars) + [v + "'" for v in g.vars] + list(g.consts)
    guard = tuple(
        Clause(*rng.sample(terms, 2), rng.randint(0, 1)) for _ in range(rng.randint(0, 1))
    )
    actions = None if rng.random() < 0.5 else tuple(rng.sample(g.acts, 1))
    graphs = [
        random_plain_mg(rng, g.vars, g.consts, 3, -2, 4) for _ in range(rng.randint(1, 3))
    ]
    return g, guard, actions, make_set(g.vars, g.consts, graphs)


def _random_qbf_query(rng):
    """The system of the QBF reduction and its target set, for a random
    QBF over x1..x3 whose matrix has one to three clauses."""
    names = ["x1", "x2", "x3"]
    matrix = None
    for _ in range(rng.randint(1, 3)):
        clause = None
        for x in rng.sample(names, rng.randint(1, 3)):
            lit = BVar(x) if rng.random() < 0.5 else BNot(BVar(x))
            clause = lit if clause is None else BOr(clause, lit)
        matrix = clause if matrix is None else BAnd(matrix, clause)
    g, _, f = qbf_to_gcs(Qbf(tuple((rng.choice("AE"), x) for x in names), matrix))
    return g, logic.denote(g, f.f).set


def _random_stop(rng, g, s):
    """An early-stop valuation or None, and a pool cap or None."""
    stop_at = None if rng.random() < 0.6 else {x: rng.randint(-1, 5) for x in g.vars}
    return stop_at, None if rng.random() < 0.5 else len(s.w) + rng.randint(-1, 1)


@pytest.mark.parametrize("cover_chunk", [None, 7], ids=["one-chunk", "small-chunks"])
def test_pre_star_pool_matches_one_at_a_time(cover_chunk, monkeypatch):
    # pool rows, verdict or cap, and every Metrics field, over random systems
    # with and without constants, guards, action filters, early-stop
    # valuations and caps; small chunks split the covering test's steps
    if cover_chunk is not None:
        monkeypatch.setattr(sets, "_COVER_CHUNK", cover_chunk)
    rng = random.Random(38)
    seen = dict.fromkeys(("no constants", "hit", "cap", "cap mid-member", "pool"), 0)
    seen["covered in layer"] = seen["covered by a later row"] = 0
    for i in range(500):
        g, guard, actions, s = _random_query(rng, i % 3 == 0)
        seen["no constants"] += not g.consts
        stop_at, max_pool = _random_stop(rng, g, s)
        got = _explore(
            lambda m: sets._pre_star_pool(g, s, guard, actions, m, max_pool, None, stop_at)
        )
        expect = _explore(
            lambda m: _one_at_a_time_pool(g, s, guard, actions, m, max_pool, stop_at, seen)
        )
        assert got == expect
        out, metrics = expect
        r = len(transitional_graphs(g, guard, actions))
        seen["hit"] += out is True
        seen["cap"] += isinstance(out, str)
        seen["cap mid-member"] += isinstance(out, str) and metrics["graphs_created"] % r != 0
        seen["pool"] += isinstance(out, bytes)
    assert all(n >= 10 for n in seen.values()), seen


def test_each_layer_keeps_an_antichain_against_the_pool(monkeypatch):
    # the frontier of each compose_batch call after the first is one
    # layer's kept rows: no row of the pool before it covers one of them,
    # no two of them cover each other, and the layers make up the pool
    layers = []

    def recording(rules, mws):
        layers.append(mws.copy())
        return compose_batch(rules, mws)

    monkeypatch.setattr(sets, "compose_batch", recording)
    rng = random.Random(49)
    seen = dict.fromkeys(("layers", "rows beside another"), 0)
    for i in range(300):
        if i % 3 == 2:
            (g, s), guard, actions = _random_qbf_query(rng), (), None
        else:
            g, guard, actions, s = _random_query(rng, i % 3 == 0)
        layers.clear()
        pool = sets._pre_star_pool(g, s, guard, actions, Metrics(), None, None)
        if not layers:
            assert pool.tobytes() == s.w.tobytes()
            continue
        assert layers[0].tobytes() == s.w.tobytes()
        assert np.concatenate(layers).tobytes() == pool.tobytes()
        for t in range(1, len(layers)):
            before, layer = np.concatenate(layers[:t]), layers[t]
            for a, w in enumerate(layer):
                assert not (before <= w).all(axis=(1, 2)).any()
                others = np.delete(layer, a, axis=0)
                assert not (others <= w).all(axis=(1, 2)).any()
                seen["rows beside another"] += len(others) > 0
            seen["layers"] += 1
    assert all(n >= 50 for n in seen.values()), seen


def test_metrics_are_counted_once_per_query(monkeypatch):
    # one Metrics.saw_batch call per query that composes, also when the cap raises
    # PoolLimitExceeded or the valuation is met; its counts equal those of
    # one call per layer, made with early reductions after every layer (a
    # chunk of one element) and, for a query that reaches its fixpoint,
    # from each layer's results as compose_batch returns them
    calls, composed, per_layer = [], [], Metrics()
    real = Metrics.saw_batch

    def counting(self, pairs, ws, u):
        calls.append(pairs)
        real(self, pairs, ws, u)

    def layered(rules, mws):
        results = compose_batch(rules, mws)
        composed.append(len(mws))
        rows = [pw for pw in results if pw is not None]
        u = universe(rules.u.vars, rules.u.consts)
        real(per_layer, len(results), np.array(rows).reshape(len(rows), *mws.shape[1:]), u)
        return results

    monkeypatch.setattr(Metrics, "saw_batch", counting)
    monkeypatch.setattr(sets, "compose_batch", layered)
    rng = random.Random(50)
    seen = dict.fromkeys(("hit", "cap", "pool", "several layers"), 0)
    default = sets._COVER_CHUNK
    for i in range(300):
        g, guard, actions, s = _random_query(rng, i % 3 == 0)
        stop_at, max_pool = _random_stop(rng, g, s)
        outcomes = []
        for chunk in (default, 1):
            monkeypatch.setattr(sets, "_COVER_CHUNK", chunk)
            calls.clear()
            composed.clear()
            per_layer.__init__()
            outcomes.append(_explore(
                lambda m: sets._pre_star_pool(g, s, guard, actions, m, max_pool, None, stop_at)
            ) + (len(calls),))
        (out, metrics, once), (out_layers, metrics_layers, layers) = outcomes
        # a start set that meets the valuation composes nothing and counts nothing
        assert once == 1 - (out is True and not composed)
        assert (out, metrics) == (out_layers, metrics_layers)
        if isinstance(out, bytes):
            counted = ("graphs_created", "max_norm", "degree_bound")
            assert [metrics[k] for k in counted] == [getattr(per_layer, k) for k in counted]
        seen["hit"] += out is True
        seen["cap"] += isinstance(out, str)
        seen["pool"] += isinstance(out, bytes)
        seen["several layers"] += layers > 2
    assert all(n >= 10 for n in seen.values()), seen


@pytest.mark.parametrize("consts", [(), (0,), (0, 4), (-2, 0, 1, 3)])
def test_engine_degree_and_norm_match_the_expanded_stack(consts):
    # degree and norm from c0's entries and the least and greatest shift
    # equal degree_norm of the full-layout rows, and so do the Metrics
    rng = random.Random(47)
    for _ in range(60):
        vars = ("x", "y", "z")[: rng.randint(2 - min(len(consts), 1), 3)]
        u = universe(vars, consts)
        graphs = [random_plain_mg(rng, vars, consts, 5, -4, 6) for _ in range(rng.randint(1, 6))]
        ws = np.stack([g.closure().w for g in graphs])
        ws = ws[~np.isposinf(ws).any(axis=(1, 2))]
        assert u.leave(u.enter(ws)).tobytes() == ws.tobytes()
        engine = [a.tolist() for a in degree_norm(u.enter(ws), u)]
        assert engine == [a.tolist() for a in degree_norm(ws, u)]
        full, shifted = Metrics(), Metrics()
        full.saw_batch(len(graphs), ws, u)
        shifted.saw_batch(len(graphs), u.enter(ws), u)
        assert shifted == full
    assert degree_norm(u.enter(ws[:0]), u)[0].shape == (0,)


def test_pre_star_in_the_engine_layout_matches_the_per_rule_reference():
    # a system with several constants, an assignment, a copy, a true and a
    # false clause between two constants, explored in the engine layout,
    # against compose() of one full-layout rule graph at a time
    rng = random.Random(48)
    vars, consts = ("x", "y"), (0, 2, 5)
    rules = (
        TransitionRule("set", (Clause("x'", 5, 0), Clause(5, "x'", 0), Clause("y'", "y", 0),
                               Clause("y", "y'", 0)), "a"),
        TransitionRule("copy", (Clause("y'", "x", 0), Clause("x", "y'", 0), Clause("x'", "x", 0),
                                Clause("x", "x'", 0), Clause(5, 2, 3)), "a"),
        TransitionRule("down", (Clause("x", "x'", 1), Clause("x'", 0, 0), Clause("y'", 2, 0),
                                Clause(2, "y'", 0)), "b"),
        TransitionRule("never", (Clause("x'", "x", 0), Clause(2, 5, 0)), "b"),
    )
    g = Gcs(vars, consts, ("a", "b"), rules)
    graphs = [from_constraint(r.clauses, vars, consts, transitional=True) for r in rules]
    for _ in range(20):
        s = make_set(vars, consts, [random_plain_mg(rng, vars, consts, 3, 0, 6) for _ in range(2)])
        got, expect = pre_star(g, s), _reference_pre_star(g, s)
        assert got.w.tobytes() == expect.w.tobytes()
        for action in ("a", "b"):
            step = [pre_constraint(h, s) for h, r in zip(graphs, rules) if r.label == action]
            assert pre_action(g, action, s).w.tobytes() == union(*step).w.tobytes()


@pytest.mark.parametrize("cover_chunk", [None, 7], ids=["one-chunk", "small-chunks"])
def test_covered_matches_brute_force(cover_chunk, monkeypatch):
    # the mask of rows[start:] covered by an earlier row or by a later one
    # that differs, against the pairwise definition, with and without a
    # screening probe
    if cover_chunk is not None:
        monkeypatch.setattr(sets, "_COVER_CHUNK", cover_chunk)
    rng = np.random.default_rng(39)
    seen = dict.fromkeys(("covered", "kept", "repeat", "probe", "by a later row"), 0)
    for _ in range(150):
        m, n = int(rng.integers(1, 4)), int(rng.integers(0, 12))
        rows = rng.choice([NEG_INF, -1.0, 0.0, 1.0, 2.0], size=(n, m, m))
        if n > 1 and rng.random() < 0.5:
            i = int(rng.integers(1, n))
            rows[i] = rows[rng.integers(0, i)]
            seen["repeat"] += 1
        probes = [None, rng.choice(m * m, size=int(rng.integers(1, m * m + 1)), replace=False)]
        for start in sorted({0, n // 2, n}):
            for probe in probes:
                got = sets._covered(rows, start, probe)
                covers = [[(rows[j] <= rows[i]).all() for j in range(n)] for i in range(n)]
                earlier = [any(covers[i][:i]) for i in range(start, n)]
                later = [
                    any(covers[i][j] and not covers[j][i] for j in range(i + 1, n))
                    for i in range(start, n)
                ]
                expect = [a or b for a, b in zip(earlier, later)]
                assert got.dtype == bool and got.tolist() == expect
                seen["by a later row"] += sum(b and not a for a, b in zip(earlier, later))
                seen["covered"] += sum(expect)
                seen["kept"] += len(expect) - sum(expect)
                seen["probe"] += probe is not None and len(expect) > 0
    assert all(k >= 50 for k in seen.values()), seen


def _brute_close(u, ws) -> list[np.ndarray]:
    """The rows of ws seeded with u.eseed and closed by the textbook max-plus
    Floyd-Warshall, one entry at a time; those with a positive cycle go."""
    out = []
    for w in ws:
        n = len(w)
        w = [[max(float(w[i, j]), float(u.eseed[i, j])) for j in range(n)] for i in range(n)]
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    w[i][j] = max(w[i][j], w[i][k] + w[k][j])
        if all(w[i][i] <= 0 for i in range(n)):
            out.append(np.array(w, dtype=float).reshape(n, n))
    return out


def _brute_normalise(u, ws, close) -> list[np.ndarray]:
    """The rows of the set of ws by the definition: the rows closed if asked
    (otherwise given closed), sorted by bytes, each repeat and each row that
    another row covers (p <= w) dropped."""
    rows = _brute_close(u, ws) if close else list(ws)
    unique = sorted({w.tobytes(): w for w in rows}.items(), key=lambda item: item[0])
    return [w for b, w in unique if not any(c != b and (p <= w).all() for c, p in unique)]


@pytest.mark.parametrize("close", [True, False], ids=["close", "closed"])
@pytest.mark.parametrize("vars, consts", [((), ()), (("x", "y"), ()), (("x", "y", "z"), (0,)),
                                          (("x", "y"), (-1, 3)), (("x",), (-3, 0, 2, 5))],
                         ids=["no-node", "no-constant", "one-constant", "two-constants",
                              "four-constants"])
def test_normalise_matches_brute_force(vars, consts, close):
    # _normalise of a random engine-layout stack against the definition: the
    # rows closed if asked (otherwise given closed), sorted by bytes, each
    # repeat and each row that another row covers (p <= w) dropped
    u = universe(vars, consts)
    rng = np.random.default_rng(53)
    seen = dict.fromkeys(("rows 0", "rows 1", "rows 2", "many rows", "repeat", "covered"), 0)
    for _ in range(100):
        n = int(rng.choice([0, 1, 2, int(rng.integers(3, 10))]))
        ws = rng.choice([NEG_INF] * 8 + [-2.0, -1.0, 0.0, 1.0], size=(n, u.size, u.size))
        ws[:, range(u.size), range(u.size)] = NEG_INF
        if n > 1 and rng.random() < 0.6:
            # a repeat of row a, and a copy with one entry raised, which a covers
            a, i, j = rng.integers(n), rng.integers(u.size or 1), rng.integers(u.size or 1)
            ws = np.concatenate((ws, ws[[a, a]]))
            if i != j:
                ws[-1, i, j] = max(ws[-1, i, j], -2.0)
        if not close:
            closed = _brute_close(u, ws)
            ws = np.array(closed).reshape(len(closed), u.size, u.size)
        ws = ws[rng.permutation(len(ws))]
        rows = _brute_close(u, ws) if close else list(ws)
        unique = {w.tobytes() for w in rows}
        kept = _brute_normalise(u, ws, close)
        got = sets._normalise(u, ws.copy(), close)
        assert got.w.shape == (len(kept), u.size, u.size)
        assert got.w.tobytes() == b"".join(w.tobytes() for w in kept)
        seen[("rows 0", "rows 1", "rows 2")[len(ws)] if len(ws) < 3 else "many rows"] += 1
        seen["repeat"] += len(unique) < len(rows)
        seen["covered"] += len(kept) < len(unique)
    if not u.size:
        del seen["covered"]  # every row of the universe with no node is the empty one
    assert all(k >= 3 for k in seen.values()), seen


def test_every_result_owns_its_normalised_rows(countdown):
    # results of 0, 1 and 2 or more rows of every set operation: read-only,
    # sharing no memory with an operand, and the brute-force normalisation of
    # their own rows; union, intersect_sets, atom_set and full_set also give
    # that of the stack they are defined by
    rng = random.Random(67)
    u = universe(VARS, CONSTS)
    seen: dict = {}

    def judge(name, got, operands, defined_by=None, close=True):
        assert not got.w.flags.writeable and got.w.flags.owndata
        assert not any(np.shares_memory(got.w, s.w) for s in operands)
        expect = [_brute_normalise(got.u, got.w, True)]
        if defined_by is not None:
            expect.append(_brute_normalise(got.u, defined_by, close))
        for rows in expect:
            assert got.w.tobytes() == b"".join(w.tobytes() for w in rows), name
        seen[name, min(len(got.w), 2)] = seen.get((name, min(len(got.w), 2)), 0) + 1

    def random_set():
        return make_set(VARS, CONSTS, [random_plain_mg(rng) for _ in range(rng.randint(0, 3))])

    for _ in range(120):
        s, t = random_set(), random_set()
        judge("union", union(s, t), [s, t], np.concatenate((s.w, t.w)), close=False)
        prods = np.maximum(s.w[:, None], t.w[None, :]).reshape(-1, u.size, u.size)
        judge("intersect_sets", intersect_sets(s, t), [s, t], prods)
        judge("complement", complement(s), [s])
        judge("pre_action", pre_action(countdown, rng.choice("ab"), s), [s])
        judge("pre_star", pre_star(countdown, s), [s])
        pairs = [rng.sample(VARS + CONSTS, 2) for _ in range(rng.randint(0, 4))]
        clauses = [Clause(a, b, rng.randint(-3, 3)) for a, b in pairs]
        judge("atom_set", atom_set(VARS, CONSTS, clauses), [], clause_stack(u, [clauses], engine=True))
    for vars, consts in (((), ()), (VARS, ()), (VARS, CONSTS), (("x",), (-3, 0, 2, 5))):
        w = universe(vars, consts)
        judge("full_set", full_set(vars, consts), [], np.full((1, w.size, w.size), NEG_INF))
    rows = dict.fromkeys(("union", "intersect_sets", "complement", "pre_action", "pre_star"), (0, 1, 2))
    rows.update(atom_set=(0, 1), full_set=(1,))  # one conjunction, one row
    assert set(seen) == {(op, m) for op, ms in rows.items() for m in ms}
    assert min(seen.values()) >= 4, seen


def test_normalise_closes_no_empty_stack(monkeypatch):
    calls = []
    close = sets.close_seeded
    monkeypatch.setattr(sets, "close_seeded", lambda ws, seed: calls.append(len(ws)) or close(ws, seed))
    u = universe(VARS, CONSTS)
    assert sets._normalise(u, np.full((0, u.size, u.size), NEG_INF)).is_empty()
    assert calls == []
    assert complement(full_set(VARS, CONSTS)).is_empty()
    assert calls == [1]  # the full set's one row, and no empty one


def test_pre_star_layer_with_no_satisfiable_pair(countdown):
    # x < 0 and y < 0: both rules need a primed variable >= 0, so every
    # pair of the first layer is rejected by the prefilter
    target = aset(Clause(0, "x", 1), Clause(0, "y", 1))
    for stop_at, max_pool in ((None, None), ({"x": 0, "y": 0}, 1)):
        metrics = Metrics()
        got = sets._pre_star_pool(countdown, target, (), None, metrics, max_pool, None, stop_at)
        assert got.tobytes() == target.w.tobytes()
        assert metrics.graphs_created == 2 and metrics.pool_size == 0 and metrics.max_norm == 0
    # x < 0 and y > 0: CX is prefiltered away, and CY's one result
    # (x < 0, y > 1) is covered by the target, so the layer adds nothing
    target = aset(Clause(0, "x", 1), Clause("y", 0, 1))
    metrics = Metrics()
    got = sets._pre_star_pool(countdown, target, (), None, metrics, None, None)
    assert got.tobytes() == target.w.tobytes()
    assert metrics.graphs_created == 2 and metrics.pool_size == 0 and metrics.max_norm > 0


def test_pre_star_composes_once_per_layer(countdown, monkeypatch):
    # the README countdown from x = 0 & y = 0: one compose_batch call per BFS
    # layer, the layers counted by the one-at-a-time reference
    target = aset(*XY_ZERO)
    depth = {0: 0}
    rules = transitional_graphs(countdown)
    pool, head = list(target.w), 0  # in the engine layout, as the set's rows are
    while head < len(pool):
        for pw in compose_batch(rules, pool[head][None]):
            if pw is not None and not any((p <= pw).all() for p in pool):
                depth[len(pool)] = depth[head] + 1
                pool.append(pw)
        head += 1
    calls = []

    def counting(rules, mws):
        calls.append(len(mws))
        return compose_batch(rules, mws)

    monkeypatch.setattr(sets, "compose_batch", counting)
    star = pre_star(countdown, target)
    layers = max(depth.values()) + 1
    assert len(calls) == layers and sum(calls) == len(pool)
    assert 1 < layers < len(pool)
    graphs = [MonotonicityGraph(VARS, CONSTS, False, w) for w in target.u.leave(np.array(pool))]
    assert same_set(star, make_set(VARS, CONSTS, graphs))
