"""Monotonicity-graph algebra: worked examples and randomized property suites."""

import random

import numpy as np
import pytest

from gapmc.mg import (
    NEG_INF,
    POS_INF,
    Clause,
    MonotonicityGraph,
    RuleStack,
    close_rules,
    compose,
    compose_batch,
    covers,
    from_constraint,
    universe,
)

from conftest import (
    CX_CLAUSES,
    random_plain_mg,
    random_transitional_mg,
    random_valuation,
)

VARS, CONSTS = ("x", "y"), (0,)


def mg(clauses, transitional=False, vars=VARS, consts=CONSTS):
    return from_constraint(clauses, vars, consts, transitional=transitional)


def closure_oracle(m: MonotonicityGraph) -> np.ndarray:
    """Independent closure: seed constant edges, then iterate one-step path
    extension to a fixpoint; entries still growing after enough rounds to
    have found every simple path must lie on positive cycles (+inf)."""
    ns = m.u.nodes
    n = len(ns)
    base = np.array(m.w)
    for i, a in enumerate(ns):
        for j, b in enumerate(ns):
            if i != j and isinstance(a, int) and isinstance(b, int):
                base[i, j] = max(base[i, j], a - b)
    cur = np.array(base)
    for _ in range(n + 1):
        nxt = np.array(cur)
        for i in range(n):
            for k in range(n):
                if cur[i, k] == NEG_INF:
                    continue
                for j in range(n):
                    if base[k, j] == NEG_INF:
                        continue
                    nxt[i, j] = max(nxt[i, j], cur[i, k] + base[k, j])
        if (nxt == cur).all():
            return cur
        cur = nxt
    # still growing: anything that increases over a further block of n
    # rounds (long enough for any cycle period) sits on a positive cycle
    def step(m):
        nxt = np.array(m)
        for i in range(n):
            for k in range(n):
                if m[i, k] == NEG_INF:
                    continue
                for j in range(n):
                    if base[k, j] == NEG_INF:
                        continue
                    nxt[i, j] = max(nxt[i, j], m[i, k] + base[k, j])
        return nxt

    for _ in range(n * n):
        cur = step(cur)
    later = cur
    for _ in range(n):
        later = step(later)
    cur[later > cur] = POS_INF
    return cur


# -- construction -------------------------------------------------------------


def test_from_constraint_cx_edges():
    g = mg(CX_CLAUSES, transitional=True)
    assert g.weight("x", "x'") == 1
    assert g.weight("y'", "y") == 0
    assert g.weight("y", "y'") == 0
    assert g.weight("x'", 0) == 0
    assert g.weight("x", "y") == NEG_INF


def test_from_constraint_empty_is_all_minus_inf():
    g = mg([])
    assert (g.w == NEG_INF).all()


def test_from_constraint_duplicate_pair_takes_max():
    g = mg([Clause("x", "y", 2), Clause("x", "y", 5)])
    assert g.weight("x", "y") == 5


def test_from_constraint_unknown_symbol():
    with pytest.raises(ValueError):
        mg([Clause("z", "x", 0)])


# -- closure -------------------------------------------------------------------


def test_closure_cx_derives_x_to_zero():
    c = mg(CX_CLAUSES, transitional=True).closure()
    # path x ->1 x' ->0 0
    assert c.weight("x", 0) == 1


def test_closure_idempotent_on_cx():
    c = mg(CX_CLAUSES, transitional=True).closure()
    assert c.closure() is c
    assert (c.with_weights(np.array(c.w)).closure().w == c.w).all()


def test_closure_positive_cycle_promotes_to_inf():
    c = mg([Clause("x", "y", 1), Clause("y", "x", 0)]).closure()
    assert c.weight("x", "x") == POS_INF


def test_closure_matches_oracle_random():
    rng = random.Random(11)
    for _ in range(300):
        m = random_plain_mg(rng)
        assert (m.closure().w == closure_oracle(m)).all()
    for _ in range(300):
        m = random_transitional_mg(rng, positive=False)
        assert (m.closure().w == closure_oracle(m)).all()


def test_closure_matches_oracle_several_constants():
    # clauses between two constants can exceed the seeded differences,
    # and the +inf pattern of those unsatisfiable graphs must still match
    rng = random.Random(12)
    vars, consts = ("x", "y"), (-1, 0, 2)
    for _ in range(300):
        m = random_plain_mg(rng, vars, consts, max_clauses=6)
        assert (m.closure().w == closure_oracle(m)).all()
    for _ in range(300):
        m = random_transitional_mg(rng, vars, consts, max_clauses=6, positive=False)
        assert (m.closure().w == closure_oracle(m)).all()


def test_closure_matches_oracle_with_inf_inputs():
    # a "+inf" weight read from a set file reaches closure() as input; a
    # path through it and through a -inf entry must add no constraint
    rng = random.Random(13)
    vars, consts = ("x", "y"), (-1, 0, 2)
    for i in range(600):
        if i % 2:
            m = random_plain_mg(rng, vars, consts, max_clauses=6)
        else:
            m = random_transitional_mg(rng, vars, consts, max_clauses=6, positive=False)
        w = np.array(m.w)
        n = w.shape[0]
        for _ in range(rng.randint(1, 2)):
            w[rng.randrange(n), rng.randrange(n)] = POS_INF
        m = m.with_weights(w)
        assert (m.closure().w == closure_oracle(m)).all()


def test_weight_matrix_shape_is_checked():
    with pytest.raises(ValueError):
        MonotonicityGraph(VARS, CONSTS, w=np.zeros((2, 2)))


# -- satisfiability -------------------------------------------------------------


def test_satisfiability_examples():
    assert not mg([Clause("x", "y", 1), Clause("y", "x", 0)]).is_satisfiable()
    assert mg([]).is_satisfiable()
    # 0 - 3 >= 5 is arithmetically false; constant seeding exposes it
    assert not mg([Clause(0, 3, 5)], consts=(0, 3)).is_satisfiable()


# -- degree ----------------------------------------------------------------------


def test_degree_examples():
    assert mg([Clause("x", "y", 5)]).degree() == 0
    assert mg([Clause("y", "x", -4)]).degree() == 4
    assert mg([]).degree() == 0


def test_degree_ignores_constant_pairs():
    g = mg([], consts=(0, 7)).closure()  # seeded 0 ->-7 7
    assert g.degree() == 0


# -- restrict / project -----------------------------------------------------------


def test_restrict_cx_raw_is_edgeless():
    g = mg(CX_CLAUSES, transitional=True).restrict(("x", "y"))
    assert (g.w == NEG_INF).all()
    assert not g.transitional


def test_restrict_all_vars_identity():
    g = mg([Clause("x", "y", 2)])
    assert (g.restrict(("x", "y")).w == g.w).all()


def test_restrict_of_cx_closure():
    g = mg(CX_CLAUSES, transitional=True).closure().restrict(("x", "y"))
    assert g.weight("x", 0) == 1
    assert g.weight("x", "y") == NEG_INF


def test_project_renamed_intersection():
    # rename S = {x>=1, y=0} onto primed variables, intersect with M_CX,
    # project back: {x>=2, y=0} plus the implied x-y>=2
    renamed = mg(
        [Clause("x'", 0, 1), Clause("y'", 0, 0), Clause(0, "y'", 0)],
        transitional=True,
    )
    middle = renamed.intersect(mg(CX_CLAUSES, transitional=True))
    p = middle.closure().restrict(("x", "y"))
    assert p.weight("x", 0) == 2
    assert p.weight("x", "y") == 2
    assert p.weight("y", 0) == 0
    assert p.weight(0, "y") == 0


def test_project_trivia():
    assert (mg([]).closure().restrict(("x",)).w == NEG_INF).all()
    g = mg([Clause("x'", "x", 3)], transitional=True).closure().restrict(("x",))
    assert (g.w == NEG_INF).all()


# -- intersect ---------------------------------------------------------------------


def test_intersect_identity_and_max():
    g = mg([Clause("x", "y", 1)])
    assert (g.intersect(mg([])).w == g.w).all()
    assert g.intersect(mg([Clause("x", "y", 3)])).weight("x", "y") == 3


def test_intersect_requires_same_universe():
    with pytest.raises(ValueError):
        mg([]).intersect(mg([], consts=(0, 1)))


# -- compose -----------------------------------------------------------------------


def test_compose_countdown_step_exact(cx_graph):
    s = mg([Clause("x", 0, 1), Clause("y", 0, 0), Clause(0, "y", 0)])
    expect = mg([Clause("x", 0, 2), Clause("y", 0, 0), Clause(0, "y", 0)]).closure()
    got = compose(cx_graph, s)
    assert got == expect
    assert got.w.tobytes() == expect.w.tobytes()


def test_compose_unconstrained_step_gives_all(cx_graph):
    g = mg([], transitional=True)
    out = compose(g, mg([]))
    assert out.is_satisfiable()
    assert (out.w == NEG_INF).all()


def test_compose_cy_unsat_case(cy_graph):
    # CY into {x>=2, y=0}: needs y'=0 and y'>=... y-y'>=1 with y'=0 pre-image
    # wait: target y=0 renames to y'=0; CY demands y-y'>=1 so y>=1 before,
    # fine -- the genuinely unsatisfiable case is target x>=2 & y=0 composed
    # with CY *and* a guard forcing y'-y>=0; build it directly instead:
    guard = mg([Clause("y'", "y", 0)], transitional=True)
    s = mg([Clause("x", 0, 2), Clause("y", 0, 0), Clause(0, "y", 0)])
    out = compose(cy_graph.intersect(guard), s)
    assert not out.is_satisfiable()
    # bounded brute force confirms no predecessor exists in [-3, 6]^2
    g_all = cy_graph.intersect(guard)
    for vx in range(-3, 7):
        for vy in range(-3, 7):
            for wx in range(-3, 7):
                for wy in range(-3, 7):
                    both = {"x": vx, "y": vy, "x'": wx, "y'": wy}
                    assert not (
                        g_all.evaluate(both)
                        and s.evaluate({"x": wx, "y": wy})
                    )


def test_compose_cy_into_reachable_target(cy_graph):
    # plain CY *can* reach {x>=2, y=0} (from any y>=1 with x arbitrary)
    s = mg([Clause("x", 0, 2), Clause("y", 0, 0), Clause(0, "y", 0)])
    out = compose(cy_graph, s)
    assert out.is_satisfiable()
    assert out.evaluate({"x": 0, "y": 1})


def test_compose_validates_arguments(cx_graph):
    with pytest.raises(ValueError):
        compose(mg([]), mg([]))  # g not transitional
    with pytest.raises(ValueError):
        compose(cx_graph, mg([], consts=(0, 1)))


def _closed_sat(rng, make):
    while True:
        c = make(rng).closure()
        if c.is_satisfiable():
            return c


@pytest.mark.parametrize(
    "vars, consts",
    [(("x", "y", "z"), ()), (("x", "y"), (0,)), (("x", "y", "z"), (-2, 0, 1, 3))],
    ids=["no-consts", "one-const", "several-consts"],
)
def test_compose_batch_matches_compose(vars, consts):
    # compose runs the full closure over every node and stays the reference;
    # compose_batch runs in the engine layout, entered and left here
    rng = random.Random(40)
    pu, tu = universe(vars, consts), universe(vars, consts, True)
    # an unsatisfiable combination composes to the closed all-+inf graph
    nodes = len(vars) + len(consts)
    unsat = MonotonicityGraph(vars, consts, False, np.full((nodes, nodes), POS_INF), closed=True)
    results = {"sat": 0, "unsat": 0, "frontiers": 0}
    for i in range(40):
        positive = i % 2 == 0
        rules = [
            _closed_sat(
                rng,
                lambda r: random_transitional_mg(
                    r, vars, consts, max_clauses=8, positive=positive
                ),
            )
            for _ in range(rng.randint(1, 6))
        ]
        stack = RuleStack(vars, consts, tu.enter(np.stack([g.w for g in rules])).copy())
        singles, members = [], []
        for _ in range(10):
            m = _closed_sat(rng, lambda r: random_plain_mg(r, vars, consts, max_clauses=5))
            got = compose_batch(stack, pu.enter(m.w)[None])
            assert len(got) == len(rules)
            for g, p in zip(rules, got):
                ref = compose(g, m)
                if not ref.is_satisfiable():
                    assert ref == unsat and ref.closed
                    assert p is None
                    results["unsat"] += 1
                else:
                    assert p is not None and pu.leave(p[None]).tobytes() == ref.w.tobytes()
                    results["sat"] += 1
            singles += got
            members.append(m.w)
        # a (k, m, m) frontier gives the single-member results, member-major
        k = i % (len(members) + 1)
        frontier = compose_batch(stack, pu.enter(np.array(members[:k]).reshape(k, *m.w.shape)))
        assert len(frontier) == k * len(rules)
        for p, q in zip(frontier, singles):
            assert (p is None) == (q is None)
            assert p is None or p.tobytes() == q.tobytes()
        results["frontiers"] += k > 1
    assert results["sat"] >= 100 and results["unsat"] >= 100
    assert compose_batch(stack, pu.enter(np.empty((0,) + members[0].shape))) == []
    assert results["frontiers"] >= 20


def test_compose_batch_in_small_chunks(monkeypatch):
    # a frontier closed a few pairs at a time gives the same entries
    rng = random.Random(42)
    vars, consts = ("x", "y"), (0, 2)
    rules = [
        _closed_sat(rng, lambda r: random_transitional_mg(r, vars, consts, max_clauses=6))
        for _ in range(5)
    ]
    tu, pu = universe(vars, consts, True), universe(vars, consts)
    stack = RuleStack(vars, consts, tu.enter(np.stack([g.w for g in rules])).copy())
    members = pu.enter(np.stack([
        _closed_sat(rng, lambda r: random_plain_mg(r, vars, consts, max_clauses=4)).w
        for _ in range(30)
    ]))
    whole = compose_batch(stack, members)
    n = stack.w.shape[-1]
    monkeypatch.setattr("gapmc.mg._COMPOSE_CHUNK", 3 * n * n)
    chunked = compose_batch(stack, members)
    assert len(whole) == len(chunked) == 150
    assert sum(p is not None for p in whole) >= 10
    for p, q in zip(whole, chunked):
        assert (p is None) == (q is None)
        assert p is None or p.tobytes() == q.tobytes()


def test_close_rules_matches_per_rule_closure():
    rng = random.Random(41)
    vars, consts = ("x", "y"), (0, 2)
    terms = list(vars) + [v + "'" for v in vars] + list(consts)
    kept = 0
    for _ in range(50):
        rules = [
            [Clause(*rng.sample(terms, 2), rng.randint(-2, 2)) for _ in range(rng.randint(0, 5))]
            for _ in range(rng.randint(0, 5))
        ]
        guard = [
            Clause(*rng.sample(terms, 2), rng.randint(0, 2)) for _ in range(rng.randint(0, 2))
        ]
        guard_g = mg(guard, transitional=True, vars=vars, consts=consts)
        expect = [
            c
            for c in (
                mg(r, transitional=True, vars=vars, consts=consts).intersect(guard_g).closure()
                for r in rules
            )
            if c.is_satisfiable()
        ]
        ws = universe(vars, consts, True).leave(close_rules(vars, consts, rules, guard))
        assert [w.tobytes() for w in ws] == [g.w.tobytes() for g in expect]
        kept += len(expect)
    assert kept >= 50


# -- the engine layout -----------------------------------------------------------------

LAYOUTS = [
    (("x", "y", "z"), ()),
    (("x", "y"), (0,)),
    (("x", "y"), (0, 4)),
    (("x", "y", "z"), (-2, 0, 1, 3)),
]
LAYOUT_IDS = ["no-consts", "one-const", "two-consts", "several-consts"]


@pytest.mark.parametrize("vars, consts", LAYOUTS, ids=LAYOUT_IDS)
def test_entering_and_leaving_the_engine_layout_is_the_identity(vars, consts):
    # closed satisfiable rows, plain and transitional, come back byte for
    # byte; below two constants the engine layout is the full one
    rng = random.Random(44)
    for transitional, make in ((False, random_plain_mg), (True, random_transitional_mg)):
        u = universe(vars, consts, transitional)
        assert (u.size == len(u.nodes)) == (len(consts) < 2)
        ws = np.stack([
            _closed_sat(rng, lambda r: make(r, vars, consts, max_clauses=6)).w for _ in range(40)
        ])
        assert u.enter(ws).shape == (40, u.size, u.size)
        assert u.leave(u.enter(ws)).tobytes() == ws.tobytes()
        assert u.leave(u.enter(ws[:0])).shape == (0, len(u.nodes), len(u.nodes))


def _pinned_rule(rng, vars, consts, seen):
    """A transitional clause list that pins some primed variables (a frame
    x' = x, an assignment x' = c or a copy x' = y + d) and leaves others
    free, with a clause against every constant and, at times, a true or a
    false clause between two constants."""
    clauses = []
    for x in vars:
        kind = rng.choice(("frame", "assignment", "copy", "free") if consts else ("frame", "copy", "free"))
        seen[kind] += 1
        if kind == "free":
            continue
        y, d = ((x, 0) if kind == "frame" else (rng.choice(consts), 0) if kind == "assignment"
                else (rng.choice(vars), rng.randint(-2, 2)))
        clauses += [Clause(x + "'", y, d), Clause(y, x + "'", -d)]
    terms = list(vars) + [x + "'" for x in vars]
    for c in consts:
        a, k = rng.choice(terms), rng.randint(-2, 3)
        clauses.append(Clause(a, c, k) if rng.random() < 0.5 else Clause(c, a, k))
    return clauses + _constant_clause(rng, consts, seen)


def _constant_clause(rng, consts, seen):
    if not consts or rng.random() < 0.5:
        return []
    c, d = rng.choice(consts), rng.choice(consts)
    true = rng.random() < 0.6
    seen["true c - d" if true else "false c - d"] += 1
    return [Clause(c, d, c - d - rng.randint(0, 2) if true else c - d + rng.randint(1, 2))]


@pytest.mark.parametrize("vars, consts", LAYOUTS, ids=LAYOUT_IDS)
def test_compose_batch_matches_compose_on_pinned_rules(vars, consts):
    # rules compiled straight into the engine layout by close_rules, with
    # guards; left again, compose_batch's results are compose's to the byte
    rng = random.Random(45)
    pu = universe(vars, consts)
    seen = dict.fromkeys(("frame", "copy", "free", "sat", "unsat", "dropped"), 0)
    if consts:
        seen.update(dict.fromkeys(("assignment", "true c - d", "false c - d"), 0))
    for _ in range(60):
        rules = [_pinned_rule(rng, vars, consts, seen) for _ in range(rng.randint(1, 5))]
        terms = list(vars) + [x + "'" for x in vars] + list(consts)
        guard = [Clause(*rng.sample(terms, 2), rng.randint(0, 2)) for _ in range(rng.randint(0, 2))]
        guard += _constant_clause(rng, consts, seen)
        graphs = [from_constraint(r + guard, vars, consts, transitional=True).closure() for r in rules]
        kept = [g for g in graphs if g.is_satisfiable()]
        seen["dropped"] += len(graphs) - len(kept)
        ws = close_rules(vars, consts, rules, guard)
        assert [w.tobytes() for w in universe(vars, consts, True).leave(ws)] == [
            g.w.tobytes() for g in kept
        ]
        if not kept:
            continue
        stack = RuleStack(vars, consts, ws)
        for _ in range(5):
            m = _closed_sat(rng, lambda r: random_plain_mg(r, vars, consts, max_clauses=5))
            for g, p in zip(kept, compose_batch(stack, pu.enter(m.w)[None])):
                ref = compose(g, m)
                if ref.is_satisfiable():
                    assert p is not None and pu.leave(p[None]).tobytes() == ref.w.tobytes()
                    seen["sat"] += 1
                else:
                    assert p is None
                    seen["unsat"] += 1
    assert all(n >= 10 for n in seen.values()), seen


def test_close_rules_rejects_unknown_symbols():
    with pytest.raises(ValueError, match="unknown variable"):
        close_rules(VARS, CONSTS, [[Clause("x", "q'", 0)]])
    with pytest.raises(ValueError, match="unknown variable"):
        close_rules(VARS, CONSTS, [], guard=[Clause(7, "x", 0)])


# -- covering ------------------------------------------------------------------------


def test_covers_examples():
    a = mg([Clause("y", "x", -4)])
    b = mg([Clause("y", "x", -3)])
    assert covers(a, b)  # a ⊑ b
    assert covers(a, a)
    c = mg([Clause("x", "y", 5)])
    d = mg([Clause("y", "x", 0)])
    assert not covers(c, d) and not covers(d, c)


# -- evaluate -------------------------------------------------------------------------


def test_evaluate_examples():
    g = mg([Clause("x", "y", 5)])
    assert g.evaluate({"x": 7, "y": 1})
    assert not g.evaluate({"x": 5, "y": 1})
    unsat = MonotonicityGraph(VARS, CONSTS, w=np.full((3, 3), POS_INF))
    assert not unsat.evaluate({"x": 0, "y": 0})


def test_integers_beyond_the_exact_range_are_refused():
    # over x and one constant (2 nodes), magnitudes up to 2^53 // 3 are exact
    ok = 2**53 // 3
    g = mg([Clause("x", 0, ok)], vars=("x",))
    assert g.evaluate({"x": ok}) and not g.evaluate({"x": ok - 1})
    assert MonotonicityGraph(("x",), (-ok,)).closure().is_satisfiable()
    for bad in (ok + 1, -ok - 1):
        with pytest.raises(ValueError, match="2\\^53"):
            mg([Clause("x", 0, bad)], vars=("x",))
        with pytest.raises(ValueError, match="2\\^53"):
            g.evaluate({"x": bad})
        with pytest.raises(ValueError, match="2\\^53"):
            MonotonicityGraph(("x",), (bad,)).closure()
    # a rule stack has 2 + 1 nodes over x, x' and 0: the bound is 2^53 // 4
    with pytest.raises(ValueError, match="2\\^53"):
        close_rules(("x",), (0,), [[Clause("x", "x'", 2**53 // 4 + 1)]])
    assert len(close_rules(("x",), (0,), [[Clause("x", "x'", 2**53 // 4)]])) == 1


# -- canonical form: the closure -------------------------------------------------------


def test_canonicalize_idempotent_and_order_independent():
    a = mg([Clause("x", "y", 1), Clause("y", 0, 0)])
    b = mg([Clause("y", 0, 0), Clause("x", "y", 1)])
    ca, cb = a.closure(), b.closure()
    assert ca == cb
    assert ca.closure() == ca


# -- property suites --------------------------------------------------------------------


def test_property_closure_idempotence_and_triangle():
    rng = random.Random(21)
    for _ in range(1000):
        m = random_plain_mg(rng)
        c = m.closure()
        assert (c.closure().w == c.w).all()
        if not c.is_satisfiable():
            continue
        w = c.w
        n = w.shape[0]
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if w[i, k] > NEG_INF and w[k, j] > NEG_INF:
                        assert w[i, j] >= w[i, k] + w[k, j]


def test_property_sat_preservation():
    rng = random.Random(22)
    for _ in range(1000):
        m = random_plain_mg(rng)
        c = m.closure()
        v = random_valuation(rng, VARS)
        assert m.evaluate(v) == c.evaluate(v)


def test_property_intersect_soundness():
    rng = random.Random(23)
    for _ in range(1000):
        m, n = random_plain_mg(rng), random_plain_mg(rng)
        v = random_valuation(rng, VARS)
        assert m.intersect(n).evaluate(v) == (m.evaluate(v) and n.evaluate(v))


def test_property_compose_soundness():
    rng = random.Random(24)
    hits = 0
    for _ in range(1500):
        g = random_transitional_mg(rng, positive=False, max_clauses=3)
        m = random_plain_mg(rng, max_clauses=3)
        if not m.is_satisfiable() or not g.is_satisfiable():
            continue
        v = random_valuation(rng, VARS, -4, 4)
        v2 = random_valuation(rng, VARS, -4, 4)
        both = {**v, "x'": v2["x"], "y'": v2["y"]}
        if m.evaluate(v2) and g.evaluate(both):
            hits += 1
            assert compose(g, m).evaluate(v)
    assert hits >= 100  # the sampling actually exercised the implication


def test_property_compose_completeness_bounded():
    """On instances whose primed values are pinned to a window, a valuation
    in the composition always has an explicit one-step witness."""
    rng = random.Random(25)
    bound = [
        Clause("x'", 0, 0), Clause(4, "x'", 0),
        Clause("y'", 0, 0), Clause(4, "y'", 0),
    ]
    checked = 0
    for _ in range(400):
        g = from_constraint(bound, VARS, (0, 4), transitional=True)
        # a couple of random positive clauses on top of the window bounds
        extra = random_transitional_mg(rng, consts=(0, 4), max_clauses=2)
        g = g.intersect(extra)
        m = random_plain_mg(rng, consts=(0, 4), max_clauses=2, lo_k=0, hi_k=2)
        if not m.is_satisfiable():
            continue
        comp = compose(g, m)
        if not comp.is_satisfiable():
            continue
        for _ in range(10):
            v = random_valuation(rng, VARS, -2, 6)
            if not comp.evaluate(v):
                continue
            witness = any(
                g.evaluate({**v, "x'": wx, "y'": wy})
                and m.evaluate({"x": wx, "y": wy})
                for wx in range(0, 5)
                for wy in range(0, 5)
            )
            assert witness
            checked += 1
    assert checked >= 100


def test_property_degree_preservation():
    rng = random.Random(26)
    for _ in range(1000):
        g = random_transitional_mg(rng, positive=True)  # degree 0
        assert g.degree() == 0
        m = random_plain_mg(rng)
        if not m.is_satisfiable() or not g.is_satisfiable():
            continue
        out = compose(g, m)
        if out.is_satisfiable():
            assert out.degree() <= m.closure().degree()


def test_property_covering_monotone_compose():
    rng = random.Random(27)
    for _ in range(1000):
        g = random_transitional_mg(rng, positive=True)
        n, m = random_plain_mg(rng), random_plain_mg(rng)
        if not (g.is_satisfiable() and n.is_satisfiable() and m.is_satisfiable()):
            continue
        if not covers(n, m):
            continue
        cn, cm = compose(g, n), compose(g, m)
        if cm.is_satisfiable():
            assert cn.is_satisfiable()
            assert covers(cn, cm)
        # unsatisfiable cm is covered by anything; nothing to check


def test_property_covering_antimonotone_denotation():
    rng = random.Random(28)
    for _ in range(1000):
        n, m = random_plain_mg(rng), random_plain_mg(rng)
        if not (n.is_satisfiable() and m.is_satisfiable() and covers(n, m)):
            continue
        v = random_valuation(rng, VARS)
        if m.evaluate(v):
            assert n.evaluate(v)
