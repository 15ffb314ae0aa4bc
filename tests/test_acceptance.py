"""End-to-end acceptance suite.

Each test is one exit criterion: exact worked examples, oracle-differential
agreement at scale, the QBF reduction corpus, bisimulation coherence,
randomized algebraic laws, fragment rejection, and resource accounting.
"""

import itertools
import random
import time

import pytest

from gapmc import logic
from gapmc.bisim import equiv_check, refine, weak_closure
from gapmc.cli import main as cli_main
from gapmc.gcs import encode_finite_lts
from gapmc.logic import Atom, Ef, and_all
from gapmc.mg import Clause, compose, covers, from_constraint
from gapmc.oracle import (
    WindowGraph,
    differential_run,
    explicit_check,
    qbf_eval,
)
from gapmc.reductions import BAnd, BNot, BOr, BVar, Qbf, qbf_to_gcs
from gapmc.sets import (
    Metrics,
    PoolLimitExceeded,
    atom_set,
    complement,
    contains,
    intersect_sets,
    make_set,
    pre_star,
    same_set,
    subset_of,
    union,
)

from conftest import random_plain_mg, random_transitional_mg, random_valuation

VARS, CONSTS = ("x", "y"), (0,)


def test_criterion_1_compose_example_exact(cx_graph):
    start = time.monotonic()
    s = from_constraint(
        [Clause("x", 0, 1), Clause("y", 0, 0), Clause(0, "y", 0)], VARS, CONSTS
    )
    expect = from_constraint(
        [Clause("x", 0, 2), Clause("y", 0, 0), Clause(0, "y", 0)], VARS, CONSTS
    ).closure()
    got = compose(cx_graph, s)
    assert got.closed
    assert got.w.tobytes() == expect.w.tobytes()
    assert got == expect
    assert time.monotonic() - start < 1.0


def test_criterion_2_complement_example():
    s = atom_set(VARS, CONSTS, [Clause("x", "y", 5)])
    comp = complement(s)
    assert len(comp.members) == 1
    assert comp.members[0].weight("y", "x") == -4
    assert comp.degree() == 4
    back = complement(comp)
    assert subset_of(back, s) and subset_of(s, back)


def test_criterion_3_pre_star_vs_window_bfs(countdown):
    start = time.monotonic()
    target = atom_set(
        VARS, CONSTS,
        [Clause("x", 0, 0), Clause(0, "x", 0), Clause("y", 0, 0), Clause(0, "y", 0)],
    )
    star = pre_star(countdown, target)
    expect = union(
        atom_set(VARS, CONSTS, [Clause("y", 0, 1)]),
        atom_set(VARS, CONSTS, [Clause("x", 0, 0), Clause("y", 0, 0), Clause(0, "y", 0)]),
    )
    assert subset_of(star, expect) and subset_of(expect, star)
    # explicit BFS agreement on every state of the window
    w = WindowGraph(countdown, -2, 8)
    goal = and_all(
        [Atom(Clause("x", 0, 0)), Atom(Clause(0, "x", 0)),
         Atom(Clause("y", 0, 0)), Atom(Clause(0, "y", 0))]
    )
    for state in w.states:
        assert explicit_check(w, state, Ef(goal)) == contains(star, state)
    assert time.monotonic() - start < 5.0


def test_criterion_4_differential_suite():
    start = time.monotonic()
    report = differential_run(1, 500)
    assert report["cases"] == 500
    assert report["mismatches"] == []
    assert time.monotonic() - start < 120.0


def _all_clauses(names):
    """Every disjunction of literals over a nonempty variable subset."""
    out = []
    for k in range(1, len(names) + 1):
        for subset in itertools.combinations(names, k):
            for signs in itertools.product((False, True), repeat=k):
                lits = [
                    BNot(BVar(v)) if neg else BVar(v)
                    for v, neg in zip(subset, signs)
                ]
                expr = lits[0]
                for l in lits[1:]:
                    expr = BOr(expr, l)
                out.append((frozenset(subset), expr))
    return out


def _qbf_corpus(max_vars=3, max_clauses=3):
    """All prenex QBF over <= max_vars variables whose matrix is a
    conjunction of 1..max_clauses distinct literal-disjunction clauses that
    together mention every declared variable, under every prefix."""
    for n in range(1, max_vars + 1):
        names = tuple(f"x{i}" for i in range(1, n + 1))
        clauses = _all_clauses(names)
        for k in range(1, max_clauses + 1):
            for combo in itertools.combinations(clauses, k):
                used = frozenset().union(*(s for s, _ in combo))
                if used != frozenset(names):
                    continue
                matrix = combo[0][1]
                for _, c in combo[1:]:
                    matrix = BAnd(matrix, c)
                for quants in itertools.product("AE", repeat=n):
                    yield Qbf(tuple(zip(quants, names)), matrix)


def test_criterion_5_qbf_reduction_corpus():
    start = time.monotonic()
    count = 0
    for q in _qbf_corpus():
        g, v0, f = qbf_to_gcs(q)
        assert logic.check(g, v0, f) == qbf_eval(q), q
        count += 1
    assert count == 21822
    # plus random 4-variable instances
    rng = random.Random(5)
    names = ("x1", "x2", "x3", "x4")
    clauses = _all_clauses(names)
    for _ in range(50):
        picked = rng.sample(clauses, rng.randint(1, 4))
        matrix = picked[0][1]
        for _, c in picked[1:]:
            matrix = BAnd(matrix, c)
        q = Qbf(tuple((rng.choice("AE"), v) for v in names), matrix)
        g, v0, f = qbf_to_gcs(q)
        assert logic.check(g, v0, f) == qbf_eval(q), q
    assert time.monotonic() - start < 120.0


def _lts(acts, *transitions, states=None):
    from gapmc.bisim import FiniteLts

    ss = states or tuple(
        sorted({s for s, _, t in transitions} | {t for s, _, t in transitions})
    )
    return FiniteLts(states=tuple(ss), acts=tuple(acts), transitions=frozenset(transitions))


BISIM_LIBRARY = [
    _lts(("a",), ("s", "a", "s")),
    _lts(("a",), ("s", "a", "t")),
    _lts(("a",), ("s", "a", "t"), ("t", "a", "s")),
    _lts(("a", "b"), ("s", "a", "t"), ("s", "b", "u")),
    _lts(("a", "b"), ("s", "a", "t"), ("t", "b", "u")),
    _lts(("a",), ("s", "a", "t"), ("s", "a", "u"), ("u", "a", "u")),
    _lts(("a", "tau"), ("s", "tau", "t"), ("t", "a", "u")),
    _lts(("a", "tau"), ("s", "a", "t"), ("t", "tau", "u")),
    _lts(("a", "tau"), ("s", "a", "s1"), ("t", "a", "t1"), ("t1", "tau", "t2"),
         states=("s", "s1", "t", "t1", "t2")),
    _lts(("a", "b"), ("s", "a", "s"), ("s", "b", "t"), ("t", "a", "t")),
    _lts(("a",), ("p", "a", "q"), ("q", "a", "r"), ("r", "a", "p")),
]


@pytest.mark.parametrize("mode", ["strong", "weak"])
def test_criterion_6_bisim_encoded_vs_refinement(mode):
    assert len(BISIM_LIBRARY) >= 10
    for l in BISIM_LIBRARY:
        g = encode_finite_lts(l)
        idx = {name: i + 1 for i, name in enumerate(l.states)}
        relation = l if mode == "strong" else weak_closure(l, "tau")
        classes = refine(relation)
        for p in l.states:
            for s in l.states:
                got = equiv_check(g, {"state": idx[p]}, l, s, mode=mode)
                assert got == classes.same_class(p, s), (mode, p, s, l.transitions)


def test_criterion_6_strong_equals_weak_without_tau():
    for l in BISIM_LIBRARY:
        if any(a == "tau" for _, a, _ in l.transitions):
            continue
        strong, weak = refine(l), refine(weak_closure(l, "tau"))
        for s in l.states:
            for t in l.states:
                assert strong.same_class(s, t) == weak.same_class(s, t)


def test_criterion_7_randomized_law_suites(countdown):
    rng = random.Random(9)

    # closure idempotence + triangle law
    for _ in range(1000):
        m = random_plain_mg(rng)
        c = m.closure()
        assert (c.closure().w == c.w).all()
        if c.is_satisfiable():
            w, n = c.w, c.w.shape[0]
            for i in range(n):
                for j in range(n):
                    for k in range(n):
                        if w[i, k] > float("-inf") and w[k, j] > float("-inf"):
                            assert w[i, j] >= w[i, k] + w[k, j]

    # intersect/complement membership laws
    for _ in range(1000):
        g1, g2 = random_plain_mg(rng), random_plain_mg(rng)
        s = make_set(VARS, CONSTS, [g1] if g1.is_satisfiable() else [])
        t = make_set(VARS, CONSTS, [g2] if g2.is_satisfiable() else [])
        v = random_valuation(rng, VARS)
        assert contains(intersect_sets(s, t), v) == (contains(s, v) and contains(t, v))
        assert contains(complement(s), v) == (not contains(s, v))

    # compose covering-monotonicity
    hits = 0
    while hits < 1000:
        g = random_transitional_mg(rng, positive=True)
        n, m = random_plain_mg(rng), random_plain_mg(rng)
        if not (g.is_satisfiable() and n.is_satisfiable() and m.is_satisfiable()):
            continue
        if not covers(n, m):
            continue
        hits += 1
        cn, cm = compose(g, n), compose(g, m)
        if cm.is_satisfiable():
            assert cn.is_satisfiable() and covers(cn, cm)

    # degree preservation under degree-0 composition
    for _ in range(1000):
        g = random_transitional_mg(rng, positive=True)
        m = random_plain_mg(rng)
        if not (g.is_satisfiable() and m.is_satisfiable()):
            continue
        out = compose(g, m)
        if out.is_satisfiable():
            assert out.degree() <= m.closure().degree()

    # EF idempotence at the set level
    for _ in range(1000):
        g1 = random_plain_mg(rng)
        s = make_set(VARS, CONSTS, [g1] if g1.is_satisfiable() else [])
        star = pre_star(countdown, s)
        assert same_set(pre_star(countdown, star), star)


def test_criterion_8_rejection_contract(tmp_path, capsys):
    p = tmp_path / "sys.gcs"
    p.write_text(
        "gcs { vars: x, y; consts: 0; }\n"
        "rule CX [a]: x > x' & x' >= 0 & y = y';\n"
    )
    for formula in ["EG true", "E (true U x >= 0)", "EF EG x >= 0", "!EG true"]:
        assert cli_main(["check", str(p), "x=0, y=0", formula]) == 2
        assert "undecidable" in capsys.readouterr().err


def test_criterion_9_metrics_and_pool_cap(countdown):
    target = atom_set(
        VARS, CONSTS,
        [Clause("x", 0, 0), Clause(0, "x", 0), Clause("y", 0, 0), Clause(0, "y", 0)],
    )
    metrics = Metrics()
    star = pre_star(countdown, target, metrics=metrics)
    assert metrics.pool_size >= len(star.members)
    assert metrics.graphs_created >= metrics.pool_size
    assert metrics.max_norm >= max(m.norm() for m in star.members)
    assert metrics.degree_bound >= star.degree()
    with pytest.raises(PoolLimitExceeded):
        pre_star(countdown, target, max_pool=1)
