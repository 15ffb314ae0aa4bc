"""Formula evaluation: denotations, semantic laws, fragment boundaries."""

import gc
import random

import pytest

from gapmc import oracle, sets
from gapmc.bisim import FiniteLts, characteristic_formula, equiv_check
from gapmc.gcs import Gcs, TransitionRule
from gapmc.logic import (
    AndF,
    Atom,
    Diamond,
    Ef,
    Eg,
    Eu,
    Formula,
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
from gapmc.mg import Clause, MonotonicityGraph
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
    # an action that no rule carries makes no step, under <a> as under EF[a]
    assert denote(countdown, Diamond("zz", TrueF())).set.is_empty()
    x = Atom(Clause("x", 0, 1))
    assert denote(countdown, Ef(x, actions=("zz",))).set == denote(countdown, x).set


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


def test_check_at_the_valuation_matches_membership_in_the_denotation():
    # check evaluates the boolean skeleton at v and short-circuits; it must
    # agree with membership in the full denotation on every draw
    rng = random.Random(12)
    for _ in range(150):
        g = oracle.random_window_closed_gcs(rng)
        f = oracle.random_formula(rng, g, depth=4)
        d = denote(g, f).set
        for _ in range(3):
            v = random_valuation(rng, g.vars, 0, 4)
            assert check(g, v, f) == contains(d, v)
            assert check(g, v, NotF(f)) != contains(d, v)


def test_a_decided_conjunction_or_disjunction_skips_its_right_operand(countdown, monkeypatch):
    v = {"x": 1, "y": 0}
    false_at_v, true_at_v = Atom(Clause("x", 0, 2)), Atom(Clause("x", 0, 1))
    calls = _count_calls(monkeypatch, sets, ("pre_star", "reaches"))
    assert not check(countdown, v, AndF(false_at_v, Ef(XY_ZERO)))
    assert check(countdown, v, OrF(true_at_v, Ef(XY_ZERO)))
    assert not check(countdown, v, AndF(Diamond("b", TrueF()), NotF(Ef(XY_ZERO))))
    assert calls == {"pre_star": 0, "reaches": 0}
    # an EF below the skeleton is answered at v, by the early-stopping query
    assert check(countdown, v, AndF(true_at_v, Ef(XY_ZERO)))
    assert calls == {"pre_star": 0, "reaches": 1}
    # unless the call has already denoted it in full
    assert check(countdown, v, AndF(Diamond("a", Ef(XY_ZERO)), Ef(XY_ZERO)))
    assert calls == {"pre_star": 1, "reaches": 1}


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
    # EG and E(.. U ..) count a level each: they are measured, not refused
    assert nesting_depth(Eg(NotF(TrueF()))) == 2
    assert nesting_depth(NotF(Eu(Diamond("a", TrueF()), TrueF()))) == 3


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


# -- sharing: each distinct subformula once, one rule stack per (guard, actions) --


def _count_calls(monkeypatch, module, names):
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _name=name, _original=getattr(module, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


def test_each_distinct_subformula_is_evaluated_once(countdown, monkeypatch):
    def copy():  # a new object on every call, structurally always the same
        return Ef(NotF(Diamond("a", Atom(Clause("x", 0, 1)))))

    chain = Atom(Clause("y", 0, 0))
    for _ in range(12):  # each level uses the one below twice: 2**12 paths
        chain = NotF(AndF(Diamond("b", chain), Ef(chain)))
    twice = AndF(OrF(copy(), chain), AndF(copy(), chain))
    assert twice.left.left is not twice.right.left
    calls = _count_calls(monkeypatch, sets, ("complement", "pre_star", "pre_action"))
    m_twice = Metrics()
    got = denote(countdown, twice, metrics=m_twice).set
    # one NotF, Diamond and Ef in each of the 12 levels and in the copy
    assert calls == {"complement": 13, "pre_star": 13, "pre_action": 13}
    one = copy()
    m_once = Metrics()
    assert denote(countdown, AndF(OrF(one, chain), AndF(one, chain)), metrics=m_once).set == got
    assert m_once == m_twice


def test_nodes_that_differ_in_one_field_are_evaluated_apart(countdown):
    x = Atom(Clause(0, "x", 0))
    parts = [
        Diamond("a", x), Diamond("b", x),
        Diamond("a", x, (Clause("y'", "y", 1),)), Diamond("b", x, (Clause("x", "x'", 0),)),
        Ef(x), Ef(x, actions=()), Ef(x, actions=("a",)), Ef(x, (Clause("x", "x'", 0),)),
    ]
    alone = [denote(countdown, p).set for p in parts]
    assert len({s.key for s in alone}) == len(parts)  # all different sets
    for i, p in enumerate(parts):
        for j, q in enumerate(parts):
            both = denote(countdown, AndF(p, q)).set
            assert both == sets.intersect_sets(alone[i], alone[j])


def _rule_stack_keys(f):
    """The distinct (guard, action set) of the Diamond and EF nodes of f."""
    keys, todo = set(), [f]
    while todo:
        n = todo.pop()
        if isinstance(n, Diamond):
            keys.add((n.guard, frozenset((n.action,))))
        if isinstance(n, Ef):
            keys.add((n.guard, None if n.actions is None else frozenset(n.actions)))
        todo += [getattr(n, k) for k in ("f", "left", "right") if hasattr(n, k)]
    return keys


@pytest.mark.parametrize("mode", ["strong", "weak"])
def test_one_rule_stack_per_guard_and_action_set(countdown, monkeypatch, mode):
    acts = ("a", "b") + (("tau",) if mode == "weak" else ())
    trans = {("p", "a", "q"), ("q", "b", "r"), ("r", "a", "p"), ("p", "b", "p")}
    if mode == "weak":
        trans.add(("q", "tau", "p"))
    lts = FiniteLts(("p", "q", "r", "d"), acts, frozenset(trans))  # d is a deadlock
    calls = _count_calls(monkeypatch, sets, ("close_rules",))
    for s in ("p", "d"):
        theta = characteristic_formula(lts, s, mode, alphabet=acts)
        keys = _rule_stack_keys(theta)
        assert len(keys) == len(acts) + 1  # one per action, and AG over all rules
        calls["close_rules"] = 0
        denote(countdown, theta)
        assert calls["close_rules"] == len(keys)
        # check stops where φ_s is false at v, so it may need fewer stacks
        for v in ({"x": 1, "y": 0}, {"x": 0, "y": 2}):
            calls["close_rules"] = 0
            assert not check(countdown, v, theta)
            assert calls["close_rules"] <= len(keys)
    # at the origin φ_d holds, so check reaches the AG and needs them all
    calls["close_rules"] = 0
    assert check(countdown, {"x": 0, "y": 0}, theta)
    assert calls["close_rules"] == len(keys)


def test_diamond_and_ef_share_a_rule_stack_and_no_actions_is_not_all(countdown, monkeypatch):
    x = Atom(Clause("x", 0, 1))
    calls = _count_calls(monkeypatch, sets, ("close_rules",))
    denote(countdown, AndF(Diamond("a", x), Ef(x, actions=("a",))))
    assert calls["close_rules"] == 1
    # EF over no action is f itself, EF over every action is not
    d = denote(countdown, OrF(Ef(x, actions=()), Ef(x))).set
    assert calls["close_rules"] == 3
    assert d == denote(countdown, Ef(x)).set
    assert denote(countdown, Ef(x, actions=())).set == denote(countdown, x).set


def test_no_state_outlives_a_call():
    # a cache keyed on id() that outlived a call would answer for a later
    # system, allocated where a freed one was, with the freed one's results
    def case(seed):
        rng = random.Random(seed)
        g = oracle.random_window_closed_gcs(rng)
        return g, oracle.random_formula(rng, g), random_valuation(rng, g.vars, 0, 4)

    cases = [case(seed) for seed in range(40)]  # all alive: no address reused
    expect = [(denote(g, f).set, check(g, v, Ef(f))) for g, f, v in cases]
    del cases
    for seed in range(40):
        g, f, v = case(seed)
        assert (denote(g, f).set, check(g, v, Ef(f))) == expect[seed], seed
        del g, f, v
        gc.collect()


def test_the_engine_builds_no_graph_object(countdown, monkeypatch):
    # the engine works on weight stacks; graph objects are for the API edge
    built = []
    init = MonotonicityGraph.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(MonotonicityGraph, "__init__", counted)
    f = AndF(NotF(Atom(Clause("x", 0, 2))), OrF(Diamond("a", Ef(XY_ZERO)), Diamond("b", TrueF())))
    assert not denote(countdown, f).set.is_empty()
    assert check(countdown, {"x": 3, "y": 1}, Ef(XY_ZERO))
    loop = FiniteLts(("s", "t"), ("a", "b"),
                     frozenset({("s", "a", "s"), ("s", "b", "t"), ("t", "b", "s")}))
    for mode in ("strong", "weak"):
        equiv_check(countdown, {"x": 1, "y": 0}, loop, "s", mode=mode)
    assert built == []


@pytest.mark.parametrize("mode", ["strong", "weak"])
def test_evaluation_builds_no_formula_node(countdown, monkeypatch, mode):
    # each call numbers the caller's own nodes by structure; it builds none,
    # though Θ repeats subformulas as distinct objects
    acts = ("a", "b", "tau")
    loop = FiniteLts(("s", "t", "u"), acts, frozenset(
        {("s", "a", "s"), ("s", "b", "t"), ("t", "tau", "u"), ("u", "b", "s")}))
    theta = characteristic_formula(loop, "s", mode, alphabet=acts)
    built = []
    for cls in Formula.__subclasses__():
        init = cls.__init__

        def counted(self, *args, _init=init, **kwargs):
            built.append(type(self))
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    for v in ({"x": 0, "y": 0}, {"x": 2, "y": 1}):
        check(countdown, v, theta)
    denote(countdown, theta)
    assert built == []


@pytest.mark.parametrize("rules", [(TransitionRule("r", (), "a"),), ()], ids=["a-rule", "no-rule"])
def test_a_universe_with_no_node(rules):
    # no variable and no constant: the one valuation is {}, every set is
    # the full or the empty one, and <a>true holds iff some rule is labeled a
    g = Gcs((), (), ("a",), rules)
    step = bool(rules)
    for f, expect in ((Diamond("a", TrueF()), step), (Ef(TrueF()), True), (NotF(Diamond("a", TrueF())), not step)):
        s = denote(g, f).set
        assert s == full_set((), ()) if expect else s.is_empty(), f
        assert check(g, {}, f) is expect, f
