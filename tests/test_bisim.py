"""Bisimulation machinery: weak closure, refinement, characteristic formulas."""

import random

import pytest

from gapmc import logic
from gapmc.bisim import (
    FiniteLts,
    characteristic_formula,
    equiv_check,
    hm_formula,
    refine,
    refine_levels,
    weak_closure,
)
from gapmc.gcs import Gcs, TransitionRule, encode_finite_lts
from gapmc.logic import AndF, Diamond, Ef, NotF, OrF, TrueF, ag, and_all, or_all
from gapmc.mg import Clause


def lts(acts, *transitions, states=None):
    ss = states or tuple(sorted({s for s, _, t in transitions} | {t for s, _, t in transitions}))
    return FiniteLts(states=tuple(ss), acts=tuple(acts), transitions=frozenset(transitions))


def lts_sat(l: FiniteLts, s: str, f) -> bool:
    """Independent explicit evaluator of EF formulas over a finite LTS."""
    if isinstance(f, TrueF):
        return True
    if isinstance(f, NotF):
        return not lts_sat(l, s, f.f)
    if isinstance(f, AndF):
        return lts_sat(l, s, f.left) and lts_sat(l, s, f.right)
    if isinstance(f, OrF):
        return lts_sat(l, s, f.left) or lts_sat(l, s, f.right)
    if isinstance(f, Diamond):
        assert not f.guard
        return any(lts_sat(l, t, f.f) for t in l.successors(s, f.action))
    if isinstance(f, Ef):
        assert not f.guard
        allowed = set(f.actions) if f.actions is not None else set(l.acts)
        seen, frontier = {s}, [s]
        while frontier:
            p = frontier.pop()
            if lts_sat(l, p, f.f):
                return True
            for (q, a, t) in l.transitions:
                if q == p and a in allowed and t not in seen:
                    seen.add(t)
                    frontier.append(t)
        return False
    raise TypeError(f"unexpected node {f!r}")


def disjoint_union(l1: FiniteLts, l2: FiniteLts) -> FiniteLts:
    s1 = tuple("L." + s for s in l1.states)
    s2 = tuple("R." + s for s in l2.states)
    trans = {("L." + s, a, "L." + t) for s, a, t in l1.transitions}
    trans |= {("R." + s, a, "R." + t) for s, a, t in l2.transitions}
    acts = tuple(sorted(set(l1.acts) | set(l2.acts)))
    return FiniteLts(states=s1 + s2, acts=acts, transitions=frozenset(trans))


# a small library of LTSs on at most 5 states
LIBRARY = [
    lts(("a",), ("s", "a", "s")),                                  # a-loop
    lts(("a",), ("s", "a", "t")),                                  # one step then deadlock
    lts(("a",), ("s", "a", "t"), ("t", "a", "s")),                 # 2-cycle
    lts(("a", "b"), ("s", "a", "t"), ("s", "b", "u")),             # branching
    lts(("a", "b"), ("s", "a", "t"), ("t", "b", "u")),             # sequence
    lts(("a",), ("s", "a", "t"), ("s", "a", "u"), ("u", "a", "u")),  # nondet
    lts(("a", "tau"), ("s", "tau", "t"), ("t", "a", "u")),         # weak a
    lts(("a", "tau"), ("s", "a", "t"), ("t", "tau", "u")),         # trailing tau
    lts(("tau",), ("s", "tau", "t"), ("t", "tau", "s")),           # tau cycle
    lts(("a", "b"), ("s", "a", "s"), ("s", "b", "t"), ("t", "a", "t")),
    lts(("a",), ("p", "a", "q"), ("q", "a", "r"), ("r", "a", "p")),  # 3-cycle
]


# -- weak_closure ----------------------------------------------------------------


def test_weak_closure_absorbs_tau_prefix():
    l = lts(("a", "tau"), ("s", "tau", "t"), ("t", "a", "u"))
    w = weak_closure(l, "tau")
    assert ("s", "a", "u") in w.transitions


def test_weak_closure_without_tau_is_reflexive_identity():
    l = lts(("a",), ("s", "a", "t"))
    w = weak_closure(l, "tau")
    strong_a = {(p, a, q) for p, a, q in w.transitions if a == "a"}
    assert strong_a == {("s", "a", "t")}
    assert {(p, q) for p, a, q in w.transitions if a == "tau"} == {("s", "s"), ("t", "t")}


def test_weak_closure_tau_cycle():
    l = lts(("tau",), ("s", "tau", "t"), ("t", "tau", "s"))
    w = weak_closure(l, "tau")
    taus = {(p, q) for p, a, q in w.transitions if a == "tau"}
    assert taus == {("s", "s"), ("s", "t"), ("t", "s"), ("t", "t")}


# -- refine ------------------------------------------------------------------------


def test_refine_identical_loops_merge():
    l = lts(("a",), ("s", "a", "s"), ("t", "a", "t"))
    assert refine(l).same_class("s", "t")


def test_refine_step_vs_deadlock_split():
    l = lts(("a",), ("s", "a", "u"), states=("s", "t", "u"))
    p = refine(l)
    assert not p.same_class("s", "t")
    assert p.same_class("t", "u")


FIVE = lts(
    ("a", "tau"),
    ("s", "a", "s1"),
    ("t", "a", "t1"),
    ("t1", "tau", "t2"),
    states=("s", "s1", "t", "t1", "t2"),
)


def test_refine_strong_vs_weak_distinction():
    strong = refine(FIVE)
    assert not strong.same_class("s", "t")  # t1 has a tau-move, s1 does not
    weak = refine(weak_closure(FIVE, "tau"))
    assert weak.same_class("s", "t")
    assert weak.same_class("s1", "t1") and weak.same_class("t1", "t2")


def test_refine_levels_form_chain():
    for l in LIBRARY:
        levels = refine_levels(l)
        assert len(levels) <= len(l.states) + 1
        for prev, cur in zip(levels, levels[1:]):
            for s in l.states:
                for t in l.states:
                    if cur.same_class(s, t):
                        assert prev.same_class(s, t)


# -- hm_formula -----------------------------------------------------------------------


def test_hm_depth0_is_true():
    l = LIBRARY[1]
    assert hm_formula(l, "s", 0) == TrueF()


def test_hm_deadlock_depth1():
    l = lts(("a",), ("s", "a", "t"))
    f = hm_formula(l, "t", 1)
    assert f == NotF(Diamond("a", NotF(NotF(TrueF()))))
    assert lts_sat(l, "t", f)
    assert not lts_sat(l, "s", f)


@pytest.mark.parametrize("mode", ["strong", "weak"])
def test_hm_coherence_with_refine(mode):
    """t satisfies the depth-k formula of s iff the level-k approximant
    relates them, at every level, for every library LTS."""
    for l in LIBRARY:
        relation = l if mode == "strong" else weak_closure(l, "tau")
        levels = refine_levels(relation)
        for k in range(len(levels)):
            for s in l.states:
                f = hm_formula(l, s, k, mode=mode)
                for t in l.states:
                    assert lts_sat(l, t, f) == levels[k].same_class(s, t), (
                        mode, k, s, t, l.transitions,
                    )


# -- characteristic_formula --------------------------------------------------------------


@pytest.mark.parametrize("mode", ["strong", "weak"])
def test_characteristic_formula_library(mode):
    """On the disjoint union of two library LTSs, t ⊨ Θ_s iff partition
    refinement puts s and t in one class."""
    import itertools

    for l1, l2 in itertools.islice(itertools.combinations(LIBRARY, 2), 20):
        u = disjoint_union(l1, l2)
        relation = u if mode == "strong" else weak_closure(u, "tau")
        classes = refine(relation)
        for s in l1.states:
            theta = characteristic_formula(l1, s, mode=mode, alphabet=u.acts)
            for t in l2.states:
                got = lts_sat(l2, t, theta)
                assert got == classes.same_class("L." + s, "R." + t), (
                    mode, s, t, l1.transitions, l2.transitions,
                )


def _tree_characteristic_formula(l, s, mode, tau, alphabet):
    """Θ_s built as a tree: every step, disjunction and EF[τ] made anew for
    each class that names it, by the class-formula loop that the DAG
    construction replaced."""

    def step(a, f):
        if mode == "strong":
            return Diamond(a, f)
        ef_tau = lambda x: Ef(x, actions=(tau,))
        return ef_tau(f) if a == tau else ef_tau(Diamond(a, ef_tau(f)))

    relation = l if mode == "strong" else weak_closure(l, tau)
    n = len(l.states)
    levels = refine_levels(relation)
    levels += [levels[-1]] * (n + 1 - len(levels))
    by_level = [{c: TrueF() for c in set(levels[0].classes.values())}]
    for k in range(1, n + 1):
        out = {}
        for s2 in relation.states:
            cid = levels[k].classes[s2]
            if cid in out:
                continue
            parts = []
            for a in alphabet:
                succ = sorted({levels[k - 1].classes[t] for t in relation.successors(s2, a)})
                succ_fs = [by_level[k - 1][c] for c in succ]
                parts += [step(a, f) for f in succ_fs]
                parts.append(NotF(step(a, NotF(or_all(succ_fs)))))
            out[cid] = and_all(parts)
        by_level.append(out)
    phi_s = by_level[n][levels[n].classes[s]]
    return AndF(phi_s, ag(or_all([by_level[n][c] for c in sorted(by_level[n])])))


# (states, transition labels) of the benchmark's three LTS shapes, then free ones
SHAPES = [(3, ("a", "a", "b", "tau")), (4, ("a", "b", "tau")), (3, ("a", "a", "b", "b"))]


@pytest.mark.parametrize("mode", ["strong", "weak"])
def test_characteristic_formula_is_the_tree_formula_with_each_step_built_once(mode):
    # on random LTSs of 2-4 states, Θ_s equals the tree-built formula and is
    # numbered as it is, while no two of its Diamond or Ef objects share a
    # structural class, and its node objects average under 1.35 per class
    rng = random.Random(71)
    acts = ("a", "b", "tau")
    objects = classes = 0
    for i in range(60):
        n, labels = SHAPES[i] if i < len(SHAPES) else (
            rng.randint(2, 4), [rng.choice(acts) for _ in range(rng.randint(1, 6))])
        states = tuple(f"s{j}" for j in range(n))
        l = FiniteLts(states, acts, frozenset(
            (rng.choice(states), a, rng.choice(states)) for a in labels))
        for s in states:
            theta = characteristic_formula(l, s, mode, "tau", acts)
            tree = _tree_characteristic_formula(l, s, mode, "tau", acts)
            assert theta == tree
            keys, of, _ = logic._classes(theta)
            assert list(keys) == list(logic._classes(tree)[0])
            nodes = logic.postorder(theta)
            modal = [of[id(f)] for f in nodes if type(f) in (Diamond, Ef)]
            assert len(modal) == len(set(modal)), (mode, s, l.transitions)
            objects, classes = objects + len(nodes), classes + len(keys)
    assert objects <= 1.35 * classes, (objects, classes)


def test_strong_and_weak_coincide_without_tau():
    for l in LIBRARY:
        if any(a == "tau" for _, a, _ in l.transitions):
            continue
        strong = refine(l)
        weak = refine(weak_closure(l, "tau"))
        for s in l.states:
            for t in l.states:
                assert strong.same_class(s, t) == weak.same_class(s, t)


# -- equiv_check (engine end to end) -------------------------------------------------------


def test_equiv_check_countdown_vs_a_loop(countdown):
    loop = lts(("a", "b"), ("s", "a", "s"))
    assert not equiv_check(countdown, {"x": 1, "y": 0}, loop, "s")


def test_equiv_check_deadlock(countdown):
    dead = lts(("a", "b"), states=("d",))
    assert equiv_check(countdown, {"x": -5, "y": -5}, dead, "d")  # both rules disabled
    assert not equiv_check(countdown, {"x": 1, "y": 0}, dead, "d")


def test_equiv_check_encoded_self_equivalence():
    l = lts(("a", "b"), ("p", "a", "q"), ("q", "b", "p"), ("p", "b", "p"))
    g = encode_finite_lts(l)
    idx = {name: i + 1 for i, name in enumerate(l.states)}
    for p in l.states:
        assert equiv_check(g, {"state": idx[p]}, l, p)


@pytest.mark.parametrize("mode", ["strong", "weak"])
def test_equiv_check_on_a_system_without_tau(mode):
    # weak mode asks EF[tau] of a system that declares no tau: it answers as
    # strong mode does, since no tau step exists on either side
    l = lts(("a", "b"), ("p", "a", "q"), ("q", "b", "p"), ("p", "b", "p"), ("q", "a", "r"))
    g = encode_finite_lts(l)
    assert "tau" not in g.acts
    idx = {name: i + 1 for i, name in enumerate(l.states)}
    classes = refine(l)
    for p in l.states:
        for s in l.states:
            assert equiv_check(g, {"state": idx[p]}, l, s, mode) == classes.same_class(p, s)


def test_equiv_check_weak_tau_loop():
    g = Gcs(
        vars=("x",), consts=(0,), acts=("tau",),
        rules=(TransitionRule("r", (Clause("x'", "x", 0),), "tau"),),
    )
    loop = lts(("tau",), ("s", "tau", "s"))
    assert equiv_check(g, {"x": 0}, loop, "s", mode="weak")


def test_equiv_check_alphabet_mismatch(countdown):
    l = lts(("c",), ("s", "c", "s"))
    with pytest.raises(ValueError):
        equiv_check(countdown, {"x": 0, "y": 0}, l, "s")


def test_equiv_check_refuses_an_unknown_mode():
    # p -tau-> q -a-> q is weakly but not strongly bisimilar to r -a-> r; a
    # misspelt mode must not fall back to the weak answer
    l = lts(("tau", "a"), ("p", "tau", "q"), ("q", "a", "q"), ("r", "a", "r"))
    g = encode_finite_lts(l)
    assert not equiv_check(g, {"state": 1}, l, "r", mode="strong")
    assert equiv_check(g, {"state": 1}, l, "r", mode="weak")
    for mode in ("Strong", "", "branching"):
        with pytest.raises(ValueError, match="unknown bisimulation mode"):
            equiv_check(g, {"state": 1}, l, "r", mode=mode)
