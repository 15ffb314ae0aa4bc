"""Finite transition systems, weak-step saturation, partition refinement and
characteristic EF formulas for equivalence checking against a GCS.

The characteristic formula of a state s of an n-state system is
Θ_s = φ_s^n ∧ AG(⋁_t φ_t^n), where φ^k are depth-k Hennessy-Milner
approximant formulas built per equivalence class.  Approximants over n
states stabilize within n rounds, and the AG clause keeps every reachable
state inside some approximant class, so the level-n matching relation is a
bisimulation; the construction is validated by the oracle coherence tests.
Θ_s is built as a DAG with one object per step: structurally equal class
formulas, of any level, are one object, and each step into one, negated
successor disjunction and EF[τ] is built once per call, so the formula's
node objects are about as many as its structural classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from . import logic
from .gcs import Gcs
from .logic import Diamond, Ef, Formula, NotF, TrueF, and_all, or_all


@dataclass(frozen=True)
class FiniteLts:
    states: tuple[str, ...]
    acts: tuple[str, ...]
    transitions: frozenset[tuple[str, str, str]]

    def __post_init__(self):
        for s, a, t in self.transitions:
            if s not in self.states or t not in self.states:
                raise ValueError(f"transition {s}-{a}->{t} references an unknown state")
            if a not in self.acts:
                raise ValueError(f"transition {s}-{a}->{t} references an unknown action")

    def successors(self, s: str, a: str) -> set[str]:
        return {t for (p, b, t) in self.transitions if p == s and b == a}


def weak_closure(l: FiniteLts, tau: str = "tau") -> FiniteLts:
    """The saturated weak-step relation: s ⇒τ t iff t is τ-reachable from s
    (reflexively), and s ⇒a t iff some ⇒τ·→a·⇒τ chain connects them."""
    reach = {s: {s} for s in l.states}
    changed = True
    while changed:
        changed = False
        for (p, a, q) in l.transitions:
            if a != tau:
                continue
            for s in l.states:
                if p in reach[s] and q not in reach[s]:
                    reach[s].add(q)
                    changed = True
    weak = {(s, tau, t) for s in l.states for t in reach[s]}
    for (p, a, q) in l.transitions:
        if a == tau:
            continue
        for s in l.states:
            if p in reach[s]:
                weak.update((s, a, t) for t in reach[q])
    acts = l.acts if tau in l.acts else l.acts + (tau,)
    return FiniteLts(l.states, acts, frozenset(weak))


@dataclass(frozen=True)
class Partition:
    classes: dict[str, int]

    def same_class(self, s: str, t: str) -> bool:
        return self.classes[s] == self.classes[t]


def refine_levels(l: FiniteLts) -> list[Partition]:
    """The refinement chain of bisimulation approximants: level 0 is the
    single-class partition, each next level splits by one-step signatures.
    The last entry is the stable fixpoint (maximal bisimulation)."""
    classes = {s: 0 for s in l.states}
    levels = [Partition(dict(classes))]
    while True:
        sigs = {}
        for s in l.states:
            sig = frozenset(
                (a, classes[t]) for (p, a, t) in l.transitions if p == s
            )
            sigs[s] = (classes[s], sig)
        ordering = {}
        new = {}
        for s in l.states:
            new[s] = ordering.setdefault(sigs[s], len(ordering))
        levels.append(Partition(new))
        if len(set(new.values())) == len(set(classes.values())):
            return levels
        classes = new


def refine(l: FiniteLts) -> Partition:
    """Partition refinement to fixpoint: two states share a class iff they
    are bisimilar (weakly, if l is already saturated)."""
    return refine_levels(l)[-1]


def _hm_class_formulas(
    l: FiniteLts,
    depth: int,
    mode: str,
    tau: str,
    alphabet: Optional[Sequence[str]],
) -> tuple[list[Partition], list[dict[int, Formula]]]:
    """Per-level, per-class Hennessy-Milner formulas for the approximant
    chain of l (of its weak closure, in weak mode) over the alphabet, by
    default that relation's actions, as one DAG.  A class's formula is
    numbered by its successor classes' numbers per action, so structurally
    equal class formulas of any levels are one number and one object; every
    step (⟨a⟩ in strong mode, τ-reachability around it in weak mode) into a
    numbered formula, negated successor disjunction, "no other a-step"
    conjunct and EF[τ] is built once in the call."""
    relation = l if mode == "strong" else weak_closure(l, tau)
    alphabet = tuple(alphabet) if alphabet is not None else relation.acts
    levels = refine_levels(relation)
    while len(levels) <= depth:
        levels.append(levels[-1])
    # the formula of each number, the number of each tuple of successor
    # numbers per action; a step's target is a number, or a negated
    # disjunction's tuple of successor numbers
    forms, numbers = [TrueF()], {(): 0}
    steps, efs, negs, others = {}, {}, {}, {}

    def ef_tau(x, f: Formula) -> Formula:
        if x not in efs:
            efs[x] = Ef(f, actions=(tau,))
        return efs[x]

    def step(a: str, x, f: Formula) -> Formula:
        if mode == "weak" and a == tau:
            return ef_tau(x, f)
        if (a, x) not in steps:
            steps[a, x] = (Diamond(a, f) if mode == "strong"
                           else Ef(Diamond(a, ef_tau(x, f)), actions=(tau,)))
        return steps[a, x]

    by_level: list[dict[int, int]] = [{c: 0 for c in set(levels[0].classes.values())}]
    for k in range(1, depth + 1):
        prev, nums, cur, out = levels[k - 1].classes, by_level[k - 1], levels[k], {}
        for s in relation.states:
            cid = cur.classes[s]
            if cid in out:
                continue
            # from lists: a tuple built from a generator is resized, and
            # freeing it would grow the interpreter's tuple free lists
            sig = tuple([
                tuple([nums[c] for c in sorted({prev[t] for t in relation.successors(s, a)})])
                for a in alphabet
            ])
            if sig not in numbers:
                parts = []
                for a, succ in zip(alphabet, sig):
                    parts += [step(a, n, forms[n]) for n in succ]
                    if (a, succ) not in others:
                        if succ not in negs:
                            negs[succ] = NotF(or_all([forms[n] for n in succ]))
                        others[a, succ] = NotF(step(a, succ, negs[succ]))
                    parts.append(others[a, succ])
                numbers[sig] = len(forms)
                forms.append(and_all(parts))
            out[cid] = numbers[sig]
        by_level.append(out)
    return levels, [{c: forms[n] for c, n in out.items()} for out in by_level]


def hm_formula(
    l: FiniteLts,
    s: str,
    depth: int,
    mode: str = "strong",
    tau: str = "tau",
    alphabet: Optional[Sequence[str]] = None,
) -> Formula:
    """The depth-k characteristic formula of s w.r.t. the k-th (weak)
    bisimulation approximant: satisfied by exactly the states the k-th
    approximant relates to s."""
    levels, by_level = _hm_class_formulas(l, depth, mode, tau, alphabet)
    return by_level[depth][levels[depth].classes[s]]


def characteristic_formula(
    l: FiniteLts,
    s: str,
    mode: str = "strong",
    tau: str = "tau",
    alphabet: Optional[Sequence[str]] = None,
) -> Formula:
    """Θ_s, satisfied by exactly the states (weakly) bisimilar to s."""
    n = len(l.states)
    levels, by_level = _hm_class_formulas(l, n, mode, tau, alphabet)
    phi_s = by_level[n][levels[n].classes[s]]
    all_classes = [by_level[n][c] for c in sorted(set(by_level[n]))]
    return logic.AndF(phi_s, logic.ag(or_all(all_classes)))


def equiv_check(
    g: Gcs,
    v: dict,
    l: FiniteLts,
    s: str,
    mode: str = "strong",
    tau: str = "tau",
    *,
    metrics=None,
    max_pool=None,
) -> bool:
    """Is the GCS state v (strongly/weakly) bisimilar to LTS state s?"""
    if mode not in ("strong", "weak"):
        raise ValueError(f"unknown bisimulation mode {mode!r}")
    if s not in l.states:
        raise ValueError(f"unknown LTS state {s!r}")
    observable = {a for (_, a, _) in l.transitions if not (mode == "weak" and a == tau)}
    if not observable <= set(g.acts):
        raise ValueError(
            f"action alphabet mismatch: LTS uses {sorted(observable - set(g.acts))} "
            "which the system cannot perform"
        )
    alphabet = tuple(g.acts)
    if mode == "weak" and tau not in alphabet:
        alphabet += (tau,)
    theta = characteristic_formula(l, s, mode, tau, alphabet)
    return logic.check(g, v, theta, metrics=metrics, max_pool=max_pool)
