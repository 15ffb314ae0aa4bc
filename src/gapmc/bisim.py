"""Finite transition systems, weak-step saturation, partition refinement and
characteristic EF formulas for equivalence checking against a GCS.

The characteristic formula of a state s of an n-state system is
Θ_s = φ_s^n ∧ AG(⋁_t φ_t^n), where φ^k are depth-k Hennessy-Milner
approximant formulas built per equivalence class.  Approximants over n
states stabilize within n rounds, and the AG clause keeps every reachable
state inside some approximant class, so the level-n matching relation is a
bisimulation; the construction is validated by the oracle coherence tests.
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


def _diamond(mode: str, tau: str, a: str, f: Formula) -> Formula:
    """The modality matching one step of the chosen relation: plain ⟨a⟩ for
    strong mode; τ-restricted reachability around it for weak mode."""
    if mode == "strong":
        return Diamond(a, f)
    ef_tau = lambda x: Ef(x, actions=(tau,))
    if a == tau:
        return ef_tau(f)
    return ef_tau(Diamond(a, ef_tau(f)))


def _hm_class_formulas(
    relation: FiniteLts,
    depth: int,
    mode: str,
    tau: str,
    alphabet: Sequence[str],
) -> tuple[list[Partition], list[dict[int, Formula]]]:
    """Per-level, per-class Hennessy-Milner formulas for the approximant
    chain of the given (already saturated, in weak mode) relation."""
    levels = refine_levels(relation)
    while len(levels) <= depth:
        levels.append(levels[-1])
    by_level: list[dict[int, Formula]] = [
        {c: TrueF() for c in set(levels[0].classes.values())}
    ]
    for k in range(1, depth + 1):
        prev = levels[k - 1]
        cur = levels[k]
        out: dict[int, Formula] = {}
        for s in relation.states:
            cid = cur.classes[s]
            if cid in out:
                continue
            parts = []
            for a in alphabet:
                succ_classes = sorted(
                    {prev.classes[t] for t in relation.successors(s, a)}
                )
                succ_fs = [by_level[k - 1][c] for c in succ_classes]
                for sf in succ_fs:
                    parts.append(_diamond(mode, tau, a, sf))
                parts.append(NotF(_diamond(mode, tau, a, NotF(or_all(succ_fs)))))
            out[cid] = and_all(parts)
        by_level.append(out)
    return levels, by_level


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
    relation = l if mode == "strong" else weak_closure(l, tau)
    alphabet = tuple(alphabet) if alphabet is not None else relation.acts
    levels, by_level = _hm_class_formulas(relation, depth, mode, tau, alphabet)
    return by_level[depth][levels[depth].classes[s]]


def characteristic_formula(
    l: FiniteLts,
    s: str,
    mode: str = "strong",
    tau: str = "tau",
    alphabet: Optional[Sequence[str]] = None,
) -> Formula:
    """Θ_s, satisfied by exactly the states (weakly) bisimilar to s."""
    relation = l if mode == "strong" else weak_closure(l, tau)
    alphabet = tuple(alphabet) if alphabet is not None else relation.acts
    n = len(l.states)
    levels, by_level = _hm_class_formulas(relation, n, mode, tau, alphabet)
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
