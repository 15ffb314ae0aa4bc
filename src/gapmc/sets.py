"""Finite unions of monotonicity graphs as first-class sets of valuations.

A SymbolicSet holds an antichain (under the covering order) of satisfiable,
closed, canonical graphs over a fixed (Var, Const) universe.  The empty
member list denotes the empty set; a single edgeless graph denotes the set
of all valuations.  Union, intersection, complement, predecessor and the
terminating backward-reachability fixpoint are all closed on this class.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .mg import (
    Clause,
    MonotonicityGraph,
    RuleStack,
    basis_clauses,
    close_rules,
    compose,
    compose_batch,
    from_constraint,
)


class PoolLimitExceeded(RuntimeError):
    """The backward-reachability pool outgrew the configured cap."""


class GuardError(ValueError):
    """A reachability guard contained a non-positive clause."""


@dataclass
class Metrics:
    """Running counters for one evaluation; monotonically non-decreasing."""

    graphs_created: int = 0
    pool_size: int = 0
    max_norm: int = 0
    degree_bound: int = 0
    constants_magnitude: int = 0
    dimension: int = 0
    constraint_count: int = 0
    nesting_depth: int = 0

    def saw_graph(self, g: Optional[MonotonicityGraph]) -> None:
        """Count one composition result: a graph, or None when the
        composition is unsatisfiable (which carries no sizes)."""
        self.graphs_created += 1
        if g is None:
            return
        degree, norm = g.stats()
        self.max_norm = max(self.max_norm, norm)
        self.degree_bound = max(self.degree_bound, degree)

    def as_dict(self) -> dict:
        return dict(self.__dict__)


def _member_sort_key(m: MonotonicityGraph):
    return m.w.tobytes()


def _reduce(graphs: Sequence[MonotonicityGraph]) -> tuple[MonotonicityGraph, ...]:
    """Drop duplicates and members subsumed by another (antichain under ⊑)."""
    uniq: list[MonotonicityGraph] = []
    seen = set()
    for g in graphs:
        k = g.key()
        if k not in seen:
            seen.add(k)
            uniq.append(g)
    kept: list[MonotonicityGraph] = []
    for g in uniq:
        # g is redundant if some other member p has p ⊑ g (Sat(p) ⊇ Sat(g));
        # mutual covering means equal closures, removed by the dedup above
        if any(p is not g and bool((p.w <= g.w).all()) for p in uniq):
            continue
        kept.append(g)
    kept.sort(key=_member_sort_key)
    return tuple(kept)


@dataclass(frozen=True)
class SymbolicSet:
    vars: tuple[str, ...]
    consts: tuple[int, ...]
    members: tuple[MonotonicityGraph, ...]

    def is_empty(self) -> bool:
        return not self.members

    def degree(self) -> int:
        return max((m.degree() for m in self.members), default=0)


def make_set(
    vars: Iterable[str],
    consts: Iterable[int],
    graphs: Iterable[MonotonicityGraph] = (),
) -> SymbolicSet:
    """Normalize: canonicalize members, prune unsatisfiable ones, reduce to an
    antichain, sort deterministically."""
    vars = tuple(sorted(set(vars)))
    consts = tuple(sorted(set(consts)))
    kept = []
    for g in graphs:
        if g.vars != vars or g.consts != consts or g.transitional:
            raise ValueError("member graph universe does not match the set's")
        c = g.closure()
        if not np.isposinf(c.w).any():
            kept.append(c)
    return SymbolicSet(vars, consts, _reduce(kept))


def empty_set(vars: Iterable[str], consts: Iterable[int]) -> SymbolicSet:
    return make_set(vars, consts, ())


def full_set(vars: Iterable[str], consts: Iterable[int]) -> SymbolicSet:
    vars, consts = tuple(sorted(set(vars))), tuple(sorted(set(consts)))
    return make_set(vars, consts, [MonotonicityGraph(vars, consts)])


def atom_set(vars, consts, clauses: Iterable[Clause]) -> SymbolicSet:
    """The set of valuations satisfying a conjunction of gap clauses."""
    return make_set(vars, consts, [from_constraint(clauses, vars, consts, transitional=False)])


def union(s: SymbolicSet, t: SymbolicSet) -> SymbolicSet:
    _check_universe(s, t)
    return make_set(s.vars, s.consts, s.members + t.members)


def intersect_sets(s: SymbolicSet, t: SymbolicSet) -> SymbolicSet:
    _check_universe(s, t)
    prods = [a.intersect(b) for a in s.members for b in t.members]
    return make_set(s.vars, s.consts, prods)


def complement(s: SymbolicSet) -> SymbolicSet:
    """De Morgan over the members' basis clauses: each clause x-y>=k negates
    to y-x >= -k+1; the conjunction of per-member disjunctions is distributed
    back into a union, pruning and reducing after every step."""
    result = full_set(s.vars, s.consts)
    for m in s.members:
        negs = [
            from_constraint([c.negated()], s.vars, s.consts, transitional=False)
            for c in basis_clauses(m)
        ]
        member_comp = make_set(s.vars, s.consts, negs)
        result = intersect_sets(result, member_comp)
        if result.is_empty():
            break
    return result


def contains(s: SymbolicSet, valuation: Mapping[str, int]) -> bool:
    return any(m.evaluate(valuation) for m in s.members)


def subset_of(s: SymbolicSet, t: SymbolicSet) -> bool:
    return intersect_sets(s, complement(t)).is_empty()


def same_set(s: SymbolicSet, t: SymbolicSet) -> bool:
    return subset_of(s, t) and subset_of(t, s)


def pre_constraint(g: MonotonicityGraph, s: SymbolicSet) -> SymbolicSet:
    """Predecessors of s under a single transitional constraint graph, by
    the full-closure compose; the reference pre_action is tested against."""
    return make_set(s.vars, s.consts, [compose(g, m) for m in s.members])


def pre_action(
    gcs,
    action: str,
    s: SymbolicSet,
    guard: Sequence[Clause] = (),
    metrics: Optional[Metrics] = None,
) -> SymbolicSet:
    """Predecessors of s over all rules carrying the given action label, each
    step also satisfying the guard (which may hold non-positive clauses)."""
    if action not in gcs.acts:
        raise ValueError(f"unknown action {action!r}")
    rules = transitional_graphs(gcs, guard, (action,))
    out = []
    for m in s.members:
        for p in compose_batch(rules, m.w):
            if metrics is not None:
                metrics.saw_graph(p)
            if p is not None:
                out.append(p)
    return make_set(s.vars, s.consts, out)


def transitional_graphs(
    gcs,
    guard: Sequence[Clause] = (),
    actions: Optional[Iterable[str]] = None,
) -> RuleStack:
    """The rule graphs of a system, optionally label-filtered and intersected
    with a guard constraint, closed and stacked; unsatisfiable ones are
    dropped."""
    acts = None if actions is None else set(actions)
    vars, consts = tuple(sorted(set(gcs.vars))), tuple(sorted(set(gcs.consts)))
    rules = [r.clauses for r in gcs.rules if acts is None or r.label in acts]
    return RuleStack(vars, consts, close_rules(vars, consts, rules, guard))


def pre_star(
    gcs,
    s: SymbolicSet,
    guard: Sequence[Clause] = (),
    actions: Optional[Iterable[str]] = None,
    *,
    metrics: Optional[Metrics] = None,
    max_pool: Optional[int] = None,
) -> SymbolicSet:
    """All valuations that can reach Sat(s), using only transitions whose
    label is in ``actions`` (default: all), each step additionally satisfying
    ``guard``.  Worklist exploration of predecessor graphs, pruning any new
    graph already covered by a pool member; terminates because composition
    with degree-0 rule graphs never raises the degree and covering is a
    well-order at fixed degree."""
    pool = _pre_star_pool(gcs, s, guard, actions, metrics=metrics, max_pool=max_pool)
    return make_set(s.vars, s.consts, pool)


def reaches(
    gcs,
    valuation: Mapping[str, int],
    s: SymbolicSet,
    guard: Sequence[Clause] = (),
    actions: Optional[Iterable[str]] = None,
    *,
    metrics: Optional[Metrics] = None,
    max_pool: Optional[int] = None,
) -> bool:
    """Membership of one valuation in pre_star(s), stopping as soon as some
    explored predecessor graph witnesses it (every pool graph denotes a
    subset of the reachability set, so an early hit is sound)."""
    return _pre_star_pool(
        gcs, s, guard, actions, metrics=metrics, max_pool=max_pool, stop_at=valuation
    ) is True


def _pre_star_pool(gcs, s, guard, actions, *, metrics, max_pool, stop_at=None):
    """The explored pool of pre_star, or True as soon as a pool graph is
    satisfied by the valuation ``stop_at``."""
    for c in guard:
        if not c.is_positive():
            raise GuardError(f"reachability guards must be positive, got {c}")
    if metrics is not None:
        metrics.dimension = (len(s.vars) + len(s.consts)) ** 2
        metrics.constants_magnitude = max((abs(c) for c in s.consts), default=0)
        metrics.constraint_count = len(gcs.rules)
    rules = transitional_graphs(gcs, guard, actions)
    pool: list[MonotonicityGraph] = list(s.members)
    work = deque(pool)
    if stop_at is not None and pool:
        # m.evaluate(stop_at) for every graph m, with the valuation's
        # difference matrix computed once
        vals = np.array([stop_at[x] for x in s.vars] + list(s.consts), dtype=float)
        diff = vals[:, None] - vals[None, :]
        if any((diff >= m.w).all() for m in pool):
            return True
    # pool weights stacked (amortized-growth buffer) for a vectorized
    # covering test
    dim = (len(s.vars) + len(s.consts),) * 2
    pool_w = np.empty((max(16, 2 * len(pool)),) + dim)
    for i, m in enumerate(pool):
        pool_w[i] = m.w
    n_pool = len(pool)
    while work and len(rules):
        n = work.popleft()
        for p in compose_batch(rules, n.w):
            if metrics is not None:
                metrics.saw_graph(p)
            if p is None:
                continue  # unsatisfiable composition
            if bool((pool_w[:n_pool] <= p.w).all(axis=(1, 2)).any()):
                continue
            if stop_at is not None and (diff >= p.w).all():
                return True
            pool.append(p)
            if n_pool == pool_w.shape[0]:
                pool_w = np.concatenate([pool_w, np.empty_like(pool_w)])
            pool_w[n_pool] = p.w
            n_pool += 1
            work.append(p)
            if metrics is not None:
                metrics.pool_size = max(metrics.pool_size, len(pool))
            if max_pool is not None and len(pool) > max_pool:
                raise PoolLimitExceeded(
                    f"reachability pool exceeded the cap of {max_pool} graphs"
                )
    return pool


def _check_universe(s: SymbolicSet, t: SymbolicSet) -> None:
    if s.vars != t.vars or s.consts != t.consts:
        raise ValueError("sets live over different variable/constant universes")
