"""Finite unions of monotonicity graphs as first-class sets of valuations.

A SymbolicSet holds its members as one (m, e, e) weight stack in the engine
layout of a fixed (Var, Const) universe (mg.Universe), which the engine reads
and returns as it is.  Invariant: each row is closed and satisfiable, no row
covers another (an antichain under ⊑) and the rows are sorted by bytes;
_normalise establishes it for every operation, by _covered, the one covering
test, and does only the work a stack's rows need: an empty stack is not
closed, and one of fewer than two rows is not sorted or screened.  Every
set's rows are its own array.  A full-layout row is the engine row with
later shifts of its entries, so order, repeats and covering are the full
layout's.  No rows denote the empty set; one row without constraints, all
valuations.

Backward reachability (pre_star, reaches) explores its pool breadth first,
one layer at a time: the rows added by the previous layer are composed with
every rule in one compose_batch call.  Of the results, in (member, rule)
order, one screened pass drops each that another row covers: a pool row, an
earlier result or a later one that differs, so the frontier is an antichain
(of equal rows the first stays).  The first kept result that meets the
early-stop valuation or breaches the pool cap ends the query; Metrics count
every pair and satisfiable result up to it, once per query.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .mg import (
    NEG_INF,
    Clause,
    MonotonicityGraph,
    RuleStack,
    Universe,
    clause_stack,
    close_rules,
    close_seeded,
    compose,
    compose_batch,
    degree_norm,
    differences,
    universe,
)


class PoolLimitExceeded(RuntimeError):
    """The backward-reachability pool outgrew the configured cap."""


class GuardError(ValueError):
    """A reachability guard or rule contained a non-positive clause."""


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

    def saw_batch(self, pairs: int, ws: np.ndarray, u: Universe) -> None:
        """Count ``pairs`` composition results, of which the satisfiable ones
        are the rows of the weight stack ws over the universe u, in either
        layout."""
        self.graphs_created += pairs
        if len(ws):
            degree, norm = degree_norm(ws, u)
            self.max_norm = max(self.max_norm, int(norm.max()))
            self.degree_bound = max(self.degree_bound, int(degree.max()))

    def saw_system(self, gcs) -> None:
        """Record the size of gcs: node pairs, rules and largest constant."""
        self.dimension = len(universe(gcs.vars, gcs.consts).nodes) ** 2
        self.constants_magnitude = max(map(abs, gcs.consts), default=0)
        self.constraint_count = len(gcs.rules)

    def as_dict(self) -> dict:
        return dict(self.__dict__)


@dataclass(frozen=True)
class SymbolicSet:
    """The union of the rows of the read-only engine-layout stack w, under the
    module's invariant; equality and hashing compare the universe and w's bytes."""

    vars: tuple[str, ...]
    consts: tuple[int, ...]
    w: np.ndarray = field(compare=False, repr=False)
    key: bytes = field(init=False, repr=False)
    u: Universe = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "u", u := universe(self.vars, self.consts))
        if self.w.shape[1:] != (u.size, u.size):
            raise ValueError(f"a stack of shape {self.w.shape} for (m, {u.size}, {u.size}) engine rows")
        self.w.setflags(write=False)
        object.__setattr__(self, "key", self.w.tobytes())

    @property
    def members(self) -> tuple[MonotonicityGraph, ...]:
        """The rows as closed full-layout plain graphs, built anew for the API edge."""
        ws = self.u.leave(self.w)
        return tuple(MonotonicityGraph(self.vars, self.consts, False, w, closed=True) for w in ws)

    def is_empty(self) -> bool:
        return len(self.w) == 0

    def degree(self) -> int:
        return int(degree_norm(self.w, self.u)[0].max(initial=0))


def _normalise(u: Universe, ws, close: bool = True) -> SymbolicSet:
    """The set of the (m, e, e) engine-layout weight stack ws over u: with
    close set a non-empty stack's rows are closed first and unsatisfiable
    ones dropped, otherwise they must be closed and satisfiable already;
    then a stack of two or more rows is sorted by bytes, and repeats and the
    rows that _covered masks go.  The result's rows are its own copy."""
    if close and len(ws):
        ws = ws[close_seeded(ws, u.eseed)]
    if len(ws) < 2:
        return SymbolicSet(u.vars, u.consts, ws.copy())
    rows = sorted({w.tobytes(): i for i, w in enumerate(ws)}.items())
    ws = ws[[i for _, i in rows]]
    return SymbolicSet(u.vars, u.consts, ws[~_covered(ws, 0, None)])


def make_set(
    vars: Iterable[str],
    consts: Iterable[int],
    graphs: Iterable[MonotonicityGraph] = (),
) -> SymbolicSet:
    """The set of the given plain graphs, closed in the full layout, where
    a +inf entry is an unsatisfiable clause even if no cycle meets it, and
    entered once."""
    u = universe(vars, consts)
    graphs = list(graphs)
    if any(g.vars != u.vars or g.consts != u.consts or g.transitional for g in graphs):
        raise ValueError("member graph universe does not match the set's")
    ws = np.array([g.w for g in graphs], dtype=float).reshape(len(graphs), *u.seed.shape)
    ws = ws[~np.isposinf(ws).any(axis=(1, 2))]
    return _normalise(u, u.enter(ws[close_seeded(ws, u.seed)]), close=False)


def full_set(vars: Iterable[str], consts: Iterable[int]) -> SymbolicSet:
    """All valuations: the one engine row without constraints, closed."""
    u = universe(vars, consts)
    return _normalise(u, np.full((1, u.size, u.size), NEG_INF))


def atom_set(vars, consts, clauses: Iterable[Clause]) -> SymbolicSet:
    """The set of valuations satisfying a conjunction of gap clauses."""
    u = universe(vars, consts)
    return _normalise(u, clause_stack(u, [clauses], engine=True))


def union(s: SymbolicSet, t: SymbolicSet) -> SymbolicSet:
    _check_universe(s, t)
    return _normalise(s.u, np.concatenate((s.w, t.w)), close=False)


def intersect_sets(s: SymbolicSet, t: SymbolicSet) -> SymbolicSet:
    _check_universe(s, t)
    n = s.w.shape[1]
    prods = np.maximum(s.w[:, None], t.w[None, :]).reshape(len(s.w) * len(t.w), n, n)
    return _normalise(s.u, prods)


def complement(s: SymbolicSet) -> SymbolicSet:
    """De Morgan over the members' constraints: an entry w[i, j] = k above
    the floor (x_i - x_j >= k; a closed member's diagonal lies on it)
    negates to the single edge w[j, i] = 1 - k; the conjunction of
    per-member unions is distributed back into a union, one member at a
    time: every row so far meets every negated edge of the member, with one
    normalisation per member."""
    if s.is_empty():
        return full_set(s.vars, s.consts)
    n, floor = s.w.shape[1], s.u.enter(s.u.floor)
    result = None
    for w in s.w:
        i, j = np.nonzero(w > floor)
        negs = np.full((len(i), n, n), NEG_INF)
        negs[np.arange(len(i)), j, i] = 1 - w[i, j]
        if result is not None:
            negs = np.maximum(result.w[:, None], negs[None, :]).reshape(-1, n, n)
        result = _normalise(s.u, negs)
        if result.is_empty():
            break
    return result


def check_valuation(vars: Iterable[str], valuation: Mapping[str, int]) -> None:
    """Refuse a valuation that does not assign exactly the given variables."""
    vars = set(vars)
    missing = sorted(vars - set(valuation))
    if missing:
        raise ValueError(f"the valuation gives no value to: {', '.join(missing)}")
    extra = sorted(set(valuation) - vars)
    if extra:
        raise ValueError(f"the valuation assigns unknown variables: {', '.join(extra)}")


def contains(s: SymbolicSet, valuation: Mapping[str, int]) -> bool:
    check_valuation(s.vars, valuation)
    if s.is_empty():
        return False
    diff = s.u.enter(differences(s.u.nodes, valuation))
    return bool((diff >= s.w).all(axis=(1, 2)).any())


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
    rules: Optional[RuleStack] = None,
) -> SymbolicSet:
    """Predecessors of s over all rules carrying the given action label, each
    step also satisfying the guard (which may hold non-positive clauses); an
    action that no rule carries makes no step.  ``rules``, if given, must be
    transitional_graphs(gcs, guard, (action,))."""
    if rules is None:
        rules = transitional_graphs(gcs, guard, (action,))
    results = compose_batch(rules, s.w)
    kept = [pw for pw in results if pw is not None]
    ws = np.array(kept).reshape(len(kept), s.u.size, s.u.size)
    (metrics or Metrics()).saw_batch(len(results), ws, s.u)
    return _normalise(s.u, ws, close=False)


def transitional_graphs(
    gcs,
    guard: Sequence[Clause] = (),
    actions: Optional[Iterable[str]] = None,
) -> RuleStack:
    """The rule graphs of a system, optionally label-filtered and intersected
    with a guard constraint, closed and stacked; unsatisfiable ones are
    dropped."""
    acts = None if actions is None else set(actions)
    rules = [r.clauses for r in gcs.rules if acts is None or r.label in acts]
    return RuleStack(gcs.vars, gcs.consts, close_rules(gcs.vars, gcs.consts, rules, guard))


def pre_star(
    gcs,
    s: SymbolicSet,
    guard: Sequence[Clause] = (),
    actions: Optional[Iterable[str]] = None,
    *,
    metrics: Optional[Metrics] = None,
    max_pool: Optional[int] = None,
    rules: Optional[RuleStack] = None,
) -> SymbolicSet:
    """All valuations that can reach Sat(s), using only transitions whose
    label is in ``actions`` (default: all), each step additionally satisfying
    ``guard``; ``rules``, if given, must be transitional_graphs(gcs, guard,
    actions).  Breadth-first exploration of predecessor graphs, one layer
    per step, pruning any new graph that another covers (composition is
    monotone under ⊑, so no predecessor is lost); terminates because
    composition with degree-0 rule graphs never raises the degree and
    covering is a well-order at fixed degree."""
    pool = _pre_star_pool(gcs, s, guard, actions, metrics or Metrics(), max_pool, rules)
    return _normalise(s.u, pool, close=False)


def reaches(
    gcs,
    valuation: Mapping[str, int],
    s: SymbolicSet,
    guard: Sequence[Clause] = (),
    actions: Optional[Iterable[str]] = None,
    *,
    metrics: Optional[Metrics] = None,
    max_pool: Optional[int] = None,
    rules: Optional[RuleStack] = None,
) -> bool:
    """Membership of one valuation in pre_star(s), stopping as soon as some
    explored predecessor graph witnesses it (every pool graph denotes a
    subset of the reachability set, so an early hit is sound)."""
    check_valuation(s.vars, valuation)
    metrics = metrics or Metrics()
    return _pre_star_pool(gcs, s, guard, actions, metrics, max_pool, rules, valuation) is True


def _pre_star_pool(gcs, s, guard, actions, metrics, max_pool, rules, stop_at=None):
    """The explored pool of pre_star, or True as soon as a pool graph is
    satisfied by the valuation ``stop_at``.  Refuses a non-positive guard
    clause, and a non-positive clause in a rule the query may take: with
    one, pre* need not be finite under covering.  The pool is in the
    engine layout, as s is."""
    for c in guard:
        if not c.is_positive():
            raise GuardError(f"reachability guards must be positive, got {c}")
    for r, c in [(r, c) for r in gcs.rules for c in r.clauses if c.k < 0]:
        if actions is None or r.label in actions:
            raise GuardError(f"reachability needs positive rules: rule {r.name} has {c}")
    metrics.saw_system(gcs)
    if rules is None:
        rules = transitional_graphs(gcs, guard, actions)
    u = s.u
    if stop_at is not None and not s.is_empty():
        # the pairs of constants hold at any valuation, those of c0 stand
        # for every constant's; refused as over the full layout
        diff = u.enter(differences(u.nodes, stop_at))
        if bool((diff >= s.w).all(axis=(1, 2)).any()):
            return True
    # the pool is an amortized-growth stack, for a vectorized covering test;
    # its rows from index head on are the worklist, explored one BFS layer
    # [head, n_pool) per compose_batch call, whose satisfiable results are
    # written after the pool and screened there before the kept ones stay
    n_pool, head = len(s.w), 0
    pool = np.empty((max(16, 2 * n_pool), u.size, u.size))
    pool[:n_pool] = s.w
    # the pairs and satisfiable results the Metrics count, summed up once
    pairs, seen, held = 0, [], 0
    try:
        while head < n_pool and len(rules):
            results = compose_batch(rules, pool[head:n_pool])
            head = n_pool
            layer = [pw for pw in results if pw is not None]
            layer = np.array(layer).reshape(len(layer), u.size, u.size)
            if n_pool + len(layer) > len(pool):
                grow = np.empty((max(n_pool, len(layer)),) + pool.shape[1:])
                pool = np.concatenate([pool[:n_pool], grow])
            pool[n_pool : n_pool + len(layer)] = layer
            kept = (~_covered(pool[: n_pool + len(layer)], n_pool, rules.probe)).nonzero()[0]
            # the first kept result that meets the valuation, or that breaches
            # the cap, ends the query; nothing after it is counted
            stop = len(kept)
            if stop_at is not None:
                hits = (diff >= layer[kept]).all(axis=(1, 2)).nonzero()[0]
                stop = int(hits[0]) if hits.size else stop
            cap = stop if max_pool is None else min(stop, max(0, max_pool - n_pool))
            rows, n = len(layer), len(results)
            if cap < len(kept):
                rows = int(kept[cap]) + 1
                n = int(np.flatnonzero([pw is not None for pw in results])[rows - 1]) + 1
            pairs, held = pairs + n, held + rows * u.size**2
            seen.append(layer[:rows])
            if held > _COVER_CHUNK:
                metrics.saw_batch(pairs, np.concatenate(seen), u)
                pairs, seen, held = 0, [], 0
            added = cap + (cap < stop)
            pool[n_pool : n_pool + added] = layer[kept[:added]]
            n_pool += added
            if cap < stop:
                raise PoolLimitExceeded(f"reachability pool exceeded the cap of {max_pool} graphs")
            if stop < len(kept):
                return True
    finally:
        metrics.saw_batch(pairs, np.concatenate(seen or [pool[:0]]), u)
        metrics.pool_size = max(metrics.pool_size, n_pool if n_pool > len(s.w) else 0)
    return pool[:n_pool]


# elements in the largest temporary of one step of the covering test, and
# in the results a query holds for its Metrics
_COVER_CHUNK = 1 << 18


def _covered(rows: np.ndarray, start: int, probe: Optional[np.ndarray]) -> np.ndarray:
    """The mask of the rows of rows[start:] that another row of rows covers
    (p ⊑ w iff p <= w): an earlier row, or a later one that differs, so of
    equal rows the first is kept; none below two rows.  Pairs are screened
    on the flat entries probe (all entries if None), held probe-major so
    that the screen reduces over its long axes, and compared in full only
    where the screen passes, in chunks of at most _COVER_CHUNK elements."""
    if start == len(rows) or len(rows) < 2:
        return np.zeros(len(rows) - start, dtype=bool)
    size = rows.shape[-1] ** 2
    flat = rows.reshape(len(rows), size)
    keys = flat.T if probe is None else flat.T[probe]
    out = np.zeros(len(rows) - start, dtype=bool)
    step = max(1, _COVER_CHUNK // max(1, len(rows) * len(keys)))
    pairs = max(1, _COVER_CHUNK // max(1, size))
    for a in range(start, len(rows), step):
        # row a + i against every row but itself, which the full test refuses too
        hit = np.logical_and.reduce(keys[:, None, :] <= keys[:, a : a + step, None], axis=0)
        hit.reshape(-1)[a :: len(rows) + 1] = False
        i, j = hit.nonzero()
        for p in range(0, len(i), pairs):
            ii, jj = a + i[p : p + pairs], j[p : p + pairs]
            w, c = flat[ii], flat[jj]
            cover = (c <= w).all(axis=1) & ((jj < ii) | (c < w).any(axis=1))
            out[ii[cover] - start] = True
    return out


def _check_universe(s: SymbolicSet, t: SymbolicSet) -> None:
    if s.vars != t.vars or s.consts != t.consts:
        raise ValueError("sets live over different variable/constant universes")
