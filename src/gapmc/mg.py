"""Monotonicity graphs: weighted constraint graphs over variables and constants.

A monotonicity graph (MG) encodes a conjunction of gap clauses ``x - y >= k``
as a complete weighted digraph: the weight of the edge (x, y) is the largest
offset k demanded between x and y, or -inf when the pair is unconstrained.
Weights live in Z extended with -inf and +inf; a +inf weight (or a cycle of
positive total weight) makes the graph unsatisfiable.

Node universe and ordering are canonical: unprimed variables sorted by name,
then their primed copies (for transitional graphs), then constants sorted by
value; ``universe`` is the one place that knows it.  ``clause_stack`` builds
weight matrices in that order, and the engine works on those arrays, not on
graph objects.  All operations are pure; graphs are never mutated after
construction.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence, Union

import numpy as np

NEG_INF = float("-inf")
POS_INF = float("inf")

Node = Union[str, int]


class Clause(NamedTuple):
    """A gap clause ``left - right >= k``; endpoints are variable names
    (primed names end with an apostrophe) or integer constants."""

    left: Node
    right: Node
    k: int

    def is_positive(self) -> bool:
        return self.k >= 0

    def __str__(self) -> str:
        return f"{self.left} - {self.right} >= {self.k}"


def prime(name: str) -> str:
    return name + "'"


def is_primed(node: Node) -> bool:
    return isinstance(node, str) and node.endswith("'")


def is_const(node: Node) -> bool:
    return isinstance(node, int)


def _close_stack(ws: np.ndarray, pivots: Iterable[int]) -> None:
    """Max-plus Floyd-Warshall in place over the given pivot nodes, one
    vectorised step per pivot across a stack of matrices.  A path through
    -inf + +inf is NaN, which fmax ignores: an unreachable segment adds no
    constraint.  Positive cycles are not detected here: callers test the
    diagonals afterwards.  This is the one closure kernel; a compiled
    kernel would replace this function."""
    for k in pivots:
        np.fmax(ws, ws[:, :, k : k + 1] + ws[:, k : k + 1, :], out=ws)


def check_exact(values: Iterable, n: int) -> None:
    """Refuse integers too large for float64 weights to stay exact: the
    magnitude times (n + 1) must not pass 2^53, which leaves room for the
    path sums of a closure over n nodes."""
    big = max(map(abs, values), default=0)
    if big * (n + 1) > 2**53:
        raise ValueError(f"|{big}| x ({n} nodes + 1) exceeds 2^53, the exact range of weights")


# one record per universe, cached: universes in one run are few while graphs
# number in the thousands; the bound keeps a long-lived process from growing
_UNIVERSE_CACHE_SIZE = 64


@dataclass(frozen=True, eq=False)
class Universe:
    """The node layout of one (Var, Const) universe and the read-only tables
    shared by every weight matrix over it; built only by universe()."""

    vars: tuple[str, ...]  # sorted, distinct
    consts: tuple[int, ...]  # sorted, distinct
    nodes: tuple[Node, ...]  # vars, their primed copies if transitional, consts
    index: Mapping[Node, int]  # node -> position in nodes
    seed: np.ndarray  # c ->(c-d) d for distinct constants c, d; -inf elsewhere
    # the seed with 0 on the diagonal, which every closed graph meets: only an
    # entry above it says something, and one above -inf constrains no variable
    floor: np.ndarray
    entries: np.ndarray  # flat indices of the pairs other than two constants
    primed: range  # positions of the primed variables, if transitional
    block: Optional[slice]  # the primed variables and constants, if transitional
    plain: np.ndarray  # positions of the unprimed variables and constants


def universe(vars: Iterable[str], consts: Iterable[int], transitional: bool = False) -> Universe:
    """The record of the universe over vars and consts (any order, repeats
    allowed), with primed copies if transitional; refuses what check_exact does."""
    return _universe(tuple(sorted(set(vars))), tuple(sorted(set(consts))), transitional)


@functools.lru_cache(maxsize=_UNIVERSE_CACHE_SIZE)
def _universe(vars: tuple, consts: tuple, transitional: bool) -> Universe:
    nv = len(vars)
    nodes = (*vars, *map(prime, vars if transitional else ()), *consts)
    n, c0 = len(nodes), len(nodes) - len(consts)
    check_exact(consts, n)
    floor = np.full((n, n), NEG_INF)
    floor[c0:, c0:] = np.subtract.outer(consts, consts)
    np.fill_diagonal(floor, 0)
    seed = floor.copy()
    np.fill_diagonal(seed, NEG_INF)
    const = np.arange(n) >= c0
    entries = np.flatnonzero(~(const[:, None] & const[None, :]))
    primed = range(nv, 2 * nv) if transitional else range(0)
    plain = np.array([i for i in range(n) if i not in primed], dtype=np.intp)
    for a in (seed, floor, entries, plain):
        a.setflags(write=False)
    index = MappingProxyType({x: i for i, x in enumerate(nodes)})
    block = slice(nv, None) if transitional else None
    return Universe(vars, consts, nodes, index, seed, floor, entries, primed, block, plain)


def clause_stack(u: Universe, clause_sets: Sequence[Iterable[Clause]]) -> np.ndarray:
    """The (len(clause_sets), n, n) weight matrices of the clause sets over
    the universe u: each entry the largest offset that a clause of its set
    demands for that pair, -inf where none does."""
    idx, n = u.index, len(u.nodes)
    ws = np.full((len(clause_sets), n, n), NEG_INF)
    flat, ks = [], []
    for t, clauses in enumerate(clause_sets):
        for c in clauses:
            i, j = idx.get(c.left), idx.get(c.right)
            if i is None or j is None:
                e = c.left if i is None else c.right
                raise ValueError(f"unknown variable or constant {e!r} in clause {c}")
            flat.append((t * n + i) * n + j)
            ks.append(c.k)
    check_exact(ks, n)
    if ks:
        np.maximum.at(ws.reshape(-1), flat, np.array(ks, dtype=float))
    return ws


def close_seeded(ws: np.ndarray, u: Universe) -> np.ndarray:
    """Seed the constant edges of the universe u into a writable stack of
    weight matrices over it, close the stack in place over every pivot and
    return the mask of matrices with no positive cycle on the diagonal (a
    +inf input entry is not caught)."""
    np.maximum(ws, u.seed, out=ws)
    with np.errstate(invalid="ignore"):
        _close_stack(ws, range(ws.shape[-1]))
    return (ws.diagonal(0, 1, 2) <= 0).all(axis=1)


def differences(nodes: Sequence[Node], valuation: Mapping[str, int]) -> np.ndarray:
    """The matrix of v(x) - v(y) over the nodes, constants standing for
    themselves; a graph with weights w holds at v iff it is >= w throughout."""
    vals = [x if is_const(x) else valuation[x] for x in nodes]
    check_exact(vals, len(nodes))
    a = np.array(vals, dtype=float)
    return a[:, None] - a[None, :]


def degree_norm(ws: np.ndarray, u: Universe) -> tuple[np.ndarray, np.ndarray]:
    """(degrees, norms) of a (k, n, n) stack of weight matrices over the
    universe u, as float arrays of whole numbers, in one pass over their
    constraint entries (see degree(), norm()); an edgeless matrix has
    degree and norm 0."""
    w = ws.reshape(-1, len(u.nodes) ** 2).take(u.entries, axis=1)
    finite = np.isfinite(w)
    w[~finite] = 0
    lo, hi = w.min(axis=1, initial=0), w.max(axis=1, initial=0)
    return -lo, (hi - lo + 1) * finite.any(axis=1)


class MonotonicityGraph:
    """Immutable weighted digraph over Var (∪ Var') ∪ Const."""

    __slots__ = ("vars", "consts", "transitional", "u", "w", "closed")

    def __init__(
        self,
        vars: Iterable[str],
        consts: Iterable[int],
        transitional: bool = False,
        w: Optional[np.ndarray] = None,
        closed: bool = False,
    ):
        self.u = u = universe(vars, consts, transitional)
        self.vars, self.consts, self.transitional = u.vars, u.consts, transitional
        n = len(u.nodes)
        if w is None:
            w = np.full((n, n), NEG_INF)
        if w.shape != (n, n):
            raise ValueError(f"weight matrix of shape {w.shape} for {n} nodes")
        self.w = w
        self.w.setflags(write=False)
        self.closed = closed

    def weight(self, x: Node, y: Node) -> float:
        return float(self.w[self.u.index[x], self.u.index[y]])

    def edges(self) -> list[tuple[Node, Node, float]]:
        """All stored edges with weight > -inf, in canonical node order."""
        ns = self.u.nodes
        out = []
        for i, x in enumerate(ns):
            for j, y in enumerate(ns):
                wv = self.w[i, j]
                if wv > NEG_INF:
                    out.append((x, y, float(wv)))
        return out

    # -- construction -----------------------------------------------------

    def with_weights(self, w: np.ndarray, closed: bool = False) -> "MonotonicityGraph":
        return MonotonicityGraph(self.vars, self.consts, self.transitional, w, closed)

    # -- core algebra ------------------------------------------------------

    def closure(self) -> "MonotonicityGraph":
        """Tightest path-derived weights (all-pairs max-plus), with implicit
        constant-difference edges seeded first and positive cycles promoted
        to +inf.  Idempotent; preserves Sat."""
        if self.closed:
            return self
        w = np.array(self.w)
        if not close_seeded(w[None], self.u)[0]:
            pos = np.diagonal(w) > 0
            to_cyc = w[:, pos] > NEG_INF
            from_cyc = w[pos, :] > NEG_INF
            w[(to_cyc[:, :, None] & from_cyc[None, :, :]).any(axis=1)] = POS_INF
        return self.with_weights(w, closed=True)

    def is_satisfiable(self) -> bool:
        return not np.isposinf(self.closure().w).any()

    def degree(self) -> int:
        """Magnitude of the most negative finite edge weight.  Edges between
        two constants are arithmetic facts, not constraints, and are ignored."""
        return int(degree_norm(self.w[None], self.u)[0][0])

    def restrict(self, keep: Iterable[str]) -> "MonotonicityGraph":
        """Maximal subgraph over ``keep`` ∪ Const (primed nodes dropped)."""
        keep = set(keep)
        if not keep <= set(self.vars):
            raise ValueError("restriction variables must be a subset of the graph's")
        sel = [self.u.index[x] for x in (*sorted(keep), *self.consts)]
        w = self.w[np.ix_(sel, sel)].copy()
        return MonotonicityGraph(sorted(keep), self.consts, False, w, self.closed)

    def intersect(self, other: "MonotonicityGraph") -> "MonotonicityGraph":
        if self.u.nodes != other.u.nodes:
            raise ValueError("intersection requires an identical node universe")
        return self.with_weights(np.maximum(self.w, other.w))

    def evaluate(self, valuation: Mapping[str, int]) -> bool:
        return bool((differences(self.u.nodes, valuation) >= self.w).all())

    def norm(self) -> int:
        """Size measure used by runtime metrics: degree plus the largest
        non-negative finite weight plus one; 0 for an edgeless graph."""
        return int(degree_norm(self.w[None], self.u)[1][0])

    # -- identity ----------------------------------------------------------

    def key(self) -> tuple:
        return (self.vars, self.consts, self.transitional, self.w.tobytes())

    def __eq__(self, other: object) -> bool:
        return isinstance(other, MonotonicityGraph) and self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        es = ", ".join(
            f"{x}->{'+inf' if np.isposinf(k) else int(k)}->{y}" for x, y, k in self.edges()
        )
        tag = "closed " if self.closed else ""
        return f"<MG {tag}vars={self.vars} consts={self.consts} [{es}]>"


def from_constraint(
    clauses: Iterable[Clause],
    vars: Iterable[str],
    consts: Iterable[int],
    transitional: Optional[bool] = None,
) -> MonotonicityGraph:
    """The unique MG of a gap constraint: one edge per constrained pair,
    weight = the largest offset demanded for that pair; transitional by
    default iff some clause names a primed variable."""
    clauses = list(clauses)
    if transitional is None:
        transitional = any(is_primed(c.left) or is_primed(c.right) for c in clauses)
    u = universe(vars, consts, transitional)
    return MonotonicityGraph(u.vars, u.consts, transitional, clause_stack(u, [clauses])[0])


def covers(n: MonotonicityGraph, m: MonotonicityGraph) -> bool:
    """True iff m covers n (n ⊑ m): every closure weight of n is at most the
    corresponding weight of m.  Implies Sat(n) ⊇ Sat(m)."""
    nc, mc = n.closure(), m.closure()
    if nc.u.nodes != mc.u.nodes:
        raise ValueError("covering requires an identical node universe")
    return bool((nc.w <= mc.w).all())


def compose(g: MonotonicityGraph, m: MonotonicityGraph) -> MonotonicityGraph:
    """Predecessor constraint G∘M: rename m's variables to their primed
    copies, intersect with the transitional graph g, project onto the
    unprimed variables.  Satisfied exactly by the g-predecessors of Sat(m).

    The result of an unsatisfiable combination is the closed plain graph with
    every weight +inf (satisfiability can be lost in the projected-away primed
    part, so it is checked before projecting).  This full closure over every
    node is the reference that compose_batch is tested against."""
    if not g.transitional or m.transitional:
        raise ValueError("compose expects a transitional g and a plain m")
    if g.vars != m.vars or g.consts != m.consts:
        raise ValueError("compose requires matching variables and constants")
    w = np.array(g.w)
    block = w[g.u.block, g.u.block]
    np.maximum(block, m.w, out=block)
    c = g.with_weights(w).closure()
    if np.isposinf(c.w).any():
        n = len(g.u.plain)
        return MonotonicityGraph(g.vars, g.consts, False, np.full((n, n), POS_INF), closed=True)
    return c.restrict(g.vars)


class RuleStack:
    """Closed, satisfiable transitional graphs over one universe, stacked as
    one (r, n, n) weight array for compose_batch, with the rule side of its
    prefilter, its pivot nodes and its projection computed once.  ``probe``
    holds the flat indices of the member entries the prefilter reads, each
    variable's bounds against the first constant (None without constants);
    pre_star screens its covering test on them too."""

    __slots__ = ("u", "w", "probe", "_neg_bounds", "_pivots", "_proj")

    def __init__(self, vars: Iterable[str], consts: Iterable[int], w: np.ndarray):
        self.u = u = universe(vars, consts, True)
        self.w = w
        w.setflags(write=False)
        n, keep, primed = len(u.nodes), u.plain, list(u.primed)
        # flat indices of the unprimed-and-constant block
        self._proj = (keep[:, None] * n + keep).ravel()
        if u.consts:
            # a two-edge cycle x' -> c -> x' through the first constant c,
            # one edge from the rule and one from the member, is positive
            # iff the member's B[c, x] exceeds -A[x', c] (and symmetrically
            # B[x, c] against -A[c, x']); kept here as the flat indices of
            # those member entries (a member lists its nv variables first),
            # the probe, and the negated rule entries
            c, nv, m = u.index[u.consts[0]], len(u.vars), len(keep)
            self._neg_bounds = -np.concatenate((w[:, primed, c], w[:, c, primed]), axis=1)
            self.probe = np.concatenate((np.arange(nv) + nv * m, np.arange(nv) * m + nv))
            self._pivots = primed + [c]
        else:
            self._neg_bounds = self.probe = None
            self._pivots = primed

    def __len__(self) -> int:
        return self.w.shape[0]


def close_rules(
    vars: tuple,
    consts: tuple,
    rules: Sequence[Iterable[Clause]],
    guard: Iterable[Clause] = (),
) -> np.ndarray:
    """The closed weight matrices of the transitional graphs of each rule's
    clauses intersected with the guard's, built as one stack and closed in
    one batched pass; unsatisfiable rules are dropped."""
    u = universe(vars, consts, True)
    base, ws = clause_stack(u, [guard]), clause_stack(u, rules)
    np.maximum(ws, base, out=ws)
    return ws[close_seeded(ws, u)]


# weights closed together by one step of compose_batch: bounds its temporaries
_COMPOSE_CHUNK = 1 << 18


def compose_batch(rules: RuleStack, mws: np.ndarray) -> list[Optional[np.ndarray]]:
    """The weights of compose(g, m) for every member m of a frontier and
    every graph g of the stack, member-major: entry i * len(rules) + j is
    member i composed with rule j, None where unsatisfiable.  mws holds the
    closed satisfiable plain members as a (k, m, m) stack, or one (m, m)
    matrix as a frontier of one.

    Pairs where some primed variable's bounds against the first constant
    conflict are rejected for the whole frontier at once, before any
    closure.  The survivors are closed together, at most _COMPOSE_CHUNK
    weights at a time, pivoting only over the primed nodes and one constant: both operands are closed, so a
    path through an unprimed node collapses into one rule edge, and in a
    closed graph the edges to and from any constant are exact shifts of
    those of the first.  A positive cycle therefore shows on the diagonal
    after these pivots, which is tested once."""
    m = mws.shape[-1]
    mws = mws.reshape(-1, m, m)
    r = len(rules)
    out: list[Optional[np.ndarray]] = [None] * (len(mws) * r)
    if rules._neg_bounds is None:
        idx = np.arange(len(out))
    else:
        probe = mws.reshape(-1, m * m).take(rules.probe, axis=1)
        ok = (probe[:, None, :] <= rules._neg_bounds[None, :, :]).all(axis=2)
        idx = ok.ravel().nonzero()[0]
    n = rules.w.shape[-1]
    step = max(1, _COMPOSE_CHUNK // (n * n))
    for c in range(0, len(idx), step):
        part = idx[c : c + step]
        member, rule = np.divmod(part, r)
        ws = rules.w.take(rule, axis=0)
        block = ws[:, rules.u.block, rules.u.block]
        np.maximum(block, mws.take(member, axis=0), out=block)
        _close_stack(ws, rules._pivots)
        sat = ws.diagonal(0, 1, 2).max(axis=1) <= 0
        proj = ws[sat].reshape(-1, n * n).take(rules._proj, axis=1).reshape(-1, m, m)
        for t, pw in zip(part[sat].tolist(), proj):
            out[t] = pw
    return out
