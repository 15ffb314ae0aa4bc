"""Monotonicity graphs: weighted constraint graphs over variables and constants.

A monotonicity graph (MG) encodes a conjunction of gap clauses ``x - y >= k``
as a complete weighted digraph: the weight of the edge (x, y) is the largest
offset k demanded between x and y, or -inf when the pair is unconstrained.
Weights live in Z extended with -inf and +inf; a +inf weight (or a cycle of
positive total weight) makes the graph unsatisfiable.

Node universe and ordering are canonical: unprimed variables sorted by name,
then their primed copies (for transitional graphs), then constants sorted by
value.  All operations are pure; graphs are never mutated after construction.
"""

from __future__ import annotations

import functools
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

    def negated(self) -> "Clause":
        # not(x - y >= k)  <=>  y - x >= -k + 1
        return Clause(self.right, self.left, -self.k + 1)


def prime(name: str) -> str:
    return name + "'"


def is_primed(node: Node) -> bool:
    return isinstance(node, str) and node.endswith("'")


def unprime(name: str) -> str:
    return name[:-1] if name.endswith("'") else name


def is_const(node: Node) -> bool:
    return isinstance(node, int)


class UnsatisfiableGraphError(ValueError):
    """Raised when an operation requires a satisfiable graph."""


def _close_stack(ws: np.ndarray, pivots: Iterable[int]) -> None:
    """Max-plus Floyd-Warshall in place over the given pivot nodes, one
    vectorised step per pivot across a stack of matrices.  A path through
    -inf + +inf is NaN, which fmax ignores: an unreachable segment adds no
    constraint.  Positive cycles are not detected here: callers test the
    diagonals afterwards.  This is the one closure kernel; a compiled
    kernel would replace this function."""
    for k in pivots:
        np.fmax(ws, ws[:, :, k : k + 1] + ws[:, k : k + 1, :], out=ws)


# per-universe tables are cached: universes in one run are few while graphs
# number in the thousands; the bound keeps a long-lived process from growing
_UNIVERSE_CACHE_SIZE = 64


def _put_clauses(
    ws: np.ndarray, idx: Mapping[Node, int], clause_sets: Iterable[Iterable[Clause]]
) -> None:
    """Raise ws[t, left, right] to the offset of every clause of the t-th
    clause set, in place; ws is a fresh contiguous stack of matrices."""
    n = ws.shape[-1]
    flat, ks = [], []
    for t, clauses in enumerate(clause_sets):
        for c in clauses:
            i, j = idx.get(c.left), idx.get(c.right)
            if i is None or j is None:
                e = c.left if i is None else c.right
                raise ValueError(f"unknown variable or constant {e!r} in clause {c}")
            flat.append((t * n + i) * n + j)
            ks.append(c.k)
    if ks:
        np.maximum.at(ws.reshape(-1), flat, np.array(ks, dtype=float))


@functools.lru_cache(maxsize=_UNIVERSE_CACHE_SIZE)
def _seed(n: int, consts: tuple) -> np.ndarray:
    """The implicit constant-difference edges c ->(c-d) d for every ordered
    pair of distinct constants, the last nodes of an n-node universe;
    -inf elsewhere."""
    seed = np.full((n, n), NEG_INF)
    c0 = n - len(consts)
    for i, x in enumerate(consts, c0):
        for j, y in enumerate(consts, c0):
            if i != j:
                seed[i, j] = x - y
    seed.setflags(write=False)
    return seed


@functools.lru_cache(maxsize=_UNIVERSE_CACHE_SIZE)
def _constraint_entries(n: int, n_consts: int) -> np.ndarray:
    """Flat indices of the node pairs that express constraints: everything
    except pairs of constants (implicit arithmetic facts), which are the
    last n_consts nodes."""
    const = np.arange(n) >= n - n_consts
    return np.flatnonzero(~(const[:, None] & const[None, :]))


class MonotonicityGraph:
    """Immutable weighted digraph over Var (∪ Var') ∪ Const."""

    __slots__ = ("vars", "consts", "transitional", "w", "closed", "_nodes")

    def __init__(
        self,
        vars: Iterable[str],
        consts: Iterable[int],
        transitional: bool = False,
        w: Optional[np.ndarray] = None,
        closed: bool = False,
    ):
        self.vars = tuple(sorted(set(vars)))
        self.consts = tuple(sorted(set(consts)))
        self.transitional = transitional
        self._nodes = None
        n = len(self.nodes())
        if w is None:
            w = np.full((n, n), NEG_INF)
        if w.shape != (n, n):
            raise ValueError(f"weight matrix of shape {w.shape} for {n} nodes")
        self.w = w
        self.w.setflags(write=False)
        self.closed = closed

    @classmethod
    def _make(cls, vars, consts, transitional, w, closed) -> "MonotonicityGraph":
        """Internal fast path: vars/consts must already be canonical tuples
        and w the matching freshly allocated matrix."""
        self = object.__new__(cls)
        self.vars = vars
        self.consts = consts
        self.transitional = transitional
        self._nodes = None
        self.w = w
        w.setflags(write=False)
        self.closed = closed
        return self

    def nodes(self) -> list[Node]:
        if self._nodes is None:
            ns: list[Node] = list(self.vars)
            if self.transitional:
                ns += [prime(v) for v in self.vars]
            ns += list(self.consts)
            self._nodes = ns
        return self._nodes

    def index(self) -> dict[Node, int]:
        return {n: i for i, n in enumerate(self.nodes())}

    def weight(self, x: Node, y: Node) -> float:
        idx = self.index()
        return float(self.w[idx[x], idx[y]])

    def edges(self) -> list[tuple[Node, Node, float]]:
        """All stored edges with weight > -inf, in canonical node order."""
        ns = self.nodes()
        out = []
        for i, x in enumerate(ns):
            for j, y in enumerate(ns):
                wv = self.w[i, j]
                if wv > NEG_INF:
                    out.append((x, y, float(wv)))
        return out

    # -- construction -----------------------------------------------------

    @classmethod
    def from_clauses(
        cls,
        clauses: Iterable[Clause],
        vars: Iterable[str],
        consts: Iterable[int],
        transitional: Optional[bool] = None,
    ) -> "MonotonicityGraph":
        clauses = list(clauses)
        if transitional is None:
            transitional = any(
                is_primed(c.left) or is_primed(c.right) for c in clauses
            )
        g = cls(vars, consts, transitional)
        w = np.full(g.w.shape, NEG_INF)
        _put_clauses(w[None], g.index(), [clauses])
        return cls(g.vars, g.consts, transitional, w)

    def with_weights(self, w: np.ndarray, closed: bool = False) -> "MonotonicityGraph":
        return MonotonicityGraph(self.vars, self.consts, self.transitional, w, closed)

    # -- core algebra ------------------------------------------------------

    def _seeded(self) -> np.ndarray:
        """Mutable weight copy with the implicit constant-difference edges
        c ->(c-d) d seeded for every ordered pair of distinct constants."""
        return np.maximum(self.w, _seed(self.w.shape[0], self.consts))

    def closure(self) -> "MonotonicityGraph":
        """Tightest path-derived weights (all-pairs max-plus), with implicit
        constant-difference edges seeded first and positive cycles promoted
        to +inf.  Idempotent; preserves Sat."""
        if self.closed:
            return self
        w = self._seeded()
        with np.errstate(invalid="ignore"):
            _close_stack(w[None], range(w.shape[0]))
        diag = np.diagonal(w)
        pos = diag > 0
        if pos.any():
            to_cyc = w[:, pos] > NEG_INF
            from_cyc = w[pos, :] > NEG_INF
            w[(to_cyc[:, :, None] & from_cyc[None, :, :]).any(axis=1)] = POS_INF
        return self.with_weights(w, closed=True)

    def is_satisfiable(self) -> bool:
        return not np.isposinf(self.closure().w).any()

    def degree(self) -> int:
        """Magnitude of the most negative finite edge weight.  Edges between
        two constants are arithmetic facts, not constraints, and are ignored."""
        return self.stats()[0]

    def stats(self) -> tuple[int, int]:
        """(degree, norm) in one pass over the constraint entries."""
        w = self.w.take(_constraint_entries(self.w.shape[0], len(self.consts)))
        finite = w[np.isfinite(w)]
        if finite.size == 0:
            return 0, 0
        mn = finite.min()
        degree = int(-mn) if mn < 0 else 0
        return degree, degree + int(max(finite.max(), 0)) + 1

    def restrict(self, keep: Iterable[str]) -> "MonotonicityGraph":
        """Maximal subgraph over ``keep`` ∪ Const (primed nodes dropped)."""
        keep = set(keep)
        if not keep <= set(self.vars):
            raise ValueError("restriction variables must be a subset of the graph's")
        ns = self.nodes()
        sel = [i for i, x in enumerate(ns) if is_const(x) or (not is_primed(x) and x in keep)]
        w = self.w[np.ix_(sel, sel)].copy()
        return MonotonicityGraph(sorted(keep), self.consts, False, w, self.closed)

    def project(self, keep: Iterable[str]) -> "MonotonicityGraph":
        """Restriction of the closure; keeps exactly the satisfying
        assignments of this graph restricted to ``keep``."""
        return self.closure().restrict(keep)

    def intersect(self, other: "MonotonicityGraph") -> "MonotonicityGraph":
        if self.nodes() != other.nodes():
            raise ValueError("intersection requires an identical node universe")
        return self.with_weights(np.maximum(self.w, other.w))

    def evaluate(self, valuation: Mapping[str, int]) -> bool:
        ns = self.nodes()
        vals = np.array(
            [x if is_const(x) else valuation[x] for x in ns], dtype=float
        )
        diff = vals[:, None] - vals[None, :]
        return bool((diff >= self.w).all())

    def norm(self) -> int:
        """Size measure used by runtime metrics: degree plus the largest
        non-negative finite weight plus one; 0 for an edgeless graph."""
        return self.stats()[1]

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
    weight = the largest offset demanded for that pair."""
    return MonotonicityGraph.from_clauses(clauses, vars, consts, transitional)


def covers(n: MonotonicityGraph, m: MonotonicityGraph) -> bool:
    """True iff m covers n (n ⊑ m): every closure weight of n is at most the
    corresponding weight of m.  Implies Sat(n) ⊇ Sat(m)."""
    nc, mc = n.closure(), m.closure()
    if nc.nodes() != mc.nodes():
        raise ValueError("covering requires an identical node universe")
    return bool((nc.w <= mc.w).all())


def compose(g: MonotonicityGraph, m: MonotonicityGraph) -> MonotonicityGraph:
    """Predecessor constraint G∘M: rename m's variables to their primed
    copies, intersect with the transitional graph g, project onto the
    unprimed variables.  Satisfied exactly by the g-predecessors of Sat(m).

    The result of an unsatisfiable combination is the shared unsat_graph
    (satisfiability can be lost in the projected-away primed part, so it is
    checked before projecting).  This full closure over every node is the
    reference that compose_batch is tested against."""
    if not g.transitional or m.transitional:
        raise ValueError("compose expects a transitional g and a plain m")
    if g.vars != m.vars or g.consts != m.consts:
        raise ValueError("compose requires matching variables and constants")
    nv = len(g.vars)
    # m's node i (a variable) becomes primed slot nv + i; constants keep
    # their tail position, so m maps onto the contiguous block nv..n
    w = np.array(g.w)
    np.maximum(w[nv:, nv:], m.w, out=w[nv:, nv:])
    c = g.with_weights(w).closure()
    if np.isposinf(c.w).any():
        return unsat_graph(g.vars, g.consts)
    return c.restrict(g.vars)


class RuleStack:
    """Closed, satisfiable transitional graphs over one universe, stacked as
    one (r, n, n) weight array for compose_batch, with the rule side of its
    prefilter, its pivot nodes and its projection computed once."""

    __slots__ = ("vars", "consts", "w", "_neg_bounds", "_member_bounds", "_pivots", "_proj")

    def __init__(self, vars: tuple, consts: tuple, w: np.ndarray):
        nv, n = len(vars), w.shape[1]
        self.vars, self.consts, self.w = vars, consts, w
        w.setflags(write=False)
        primed = list(range(nv, 2 * nv))
        # flat indices of the unprimed-and-constant block
        keep = np.array(list(range(nv)) + list(range(2 * nv, n)))
        self._proj = (keep[:, None] * n + keep).ravel()
        if consts:
            # a two-edge cycle x' -> c -> x' through the first constant c,
            # one edge from the rule and one from the member, is positive
            # iff the member's B[c, x] exceeds -A[x', c] (and symmetrically
            # B[x, c] against -A[c, x']); kept here as the flat indices of
            # those member entries and the negated rule entries
            c, m = 2 * nv, n - nv
            self._neg_bounds = -np.concatenate((w[:, primed, c], w[:, c, primed]), axis=1)
            self._member_bounds = np.concatenate(
                (np.arange(nv) + nv * m, np.arange(nv) * m + nv)
            )
            self._pivots = primed + [c]
        else:
            self._neg_bounds = None
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
    one batched pass; unsatisfiable rules are dropped.  vars and consts are
    sorted and distinct, as in every graph."""
    g = MonotonicityGraph(vars, consts, transitional=True)
    idx = g.index()
    base = np.array(_seed(len(idx), consts))
    _put_clauses(base[None], idx, [guard])
    ws = np.repeat(base[None], len(rules), axis=0)
    _put_clauses(ws, idx, rules)
    _close_stack(ws, range(ws.shape[1]))
    return ws[ws.diagonal(0, 1, 2).max(axis=1) <= 0]


def compose_batch(
    rules: RuleStack, mw: np.ndarray
) -> list[Optional[MonotonicityGraph]]:
    """compose(g, m) for every graph g of the stack and a closed satisfiable
    plain member m with weights mw; unsatisfiable results come back as None.

    Pairs where some primed variable's bounds against the first constant
    conflict are rejected before any closure.  The others are closed
    together, pivoting only over the primed nodes and one constant: both
    operands are closed, so a path through an unprimed node collapses into
    one rule edge, and in a closed graph the edges to and from any constant
    are exact shifts of those of the first.  A positive cycle therefore
    shows on the diagonal after these pivots, which is tested once."""
    out: list[Optional[MonotonicityGraph]] = [None] * len(rules)
    if rules._neg_bounds is None:
        idx = np.arange(len(rules))
    else:
        ok = (mw.take(rules._member_bounds) <= rules._neg_bounds).all(axis=1)
        idx = ok.nonzero()[0]
    if not idx.size:
        return out
    nv, m = len(rules.vars), mw.shape[0]
    ws = rules.w.take(idx, axis=0)
    block = ws[:, nv:, nv:]
    np.maximum(block, mw, out=block)
    _close_stack(ws, rules._pivots)
    sat = ws.diagonal(0, 1, 2).max(axis=1) <= 0
    proj = ws.reshape(len(idx), -1).take(rules._proj, axis=1).reshape(-1, m, m)
    for t, s, pw in zip(idx.tolist(), sat.tolist(), proj):
        if s:
            out[t] = MonotonicityGraph._make(rules.vars, rules.consts, False, pw, True)
    return out


@functools.lru_cache(maxsize=_UNIVERSE_CACHE_SIZE)
def unsat_graph(vars: tuple, consts: tuple) -> MonotonicityGraph:
    """The canonical explicitly unsatisfiable plain graph of a universe
    (all weights +inf); one shared instance per universe."""
    n = len(vars) + len(consts)
    return MonotonicityGraph(vars, consts, False, np.full((n, n), POS_INF), closed=True)


def canonicalize(m: MonotonicityGraph) -> MonotonicityGraph:
    """Closed canonical form; equal for any two graphs with the same closure."""
    c = m.closure()
    if np.isposinf(c.w).any():
        raise UnsatisfiableGraphError("cannot canonicalize an unsatisfiable graph")
    return c


def basis_clauses(m: MonotonicityGraph) -> list[Clause]:
    """A clause set with the same satisfying valuations as m, taken from the
    finite edges of the closure.  Edges between constants and non-positive
    self-edges are arithmetically valid and carry no constraint."""
    c = canonicalize(m)
    ns = c.nodes()
    out = []
    for i, x in enumerate(ns):
        for j, y in enumerate(ns):
            if i == j or (is_const(x) and is_const(y)):
                continue
            wv = c.w[i, j]
            if NEG_INF < wv:
                out.append(Clause(x, y, int(wv)))
    return out
