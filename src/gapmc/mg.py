"""Monotonicity graphs: weighted constraint graphs over variables and constants.

A monotonicity graph (MG) encodes a conjunction of gap clauses ``x - y >= k``
as a complete weighted digraph: the weight of the edge (x, y) is the largest
offset k demanded between x and y, or -inf when the pair is unconstrained.
Weights live in Z extended with -inf and +inf; a +inf weight (or a cycle of
positive total weight) makes the graph unsatisfiable.

Node universe and ordering are canonical: unprimed variables sorted by name,
then their primed copies (for transitional graphs), then constants sorted by
value; ``universe`` is the one place that knows it.  Graphs and their file
formats use this full layout.  Symbolic sets and the reachability engine
keep the engine layout, which keeps of the constants only the least, c0: in
a closed graph every constant c has c0's edges shifted by c - c0, as the
zero node of a difference-bound matrix stands for every constant.
``Universe.enter`` and ``Universe.leave`` convert closed satisfiable rows
between the two; the layouts coincide below two constants.  All operations
are pure; graphs are never mutated after construction.
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


def equal(a: Node, b: Node) -> tuple[Clause, Clause]:
    """The two gap clauses of ``a = b``."""
    return Clause(a, b, 0), Clause(b, a, 0)


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


# one record per universe and one set of tables per (number of variables,
# transitional, constants), cached: universes in one run are few while
# graphs number in the thousands, and the tables serve every universe whose
# variables differ only in their names; the bound keeps a long-lived process
# from growing
_UNIVERSE_CACHE_SIZE = 64


@dataclass(frozen=True, eq=False)
class Universe:
    """The node layout of one (Var, Const) universe and the read-only tables
    shared by every weight matrix over it; built only by universe().

    The engine layout keeps the nodes before the constants, then c0, the
    least constant: ``size`` nodes, which are the first ``size`` of the full
    layout, so that entering it is one slice.  A clause or entry against a
    constant c reads against c0, shifted by ``shift``: x - c >= k is
    x - c0 >= k + (c - c0).  A shifted offset is exact wherever the full
    layout's weights are: k + (c - c0) is the weight of the two-edge path
    x -> c -> c0 of the full layout, and every path sum of the engine layout
    is the weight of a full-layout path the same way."""

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
    size: int  # nodes of the engine layout
    shift: np.ndarray  # c - c0 for each full-layout node c, 0 for a variable
    gather: np.ndarray  # flat engine index of each full pair (i, j)
    lift: np.ndarray  # shift[i] - shift[j] for each full pair (i, j), flat
    # the engine layout's seed: 0 on c0's diagonal, the weight of c0 -> d -> c0,
    # with two or more constants; -inf elsewhere
    eseed: np.ndarray
    # flat engine indices and their shifts, whose shifted entries hold the
    # least and greatest of each full-layout constraint entry's values
    spread: np.ndarray
    spread_shift: np.ndarray

    def enter(self, ws: np.ndarray) -> np.ndarray:
        """The engine-layout view of closed satisfiable full-layout rows."""
        return ws[..., : self.size, : self.size]

    def leave(self, ws: np.ndarray) -> np.ndarray:
        """The full-layout (k, n, n) stack of the closed satisfiable rows ws
        of the engine layout, which the engine keeps as entered: a constant's
        entries are c0's shifted, a pair of constants c, d reads c - d from
        c0's diagonal, 0 with two or more constants (eseed keeps it there)."""
        out = ws.reshape(len(ws), self.size**2).take(self.gather, axis=1)
        out += self.lift
        return out.reshape(len(ws), len(self.nodes), len(self.nodes))


def universe(vars: Iterable[str], consts: Iterable[int], transitional: bool = False) -> Universe:
    """The record of the universe over vars and consts (any order, repeats
    allowed), with primed copies if transitional; refuses what check_exact does."""
    return _universe(tuple(sorted(set(vars))), tuple(sorted(set(consts))), transitional)


@functools.lru_cache(maxsize=_UNIVERSE_CACHE_SIZE)
def _universe(vars: tuple, consts: tuple, transitional: bool) -> Universe:
    nodes = (*vars, *map(prime, vars if transitional else ()), *consts)
    index = MappingProxyType({x: i for i, x in enumerate(nodes)})
    return Universe(vars, consts, nodes, index, *_tables(len(vars), transitional, consts))


@functools.lru_cache(maxsize=_UNIVERSE_CACHE_SIZE)
def _tables(nv: int, transitional: bool, consts: tuple) -> tuple:
    """The fields of Universe after index, which depend on the number of
    variables, not on their names."""
    c0 = 2 * nv if transitional else nv  # position of the first constant
    n, e = c0 + len(consts), c0 + min(len(consts), 1)
    check_exact(consts, n)
    floor = np.full((n, n), NEG_INF)
    floor[c0:, c0:] = np.subtract.outer(consts, consts)
    np.fill_diagonal(floor, 0)
    seed = floor.copy()
    np.fill_diagonal(seed, NEG_INF)
    const = np.arange(n) >= c0
    entries = np.flatnonzero(~(const[:, None] & const[None, :]))
    primed = range(nv, 2 * nv) if transitional else range(0)
    block = slice(nv, None) if transitional else None
    # the engine layout: a constant's row and column are c0's, shifted
    shift = np.zeros(n)
    shift[c0:] = np.subtract(consts, consts[:1])
    at = np.minimum(np.arange(n), e - 1)
    gather = (at[:, None] * e + at).ravel()
    lift = np.subtract.outer(shift, shift).ravel()
    eseed = np.full((e, e), NEG_INF)
    eseed[c0:, c0:] = 0 if len(consts) > 1 else NEG_INF
    # x - c over every constant c spans x - c0 less 0 to the greatest shift,
    # and c - x spans c0 - x plus as much: the spread reads the engine
    # layout's constraint entries, then c0's again, shifted to the far end
    k, ec = c0 if consts else 0, np.arange(e) >= c0
    spread = np.concatenate((np.flatnonzero(~(ec[:, None] & ec)), np.arange(k) * e + c0,
                             c0 * e + np.arange(k)))
    spread_shift = np.repeat([0, -1, 1], [len(spread) - 2 * k, k, k]) * shift.max(initial=0)
    tables = (seed, floor, entries, primed, block, e, shift, gather, lift,
              eseed, spread, spread_shift)
    for a in tables:
        if isinstance(a, np.ndarray):
            a.setflags(write=False)
    return tables


def clause_stack(
    u: Universe, clause_sets: Sequence[Iterable[Clause]], engine: bool = False
) -> np.ndarray:
    """The (len(clause_sets), n, n) weight matrices of the clause sets over
    the universe u, in its engine layout if engine is set: each entry the
    largest offset that a clause of its set demands for that pair, -inf
    where none does.  Offsets are refused as check_exact does for the full
    layout, whichever layout they go to; in the engine layout a clause
    between two constants lands on c0's diagonal, above 0 iff it is false."""
    clause_sets = [tuple(clauses) for clauses in clause_sets]
    every = [c for clauses in clause_sets for c in clauses]
    lefts, rights, ks = zip(*every) if every else ((), (), ())
    i, j = list(map(u.index.get, lefts)), list(map(u.index.get, rights))
    if None in i or None in j:
        c = every[min((i + [None]).index(None), (j + [None]).index(None))]
        e = c.left if u.index.get(c.left) is None else c.right
        raise ValueError(f"unknown variable or constant {e!r} in clause {c}")
    n = len(u.nodes)
    check_exact(ks, n)
    t = np.repeat(np.arange(len(clause_sets)), list(map(len, clause_sets)))
    i, j, k = np.array(i, dtype=np.intp), np.array(j, dtype=np.intp), np.array(ks, dtype=float)
    if engine:
        # a constant's position past c0 is c0's; its offset shifts by c - c0
        k += u.shift[j] - u.shift[i]
        n = u.size
        i, j = np.minimum(i, n - 1), np.minimum(j, n - 1)
    ws = np.full((len(clause_sets), n, n), NEG_INF)
    np.maximum.at(ws, (t, i, j), k)
    return ws


def close_seeded(ws: np.ndarray, seed: np.ndarray) -> np.ndarray:
    """Seed the constant edges seed (a universe's seed, or its eseed in the
    engine layout) into a writable stack of weight matrices, close the stack
    in place over every pivot and return the mask of matrices with no
    positive cycle on the diagonal.  A +inf entry is neither caught nor
    silenced (with -inf it sums to NaN): only closure() has one."""
    np.maximum(ws, seed, out=ws)
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
    universe u, in either layout, as float arrays of whole numbers, in one
    pass over their constraint entries (see degree(), norm()); an edgeless
    matrix has degree and norm 0.  Closed satisfiable rows give the same
    values in both layouts."""
    full = ws.shape[-1] == len(u.nodes)  # or the layouts coincide
    w = ws.reshape(len(ws), ws.shape[-1] ** 2).take(u.entries if full else u.spread, axis=1)
    if not full:
        w += u.spread_shift
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
        return [(ns[i], ns[j], float(self.w[i, j])) for i, j in zip(*np.nonzero(self.w > NEG_INF))]

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
        with np.errstate(invalid="ignore"):  # a +inf weight meets -inf: NaN
            sat = close_seeded(w[None], self.u.seed)[0]
        if not sat:
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
        n = len(g.vars) + len(g.consts)
        return MonotonicityGraph(g.vars, g.consts, False, np.full((n, n), POS_INF), closed=True)
    return c.restrict(g.vars)


class RuleStack:
    """Closed, satisfiable transitional graphs over one universe in its
    engine layout, stacked as one (r, e, e) weight array for compose_batch,
    with the rule side of its prefilter, its pivot nodes and its projection
    computed once.  ``probe`` holds the flat indices of the member entries
    the prefilter reads, each variable's bounds against c0 (None without
    constants); pre_star screens its covering test on them too."""

    __slots__ = ("u", "w", "probe", "_neg_bounds", "_pivots", "_proj")

    def __init__(self, vars: Iterable[str], consts: Iterable[int], w: np.ndarray):
        self.u = u = universe(vars, consts, True)
        self.w = w
        w.setflags(write=False)
        nv, e, primed = len(u.vars), u.size, list(u.primed)
        keep = np.r_[0:nv, 2 * nv : e]  # the unprimed variables and c0
        # flat indices of the unprimed-and-c0 block
        self._proj = (keep[:, None] * e + keep).ravel()
        if u.consts:
            # a two-edge cycle x' -> c0 -> x', one edge from the rule and one
            # from the member, is positive iff the member's B[c0, x] exceeds
            # -A[x', c0] (and symmetrically B[x, c0] against -A[c0, x']);
            # kept here as the flat indices of those member entries (a member
            # lists its nv variables first), the probe, and the negated rule
            # entries, probe-major: the prefilter reduces over that short axis
            c, m = e - 1, len(keep)
            self._neg_bounds = -np.concatenate((w[:, primed, c].T, w[:, c, primed].T))
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
    """The closed engine-layout weight matrices of the transitional graphs of
    each rule's clauses intersected with the guard's, compiled and closed in
    one batched pass; unsatisfiable rules, among them those with a false
    clause between two constants, are dropped."""
    u = universe(vars, consts, True)
    base, ws = clause_stack(u, [guard], engine=True), clause_stack(u, rules, engine=True)
    np.maximum(ws, base, out=ws)
    return ws[close_seeded(ws, u.eseed)]


# weights closed together by one step of compose_batch: bounds its temporaries
_COMPOSE_CHUNK = 1 << 18


def compose_batch(rules: RuleStack, mws: np.ndarray) -> list[Optional[np.ndarray]]:
    """The engine-layout weights of compose(g, m) for every member m of a
    frontier and every graph g of the stack, member-major: entry
    i * len(rules) + j is member i composed with rule j, None where
    unsatisfiable.  mws holds the closed satisfiable plain members in the
    engine layout as a (k, m, m) stack.

    Pairs where some primed variable's bounds against c0 conflict are
    rejected for the whole frontier at once, before any closure.  The
    survivors are closed together, at most _COMPOSE_CHUNK weights at a time,
    pivoting only over the primed nodes and c0: both operands are closed, so
    a path through an unprimed node collapses into one rule edge, and c0 is
    the one constant node of the layout, which every constant's edges are
    shifts of.  A positive cycle therefore shows on the diagonal after these
    pivots, which is tested once."""
    k, m, r = len(mws), mws.shape[-1], len(rules)
    out: list[Optional[np.ndarray]] = [None] * (k * r)
    if rules._neg_bounds is None:
        idx = np.arange(len(out))
    else:
        probe = mws.reshape(k, m * m).T[rules.probe]
        ok = np.logical_and.reduce(probe[:, :, None] <= rules._neg_bounds[:, None, :], axis=0)
        idx = ok.ravel().nonzero()[0]
    n = rules.w.shape[-1]
    step = max(1, _COMPOSE_CHUNK // max(1, n * n))
    for c in range(0, len(idx), step):
        part = idx[c : c + step]
        member, rule = np.divmod(part, r)
        ws = rules.w.take(rule, axis=0)
        block = ws[:, rules.u.block, rules.u.block]
        np.maximum(block, mws.take(member, axis=0), out=block)
        _close_stack(ws, rules._pivots)
        sat = (ws.diagonal(0, 1, 2) <= 0).all(axis=1)
        proj = ws.reshape(len(ws), n * n)[sat].take(rules._proj, axis=1)
        for t, pw in zip(part[sat].tolist(), proj.reshape(len(proj), m, m)):
            out[t] = pw
    return out
