"""EF-fragment formulas and their bottom-up symbolic evaluation.

Formulas are immutable trees whose atoms are gap clauses.  Denotations are
symbolic sets computed structurally: atoms and ``true`` directly, negation by
complement, conjunction by intersection, ⟨a⟩ by one predecessor step and EF
by the backward-reachability fixpoint.  EG and E..U nodes exist so that input
can be parsed and rejected with a clear diagnostic: their model checking
problem over gap-order systems is undecidable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional

from . import sets
from .gcs import Gcs
from .mg import Clause
from .sets import Metrics, SymbolicSet


class UndecidableFormulaError(ValueError):
    """Raised for EG/EU nodes, whose evaluation problem is undecidable."""


class Formula:
    """Base class; subclasses are frozen dataclasses, hashable for memoization."""

    __slots__ = ()


@dataclass(frozen=True)
class Atom(Formula):
    clause: Clause


@dataclass(frozen=True)
class TrueF(Formula):
    pass


@dataclass(frozen=True)
class NotF(Formula):
    f: Formula


@dataclass(frozen=True)
class AndF(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class OrF(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Diamond(Formula):
    """⟨a⟩f, optionally guarded: the witnessing step must also satisfy the
    transitional guard clauses (these may be non-positive; the guard is
    applied once, not iterated)."""

    action: str
    f: Formula
    guard: tuple[Clause, ...] = ()


@dataclass(frozen=True)
class Ef(Formula):
    """EF f, optionally restricted to an action subset and to steps
    satisfying a positive transitional guard."""

    f: Formula
    guard: tuple[Clause, ...] = ()
    actions: Optional[tuple[str, ...]] = None


@dataclass(frozen=True)
class Eg(Formula):
    f: Formula
    guard: tuple[Clause, ...] = ()
    actions: Optional[tuple[str, ...]] = None


@dataclass(frozen=True)
class Eu(Formula):
    left: Formula
    right: Formula


def false_() -> Formula:
    return NotF(TrueF())


def ag(
    f: Formula,
    guard: tuple[Clause, ...] = (),
    actions: Optional[tuple[str, ...]] = None,
) -> Formula:
    return NotF(Ef(NotF(f), guard, actions))


def box(action: str, f: Formula, guard: tuple[Clause, ...] = ()) -> Formula:
    return NotF(Diamond(action, NotF(f), guard))


def or_all(fs: list[Formula]) -> Formula:
    if not fs:
        return false_()
    out = fs[0]
    for f in fs[1:]:
        out = OrF(out, f)
    return out


def and_all(fs: list[Formula]) -> Formula:
    if not fs:
        return TrueF()
    out = fs[0]
    for f in fs[1:]:
        out = AndF(out, f)
    return out


def nesting_depth(f: Formula) -> int:
    """Maximum count of negation/modal operators along any path; the measure
    reported in metrics (one fixed definition, recorded here: every NotF,
    Diamond and Ef node counts one level).  Each node object of the formula
    DAG is visited once: characteristic formulas share subformulas, and are
    far larger as trees."""
    memo: dict[int, int] = {}

    def depth(f: Formula) -> int:
        d = memo.get(id(f))
        if d is None:
            if isinstance(f, (Atom, TrueF)):
                d = 0
            elif isinstance(f, (AndF, OrF)):
                d = max(depth(f.left), depth(f.right))
            elif isinstance(f, (NotF, Diamond, Ef, Eg)):
                d = 1 + depth(f.f)
            elif isinstance(f, Eu):
                d = 1 + max(depth(f.left), depth(f.right))
            else:
                raise TypeError(f"not a formula: {f!r}")
            memo[id(f)] = d
        return d

    return depth(f)


@dataclass
class Denotation:
    set: SymbolicSet
    formula: Formula
    metrics: Metrics = field(default_factory=Metrics)


def denote(
    g: Gcs,
    f: Formula,
    *,
    metrics: Optional[Metrics] = None,
    max_pool: Optional[int] = None,
) -> Denotation:
    """The set of valuations satisfying f, by structural recursion with
    memoization of structurally equal subformulas."""
    metrics = metrics if metrics is not None else Metrics()
    metrics.nesting_depth = max(metrics.nesting_depth, nesting_depth(f))
    return Denotation(_denote(g, f, {}, metrics, max_pool), f, metrics)


def _atom_clauses(f: Formula) -> Optional[list[Clause]]:
    """The clauses of f if f is a conjunction of atoms, else None."""
    if isinstance(f, Atom):
        return [f.clause]
    if isinstance(f, AndF):
        left = _atom_clauses(f.left)
        right = None if left is None else _atom_clauses(f.right)
        if right is not None:
            return left + right
    return None


def _denote(g, f, memo, metrics, max_pool) -> SymbolicSet:
    hit = memo.get(f)
    if hit is not None:
        return hit
    vars, consts = tuple(sorted(g.vars)), tuple(sorted(g.consts))
    if isinstance(f, Atom):
        result = sets.atom_set(vars, consts, [f.clause])
    elif isinstance(f, TrueF):
        result = sets.full_set(vars, consts)
    elif isinstance(f, NotF):
        result = sets.complement(_denote(g, f.f, memo, metrics, max_pool))
    elif isinstance(f, AndF):
        clauses = _atom_clauses(f)
        if clauses is not None:
            # a conjunction of atoms is one graph, closed once
            result = sets.atom_set(vars, consts, clauses)
        else:
            result = sets.intersect_sets(
                _denote(g, f.left, memo, metrics, max_pool),
                _denote(g, f.right, memo, metrics, max_pool),
            )
    elif isinstance(f, OrF):
        result = sets.union(
            _denote(g, f.left, memo, metrics, max_pool),
            _denote(g, f.right, memo, metrics, max_pool),
        )
    elif isinstance(f, Diamond):
        result = sets.pre_action(
            g, f.action, _denote(g, f.f, memo, metrics, max_pool), f.guard, metrics
        )
    elif isinstance(f, Ef):
        inner = _denote(g, f.f, memo, metrics, max_pool)
        result = sets.pre_star(
            g, inner, f.guard, f.actions, metrics=metrics, max_pool=max_pool
        )
    elif isinstance(f, (Eg, Eu)):
        kind = "EG" if isinstance(f, Eg) else "E..U"
        raise UndecidableFormulaError(
            f"{kind} model checking over gap-order constraint systems is "
            "undecidable; only the EF fragment is supported"
        )
    else:
        raise TypeError(f"not a formula: {f!r}")
    memo[f] = result
    return result


def check(
    g: Gcs,
    v: Mapping[str, int],
    f: Formula,
    *,
    metrics: Optional[Metrics] = None,
    max_pool: Optional[int] = None,
) -> bool:
    """Does valuation v satisfy f?  A top-level EF is answered by the
    early-stopping reachability query instead of the full fixpoint."""
    sets.check_valuation(g.vars, v)  # before any fixpoint work
    metrics = metrics if metrics is not None else Metrics()
    metrics.nesting_depth = max(metrics.nesting_depth, nesting_depth(f))
    if isinstance(f, Ef):
        inner = _denote(g, f.f, {}, metrics, max_pool)
        return sets.reaches(
            g, dict(v), inner, f.guard, f.actions, metrics=metrics, max_pool=max_pool
        )
    return sets.contains(_denote(g, f, {}, metrics, max_pool), dict(v))
