"""EF-fragment formulas and their bottom-up symbolic evaluation.

Formulas are immutable trees whose atoms are gap clauses.  Denotations are
symbolic sets computed structurally: atoms and ``true`` directly, negation by
complement, conjunction by intersection, ⟨a⟩ by one predecessor step and EF
by the backward-reachability fixpoint.  check answers at the valuation: it
evaluates ¬, ∧ and ∨ above the first modality as booleans, short-circuiting
∧ and ∨, answers each EF there by early-stopping reachability and any other
node by membership in its set, so a subformula that cannot change the
verdict is never denoted.  Each call hash-conses its formula first
(Filliâtre & Conchon, "Type-safe modular hash-consing", 2006), so a
subformula that occurs many times, as in characteristic formulas, is
evaluated once.  EG and E..U nodes exist so that input can be parsed and
rejected with a clear diagnostic: their model checking problem over
gap-order systems is undecidable.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping, Optional

from . import sets
from .gcs import Gcs
from .mg import Clause, RuleStack
from .sets import Metrics, SymbolicSet


class UndecidableFormulaError(ValueError):
    """Raised for EG/EU nodes, whose evaluation problem is undecidable."""


class Formula:
    """Base class; subclasses are frozen dataclasses.  Their equality and
    hash are structural and recurse through every subformula, so evaluation
    does not use them: denote and check intern the formula first."""

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


# the subformula fields of each node type, left to right, and the others
_OPERANDS = {
    Atom: (), TrueF: (), NotF: ("f",), AndF: ("left", "right"), OrF: ("left", "right"),
    Diamond: ("f",), Ef: ("f",), Eg: ("f",), Eu: ("left", "right"),
}
_LEAVES = {t: tuple(k for k in t.__dataclass_fields__ if k not in ops) for t, ops in _OPERANDS.items()}


def _subformulas(f: Formula) -> list[Formula]:
    names = _OPERANDS.get(type(f))
    if names is None:
        raise TypeError(f"not a formula: {f!r}")
    return [getattr(f, k) for k in names]


def postorder(f, children=_subformulas) -> list:
    """The node objects reachable from f through ``children``, each once,
    every node after its children; an explicit stack, so any depth works.
    Every tree walk below the parsers, formulas' and QBFs', is one of these."""
    seen, order, stack = set(), [], [f]
    while stack:
        node = stack.pop()
        if node is None:  # every child of the node below is done
            order.append(stack.pop())
        elif id(node) not in seen:
            seen.add(id(node))
            stack += (node, None)
            stack += reversed(children(node))
    return order


def nesting_depth(f: Formula) -> int:
    """Maximum count of negation/modal operators along any path; the measure
    reported in metrics (one fixed definition, recorded here: every NotF,
    Diamond and Ef node counts one level).  Each node object of the formula
    DAG is visited once: characteristic formulas share subformulas, and are
    far larger as trees."""
    depth: dict[int, int] = {}
    for node in postorder(f):
        below = max([depth[id(c)] for c in _subformulas(node)], default=0)
        depth[id(node)] = below + isinstance(node, (NotF, Diamond, Ef, Eg, Eu))
    return depth[id(f)]


def action_names(f: Formula) -> set[str]:
    """The actions that f names in its modalities and action filters."""
    names: set[str] = set()
    for node in postorder(f):
        if isinstance(node, Diamond):
            names.add(node.action)
        elif isinstance(node, Ef) and node.actions is not None:
            names.update(node.actions)
    return names


@dataclass
class Denotation:
    set: SymbolicSet
    formula: Formula
    metrics: Metrics = field(default_factory=Metrics)


class _Evaluation:
    """One denote or check call of formula f over system g.  f is interned
    into root: structurally equal nodes become one object, so denotations
    are memoised on node identity for the whole call, and each (guard,
    action set) closes its rule stack once.  root refers to every interned
    node, which keeps each id used as a key valid for the call; nothing is
    shared between calls."""

    def __init__(self, g: Gcs, f: Formula, metrics: Optional[Metrics], max_pool):
        self.g, self.max_pool = g, max_pool
        self.metrics = metrics = metrics if metrics is not None else Metrics()
        metrics.saw_system(g)
        self.conj: set[int] = set()  # interned conjunctions of atoms only
        self.stacks: dict[tuple, RuleStack] = {}
        self.memo: dict[int, SymbolicSet] = {}  # id(interned node) -> its set
        self.root = self.intern(f)
        metrics.nesting_depth = max(metrics.nesting_depth, nesting_depth(self.root))

    def intern(self, f: Formula) -> Formula:
        """The interned copy of f; EG and E..U are refused before any work."""
        nodes: dict[tuple, Formula] = {}  # structural key -> interned node
        canon: dict[int, Formula] = {}  # id(node of f) -> interned node
        for node in postorder(f):
            t = type(node)
            if t is Eg or t is Eu:
                raise UndecidableFormulaError(
                    f"{'EG' if t is Eg else 'E..U'} model checking over gap-order "
                    "constraint systems is undecidable; only the EF fragment is supported"
                )
            ops = {k: canon[id(getattr(node, k))] for k in _OPERANDS[t]}
            key = (t, *map(id, ops.values()), *[getattr(node, k) for k in _LEAVES[t]])
            c = nodes.get(key)
            if c is None:
                same = all(v is getattr(node, k) for k, v in ops.items())
                c = nodes[key] = node if same else replace(node, **ops)
                if t is AndF and all(type(x) is Atom or id(x) in self.conj for x in ops.values()):
                    self.conj.add(id(c))
            canon[id(node)] = c
        return canon[id(f)]

    def rules(self, guard, actions) -> RuleStack:
        key = (tuple(guard), None if actions is None else frozenset(actions))
        if key not in self.stacks:
            self.stacks[key] = sets.transitional_graphs(self.g, guard, actions)
        return self.stacks[key]

    def denote(self, f: Formula) -> SymbolicSet:
        """The set of interned f, each node evaluated once in the call,
        operands first; a conjunction of atoms is one graph, closed once, so
        its operands are not evaluated on its behalf."""
        memo = self.memo
        operands = lambda n: () if id(n) in self.conj or id(n) in memo else _subformulas(n)
        for node in postorder(f, operands):
            if id(node) not in memo:
                memo[id(node)] = self._step(node, lambda x: memo[id(x)])
        return memo[id(f)]

    def check(self, f: Formula, v: dict) -> bool:
        """Does v satisfy interned f?  The boolean skeleton above the first
        modality is evaluated at v, left operand first, and ∧/∨ stop at the
        first operand that decides them; an EF whose set is not yet known is
        answered by the early-stopping reaches, any other node by membership
        in its set.  Walks an explicit stack, so any width works."""
        truth: dict[int, bool] = {}
        stack = [f]
        while stack:
            node = stack[-1]
            t = type(node)
            if t is TrueF:
                value = True
            elif t is NotF or (t is AndF or t is OrF) and id(node) not in self.conj:
                first, *rest = _subformulas(node)
                value = truth.get(id(first))
                if value is None:
                    stack.append(first)
                    continue
                if t is NotF:
                    value = not value
                elif value == (t is AndF):  # left does not decide: right does
                    value = truth.get(id(rest[0]))
                    if value is None:
                        stack.append(rest[0])
                        continue
            elif t is Ef and id(node) not in self.memo:
                value = sets.reaches(
                    self.g, v, self.denote(node.f), node.guard, node.actions,
                    metrics=self.metrics, max_pool=self.max_pool,
                    rules=self.rules(node.guard, node.actions),
                )
            else:
                value = sets.contains(self.denote(node), v)
            truth[id(node)] = value
            stack.pop()
        return truth[id(f)]

    def _step(self, f: Formula, d) -> SymbolicSet:
        g = self.g
        if isinstance(f, Atom):
            return sets.atom_set(g.vars, g.consts, [f.clause])
        if id(f) in self.conj:
            return sets.atom_set(g.vars, g.consts, [a.clause for a in postorder(f) if type(a) is Atom])
        if isinstance(f, TrueF):
            return sets.full_set(g.vars, g.consts)
        if isinstance(f, NotF):
            return sets.complement(d(f.f))
        if isinstance(f, AndF):
            return sets.intersect_sets(d(f.left), d(f.right))
        if isinstance(f, OrF):
            return sets.union(d(f.left), d(f.right))
        if isinstance(f, Diamond):
            rules = self.rules(f.guard, (f.action,))
            return sets.pre_action(g, f.action, d(f.f), f.guard, self.metrics, rules=rules)
        # Ef: interning refused EG and E..U, _subformulas any other type
        return sets.pre_star(
            g, d(f.f), f.guard, f.actions, metrics=self.metrics,
            max_pool=self.max_pool, rules=self.rules(f.guard, f.actions),
        )


def denote(
    g: Gcs,
    f: Formula,
    *,
    metrics: Optional[Metrics] = None,
    max_pool: Optional[int] = None,
) -> Denotation:
    """The set of valuations satisfying f, by bottom-up evaluation of its
    structurally distinct subformulas, each once (see _Evaluation)."""
    ev = _Evaluation(g, f, metrics, max_pool)
    return Denotation(ev.denote(ev.root), f, ev.metrics)


def check(
    g: Gcs,
    v: Mapping[str, int],
    f: Formula,
    *,
    metrics: Optional[Metrics] = None,
    max_pool: Optional[int] = None,
) -> bool:
    """Does valuation v satisfy f?  Answered at v (see _Evaluation.check):
    above the first modality ¬ negates and ∧, ∨ short-circuit, each EF there
    is the early-stopping reachability query instead of the full fixpoint,
    and a subformula that does not decide the verdict is not evaluated."""
    sets.check_valuation(g.vars, v)  # before any fixpoint work
    ev = _Evaluation(g, f, metrics, max_pool)
    return ev.check(ev.root, dict(v))
