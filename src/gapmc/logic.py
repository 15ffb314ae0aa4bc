"""EF-fragment formulas and their bottom-up symbolic evaluation.

Formulas are immutable trees whose atoms are gap clauses.  Denotations are
symbolic sets computed structurally: atoms and ``true`` directly, negation by
complement, conjunction by intersection, ⟨a⟩ by one predecessor step and EF
by the backward-reachability fixpoint.  check answers at the valuation: it
evaluates ¬, ∧ and ∨ above the first modality as booleans, short-circuiting
∧ and ∨, answers each EF there by early-stopping reachability and any other
node by membership in its set, so a subformula that cannot change the
verdict is never denoted.  Each call first numbers its formula's nodes by
structure, as hash-consing does (Filliâtre & Conchon, "Type-safe modular
hash-consing", 2006) but without building a node, so a subformula that
occurs many times, as in characteristic formulas, is one class, evaluated
once.  EG and E..U nodes exist so that input can be parsed and
rejected with a clear diagnostic: their model checking problem over
gap-order systems is undecidable.

Formulas, like the QBF matrices of reductions, are Trees: they share one
structural equality, hash and numbering (_classes), and one walk (postorder).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from typing import Mapping, Optional

from . import sets
from .gcs import Gcs
from .mg import Clause, RuleStack
from .sets import Metrics, SymbolicSet


class UndecidableFormulaError(ValueError):
    """Raised for EG/EU nodes, whose evaluation problem is undecidable."""


class Tree:
    """Base class of every tree the package builds: the formulas below and
    the QBF matrices of reductions.  Its subclasses are frozen dataclasses,
    and each node type names its subtree fields, left to right, in the class
    attribute ``operands``, which is not a field.  Equality and hash are
    structural: they compare the key sequences of _classes, one walk with an
    explicit stack, so they take no recursion at any depth or width."""

    __slots__ = ()

    def __eq__(self, other):
        if not isinstance(other, Tree):
            return NotImplemented
        return self is other or list(_classes(self)[0]) == list(_classes(other)[0])

    def __hash__(self):
        return hash(tuple(_classes(self)[0]))


class Formula(Tree):
    """Base class of the EF formulas."""

    __slots__ = ()


@dataclass(frozen=True, eq=False)
class Atom(Formula):
    operands = ()
    clause: Clause


@dataclass(frozen=True, eq=False)
class TrueF(Formula):
    operands = ()


@dataclass(frozen=True, eq=False)
class NotF(Formula):
    operands = ("f",)
    f: Formula


@dataclass(frozen=True, eq=False)
class AndF(Formula):
    operands = ("left", "right")
    left: Formula
    right: Formula


@dataclass(frozen=True, eq=False)
class OrF(Formula):
    operands = ("left", "right")
    left: Formula
    right: Formula


@dataclass(frozen=True, eq=False)
class Diamond(Formula):
    """⟨a⟩f, optionally guarded: the witnessing step must also satisfy the
    transitional guard clauses (these may be non-positive; the guard is
    applied once, not iterated)."""

    operands = ("f",)
    action: str
    f: Formula
    guard: tuple[Clause, ...] = ()


@dataclass(frozen=True, eq=False)
class Ef(Formula):
    """EF f, optionally restricted to an action subset and to steps
    satisfying a positive transitional guard."""

    operands = ("f",)
    f: Formula
    guard: tuple[Clause, ...] = ()
    actions: Optional[tuple[str, ...]] = None


@dataclass(frozen=True, eq=False)
class Eg(Formula):
    operands = ("f",)
    f: Formula
    guard: tuple[Clause, ...] = ()
    actions: Optional[tuple[str, ...]] = None


@dataclass(frozen=True, eq=False)
class Eu(Formula):
    operands = ("left", "right")
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
    return reduce(OrF, fs) if fs else false_()


def and_all(fs: list[Formula]) -> Formula:
    return reduce(AndF, fs) if fs else TrueF()


# the types that count one level of nesting depth
_LEVELS = (NotF, Diamond, Ef, Eg, Eu)


def children(t: Tree) -> list[Tree]:
    """The subtrees of the node t, left to right."""
    if not isinstance(t, Tree):
        raise TypeError(f"not a tree: {t!r}")
    return [getattr(t, k) for k in t.operands]


def postorder(f, children=children) -> list:
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


def _classes(f: Tree) -> tuple[dict[tuple, int], dict[int, int], list[int]]:
    """f's nodes numbered by structure in one walk: a node's key is its type,
    its operands' classes and its other fields; each distinct key is a class,
    numbered operands first, so f's class is last.  Returns key -> class
    in that order, id(node) -> class for every node object of f and each
    class's nesting depth.  No node is built; the ids hold while f lives."""
    keys, of, depth, leaves = {}, {}, [], {}  # leaves: type -> its other fields
    for node in postorder(f):
        t = type(node)
        if t not in leaves:
            leaves[t] = [k for k in t.__dataclass_fields__ if k not in t.operands]
        ops = [of[id(getattr(node, k))] for k in t.operands]
        c = of[id(node)] = keys.setdefault((t, *ops, *[getattr(node, k) for k in leaves[t]]), len(keys))
        if c == len(depth):
            depth.append(max([depth[o] for o in ops], default=0) + (t in _LEVELS))
    return keys, of, depth


def nesting_depth(f: Formula) -> int:
    """Maximum count of negation/modal operators along any path; the measure
    reported in metrics (one fixed definition, recorded here: every NotF,
    Diamond, Ef, Eg and Eu node counts one level), read from _classes: each
    node object is visited once, and shared DAGs are far larger as trees."""
    return _classes(f)[2][-1]


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
    """One denote or check call of formula f over system g.  The nodes of f
    are numbered by structure (_classes), so denotations are memoised per
    class for the whole call, and each (guard, action set) closes its rule
    stack once.  The caller holds f for the call, which keeps each id in the
    numbering valid; nothing is shared between calls.  EG, E..U and other
    trees' nodes are refused from the numbering, before any set work."""

    def __init__(self, g: Gcs, f: Formula, metrics: Optional[Metrics], max_pool):
        self.g, self.max_pool = g, max_pool
        self.metrics = metrics = metrics if metrics is not None else Metrics()
        metrics.saw_system(g)
        keys, self.cls, depth = _classes(f)  # id(node of f) -> its class
        self.conj: set[int] = set()  # classes of atoms and of conjunctions of atoms only
        for c, (t, *ops) in enumerate(keys):
            if not issubclass(t, Formula):
                raise TypeError(f"not a formula: a {t.__name__} node")
            if t is Eg or t is Eu:
                raise UndecidableFormulaError(
                    f"{'EG' if t is Eg else 'E..U'} model checking over gap-order "
                    "constraint systems is undecidable; only the EF fragment is supported"
                )
            if t is Atom or t is AndF and ops[0] in self.conj and ops[1] in self.conj:
                self.conj.add(c)
        self.stacks: dict[tuple, RuleStack] = {}
        self.memo: dict[int, SymbolicSet] = {}  # class -> its set
        metrics.nesting_depth = max(metrics.nesting_depth, depth[-1])

    def rules(self, guard, actions) -> RuleStack:
        key = (tuple(guard), None if actions is None else frozenset(actions))
        if key not in self.stacks:
            self.stacks[key] = sets.transitional_graphs(self.g, guard, actions)
        return self.stacks[key]

    def denote(self, f: Formula) -> SymbolicSet:
        """The set of the node f of the call's formula, each class evaluated
        once in the call, operands first; a conjunction of atoms is one
        graph, closed once, so its operands are not evaluated on its behalf."""
        memo, cls = self.memo, self.cls
        operands = lambda n: () if cls[id(n)] in self.conj or cls[id(n)] in memo else children(n)
        for node in postorder(f, operands):
            if cls[id(node)] not in memo:
                memo[cls[id(node)]] = self._step(node, lambda x: memo[cls[id(x)]])
        return memo[cls[id(f)]]

    def check(self, f: Formula, v: dict) -> bool:
        """Does v satisfy the node f of the call's formula?  The boolean
        skeleton above the first modality is evaluated at v, left operand
        first, and ∧/∨ stop at the first operand that decides them; an EF
        whose class has no set yet is answered by the early-stopping
        reaches, any other node by membership in its set.  Walks an explicit
        stack, so any width works."""
        truth: dict[int, bool] = {}  # class -> its value at v
        cls, stack = self.cls, [f]
        while stack:
            node = stack[-1]
            t, c = type(node), cls[id(node)]
            if t is TrueF:
                value = True
            elif t is NotF or (t is AndF or t is OrF) and c not in self.conj:
                first, *rest = children(node)
                value = truth.get(cls[id(first)])
                if value is None:
                    stack.append(first)
                    continue
                if t is NotF:
                    value = not value
                elif value == (t is AndF):  # left does not decide: right does
                    value = truth.get(cls[id(rest[0])])
                    if value is None:
                        stack.append(rest[0])
                        continue
            elif t is Ef and c not in self.memo:
                value = sets.reaches(
                    self.g, v, self.denote(node.f), node.guard, node.actions,
                    metrics=self.metrics, max_pool=self.max_pool,
                    rules=self.rules(node.guard, node.actions),
                )
            else:
                value = sets.contains(self.denote(node), v)
            truth[c] = value
            stack.pop()
        return truth[cls[id(f)]]

    def _step(self, f: Formula, d) -> SymbolicSet:
        g = self.g
        if self.cls[id(f)] in self.conj:
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
        # Ef: the numbering refused EG, E..U and every non-formula type
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
    return Denotation(ev.denote(f), f, ev.metrics)


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
    return ev.check(f, dict(v))
