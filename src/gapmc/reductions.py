"""Hardness-instance generator: prenex QBF -> boolean program -> GCS with a
reachability query.

The boolean program evaluates the QBF top down: the run verifies subformula
i between control states eval_i and out_i, deadlocking on failure.  Each
universal quantifier uses a flag variable to force both branches before
returning.  Boolean programs embed directly into gap-order systems: one
``state`` variable pinned to control-state indices, booleans pinned to
{0, 1}, guards compiled to a disjunction of literal conjunctions.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Optional

from .gcs import Gcs, TransitionRule, Valuation
from .logic import Atom, Ef, Formula, Tree, and_all, children, postorder
from .mg import Clause, equal, prime

log = logging.getLogger(__name__)


# -- quantified boolean formulas --------------------------------------------


class BoolExpr(Tree):
    """Base class of QBF matrices.  They are logic trees: equality, hash and
    every walk are logic's (Tree, postorder), so any depth works."""

    __slots__ = ()

    def eval(self, env: dict):
        """The value under env, folded up from the variables.  env maps each
        variable to a bool, 0 or 1, or each to a numpy bool array of its
        values under many assignments, and then the value is such an array."""
        value: dict[int, object] = {}
        for e in postorder(self):
            t = type(e)
            if t is BVar:
                value[id(e)] = env[e.name]
            elif t is BNot:
                value[id(e)] = True ^ value[id(e.f)]  # not, elementwise on arrays
            else:
                left, right = value[id(e.left)], value[id(e.right)]
                value[id(e)] = left & right if t is BAnd else left | right
        return value[id(self)]

    def variables(self) -> set[str]:
        return {e.name for e in postorder(self) if type(e) is BVar}


@dataclass(frozen=True, eq=False)
class BVar(BoolExpr):
    operands = ()
    name: str


@dataclass(frozen=True, eq=False)
class BNot(BoolExpr):
    operands = ("f",)
    f: BoolExpr


@dataclass(frozen=True, eq=False)
class BAnd(BoolExpr):
    operands = ("left", "right")
    left: BoolExpr
    right: BoolExpr


@dataclass(frozen=True, eq=False)
class BOr(BoolExpr):
    operands = ("left", "right")
    left: BoolExpr
    right: BoolExpr


@dataclass(frozen=True)
class Qbf:
    """Prenex form: quantifier prefix over all matrix variables."""

    prefix: tuple[tuple[str, str], ...]  # ("E"|"A", var)
    matrix: BoolExpr

    def __post_init__(self):
        names = [v for _, v in self.prefix]
        twice = sorted({v for v in names if names.count(v) > 1})
        if twice:
            raise ValueError(f"variables {twice} are quantified more than once")
        free = self.matrix.variables() - set(names)
        if free:
            raise ValueError(f"matrix variables {sorted(free)} are not quantified")
        for q, _ in self.prefix:
            if q not in ("E", "A"):
                raise ValueError(f"unknown quantifier {q!r}")


# -- boolean programs --------------------------------------------------------


@dataclass(frozen=True)
class ProgramTransition:
    src: str
    guard: Optional[BoolExpr]  # None = unguarded
    assign: Optional[tuple[str, int]]  # (variable, 0|1); None = no change
    dst: str


@dataclass(frozen=True)
class BooleanProgram:
    states: tuple[str, ...]
    variables: tuple[str, ...]
    transitions: tuple[ProgramTransition, ...]


def program_step(p: BooleanProgram, state: str, env: dict) -> list[tuple[str, dict]]:
    """Explicit semantics, used as a test oracle for the GCS embedding."""
    out = []
    for t in p.transitions:
        if t.src != state:
            continue
        if t.guard is not None and not t.guard.eval(env):
            continue
        env2 = dict(env)
        if t.assign is not None:
            env2[t.assign[0]] = t.assign[1]
        out.append((t.dst, env2))
    return out


def qbf_to_boolean_program(q: Qbf) -> tuple[BooleanProgram, str, str]:
    """The top-down evaluation program; returns (program, start, target).
    The flags are y_1 .. y_{k+1}, or yy_1 ... if the QBF names one of them."""
    k = len(q.prefix)
    states = [f"eval_{i}" for i in range(1, k + 2)] + [f"out_{i}" for i in range(1, k + 2)]
    variables = [v for _, v in q.prefix]
    flag = "y"
    while any(f"{flag}_{i}" in variables for i in range(1, k + 2)):
        flag += "y"
    variables.append(f"{flag}_{k + 1}")
    transitions = [
        ProgramTransition(f"eval_{k + 1}", q.matrix, (f"{flag}_{k + 1}", 1), f"out_{k + 1}")
    ]
    for i, (quant, x) in enumerate(q.prefix, start=1):
        if quant == "E":
            transitions += [
                ProgramTransition(f"eval_{i}", None, (x, 0), f"eval_{i + 1}"),
                ProgramTransition(f"eval_{i}", None, (x, 1), f"eval_{i + 1}"),
                ProgramTransition(f"out_{i + 1}", None, None, f"out_{i}"),
            ]
        else:
            y = f"{flag}_{i}"
            variables.append(y)
            transitions += [
                # the flag selects the branch: both values must be verified in
                # order before the exit below unlocks
                ProgramTransition(f"eval_{i}", BNot(BVar(y)), (x, 0), f"eval_{i + 1}"),
                ProgramTransition(f"eval_{i}", BVar(y), (x, 1), f"eval_{i + 1}"),
                ProgramTransition(f"out_{i + 1}", BNot(BVar(y)), (y, 1), f"eval_{i}"),
                ProgramTransition(f"out_{i + 1}", BVar(y), (y, 0), f"out_{i}"),
            ]
    return (
        BooleanProgram(tuple(states), tuple(variables), tuple(transitions)),
        "eval_1",
        "out_1",
    )


def _dnf(e: BoolExpr) -> list[dict]:
    """Disjunctive normal form as a list of partial assignments (literal
    conjunctions), folded over the (node, negated) pairs below e: ! flips
    the polarity, under which & and | swap (De Morgan).  Contradictory
    conjunctions are dropped."""
    below = lambda p: [(p[0].f, not p[1])] if type(p[0]) is BNot else [(c, p[1]) for c in children(p[0])]
    # each pair is made anew, so postorder yields one per occurrence, in the
    # order of the tree: the operands' forms are the top of the stack
    forms: list[list[dict]] = []
    for node, negate in postorder((e, False), below):
        t = type(node)
        if t is BVar:
            forms.append([{node.name: 0 if negate else 1}])
        elif t is not BNot:  # a negation's form is its operand's
            right, left = forms.pop(), forms.pop()
            if (t is BAnd) == negate:  # a disjunction
                forms.append(left + right)
            else:
                forms.append([{**a, **b} for a in left for b in right
                              if all(a.get(x, v) == v for x, v in b.items())])
    return forms[0]


def _guard_disjuncts(guard: Optional[BoolExpr]) -> list[dict]:
    """Guard as a small disjunction of literal conjunctions: syntactic DNF
    with duplicates and absorbed (strictly weaker) disjuncts removed, sorted
    by their items.  Each disjunct is the frozenset of its literals, and d
    implies o iff o <= d; shortest first, a kept disjunct is never absorbed
    by a later one, which is as long or longer."""
    if guard is None:
        return [{}]
    kept: list[frozenset] = []
    for d in sorted({frozenset(d.items()) for d in _dnf(guard)}, key=len):
        if not any(map(d.issuperset, kept)):
            kept.append(d)
    return [dict(d) for d in sorted(map(sorted, kept))]


def boolean_program_to_gcs(
    p: BooleanProgram, start: str, target: str
) -> tuple[Gcs, Valuation, Formula]:
    """Embed the program into a GCS: ``state`` (``state_`` ... if the program
    names it) carries the control state index, every boolean variable is
    framed or reassigned each step, and all successor values are explicitly
    bounded so the result is window-closed over [0, number of control states]."""
    index = {s: i + 1 for i, s in enumerate(p.states)}
    n = len(p.states)
    consts = tuple(sorted({0, 1} | set(range(1, n + 1))))
    control = "state"
    while control in p.variables:
        control += "_"
    # clauses shared by many rules are built once
    frame = {x: equal(prime(x), x) for x in p.variables}
    # explicit window bounds for the syntactic closedness certificate
    window = tuple(
        c
        for x in (control,) + p.variables
        for c in (Clause(prime(x), 0, 0), Clause(n, prime(x), 0))
    )
    rules = []
    for ti, t in enumerate(p.transitions):
        disjuncts = _guard_disjuncts(t.guard)
        if not disjuncts:
            log.debug("transition %s -> %s has an unsatisfiable guard; dropped",
                      t.src, t.dst)
        step = equal(control, index[t.src]) + equal(prime(control), index[t.dst])
        pins = dict(frame)
        if t.assign is not None and t.assign[0] in pins:
            x, b = t.assign
            pins[x] = equal(prime(x), b)
        updates = tuple(c for x in p.variables for c in pins[x])
        for di, env in enumerate(disjuncts):
            literals = tuple(
                Clause(x, 1, 0) if b else Clause(0, x, 0) for x, b in sorted(env.items())
            )
            rules.append(
                TransitionRule(f"t{ti}_{di}", step + literals + updates + window, "step")
            )
    g = Gcs((control,) + p.variables, consts, ("step",), tuple(rules))
    initial: Valuation = {control: index[start], **{x: 0 for x in p.variables}}
    return g, initial, Ef(and_all([Atom(c) for c in equal(control, index[target])]))


def qbf_to_gcs(q: Qbf) -> tuple[Gcs, Valuation, Formula]:
    """End to end: the QBF is true iff the target formula holds initially."""
    program, start, target = qbf_to_boolean_program(q)
    return boolean_program_to_gcs(program, start, target)
