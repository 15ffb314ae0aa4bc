"""Ground truth at desk scale: explicit-state evaluation over finite windows,
window-closedness certificates, a brute-force QBF evaluator and the seeded
differential harness comparing the symbolic engine against explicit search.

On a window-closed system (every rule syntactically confines all successor
values to the window) the explicit graph is the exact sub-LTS, so symbolic
and explicit verdicts must agree on every window state.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product
from typing import Mapping, Optional, Sequence

import numpy as np

from . import logic, sets
from .gcs import Gcs, TransitionRule
from .mg import Clause, is_const, is_primed, prime
from .logic import (
    Atom,
    AndF,
    Diamond,
    Ef,
    Formula,
    NotF,
    OrF,
    TrueF,
    UndecidableFormulaError,
)


@dataclass(frozen=True)
class WindowClosedCertificate:
    ok: bool
    violation: Optional[str] = None


def window_closed(g: Gcs, lo: int, hi: int) -> WindowClosedCertificate:
    """Syntactic check: every rule must pin every primed variable into
    [lo, hi] through explicit constant bounds.  Sound but not complete."""
    for rule in g.rules:
        for x in g.vars:
            xp = prime(x)
            lower = any(
                c.left == xp and is_const(c.right) and c.right + c.k >= lo
                for c in rule.clauses
            )
            upper = any(
                c.right == xp and is_const(c.left) and c.left - c.k <= hi
                for c in rule.clauses
            )
            if not lower:
                return WindowClosedCertificate(
                    False, f"rule {rule.name} does not bound {xp} from below"
                )
            if not upper:
                return WindowClosedCertificate(
                    False, f"rule {rule.name} does not bound {xp} from above"
                )
    return WindowClosedCertificate(True)


class WindowGraph:
    """The step relation restricted to valuations in [lo, hi]^|Var|,
    materialized as boolean adjacency matrices (one per label/guard)."""

    def __init__(self, g: Gcs, lo: int, hi: int, *, max_states: int = 20_000):
        self.gcs = g
        self.lo, self.hi = lo, hi
        span = hi - lo + 1
        n_states = span ** len(g.vars)
        if n_states > max_states:
            raise ValueError(f"window holds {n_states} states, above the cap")
        self.states = [
            dict(zip(g.vars, combo))
            for combo in product(range(lo, hi + 1), repeat=len(g.vars))
        ]
        self.vals = np.array(
            [[s[x] for x in g.vars] for s in self.states], dtype=np.int64
        )
        self.index = {tuple(s[x] for x in g.vars): i for i, s in enumerate(self.states)}
        self._adj_cache: dict = {}

    def state_index(self, v: Mapping[str, int]) -> int:
        key = tuple(v[x] for x in self.gcs.vars)
        if key not in self.index:
            raise ValueError(f"valuation {dict(v)} lies outside the window")
        return self.index[key]

    def _endpoint(self, e):
        """A clause endpoint over (source, target) state pairs, shaped for
        numpy to broadcast: a constant is itself, an unprimed variable runs
        down the source axis and a primed one along the target axis."""
        if is_const(e):
            return e
        if is_primed(e):
            return self.vals[None, :, self.gcs.vars.index(e[:-1])]
        return self.vals[:, None, self.gcs.vars.index(e)]

    def constraint_matrix(self, clauses: Sequence[Clause]) -> np.ndarray:
        """N×N boolean matrix: entry (i, j) iff state_i ⊕ state_j satisfies
        every clause."""
        m = np.ones((len(self.states),) * 2, dtype=bool)
        for c in clauses:
            m &= self._endpoint(c.left) - self._endpoint(c.right) >= c.k
        return m

    def adjacency(
        self,
        actions: Optional[Sequence[str]] = None,
        guard: Sequence[Clause] = (),
    ) -> np.ndarray:
        key = (None if actions is None else tuple(sorted(actions)), tuple(guard))
        cached = self._adj_cache.get(key)
        if cached is not None:
            return cached
        n = len(self.states)
        adj = np.zeros((n, n), dtype=bool)
        acts = None if actions is None else set(actions)
        for rule in self.gcs.rules:
            if acts is not None and rule.label not in acts:
                continue
            adj |= self.constraint_matrix(tuple(rule.clauses) + tuple(guard))
        self._adj_cache[key] = adj
        return adj

    def clause_vector(self, c: Clause) -> np.ndarray:
        if is_primed(c.left) or is_primed(c.right):
            raise ValueError("state formulas cannot mention primed variables")
        return self.constraint_matrix((c,))[:, 0]


def explicit_denote(w: WindowGraph, f: Formula) -> np.ndarray:
    """Textbook finite-state evaluation: boolean vector over window states."""
    if isinstance(f, Atom):
        return w.clause_vector(f.clause)
    if isinstance(f, TrueF):
        return np.ones(len(w.states), dtype=bool)
    if isinstance(f, NotF):
        return ~explicit_denote(w, f.f)
    if isinstance(f, AndF):
        return explicit_denote(w, f.left) & explicit_denote(w, f.right)
    if isinstance(f, OrF):
        return explicit_denote(w, f.left) | explicit_denote(w, f.right)
    if isinstance(f, Diamond):
        adj = w.adjacency((f.action,), f.guard)
        return (adj & explicit_denote(w, f.f)[None, :]).any(axis=1)
    if isinstance(f, Ef):
        adj = w.adjacency(f.actions, f.guard)
        cur = explicit_denote(w, f.f)
        while True:
            nxt = cur | (adj & cur[None, :]).any(axis=1)
            if (nxt == cur).all():
                return cur
            cur = nxt
    if isinstance(f, (logic.Eg, logic.Eu)):
        raise UndecidableFormulaError("EG/EU are rejected before evaluation")
    raise TypeError(f"not a formula: {f!r}")


def explicit_check(w: WindowGraph, v: Mapping[str, int], f: Formula) -> bool:
    return bool(explicit_denote(w, f)[w.state_index(v)])


def qbf_eval(q) -> bool:
    """Brute-force 2^k evaluation of a prenex QBF: the matrix under every
    assignment in one fold, then the quantifiers, the innermost first."""
    if len(q.prefix) > 20:
        raise ValueError("QBF evaluator is capped at 20 variables")
    names = [v for _, v in q.prefix]
    # one row per assignment; the last variable varies fastest, so its two
    # values sit side by side
    rows = np.array(list(product((False, True), repeat=len(names))), dtype=bool)
    values = q.matrix.eval(dict(zip(names, rows.T)))
    for quant, _ in reversed(q.prefix):
        pairs = values.reshape(-1, 2)
        values = pairs.any(axis=1) if quant == "E" else pairs.all(axis=1)
    return bool(values[0])


# -- randomized differential harness ---------------------------------------

_VAR_POOL = ("x", "y", "z")


def random_window_closed_gcs(rng: random.Random, lo: int = 0, hi: int = 4) -> Gcs:
    nvars = rng.randint(1, 3)
    vars = _VAR_POOL[:nvars]
    consts = tuple(sorted({lo, hi} | set(rng.sample(range(lo, hi + 1), rng.randint(0, 2)))))
    acts = ("a", "b")[: rng.randint(1, 2)]
    terms = list(vars) + [prime(x) for x in vars] + list(consts)
    rules = []
    for r in range(rng.randint(1, 4)):
        clauses = []
        for x in vars:
            clauses.append(Clause(prime(x), lo, 0))
            clauses.append(Clause(hi, prime(x), 0))
        for _ in range(rng.randint(0, 3)):
            a, b = rng.sample(terms, 2)
            clauses.append(Clause(a, b, rng.randint(0, 2)))
        rules.append(TransitionRule(f"r{r}", tuple(clauses), rng.choice(acts)))
    return Gcs(vars, consts, acts, tuple(rules))


def random_formula(rng: random.Random, g: Gcs, depth: int = 3) -> Formula:
    terms = list(g.vars) + list(g.consts)
    trans_terms = terms + [prime(x) for x in g.vars]

    def atom() -> Formula:
        a, b = rng.sample(terms, 2) if len(terms) > 1 else (terms[0], terms[0])
        return Atom(Clause(a, b, rng.randint(-3, 3)))

    def trans_guard(positive: bool) -> tuple[Clause, ...]:
        if rng.random() > 0.3:
            return ()
        a, b = rng.sample(trans_terms, 2)
        k = rng.randint(0, 2) if positive else rng.randint(-2, 2)
        return (Clause(a, b, k),)

    def gen(budget: int) -> Formula:
        if budget == 0:
            return atom() if rng.random() < 0.8 else TrueF()
        kind = rng.choices(
            ["atom", "not", "and", "or", "dia", "ef"],
            weights=[3, 2, 2, 2, 3, 3],
        )[0]
        if kind == "atom":
            return atom()
        if kind == "not":
            return NotF(gen(budget - 1))
        if kind == "and":
            return AndF(gen(budget - 1), gen(budget - 1))
        if kind == "or":
            return OrF(gen(budget - 1), gen(budget - 1))
        if kind == "dia":
            return Diamond(rng.choice(g.acts), gen(budget - 1), trans_guard(False))
        actions = None
        if rng.random() < 0.3:
            actions = tuple(sorted(rng.sample(g.acts, rng.randint(1, len(g.acts)))))
        return Ef(gen(budget - 1), trans_guard(True), actions)

    return gen(rng.randint(1, depth))


def differential_run(seed: int, cases: int, *, lo: int = 0, hi: int = 4) -> dict:
    """Generate seeded random window-closed systems and EF formulas, compare
    symbolic membership against explicit evaluation on every window state."""
    rng = random.Random(seed)
    metrics = sets.Metrics()
    mismatches = []
    for case in range(cases):
        g = random_window_closed_gcs(rng, lo, hi)
        cert = window_closed(g, lo, hi)
        if not cert.ok:
            # the explicit side would silently drop steps leaving the window
            raise RuntimeError(f"generated system is not window-closed: {cert.violation}")
        w = WindowGraph(g, lo, hi)
        f = random_formula(rng, g)
        sym = logic.denote(g, f, metrics=metrics).set
        exp = explicit_denote(w, f)
        for i, state in enumerate(w.states):
            if sets.contains(sym, state) != bool(exp[i]):
                mismatches.append(
                    {
                        "case": case,
                        "state": dict(state),
                        "formula": repr(f),
                        "symbolic": sets.contains(sym, state),
                        "explicit": bool(exp[i]),
                    }
                )
    return {
        "seed": seed,
        "cases": cases,
        "mismatches": mismatches,
        "metrics": metrics.as_dict(),
    }
