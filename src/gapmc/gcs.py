"""Gap-order constraint systems: definition, validation and concrete stepping.

A system is a finite set of labeled transition rules, each a positive
transitional gap constraint relating current (unprimed) and next (primed)
variable values.  States are total integer valuations; the step relation is
infinitely branching, so explicit enumeration is only offered truncated to a
finite window.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Mapping

from .mg import Clause, equal, is_const, prime

Valuation = dict[str, int]


@dataclass(frozen=True)
class TransitionRule:
    name: str
    clauses: tuple[Clause, ...]
    label: str


@dataclass(frozen=True)
class Gcs:
    vars: tuple[str, ...]
    consts: tuple[int, ...]
    acts: tuple[str, ...]
    rules: tuple[TransitionRule, ...]


def combine(v: Mapping[str, int], v2: Mapping[str, int]) -> Valuation:
    """The combined valuation over Var ∪ Var': unprimed from v, primed from v2."""
    out = dict(v)
    for x, val in v2.items():
        out[prime(x)] = val
    return out


def clause_holds(c: Clause, v: Mapping[str, int]) -> bool:
    left = c.left if is_const(c.left) else v[c.left]
    right = c.right if is_const(c.right) else v[c.right]
    return left - right >= c.k


def validate(g: Gcs) -> list[str]:
    """Invariant diagnostics, each once per rule; an empty list means the
    system is well-formed."""
    diags = []
    symbols = set(g.vars) | {prime(x) for x in g.vars} | set(g.consts)
    for rule in g.rules:
        found = [] if rule.label in g.acts else [f"label {rule.label!r} is not a declared action"]
        for c in dict.fromkeys(rule.clauses):  # a repeated clause finds nothing new
            if c.k < 0:
                found.append(f"clause {c.left}-{c.right}>={c.k} is not positive")
            if c.left not in symbols:
                found.append(f"unknown symbol {c.left!r}")
            if c.right not in symbols:
                found.append(f"unknown symbol {c.right!r}")
        diags += [f"rule {rule.name}: {d}" for d in dict.fromkeys(found)]
    return diags


def step(g: Gcs, v: Mapping[str, int], v2: Mapping[str, int]) -> set[str]:
    """All action labels under which v can move to v2 in one step."""
    both = combine(v, v2)
    return {
        rule.label
        for rule in g.rules
        if all(clause_holds(c, both) for c in rule.clauses)
    }


def successors_in_window(
    g: Gcs, v: Mapping[str, int], lo: int, hi: int, *, max_enumeration: int = 200_000
) -> list[tuple[str, Valuation]]:
    """All one-step successors whose components all lie in [lo, hi], in
    lexicographic order of the target valuation (by declared variable order),
    with actions sorted within each target."""
    if lo > hi:
        raise ValueError("window lower bound exceeds upper bound")
    span = hi - lo + 1
    if span ** len(g.vars) > max_enumeration:
        raise ValueError("window too large to enumerate")
    out = []
    for combo in product(range(lo, hi + 1), repeat=len(g.vars)):
        v2 = dict(zip(g.vars, combo))
        for a in sorted(step(g, v, v2)):
            out.append((a, v2))
    return out


def encode_finite_lts(l) -> Gcs:
    """A finite LTS as a GCS over one variable ``state`` pinned to the state
    indices 1..n; valuation {state: i} is strongly bisimilar to the i-th state."""
    if not l.states:
        raise ValueError("cannot encode an empty LTS")
    index = {s: i + 1 for i, s in enumerate(l.states)}
    n = len(l.states)
    rules = []
    for i, (src, a, dst) in enumerate(sorted(l.transitions, key=str)):
        clauses = equal("state", index[src]) + equal(prime("state"), index[dst])
        rules.append(TransitionRule(f"t{i}_{src}_{a}_{dst}", clauses, a))
    return Gcs(("state",), tuple(range(1, n + 1)), tuple(l.acts), tuple(rules))
