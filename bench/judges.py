"""Judges computed apart from gapmc.

None of these functions imports gapmc: each answer of a benchmark operation
is checked against a computation made here from the generated inputs alone.

- ``qbf_value``: brute-force truth value of a prenex CNF QBF.
- ``bisimilar``: strong or weak bisimilarity on a finite LTS, as a greatest
  fixpoint over state pairs, with its own tau-saturation for weak mode.
- ``Instance``: a ``gapmc gen-qbf`` instance read from its text files, with
  an explicit backward search for the target over every encoded state
  (control state x boolean assignment), and ``Instance.members`` deciding
  membership of those states in a symbolic set printed as JSON.
"""

from __future__ import annotations

import re
from itertools import product

import numpy as np

# -- QBF ----------------------------------------------------------------------


def qbf_value(prefix, cnf) -> bool:
    """Truth of a prenex QBF: ``prefix`` lists (quantifier, variable) pairs,
    ``cnf`` is a list of clauses, each a list of (variable, positive) literals."""

    def rec(i: int, env: dict) -> bool:
        if i == len(prefix):
            return all(any(env[v] == pos for v, pos in clause) for clause in cnf)
        quant, var = prefix[i]
        branches = (rec(i + 1, {**env, var: b}) for b in (False, True))
        return any(branches) if quant == "E" else all(branches)

    return rec(0, {})


# -- bisimulation -------------------------------------------------------------


def _tau_star(states, transitions, tau):
    """Reflexive-transitive tau reachability, by search from each state."""
    step = {s: set() for s in states}
    for p, a, q in transitions:
        if a == tau:
            step[p].add(q)
    out = {}
    for s in states:
        seen, todo = {s}, [s]
        while todo:
            for q in step[todo.pop()]:
                if q not in seen:
                    seen.add(q)
                    todo.append(q)
        out[s] = seen
    return out


def bisimilar(states, transitions, weak: bool, tau: str = "tau") -> set:
    """All pairs (p, q) of bisimilar states.  Every single step p -a-> p' must
    be answered by q: with q -a-> q' (strong), or in weak mode with
    q =>tau q' for a == tau and q =>tau -a-> =>tau q' otherwise; and
    symmetrically.  Computed as the greatest fixpoint over all pairs."""
    moves = {s: [] for s in states}
    for p, a, q in transitions:
        moves[p].append((a, q))
    answers = {(s, a): set() for s in states for a in {a for _, a, _ in transitions}}
    if weak:
        star = _tau_star(states, transitions, tau)
        for s in states:
            for a in {a for _, a, _ in transitions}:
                if a == tau:
                    answers[s, a] = set(star[s])
                else:
                    answers[s, a] = {
                        t2
                        for t in star[s]
                        for b, u in moves[t]
                        if b == a
                        for t2 in star[u]
                    }
    else:
        for p, a, q in transitions:
            answers[p, a].add(q)
    rel = {(p, q) for p in states for q in states}

    def simulates(p, q):
        return all(
            any((p2, q2) in rel for q2 in answers[q, a]) for a, p2 in moves[p]
        )

    changed = True
    while changed:
        changed = False
        for p, q in sorted(rel):
            if not (simulates(p, q) and simulates(q, p)):
                rel.discard((p, q))
                changed = True
    return rel


# -- gen-qbf instances ----------------------------------------------------------

_CLAUSE = re.compile(r"^\s*\(*\s*(\S+) - (\S+) >= (-?\d+)\s*\)*\s*$")


def _term(text: str):
    return int(text) if re.fullmatch(r"-?\d+", text) else text


def _clauses(body: str):
    out = []
    for part in body.split("&"):
        m = _CLAUSE.match(part)
        if m is None:
            raise ValueError(f"unreadable clause {part!r}")
        out.append((_term(m[1]), _term(m[2]), int(m[3])))
    return out


class Instance:
    """A system, initial valuation and EF target as ``gapmc gen-qbf`` writes
    them.  ``state`` holds the control state in 1..n (n the largest
    constant); every other variable is a boolean in {0, 1}.  ``reach`` is
    True at each encoded state from which a target state is reachable."""

    def __init__(self, system: str, initial: str, target: str):
        header = re.search(r"vars:([^;]*);\s*consts:([^;]*);", system)
        self.vars = [v.strip() for v in header[1].split(",")]
        consts = [int(c) for c in header[2].split(",")]
        self.rules = [
            _clauses(m[1])
            for m in re.finditer(r"^rule \S+ \[\S+\]: (.*);$", system, re.M)
        ]
        if self.vars[0] != "state":
            raise ValueError("expected the control variable first")
        n = max(consts)
        domains = [range(1, n + 1)] + [range(2)] * (len(self.vars) - 1)
        self.vals = np.array(list(product(*domains)), dtype=np.int16)
        self.radix = np.array([n] + [2] * (len(self.vars) - 1))
        self.index_base = np.array([1] + [0] * (len(self.vars) - 1))
        init = dict(
            (k.strip(), int(v)) for k, v in (p.split("=") for p in initial.split(","))
        )
        self.initial = self._index(np.array([[init[x] for x in self.vars]]))[0]
        target = target.strip()
        if not target.startswith("EF"):
            raise ValueError(f"expected an EF target, got {target!r}")
        goal = np.ones(len(self.vals), dtype=bool)
        for left, right, k in _clauses(target[2:].strip()):
            goal &= self._value(left) - self._value(right) >= k
        self.reach = self._backward(goal)

    def _index(self, rows: np.ndarray) -> np.ndarray:
        """Row numbers in ``vals`` of encoded valuations (mixed radix)."""
        out = np.zeros(len(rows), dtype=np.int64)
        for c, r in enumerate(self.radix):
            out = out * r + (rows[:, c] - self.index_base[c])
        return out

    def _value(self, term):
        if isinstance(term, int):
            return term
        return self.vals[:, self.vars.index(term)]

    def _successors(self, rule):
        """(source rows, target rows) of one rule over all encoded states.
        Every primed variable must be pinned to one encoded value."""
        n_rows = len(self.vals)
        ok = np.ones(n_rows, dtype=bool)
        lo = {x: np.full(n_rows, np.iinfo(np.int64).min) for x in self.vars}
        hi = {x: np.full(n_rows, np.iinfo(np.int64).max) for x in self.vars}
        both = []
        for left, right, k in rule:
            lp = isinstance(left, str) and left.endswith("'")
            rp = isinstance(right, str) and right.endswith("'")
            if lp and rp:
                both.append((left, right, k))
            elif lp:  # x' >= right + k
                lo[left[:-1]] = np.maximum(lo[left[:-1]], self._value(right) + k)
            elif rp:  # x' <= left - k
                hi[right[:-1]] = np.minimum(hi[right[:-1]], self._value(left) - k)
            else:
                ok &= self._value(left) - self._value(right) >= k
        for x in self.vars:
            ok &= lo[x] <= hi[x]
        src = ok.nonzero()[0]
        if any((lo[x][src] != hi[x][src]).any() for x in self.vars):
            raise ValueError("a rule leaves a successor value open")
        nxt = np.stack([lo[x][src] for x in self.vars], axis=1)
        keep = np.ones(len(src), dtype=bool)
        for left, right, k in both:
            keep &= (
                nxt[:, self.vars.index(left[:-1])] - nxt[:, self.vars.index(right[:-1])]
                >= k
            )
        src, nxt = src[keep], nxt[keep]
        inside = ((nxt >= self.index_base) & (nxt < self.index_base + self.radix)).all()
        if not inside:
            raise ValueError("a successor leaves the encoded states")
        return src, self._index(nxt)

    def _backward(self, goal: np.ndarray) -> np.ndarray:
        preds = [[] for _ in range(len(self.vals))]
        for rule in self.rules:
            src, dst = self._successors(rule)
            for s, d in zip(src.tolist(), dst.tolist()):
                preds[d].append(s)
        reach = goal.copy()
        todo = goal.nonzero()[0].tolist()
        while todo:
            for p in preds[todo.pop()]:
                if not reach[p]:
                    reach[p] = True
                    todo.append(p)
        return reach

    def members(self, doc) -> np.ndarray:
        """Membership of every encoded state in a JSON union of graphs
        (a list of {"nodes", "edges"}): a valuation is a member of a graph
        when v(from) - v(to) >= weight holds on every edge."""
        if not isinstance(doc, list):
            raise ValueError("a symbolic set is a JSON list")
        out = np.zeros(len(self.vals), dtype=bool)
        columns: dict = {}  # node list -> (node positions, node values per state)
        for graph in doc:
            key = tuple(graph["nodes"])
            if key not in columns:
                cols = np.stack(
                    [np.broadcast_to(self._value(x), len(self.vals)) for x in key], 1
                )
                columns[key] = ({x: i for i, x in enumerate(key)}, cols)
            pos, cols = columns[key]
            edges = graph["edges"]
            w = np.full((len(key), len(key)), -np.inf)
            np.maximum.at(
                w,
                ([pos[e["from"]] for e in edges], [pos[e["to"]] for e in edges]),
                [float(e["weight"]) for e in edges],
            )
            # the states of the control states the graph allows, then every edge
            s = pos["state"]
            consts = np.array([i for i, x in enumerate(key) if isinstance(x, int)])
            values = np.array([key[i] for i in consts])
            lo = (values + w[s, consts]).max(initial=-np.inf)
            hi = (values - w[consts, s]).min(initial=np.inf)
            idx = ((cols[:, s] >= lo) & (cols[:, s] <= hi)).nonzero()[0]
            x = cols[idx]
            hit = (x[:, :, None] - x[:, None, :] >= w).all(axis=(1, 2))
            out[idx[hit]] = True
        return out
