"""Text and JSON front end: parsers and serializers for systems, formulas,
valuations, finite transition systems, monotonicity graphs, symbolic sets and
quantified boolean formulas.

System files look like::

    gcs {
      vars: x, y;
      consts: 0;
    }
    rule CX [a]: x > x' & x' >= 0 & y = y';
    rule CY [b]: y > y' & x' >= x & y' >= 0;

Clauses are written ``a - b >= k`` with sugar ``a >= b``, ``a > b`` and
``a = b`` (the latter expands to two clauses).  Formulas use ``true``,
``false``, clauses, ``!``, ``&``, ``|``, ``<a>{...}``, ``EF[a,b]{...}``,
``AG``, ``[a]``, ``EG`` and ``E(f U g)``; ``{...}`` carries an optional
transition guard.
"""

from __future__ import annotations

import json
import re
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .bisim import FiniteLts
from .gcs import Gcs, TransitionRule, Valuation
from .logic import (
    AndF,
    Atom,
    Diamond,
    Ef,
    Eg,
    Eu,
    Formula,
    NotF,
    OrF,
    TrueF,
    ag,
    box,
    false_,
)
from .mg import (
    NEG_INF,
    POS_INF,
    Clause,
    MonotonicityGraph,
    Node,
    Universe,
    check_exact,
    is_const,
    is_primed,
)
from .reductions import BAnd, BNot, BOr, BVar, BoolExpr, Qbf
from .sets import SymbolicSet, make_set


class ParseError(ValueError):
    """Input text the parsers cannot make sense of; carries line/column."""

    def __init__(self, message: str, line: int = 0, col: int = 0):
        self.line, self.col = line, col
        where = f" at line {line}, column {col}" if line else ""
        super().__init__(f"{message}{where}")


# -- tokenizer ---------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+|\#[^\n]*)
  | (?P<num>-?\d+)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*'?)
  | (?P<op>->|>=|=|>|<|\{|\}|\(|\)|\[|\]|!|&|\||,|;|:|-)
    """,
    re.VERBOSE,
)


class Token(NamedTuple):
    kind: str  # "num" | "name" | "op" | "eof"
    text: str
    line: int
    col: int


def tokenize(text: str) -> list[Token]:
    out = []
    line, line_start, pos = 1, 0, 0  # line_start: offset of the line's first character
    for m in _TOKEN_RE.finditer(text):
        start = m.start()
        if start != pos:
            break  # the search skipped a character no lexeme starts with
        pos = m.end()
        kind = m.lastgroup
        if kind != "ws":
            out.append(Token(kind, m.group(), line, start - line_start + 1))
            continue
        # only whitespace and comments can hold a newline
        last = text.rfind("\n", start, pos)
        if last >= 0:
            line += text.count("\n", start, pos)
            line_start = last + 1
    if pos != len(text):
        raise ParseError(f"unexpected character {text[pos]!r}", line, pos - line_start + 1)
    out.append(Token("eof", "", line, pos - line_start + 1))
    return out


class _Stream:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.i = 0

    def peek(self) -> Token:
        return self.tokens[self.i]

    def next(self) -> Token:
        t = self.tokens[self.i]
        if t.kind != "eof":
            self.i += 1
        return t

    def accept(self, text: str) -> Optional[Token]:
        t = self.peek()
        if t.text == text and t.kind != "eof":
            return self.next()
        return None

    def expect(self, text: str) -> Token:
        t = self.next()
        if t.text != text:
            raise ParseError(f"expected {text!r}, found {t.text or 'end of input'!r}",
                             t.line, t.col)
        return t

    def fail(self, message: str):
        t = self.peek()
        raise ParseError(message, t.line, t.col)


# -- clauses -----------------------------------------------------------------


def _parse_term(ts: _Stream) -> Node:
    t = ts.next()
    if t.kind == "num":
        return int(t.text)
    if t.kind == "name":
        return t.text
    raise ParseError(f"expected a variable or constant, found {t.text!r}",
                     t.line, t.col)


def _parse_clause_group(ts: _Stream) -> list[Clause]:
    """One comparison, expanded to gap clauses: ``a - b >= k`` verbatim,
    ``a >= b`` (k=0), ``a > b`` (k=1), ``a = b`` (both directions)."""
    left = _parse_term(ts)
    if ts.accept("-"):
        right = _parse_term(ts)
        ts.expect(">=")
        t = ts.next()
        if t.kind != "num":
            raise ParseError(f"expected an integer offset, found {t.text!r}",
                             t.line, t.col)
        return [Clause(left, right, int(t.text))]
    op = ts.next()
    if op.text not in (">=", ">", "="):
        raise ParseError(f"expected a comparison, found {op.text!r}", op.line, op.col)
    right = _parse_term(ts)
    if op.text == ">=":
        return [Clause(left, right, 0)]
    if op.text == ">":
        return [Clause(left, right, 1)]
    return [Clause(left, right, 0), Clause(right, left, 0)]


def _parse_clause_list(ts: _Stream, sep: str = "&") -> list[Clause]:
    clauses = _parse_clause_group(ts)
    while ts.accept(sep):
        clauses += _parse_clause_group(ts)
    return clauses


def parse_clauses(text: str) -> tuple[Clause, ...]:
    """A ``&``-separated clause conjunction, e.g. ``x > y & y >= 0``."""
    ts = _Stream(tokenize(text))
    if ts.peek().kind == "eof":
        return ()
    clauses = _parse_clause_list(ts)
    if ts.peek().kind != "eof":
        ts.fail(f"trailing input {ts.peek().text!r}")
    return tuple(clauses)


def serialize_clause(c: Clause) -> str:
    return f"{c.left} - {c.right} >= {c.k}"


# -- systems -----------------------------------------------------------------


def _token_list(ts: _Stream) -> list[Token]:
    """A comma-separated list of single tokens, as in a header entry."""
    out = [ts.next()]
    while ts.accept(","):
        out.append(ts.next())
    return out


def _once(tokens: list[Token], values: list, what: str) -> tuple:
    """The values of the tokens, one each; a repeated value is refused at
    the token that repeats it."""
    seen = set()
    for t, v in zip(tokens, values):
        if v in seen:
            raise ParseError(f"repeated {what} {t.text!r}", t.line, t.col)
        seen.add(v)
    return tuple(values)


def parse_gcs(text: str) -> Gcs:
    ts = _Stream(tokenize(text))
    ts.expect("gcs")
    ts.expect("{")
    vars: tuple[str, ...] = ()
    consts: tuple[int, ...] = ()
    declared: Optional[tuple[str, ...]] = None
    keys: set[str] = set()
    while not ts.accept("}"):
        key = ts.next()
        if key.text in keys:
            raise ParseError(f"repeated header entry {key.text!r}", key.line, key.col)
        keys.add(key.text)
        ts.expect(":")
        if key.text == "vars":
            names = _token_list(ts)
            for t in names:
                if t.kind != "name" or t.text.endswith("'"):
                    raise ParseError(f"bad variable name {t.text!r}", t.line, t.col)
            vars = _once(names, [t.text for t in names], "variable")
        elif key.text == "consts":
            nums = _token_list(ts)
            for t in nums:
                if t.kind != "num":
                    raise ParseError(f"bad constant {t.text!r}", t.line, t.col)
            consts = _once(nums, [int(t.text) for t in nums], "constant")
        elif key.text == "acts":
            names = _token_list(ts)
            for t in names:
                if t.kind not in ("name", "num"):
                    raise ParseError(f"bad action name {t.text!r}", t.line, t.col)
            declared = _once(names, [t.text for t in names], "action")
        else:
            raise ParseError(f"unknown header entry {key.text!r}", key.line, key.col)
        ts.expect(";")
    rules = []
    acts = []
    while ts.peek().kind != "eof":
        ts.expect("rule")
        name = ts.next()
        if ts.accept("["):
            label = ts.next().text
            ts.expect("]")
        else:
            label = "act"  # unlabeled rules share one implicit action
        ts.expect(":")
        clauses = _parse_clause_list(ts)
        ts.expect(";")
        if label not in acts:
            acts.append(label)
        rules.append(TransitionRule(name.text, tuple(clauses), label))
    # without an acts entry, the actions are the rule labels in order of use
    return Gcs(vars, consts, tuple(acts) if declared is None else declared, tuple(rules))


def serialize_gcs(g: Gcs) -> str:
    """The text form of g; the acts entry is written only when g.acts is not
    what parse_gcs assumes without it, so files without one stay as they were."""
    lines = [
        "gcs {",
        "  vars: " + ", ".join(g.vars) + ";",
        "  consts: " + ", ".join(str(c) for c in g.consts) + ";",
        "}",
    ]
    if g.acts != tuple(dict.fromkeys(r.label for r in g.rules)):
        lines.insert(3, "  acts: " + ", ".join(g.acts) + ";")
    for r in g.rules:
        body = " & ".join(serialize_clause(c) for c in r.clauses)
        lines.append(f"rule {r.name} [{r.label}]: {body};")
    return "\n".join(lines) + "\n"


# -- formulas ----------------------------------------------------------------


def parse_formula(text: str) -> Formula:
    ts = _Stream(tokenize(text))
    try:
        f = _parse_or(ts)
    except RecursionError:  # the descent takes a few frames per nesting level
        raise ParseError("the formula nests too deeply to parse") from None
    if ts.peek().kind != "eof":
        ts.fail(f"trailing input {ts.peek().text!r}")
    return f


def _parse_or(ts: _Stream) -> Formula:
    f = _parse_and(ts)
    while ts.accept("|"):
        f = OrF(f, _parse_and(ts))
    return f


def _parse_and(ts: _Stream) -> Formula:
    f = _parse_unary(ts)
    while ts.accept("&"):
        f = AndF(f, _parse_unary(ts))
    return f


def _parse_guard(ts: _Stream) -> tuple[Clause, ...]:
    if not ts.accept("{"):
        return ()
    if ts.accept("}"):
        return ()
    clauses = _parse_clause_list(ts)
    ts.expect("}")
    return tuple(clauses)


def _parse_action_list(ts: _Stream) -> Optional[tuple[str, ...]]:
    if not ts.accept("["):
        return None
    names = [ts.next().text]
    while ts.accept(","):
        names.append(ts.next().text)
    ts.expect("]")
    return tuple(names)


def _parse_unary(ts: _Stream) -> Formula:
    t = ts.peek()
    if ts.accept("!"):
        return NotF(_parse_unary(ts))
    if ts.accept("<"):
        act = ts.next()
        ts.expect(">")
        guard = _parse_guard(ts)
        return Diamond(act.text, _parse_unary(ts), guard)
    if t.text == "[":
        ts.next()
        act = ts.next()
        ts.expect("]")
        return box(act.text, _parse_unary(ts))
    if t.text == "EF":
        ts.next()
        actions = _parse_action_list(ts)
        guard = _parse_guard(ts)
        return Ef(_parse_unary(ts), guard, actions)
    if t.text == "AG":
        ts.next()
        actions = _parse_action_list(ts)
        guard = _parse_guard(ts)
        return ag(_parse_unary(ts), guard, actions)
    if t.text == "EG":
        ts.next()
        actions = _parse_action_list(ts)
        guard = _parse_guard(ts)
        return Eg(_parse_unary(ts), guard, actions)
    if t.text == "E":
        ts.next()
        ts.expect("(")
        left = _parse_or(ts)
        ts.expect("U")
        right = _parse_or(ts)
        ts.expect(")")
        return Eu(left, right)
    return _parse_primary(ts)


def _parse_primary(ts: _Stream) -> Formula:
    t = ts.peek()
    if ts.accept("true"):
        return TrueF()
    if ts.accept("false"):
        return false_()
    if ts.accept("("):
        f = _parse_or(ts)
        ts.expect(")")
        return f
    if t.kind in ("name", "num"):
        group = _parse_clause_group(ts)
        f: Formula = Atom(group[0])
        for c in group[1:]:
            f = AndF(f, Atom(c))
        return f
    ts.fail(f"expected a formula, found {t.text or 'end of input'!r}")


def serialize_formula(f: Formula) -> str:
    def guard_str(guard: Sequence[Clause]) -> str:
        if not guard:
            return ""
        return "{" + " & ".join(serialize_clause(c) for c in guard) + "}"

    def acts_str(actions: Optional[Sequence[str]]) -> str:
        return "" if actions is None else "[" + ",".join(actions) + "]"

    def go(f: Formula, prec: int) -> str:
        # prec: 0 = or-context, 1 = and-context, 2 = unary argument
        if isinstance(f, TrueF):
            return "true"
        if isinstance(f, Atom):
            s = "(" + serialize_clause(f.clause) + ")"
            return s
        if isinstance(f, NotF):
            return "!" + go(f.f, 2)
        if isinstance(f, Diamond):
            s = f"<{f.action}>{guard_str(f.guard)} " + go(f.f, 2)
            return f"({s})" if prec >= 2 else s
        if isinstance(f, Ef):
            s = f"EF{acts_str(f.actions)}{guard_str(f.guard)} " + go(f.f, 2)
            return f"({s})" if prec >= 2 else s
        if isinstance(f, Eg):
            s = f"EG{acts_str(f.actions)}{guard_str(f.guard)} " + go(f.f, 2)
            return f"({s})" if prec >= 2 else s
        if isinstance(f, Eu):
            return f"E({go(f.left, 0)} U {go(f.right, 0)})"
        if isinstance(f, AndF):
            # the right operand is rendered one level tighter so that the
            # left-associative parse rebuilds the exact tree shape
            s = go(f.left, 1) + " & " + go(f.right, 2)
            return f"({s})" if prec >= 2 else s
        if isinstance(f, OrF):
            s = go(f.left, 0) + " | " + go(f.right, 1)
            return f"({s})" if prec >= 1 else s
        raise TypeError(f"not a formula: {f!r}")

    return go(f, 0)


# -- valuations and finite transition systems --------------------------------


def parse_valuation(text: str) -> Valuation:
    """Comma-separated assignments, e.g. ``x=3, y=0``."""
    out: Valuation = {}
    ts = _Stream(tokenize(text))
    while ts.peek().kind != "eof":
        name = ts.next()
        if name.kind != "name":
            raise ParseError(f"expected a variable, found {name.text!r}",
                             name.line, name.col)
        ts.expect("=")
        val = ts.next()
        if val.kind != "num":
            raise ParseError(f"expected an integer, found {val.text!r}",
                             val.line, val.col)
        if name.text in out:
            raise ParseError(f"{name.text!r} is assigned twice", name.line, name.col)
        out[name.text] = int(val.text)
        if ts.peek().kind != "eof":
            ts.expect(",")
    return out


def serialize_valuation(v: Valuation) -> str:
    return ", ".join(f"{x}={v[x]}" for x in sorted(v))


_LTS_LINE = re.compile(r"^\s*(\w+)\s*-\s*(\w+)\s*->\s*(\w+)\s*$")


def parse_lts(text: str) -> FiniteLts:
    """One transition per line: ``s -a-> t``.  A line holding a single name
    declares an isolated state."""
    states: list[str] = []
    acts: list[str] = []
    transitions = set()
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if re.fullmatch(r"\w+", line):
            if line not in states:
                states.append(line)
            continue
        m = _LTS_LINE.match(line)
        if m is None:
            raise ParseError(f"bad transition line {line!r}", ln, 1)
        s, a, t = m.groups()
        for st in (s, t):
            if st not in states:
                states.append(st)
        if a not in acts:
            acts.append(a)
        transitions.add((s, a, t))
    return FiniteLts(tuple(states), tuple(acts), frozenset(transitions))


def serialize_lts(l: FiniteLts) -> str:
    lines = [f"{s} -{a}-> {t}" for (s, a, t) in sorted(l.transitions)]
    mentioned = {s for (s, _, t) in l.transitions} | {t for (_, _, t) in l.transitions}
    lines += [s for s in l.states if s not in mentioned]
    return "\n".join(lines) + "\n"


# -- JSON for graphs and sets -------------------------------------------------
#
# A graph is {"nodes": [...], "edges": [{"from", "to", "weight"}, ...]} with
# the nodes in canonical order and the edges in row-major order over them; a
# set is an array of its members' graphs.  dump_set is the stable text form.


def _weight_to_json(w: float):
    if w == POS_INF:
        return "+inf"
    return int(w)


def _graphs_json(ws: np.ndarray, u: Universe) -> list[dict]:
    """One JSON graph per matrix of the stack ws over the universe u, with
    the entries above the universe's floor as its edges (Universe.floor)."""
    nodes, out = u.nodes, []
    for w, keep in zip(ws, ws > u.floor):
        i, j = np.nonzero(keep)
        edges = [
            {"from": nodes[a], "to": nodes[b], "weight": _weight_to_json(x)}
            for a, b, x in zip(i.tolist(), j.tolist(), w[keep].tolist())
        ]
        out.append({"nodes": list(nodes), "edges": edges})
    return out


def mg_to_json(m: MonotonicityGraph) -> dict:
    """Nodes plus finite/+inf edges; -inf edges are omitted.  Valid edges
    between two constants and non-positive self-edges carry no information
    and are dropped."""
    return _graphs_json(m.w[None], m.u)[0]


def _json_int(x, what: str) -> int:
    """An integer read from JSON.  A fractional number is refused, not
    truncated; so are booleans and strings, which Python would convert."""
    if isinstance(x, int) and not isinstance(x, bool):
        return x
    if isinstance(x, float) and x.is_integer():
        return int(x)
    raise ParseError(f"bad {what} {x!r}")


def _json_node(x) -> Node:
    return x if isinstance(x, str) else _json_int(x, "graph node")


def mg_from_json(doc: dict) -> MonotonicityGraph:
    if not (isinstance(doc, dict) and isinstance(doc.get("nodes"), list)
            and isinstance(doc.get("edges", []), list)):
        raise ParseError('a graph must be an object with a "nodes" list and an "edges" list')
    nodes = [_json_node(n) for n in doc["nodes"]]
    vars = tuple(n for n in nodes if isinstance(n, str) and not is_primed(n))
    consts = tuple(n for n in nodes if is_const(n))
    transitional = any(is_primed(n) for n in nodes)
    g = MonotonicityGraph(vars, consts, transitional)
    idx = g.u.index
    w = np.full(g.w.shape, NEG_INF)
    for e in doc.get("edges", []):
        if not (isinstance(e, dict) and {"from", "to", "weight"} <= e.keys()):
            raise ParseError(f'an edge must be an object with "from", "to" and "weight": {e!r}')
        x, y = _json_node(e["from"]), _json_node(e["to"])
        if x not in idx or y not in idx:
            raise ParseError(f"edge endpoint {x!r} or {y!r} is not a graph node")
        if e["weight"] == "-inf":
            continue
        if e["weight"] == "+inf":
            wt = POS_INF
        else:
            wt = _json_int(e["weight"], "edge weight")
            check_exact([wt], len(nodes))
        w[idx[x], idx[y]] = max(w[idx[x], idx[y]], wt)
    return g.with_weights(w)


def set_to_json(s: SymbolicSet) -> list:
    return _graphs_json(s.w, s.u)


def set_from_json(
    doc: list,
    vars: Optional[Iterable[str]] = None,
    consts: Optional[Iterable[int]] = None,
) -> SymbolicSet:
    """A symbolic set from a JSON array of graphs; the universe is taken from
    the graphs unless given explicitly (required for the empty set)."""
    if not isinstance(doc, list):
        raise ParseError("a symbolic set must be a JSON array of graphs")
    members = [mg_from_json(d) for d in doc]
    if vars is None or consts is None:
        if not members:
            raise ParseError("an empty set document needs an explicit universe")
        vars, consts = members[0].vars, members[0].consts
    return make_set(vars, consts, members)


def dump_set(s: SymbolicSet) -> str:
    """The text of json.dumps(set_to_json(s), indent=2), written straight
    from the stack: the node list and the head of every (from, to) edge are
    built once, and only the kept weights are formatted one by one."""
    if not len(s.w):
        return "[]"
    nodes = s.u.nodes
    n = len(nodes)
    lits = [json.dumps(x) for x in nodes]
    node_list = '"nodes": [\n      ' + ",\n      ".join(lits) + "\n    ]" if lits else '"nodes": []'
    heads = [
        f'      {{\n        "from": {a},\n        "to": {b},\n        "weight": '
        for a in lits
        for b in lits
    ]
    keep = s.w > s.u.floor
    _, pair = np.nonzero(keep.reshape(len(s.w), n * n))
    edges = [
        heads[k] + ('"+inf"' if x == POS_INF else str(int(x))) + "\n      }"
        for k, x in zip(pair.tolist(), s.w[keep].tolist())
    ]
    members, start = [], 0
    for stop in np.cumsum(keep.sum(axis=(1, 2))).tolist():
        if stop == start:
            edge_list = '"edges": []'
        else:
            edge_list = '"edges": [\n' + ",\n".join(edges[start:stop]) + "\n    ]"
        members.append("  {\n    " + node_list + ",\n    " + edge_list + "\n  }")
        start = stop
    return "[\n" + ",\n".join(members) + "\n]"


# -- QBF text ------------------------------------------------------------------


def parse_qbf(text: str) -> Qbf:
    """Prenex QBF: quantifier prefix, a colon, then a boolean formula over
    ``&``, ``|``, ``!`` and parentheses, e.g. ``A x E y : x | !y``."""
    ts = _Stream(tokenize(text))
    prefix = []
    while ts.peek().text in ("A", "E"):
        q = ts.next().text
        v = ts.next()
        if v.kind != "name":
            raise ParseError(f"expected a variable after {q}, found {v.text!r}",
                             v.line, v.col)
        prefix.append((q, v.text))
    ts.expect(":")
    matrix = _parse_bool_or(ts)
    if ts.peek().kind != "eof":
        ts.fail(f"trailing input {ts.peek().text!r}")
    return Qbf(tuple(prefix), matrix)


def _parse_bool_or(ts: _Stream) -> BoolExpr:
    e = _parse_bool_and(ts)
    while ts.accept("|"):
        e = BOr(e, _parse_bool_and(ts))
    return e


def _parse_bool_and(ts: _Stream) -> BoolExpr:
    e = _parse_bool_atom(ts)
    while ts.accept("&"):
        e = BAnd(e, _parse_bool_atom(ts))
    return e


def _parse_bool_atom(ts: _Stream) -> BoolExpr:
    if ts.accept("!"):
        return BNot(_parse_bool_atom(ts))
    if ts.accept("("):
        e = _parse_bool_or(ts)
        ts.expect(")")
        return e
    t = ts.next()
    if t.kind != "name":
        raise ParseError(f"expected a boolean variable, found {t.text!r}",
                         t.line, t.col)
    return BVar(t.text)


def serialize_qbf(q: Qbf) -> str:
    def go(e: BoolExpr, prec: int) -> str:
        if isinstance(e, BVar):
            return e.name
        if isinstance(e, BNot):
            return "!" + go(e.f, 2)
        if isinstance(e, BAnd):
            # right operand one level tighter: the parser is left-associative
            s = go(e.left, 1) + " & " + go(e.right, 2)
            return f"({s})" if prec >= 2 else s
        if isinstance(e, BOr):
            s = go(e.left, 0) + " | " + go(e.right, 1)
            return f"({s})" if prec >= 1 else s
        raise TypeError(f"not a boolean expression: {e!r}")

    prefix = " ".join(f"{q_} {v}" for q_, v in q.prefix)
    return f"{prefix} : {go(q.matrix, 0)}".strip()
