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
    """The tokens of one text; every positioned error is raised from here."""

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
            self.fail(f"expected {text!r}, found {t.text or 'end of input'!r}", t)
        return t

    def take(self, kinds: tuple[str, ...], what: str) -> Token:
        """The next token, which must be of one of the given kinds."""
        t = self.tokens[self.i]
        if t.kind not in kinds:
            self.fail(f"expected {what}, found {t.text!r}", t)
        self.i += 1  # no kind asked for is "eof"
        return t

    def end(self) -> None:
        if self.peek().kind != "eof":
            self.fail(f"trailing input {self.peek().text!r}")

    def fail(self, message: str, at: Optional[Token] = None):
        t = self.peek() if at is None else at
        raise ParseError(message, t.line, t.col)


# -- clauses -----------------------------------------------------------------


def _parse_term(ts: _Stream) -> Node:
    t = ts.take(("num", "name"), "a variable or constant")
    return int(t.text) if t.kind == "num" else t.text


def _parse_clause_group(ts: _Stream) -> list[Clause]:
    """One comparison, expanded to gap clauses: ``a - b >= k`` verbatim,
    ``a >= b`` (k=0), ``a > b`` (k=1), ``a = b`` (both directions)."""
    left = _parse_term(ts)
    if ts.accept("-"):
        right = _parse_term(ts)
        ts.expect(">=")
        return [Clause(left, right, int(ts.take(("num",), "an integer offset").text))]
    op = ts.next()
    if op.text not in (">=", ">", "="):
        ts.fail(f"expected a comparison, found {op.text!r}", op)
    right = _parse_term(ts)
    if op.text == ">=":
        return [Clause(left, right, 0)]
    if op.text == ">":
        return [Clause(left, right, 1)]
    return [Clause(left, right, 0), Clause(right, left, 0)]


def _parse_clause_list(ts: _Stream) -> list[Clause]:
    clauses = _parse_clause_group(ts)
    while ts.accept("&"):
        clauses += _parse_clause_group(ts)
    return clauses


def parse_clauses(text: str) -> tuple[Clause, ...]:
    """A ``&``-separated clause conjunction, e.g. ``x > y & y >= 0``."""
    ts = _Stream(tokenize(text))
    if ts.peek().kind == "eof":
        return ()
    clauses = _parse_clause_list(ts)
    ts.end()
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


# header entry -> (does a token qualify, the value it gives, the noun for a bad
# token, the noun for a repeated value)
_HEADER = {
    "vars": (lambda t: t.kind == "name" and not t.text.endswith("'"), str,
             "variable name", "variable"),
    "consts": (lambda t: t.kind == "num", int, "constant", "constant"),
    "acts": (lambda t: t.kind in ("name", "num"), str, "action name", "action"),
}


def parse_gcs(text: str) -> Gcs:
    ts = _Stream(tokenize(text))
    ts.expect("gcs")
    ts.expect("{")
    header: dict[str, tuple] = {}
    while not ts.accept("}"):
        key = ts.next()
        if key.text in header:
            ts.fail(f"repeated header entry {key.text!r}", key)
        ts.expect(":")
        if key.text not in _HEADER:
            ts.fail(f"unknown header entry {key.text!r}", key)
        good, value, bad, noun = _HEADER[key.text]
        tokens = _token_list(ts)
        for t in tokens:  # every token's kind first, then repeats
            if not good(t):
                ts.fail(f"bad {bad} {t.text!r}", t)
        values = [value(t.text) for t in tokens]
        seen = set()
        for t, v in zip(tokens, values):
            if v in seen:
                ts.fail(f"repeated {noun} {t.text!r}", t)
            seen.add(v)
        header[key.text] = tuple(values)
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
    return Gcs(header.get("vars", ()), header.get("consts", ()),
               header.get("acts", tuple(acts)), tuple(rules))


def serialize_gcs(g: Gcs) -> str:
    """The text form of g.  An empty entry is not written, since parse_gcs
    reads a missing vars or consts entry as empty; the acts entry is written
    only when g.acts is not what parse_gcs assumes without it, so files
    without one stay as they were."""
    entries = [("vars", g.vars), ("consts", g.consts)]
    if g.acts != tuple(dict.fromkeys(r.label for r in g.rules)):
        entries.append(("acts", g.acts))
    lines = ["gcs {"]
    lines += [f"  {key}: {', '.join(map(str, values))};" for key, values in entries if values]
    lines.append("}")
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
    ts.end()
    return f


def _left_fold(operand, op: str, make):
    """The parser of ``operand (op operand)*``, built up from the left.  It
    calls operand directly, so each precedence level adds one frame per
    nesting level, which bounds how deep a text can nest before the
    RecursionError that parse_formula reports."""

    def parse(ts: _Stream):
        x = operand(ts)
        while ts.accept(op):
            x = make(x, operand(ts))
        return x

    return parse


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
    names = tuple(t.text for t in _token_list(ts))
    ts.expect("]")
    return names


# EF, AG and EG each take an optional [actions] list, then an optional
# {guard}, then their operand
_PATH_OPERATORS = {"EF": Ef, "AG": ag, "EG": Eg}


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
    if t.text in _PATH_OPERATORS:
        ts.next()
        actions = _parse_action_list(ts)
        guard = _parse_guard(ts)
        return _PATH_OPERATORS[t.text](_parse_unary(ts), guard, actions)
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


_parse_and = _left_fold(_parse_unary, "&", AndF)
_parse_or = _left_fold(_parse_and, "|", OrF)


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
        if isinstance(f, (Ef, Eg)):
            head = "EF" if isinstance(f, Ef) else "EG"
            s = f"{head}{acts_str(f.actions)}{guard_str(f.guard)} " + go(f.f, 2)
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
        name = ts.take(("name",), "a variable")
        ts.expect("=")
        val = ts.take(("num",), "an integer")
        if name.text in out:
            ts.fail(f"{name.text!r} is assigned twice", name)
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


def mg_to_json(m: MonotonicityGraph) -> dict:
    """Nodes plus finite/+inf edges; -inf edges are omitted.  Valid edges
    between two constants and non-positive self-edges carry no information
    and are dropped."""
    return json.loads(_dump(m.w[None], m.u))[0]


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
    return json.loads(_dump(s.w, s.u))


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
    """The stable text form of s: its members' graph JSON, indented by 2."""
    return _dump(s.w, s.u)


def _dump(ws: np.ndarray, u: Universe) -> str:
    """The JSON text, indented by 2, of one graph per matrix of the stack ws
    over the universe u, with the entries above the universe's floor as its
    edges (Universe.floor).  It is written straight from the stack: the node
    list and the head of every (from, to) edge are built once, and only the
    kept weights are formatted one by one."""
    if not len(ws):
        return "[]"
    nodes = u.nodes
    n = len(nodes)
    lits = [json.dumps(x) for x in nodes]
    node_list = '"nodes": [\n      ' + ",\n      ".join(lits) + "\n    ]" if lits else '"nodes": []'
    heads = [
        f'      {{\n        "from": {a},\n        "to": {b},\n        "weight": '
        for a in lits
        for b in lits
    ]
    keep = ws > u.floor
    _, pair = np.nonzero(keep.reshape(len(ws), n * n))
    edges = [
        heads[k] + ('"+inf"' if x == POS_INF else str(int(x))) + "\n      }"
        for k, x in zip(pair.tolist(), ws[keep].tolist())
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
        prefix.append((q, ts.take(("name",), f"a variable after {q}").text))
    ts.expect(":")
    matrix = _parse_bool_or(ts)
    ts.end()
    return Qbf(tuple(prefix), matrix)


def _parse_bool_atom(ts: _Stream) -> BoolExpr:
    if ts.accept("!"):
        return BNot(_parse_bool_atom(ts))
    if ts.accept("("):
        e = _parse_bool_or(ts)
        ts.expect(")")
        return e
    return BVar(ts.take(("name",), "a boolean variable").text)


_parse_bool_and = _left_fold(_parse_bool_atom, "&", BAnd)
_parse_bool_or = _left_fold(_parse_bool_and, "|", BOr)


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
