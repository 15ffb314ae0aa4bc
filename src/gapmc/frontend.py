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

parse_gcs reads a system text without comments, whose header parses and
whose rule bodies are ``&``-separated clause groups, with one pattern match
per distinct group text (_parse_plain_gcs); only the header is lexed token
by token.  Any other text, every malformed one included, goes whole to the
token parser, which raises each ParseError with its line and column.
"""

from __future__ import annotations

import json
import re
from functools import reduce
from itertools import chain, filterfalse
from typing import Iterable, NamedTuple, Optional

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
    equal,
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

# One lexeme, the alternatives tried in this order: whitespace or a comment,
# a number, a name, an operator.  A token's kind is read back from its first
# characters with the same classes (\s is str.isspace, \d str.isdecimal).
_NUM = r"-?\d+"
_NAME = r"[A-Za-z_][A-Za-z_0-9]*'?"
_LEXEME = re.compile(r"\s+|#[^\n]*|" + _NUM + "|" + _NAME + r"|->|>=|[=><{}()\[\]!&|,;:-]")


class Token(NamedTuple):
    kind: str  # "num" | "name" | "op" | "eof"
    text: str
    line: int
    col: int


def _kind(text: str) -> str:
    c = text[:1]
    if c.isdecimal() or (c == "-" and text[1:2].isdecimal()):
        return "num"
    if "a" <= c <= "z" or "A" <= c <= "Z" or c == "_":
        return "name"
    return "op" if c else "eof"


def tokenize(text: str) -> list[Token]:
    """Every token with its kind, line and column, then an "eof" token."""
    ts = _Stream(text)
    return [Token(ts.kind[t], t, *at) for t, at in zip(ts.tokens, ts.positions())]


class _Stream:
    """The tokens of one text, lexed in one findall, as strings ending in ""
    for the end of input, and the kind of each.  Every positioned error is
    raised from here; lines and columns are worked out only then."""

    def __init__(self, text: str):
        self.lexemes = _LEXEME.findall(text)
        if sum(map(len, self.lexemes)) != len(text):  # findall skipped a character
            pos = 0
            while m := _LEXEME.match(text, pos):
                pos = m.end()
            line = text.count("\n", 0, pos) + 1
            raise ParseError(f"unexpected character {text[pos]!r}", line, pos - text.rfind("\n", 0, pos))
        self.tokens = [t for t in filterfalse(str.isspace, self.lexemes) if t[0] != "#"] + [""]
        self.kind = {t: _kind(t) for t in set(self.tokens)}
        self.i = 0

    def positions(self) -> list[tuple[int, int]]:
        """The line and column of every token, the sentinel's included."""
        out, line, col = [], 1, 1
        for lexeme in self.lexemes:
            if not lexeme.isspace() and lexeme[0] != "#":
                out.append((line, col))
            if "\n" in lexeme:
                line, col = line + lexeme.count("\n"), len(lexeme) - lexeme.rfind("\n")
            else:
                col += len(lexeme)
        out.append((line, col))
        return out

    def peek(self) -> str:
        return self.tokens[self.i]

    def next(self) -> str:
        t = self.tokens[self.i]
        if t:
            self.i += 1
        return t

    def accept(self, text: str) -> bool:
        if self.tokens[self.i] == text:
            self.i += 1
            return True
        return False

    def expect(self, text: str) -> None:
        t = self.tokens[self.i]
        if t != text:
            self.fail(f"expected {text!r}, found {t or 'end of input'!r}")
        self.i += 1

    def take(self, kinds: tuple[str, ...], what: str) -> str:
        """The next token, which must be of one of the given kinds."""
        t = self.tokens[self.i]
        if self.kind[t] not in kinds:
            self.fail(f"expected {what}, found {t or 'end of input'!r}")
        self.i += 1  # no kind asked for is "eof"
        return t

    def end(self) -> None:
        if self.peek():
            self.fail(f"trailing input {self.peek()!r}")

    def fail(self, message: str, at: Optional[int] = None):
        """Raise a ParseError at the token of index at, by default the next."""
        raise ParseError(message, *self.positions()[self.i if at is None else at])


# -- clauses -----------------------------------------------------------------


def _term(t: str) -> Node:
    return int(t) if _kind(t) == "num" else t


def _parse_term(ts: _Stream) -> Node:
    return _term(ts.take(("num", "name"), "a variable or constant"))


# the gap clauses of a comparison: a >= b (k=0), a > b (k=1), a = b (both ways)
_COMPARISONS = {
    ">=": lambda a, b: (Clause(a, b, 0),),
    ">": lambda a, b: (Clause(a, b, 1),),
    "=": equal,
}


def _parse_clause_group(ts: _Stream) -> list[Clause]:
    """One comparison, expanded to gap clauses: ``a - b >= k`` verbatim,
    ``a >= b``, ``a > b`` and ``a = b`` as _COMPARISONS has them."""
    left = _parse_term(ts)
    if ts.accept("-"):
        right = _parse_term(ts)
        ts.expect(">=")
        return [Clause(left, right, int(ts.take(("num",), "an integer offset")))]
    op = ts.peek()
    if op not in _COMPARISONS:
        ts.fail(f"expected a comparison, found {op!r}")
    ts.next()
    return list(_COMPARISONS[op](left, _parse_term(ts)))


def _parse_clause_list(ts: _Stream) -> list[Clause]:
    clauses = _parse_clause_group(ts)
    while ts.accept("&"):
        clauses += _parse_clause_group(ts)
    return clauses


def parse_clauses(text: str) -> tuple[Clause, ...]:
    """A ``&``-separated clause conjunction, e.g. ``x > y & y >= 0``."""
    ts = _Stream(text)
    if not ts.peek():
        return ()
    clauses = _parse_clause_list(ts)
    ts.end()
    return tuple(clauses)


# -- systems -----------------------------------------------------------------


def _token_list(ts: _Stream) -> list[int]:
    """The indices of a comma-separated list of single tokens, as in a header entry."""
    out = [ts.i]
    while ts.next() and ts.accept(","):
        out.append(ts.i)
    return out


# header entry -> (does a token of a kind qualify, the value it gives, the noun
# for a bad token, the noun for a repeated value)
_HEADER = {
    "vars": (lambda kind, t: kind == "name" and not t.endswith("'"), str,
             "variable name", "variable"),
    "consts": (lambda kind, t: kind == "num", int, "constant", "constant"),
    "acts": (lambda kind, t: kind in ("name", "num"), str, "action name", "action"),
}


def _parse_header(ts: _Stream) -> dict[str, tuple]:
    """The ``gcs { ... }`` header: each entry's values, by entry name."""
    ts.expect("gcs")
    ts.expect("{")
    header: dict[str, tuple] = {}
    while not ts.accept("}"):
        at = ts.i
        key = ts.next()
        if key in header:
            ts.fail(f"repeated header entry {key!r}", at)
        ts.expect(":")
        if key not in _HEADER:
            ts.fail(f"unknown header entry {key!r}", at)
        good, value, bad, noun = _HEADER[key]
        tokens = [(j, ts.tokens[j]) for j in _token_list(ts)]
        for j, t in tokens:  # every token's kind first, then repeats
            if not good(ts.kind[t], t):
                ts.fail(f"bad {bad} {t!r}", j)
        values: dict = {}  # in order; a repeated value is refused
        for j, t in tokens:
            if value(t) in values:
                ts.fail(f"repeated {noun} {t!r}", j)
            values[value(t)] = None
        header[key] = tuple(values)
        ts.expect(";")
    return header


def _system(header: dict[str, tuple], rules: list[TransitionRule]) -> Gcs:
    # without an acts entry, the actions are the rule labels in order of use
    acts = header.get("acts", tuple(dict.fromkeys(r.label for r in rules)))
    return Gcs(header.get("vars", ()), header.get("consts", ()), acts, tuple(rules))


def parse_gcs(text: str) -> Gcs:
    """The system of a text in the format of the module docstring.  A text
    without comments whose rule bodies are all clause groups is read by
    _parse_plain_gcs; any other text, every malformed one included, goes
    whole to the token parser, which raises every ParseError."""
    g = _parse_plain_gcs(text)
    return g if g is not None else _parse_gcs_tokens(text)


def _parse_gcs_tokens(text: str) -> Gcs:
    ts = _Stream(text)
    header = _parse_header(ts)
    rules = []
    while ts.peek():
        ts.expect("rule")
        name = ts.next()
        if ts.accept("["):
            label = ts.next()
            ts.expect("]")
        else:
            label = "act"  # unlabeled rules share one implicit action
        ts.expect(":")
        clauses = _parse_clause_list(ts)
        ts.expect(";")
        rules.append(TransitionRule(name, tuple(clauses), label))
    return _system(header, rules)


# The clause-group reading of rule texts.  Its name and number sub-patterns
# are those of _LEXEME, and it takes only texts whose tokens it reads as the
# lexer does: a minus before a digit starts a number, not a subtraction (and
# "->" never matches, as no term starts with ">").  A group captures its left
# side, then either the right side and offset of ``a - b >= k`` or a
# comparison and its right side.
_TERM = f"(?:{_NUM}|{_NAME})"
_CLAUSE_GROUP = re.compile(
    rf"\s*({_TERM})\s*(?:-(?!\d)\s*({_TERM})\s*>=\s*({_NUM})|(>=|>|=)\s*({_TERM}))\s*"
)
# a rule: its name, its optional label and its body up to the ";"
_PLAIN_RULE = re.compile(rf"\s*rule\s+({_TERM})\s*(?:\[\s*({_TERM})\s*\])?\s*:([^;]*);")


class _ClauseGroups(dict):
    """Clause group text -> its clauses, each text parsed when first met.
    A text that is not one whole clause group gets no clauses."""

    def __missing__(self, text: str) -> tuple[Clause, ...]:
        m = _CLAUSE_GROUP.fullmatch(text)
        if m is None:
            clauses = ()
        elif m[4] is None:
            clauses = (Clause(_term(m[1]), _term(m[2]), int(m[3])),)
        else:
            clauses = _COMPARISONS[m[4]](_term(m[1]), _term(m[5]))
        self[text] = clauses
        return clauses


def _parse_plain_gcs(text: str) -> Optional[Gcs]:
    """The system of a text without comments whose header, up to the first
    "}" and lexed by _Stream, parses and is followed by whole _PLAIN_RULE
    matches, each body a "&"-separated list of clause groups; None for any
    other text.  Each distinct group text is matched once.  It never raises."""
    pos = text.find("}") + 1  # the header's end: its only "}" is its last token
    if not pos or "#" in text:
        return None
    try:
        header = _parse_header(_Stream(text[:pos]))
    except ParseError:
        return None
    groups, rules = _ClauseGroups(), []
    while m := _PLAIN_RULE.match(text, pos):
        name, label, body = m.groups()
        clauses = tuple(chain.from_iterable(map(groups.__getitem__, body.split("&"))))
        rules.append(TransitionRule(name, clauses, "act" if label is None else label))
        pos = m.end()
    if text[pos:].strip() or not all(groups.values()):
        return None
    return _system(header, rules)


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
        body = " & ".join(map(str, r.clauses))
        lines.append(f"rule {r.name} [{r.label}]: {body};")
    return "\n".join(lines) + "\n"


# -- formulas ----------------------------------------------------------------


def parse_formula(text: str) -> Formula:
    ts = _Stream(text)
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
    RecursionError that parse_formula and parse_qbf report."""

    def parse(ts: _Stream):
        x = operand(ts)
        while ts.accept(op):
            x = make(x, operand(ts))
        return x

    return parse


def _parse_guard(ts: _Stream) -> tuple[Clause, ...]:
    if not ts.accept("{") or ts.accept("}"):
        return ()
    clauses = _parse_clause_list(ts)
    ts.expect("}")
    return tuple(clauses)


def _parse_action_list(ts: _Stream) -> Optional[tuple[str, ...]]:
    if not ts.accept("["):
        return None
    names = tuple(ts.tokens[j] for j in _token_list(ts))
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
        return Diamond(act, _parse_unary(ts), guard)
    if ts.accept("["):
        act = ts.next()
        ts.expect("]")
        return box(act, _parse_unary(ts))
    if t in _PATH_OPERATORS:
        ts.next()
        actions = _parse_action_list(ts)
        guard = _parse_guard(ts)
        return _PATH_OPERATORS[t](_parse_unary(ts), guard, actions)
    if t == "E":
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
    if ts.kind[t] in ("name", "num"):
        return reduce(AndF, map(Atom, _parse_clause_group(ts)))
    ts.fail(f"expected a formula, found {t or 'end of input'!r}")


_parse_and = _left_fold(_parse_unary, "&", AndF)
_parse_or = _left_fold(_parse_and, "|", OrF)


def _render(root, parts) -> str:
    """The text of a tree, from an explicit stack, so any depth and width
    works.  parts[type(node)](node) gives the node's binding level and its
    pieces: strings and (child, least level) slots.  A child that binds
    below its slot's least level is put in parentheses."""
    out, stack = [], [(root, 0)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        node, least = item
        if type(node) not in parts:
            raise TypeError(f"cannot print {node!r}")
        level, pieces = parts[type(node)](node)
        if level < least:
            pieces = ("(", *pieces, ")")
        stack += reversed(pieces)
    return "".join(out)


def _head(op: str, f) -> str:
    """A modality's text before its operand: op, the action list and the guard."""
    actions = "" if getattr(f, "actions", None) is None else "[" + ",".join(f.actions) + "]"
    guard = "{" + " & ".join(map(str, f.guard)) + "}" if f.guard else ""
    return f"{op}{actions}{guard} "


# levels: 3 prints closed, 1 binds as & does, 0 as | does; the right operand of
# & and | asks one level more, so the left-associative parse rebuilds the tree
_FORMULA_PARTS = {
    TrueF: lambda f: (3, ("true",)),
    Atom: lambda f: (3, (f"({f.clause})",)),
    NotF: lambda f: (3, ("!", (f.f, 2))),
    Eu: lambda f: (3, ("E(", (f.left, 0), " U ", (f.right, 0), ")")),
    Diamond: lambda f: (1, (_head(f"<{f.action}>", f), (f.f, 2))),
    Ef: lambda f: (1, (_head("EF", f), (f.f, 2))),
    Eg: lambda f: (1, (_head("EG", f), (f.f, 2))),
    AndF: lambda f: (1, ((f.left, 1), " & ", (f.right, 2))),
    OrF: lambda f: (0, ((f.left, 0), " | ", (f.right, 1))),
}


def serialize_formula(f: Formula) -> str:
    return _render(f, _FORMULA_PARTS)


# -- valuations and finite transition systems --------------------------------


def parse_valuation(text: str) -> Valuation:
    """Comma-separated assignments, e.g. ``x=3, y=0``."""
    out: Valuation = {}
    ts = _Stream(text)
    while ts.peek():
        if out:  # a comma also asks for an assignment after it
            ts.expect(",")
        at = ts.i
        name = ts.take(("name",), "a variable")
        ts.expect("=")
        val = ts.take(("num",), "an integer")
        if name in out:
            ts.fail(f"{name!r} is assigned twice", at)
        out[name] = int(val)
    return out


def serialize_valuation(v: Valuation) -> str:
    return ", ".join(f"{x}={v[x]}" for x in sorted(v))


_LTS_LINE = re.compile(r"(\w+)(?:\s*-\s*(\w+)\s*->\s*(\w+))?")


def parse_lts(text: str) -> FiniteLts:
    """One transition per line: ``s -a-> t``.  A line holding a single name
    declares an isolated state."""
    states: dict[str, None] = {}  # dicts as sets in order of first mention
    acts: dict[str, None] = {}
    transitions = set()
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _LTS_LINE.fullmatch(line)
        if m is None:
            raise ParseError(f"bad transition line {line!r}", ln, 1)
        s, a, t = m.groups()
        states[s] = None
        if a is not None:
            states[t] = acts[a] = None
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
    return json.loads(dump_set(s))


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
    return _dump(s.u.leave(s.w), s.u)


def _dump(ws: np.ndarray, u: Universe) -> str:
    """The JSON text, indented by 2, of one graph per matrix of the stack ws
    over the universe u, with the entries above the universe's floor as its
    edges (Universe.floor).  It is written straight from the stack in one
    join: the node list, the head of every (from, to) edge and the tail of
    every distinct weight, once as a member's last edge and once not, are
    built once; every edge's text is its head, then its tail."""
    if not len(ws):
        return "[]"
    lits = [json.dumps(x) for x in u.nodes]
    node_list = '"nodes": [\n      ' + ",\n      ".join(lits) + "\n    ]" if lits else '"nodes": []'
    heads = np.array([
        f'      {{\n        "from": {a},\n        "to": {b},\n        "weight": '
        for a in lits
        for b in lits
    ], dtype=object)
    keep = ws > u.floor
    _, pair = np.nonzero(keep.reshape(len(ws), -1))
    weights, which = np.unique(ws[keep], return_inverse=True)
    tails = np.array([
        [t + ",\n", t + "\n    ]\n  }"]
        for t in (('"+inf"' if x == POS_INF else str(int(x))) + "\n      }" for x in weights.tolist())
    ], dtype=object).reshape(-1, 2)
    counts = keep.sum(axis=(1, 2))
    stops = np.cumsum(counts)
    last = np.zeros(len(pair), dtype=np.intp)
    last[stops[counts > 0] - 1] = 1
    cells = np.empty((len(pair), 2), dtype=object)
    cells[:, 0], cells[:, 1] = heads[pair], tails[which, last]
    cells = cells.ravel().tolist()
    member = "  {\n    " + node_list + ',\n    "edges": '
    parts, start = ["[\n"], 0
    for stop in stops.tolist():
        if stop == start:
            parts.append(member + "[]\n  }")
        else:
            parts.append(member + "[\n")
            parts += cells[2 * start:2 * stop]
        parts.append(",\n")
        start = stop
    parts[-1] = "\n]"
    return "".join(parts)


# -- QBF text ------------------------------------------------------------------


def parse_qbf(text: str) -> Qbf:
    """Prenex QBF: quantifier prefix, a colon, then a boolean formula over
    ``&``, ``|``, ``!`` and parentheses, e.g. ``A x E y : x | !y``."""
    ts = _Stream(text)
    prefix = []
    while ts.peek() in ("A", "E"):
        q = ts.next()
        prefix.append((q, ts.take(("name",), f"a variable after {q}")))
    ts.expect(":")
    try:
        matrix = _parse_bool_or(ts)
    except RecursionError:  # as in parse_formula
        raise ParseError("the QBF nests too deeply to parse") from None
    ts.end()
    return Qbf(tuple(prefix), matrix)


def _parse_bool_atom(ts: _Stream) -> BoolExpr:
    if ts.accept("!"):
        return BNot(_parse_bool_atom(ts))
    if ts.accept("("):
        e = _parse_bool_or(ts)
        ts.expect(")")
        return e
    return BVar(ts.take(("name",), "a boolean variable"))


_parse_bool_and = _left_fold(_parse_bool_atom, "&", BAnd)
_parse_bool_or = _left_fold(_parse_bool_and, "|", BOr)


_QBF_PARTS = {
    BVar: lambda e: (3, (e.name,)),
    BNot: lambda e: (3, ("!", (e.f, 2))),
    BAnd: lambda e: (1, ((e.left, 1), " & ", (e.right, 2))),
    BOr: lambda e: (0, ((e.left, 0), " | ", (e.right, 1))),
}


def serialize_qbf(q: Qbf) -> str:
    prefix = " ".join(f"{quant} {v}" for quant, v in q.prefix)
    return f"{prefix} : {_render(q.matrix, _QBF_PARTS)}".strip()
