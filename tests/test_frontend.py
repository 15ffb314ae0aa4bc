"""Text and JSON formats: parsers, serializers and round trips."""

import ast
import json
import random
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapmc.frontend import (
    ParseError,
    _dump,
    dump_set,
    mg_from_json,
    mg_to_json,
    parse_clauses,
    parse_formula,
    parse_gcs,
    parse_lts,
    parse_qbf,
    parse_valuation,
    serialize_formula,
    serialize_gcs,
    serialize_lts,
    serialize_qbf,
    serialize_valuation,
    set_from_json,
    set_to_json,
    tokenize,
)
from gapmc import frontend, logic
from gapmc.logic import AndF, Atom, Diamond, Ef, Eg, Eu, NotF, OrF, TrueF, or_all
from gapmc.mg import (
    NEG_INF,
    POS_INF,
    Clause,
    MonotonicityGraph,
    from_constraint,
    is_const,
    universe,
)
from gapmc.oracle import qbf_eval, random_window_closed_gcs
from gapmc.oracle import random_formula as oracle_random_formula
from gapmc.reductions import BAnd, BNot, BOr, BVar, Qbf, qbf_to_gcs
from gapmc.sets import SymbolicSet, full_set, make_set, same_set

from conftest import CX_CLAUSES, random_plain_mg, random_transitional_mg

COUNTDOWN_TEXT = """
# a lossy countdown
gcs {
  vars: x, y;
  consts: 0;
}
rule CX [a]: x > x' & x' >= 0 & y = y';
rule CY [b]: y > y' & x' >= x & y' >= 0;
"""


# -- clause sugar -----------------------------------------------------------------


def test_clause_sugar_expansion():
    assert parse_clauses("x - y >= 3") == (Clause("x", "y", 3),)
    assert parse_clauses("x >= y") == (Clause("x", "y", 0),)
    assert parse_clauses("x > y") == (Clause("x", "y", 1),)
    assert set(parse_clauses("x = y")) == {Clause("x", "y", 0), Clause("y", "x", 0)}
    assert parse_clauses("x' >= 0") == (Clause("x'", 0, 0),)


def test_clause_list():
    got = parse_clauses("x > x' & x' >= 0 & y = y'")
    assert set(got) == set(CX_CLAUSES)


# -- gcs documents ------------------------------------------------------------------


def test_parse_countdown_document(countdown):
    g = parse_gcs(COUNTDOWN_TEXT)
    assert g.vars == countdown.vars
    assert g.consts == countdown.consts
    assert set(g.acts) == set(countdown.acts)
    by_name = {r.name: r for r in g.rules}
    assert set(by_name["CX"].clauses) == set(CX_CLAUSES)


def test_rule_label_optional():
    g = parse_gcs("gcs { vars: x; consts: 0; }\nrule r: x > x';")
    assert g.rules[0].label == "act"
    assert g.acts == ("act",)


def test_gcs_round_trips():
    rng = random.Random(71)
    # a system without constants or without variables writes no empty entry
    docs = [COUNTDOWN_TEXT, "gcs { vars: x; }\nrule r [a]: x > x';", "gcs { consts: 0; }"]
    for i in range(24):
        n_vars = rng.randint(1, 3)
        vars = tuple("xyz"[:n_vars])
        consts = tuple(sorted({0, rng.randint(1, 5)}))
        lines = [
            "gcs {",
            f"  vars: {', '.join(vars)};",
            f"  consts: {', '.join(map(str, consts))};",
            "}",
        ]
        terms = list(vars) + [v + "'" for v in vars] + list(map(str, consts))
        for j in range(rng.randint(1, 4)):
            cl = " & ".join(
                "{} - {} >= {}".format(*rng.sample(terms, 2), rng.randint(0, 3))
                for _ in range(rng.randint(1, 3))
            )
            lines.append(f"rule r{j} [{rng.choice('ab')}]: {cl};")
        docs.append("\n".join(lines))
    for doc in docs:
        g = parse_gcs(doc)
        assert parse_gcs(serialize_gcs(g)) == g
        assert "acts:" not in serialize_gcs(g)
    # declared actions that label no rule, or in another order, survive too
    rng = random.Random(1)
    declared = 0
    for _ in range(3000):
        g = random_window_closed_gcs(rng)
        text = serialize_gcs(g)
        assert parse_gcs(text) == g
        declared += "acts:" in text
    assert declared > 500


def test_gcs_acts_entry():
    g = parse_gcs("gcs { vars: x; consts: 0; acts: b, a, c; }\nrule r [a]: x > x';")
    assert g.acts == ("b", "a", "c")
    assert serialize_gcs(g).splitlines()[3] == "  acts: b, a, c;"
    with pytest.raises(ParseError):
        parse_gcs("gcs { vars: x; acts: a, >; }")


def test_header_token_kinds_are_checked_before_repeats():
    with pytest.raises(ParseError) as e:
        parse_gcs("gcs { vars: x, x, 1; }")
    assert str(e.value) == "bad variable name '1' at line 1, column 19"


def test_tokenizer_lines_and_columns():
    text = "gcs {\n  vars: x;  # a comment: x'\n\tconsts: -3;\n}\nrule R [a]: x > x' @ 1;\n"
    with pytest.raises(ParseError) as e:
        tokenize(text)
    assert (e.value.line, e.value.col) == (5, 20)
    assert str(e.value) == "unexpected character '@' at line 5, column 20"
    tokens = tokenize(text.replace("@ 1", "& x' >= -3"))
    assert [tuple(t) for t in tokens] == [
        ("name", "gcs", 1, 1), ("op", "{", 1, 5),
        ("name", "vars", 2, 3), ("op", ":", 2, 7), ("name", "x", 2, 9), ("op", ";", 2, 10),
        ("name", "consts", 3, 2), ("op", ":", 3, 8), ("num", "-3", 3, 10), ("op", ";", 3, 12),
        ("op", "}", 4, 1),
        ("name", "rule", 5, 1), ("name", "R", 5, 6), ("op", "[", 5, 8), ("name", "a", 5, 9),
        ("op", "]", 5, 10), ("op", ":", 5, 11), ("name", "x", 5, 13), ("op", ">", 5, 15),
        ("name", "x'", 5, 17), ("op", "&", 5, 20), ("name", "x'", 5, 22), ("op", ">=", 5, 25),
        ("num", "-3", 5, 28), ("op", ";", 5, 30),
        ("eof", "", 6, 1),
    ]


# a lexer that takes one match object per lexeme and counts lines as it goes:
# the judge of tokens, kinds, lines and columns, and of where a bad character
# is seen
_REFERENCE_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+|\#[^\n]*)
  | (?P<num>-?\d+)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*'?)
  | (?P<op>->|>=|=|>|<|\{|\}|\(|\)|\[|\]|!|&|\||,|;|:|-)
    """,
    re.VERBOSE,
)


def _reference_tokenize(text):
    out = []
    line, line_start, pos = 1, 0, 0
    for m in _REFERENCE_TOKEN_RE.finditer(text):
        start = m.start()
        if start != pos:
            break
        pos = m.end()
        kind = m.lastgroup
        if kind != "ws":
            out.append((kind, m.group(), line, start - line_start + 1))
            continue
        last = text.rfind("\n", start, pos)
        if last >= 0:
            line += text.count("\n", start, pos)
            line_start = last + 1
    if pos != len(text):
        raise ParseError(f"unexpected character {text[pos]!r}", line, pos - line_start + 1)
    out.append(("eof", "", line, pos - line_start + 1))
    return out


def _outcome(f, text):
    """What f makes of text: its result, or the error it raises (a library
    refusal such as an unquantified QBF variable is a ValueError)."""
    try:
        return "ok", f(text)
    except ParseError as e:
        return "error", (str(e), e.line, e.col)
    except ValueError as e:
        return "refused", str(e)


# the lexeme alphabet with keywords of every grammar, comments, tabs and
# newlines, and characters no lexeme starts with or that only \d or \s
# would take: a non-ASCII digit, a superscript, a non-ASCII letter
_FRAGMENTS = [
    "gcs", "vars", "consts", "acts", "rule", "true", "false", "EF", "AG", "EG", "E", "A", "U",
    "x", "y'", "_a1", "0", "12", "-3", "-", "->", ">=", ">", "<", "=", "!", "&", "|", ",", ";",
    ":", "{", "}", "(", ")", "[", "]", "'", "# note", "#", " ", "  ", "\t", "\n",
    "\u0663", "\u00b2", "\u00e9", "@", "$",
]
_TEXTS = st.lists(st.sampled_from(_FRAGMENTS), max_size=30).map("".join)
_PARSERS = (parse_gcs, parse_formula, parse_valuation, parse_clauses, parse_qbf)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_TEXTS)
def test_tokenize_matches_the_reference_lexer(text):
    assert _outcome(lambda t: [tuple(x) for x in tokenize(t)], text) == _outcome(_reference_tokenize, text)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_TEXTS | st.sampled_from([COUNTDOWN_TEXT, "EF[a, b] {x > x'} !(x - y >= -2) | <a> true",
                                  "x=3, y=-1", "A x E y : x & !(y | x)", "x > y & y = 0"]))
def test_parsers_report_what_the_reference_lexer_sees(text):
    # a bad character is reported where the reference lexer sees it; any
    # other result or error is the same on the text's tokens written one per
    # line, an error at the same token
    try:
        tokens = _reference_tokenize(text)
    except ParseError as e:
        for parse in _PARSERS:
            assert _outcome(parse, text) == ("error", (str(e), e.line, e.col))
        return
    relaid = "".join(t[1] + "\n" for t in tokens[:-1])
    index = {(line, col): k for k, (_, _, line, col) in enumerate(tokens)}
    for parse in _PARSERS:
        got, want = _outcome(parse, text), _outcome(parse, relaid)
        if got[0] != "error" or not got[1][1]:  # no position
            assert got == want
            continue
        message, line, col = got[1]
        k = index[line, col]
        assert want == ("error", (message.replace(f"line {line}, column {col}",
                                                  f"line {k + 1}, column 1"), k + 1, 1))


def test_gcs_parse_error_has_location():
    with pytest.raises(ParseError) as e:
        parse_gcs("gcs { vars: x;\nconsts 0; }")
    assert e.value.line == 2


@pytest.mark.parametrize("parse, text, at", [
    (parse_gcs, "gcs { vars: x; consts: 0;\n  vars: y; }", (2, 3)),
    (parse_gcs, "gcs { vars: x, y, x; }", (1, 19)),
    (parse_gcs, "gcs { consts: 0, 2, -0; }", (1, 21)),
    (parse_gcs, "gcs { acts: a, b; acts: c; }", (1, 19)),
    (parse_gcs, "gcs { acts: a, b, a; }", (1, 19)),
    (parse_valuation, "x=2, y=1, x=3", (1, 11)),
])
def test_repeats_are_refused_at_the_repeated_token(parse, text, at):
    # a second entry or name would silently replace or duplicate the first
    with pytest.raises(ParseError, match="repeated|assigned twice") as e:
        parse(text)
    assert (e.value.line, e.value.col) == at


# -- the clause-group reading of system texts ---------------------------------------------

# whitespace that \s and str.isspace take, the empty spacing included
_SPACES = ["", " ", " ", "  ", "\t", "\n", "\u00a0", "\u2003", "\u3000"]
# clause groups and near misses: a minus before a digit belongs to the
# number, "->" is one token, a name takes one apostrophe, \d takes any
# decimal digit
_NEAR_MISSES = [
    "x-5 >= 0", "x -5 >= 0", "x--5 >= 0", "x - -5 >= 0", "x->y", "x - >y >= 0", "x>=-3",
    "x >=- 3", "x>=-\u0663", "5x >= y", "x'' >= y", "x' >= y''", "x - y > 3", "x - y >= z",
    "x = = y", "x == y", "x >", "x - y >= 3 4", "-x >= y", "x >= y'x", "x\u00b2 >= y", "",
    "x - y >= 3 & ", "& x >= y", "x >= y && y >= x", "x >= y | y >= x", "x >= y # note",
]
_TERMS = ["x", "y'", "x1", "_a", "0", "12", "-3", "\u0663", "\u0661\u0662"]
_NAMES = ["R", "r1", "5", "-3", "y'", "rule", "\u0663"]
_HEADERS = ["gcs {\n  vars: x, y;\n  consts: 0, 5;\n}\n", "gcs{vars:x,y;consts:-3;acts:a,5;}",
            "gcs { vars : x ;\n}", "gcs { consts: \u0663; }"]
_BAD_HEADERS = ["gcs { vars: x; # the variables\n}\n", "gcs { vars: x, }\n", "gcs { vars: x; ",
                "gcs { acts: a; } }", "gcs { vars: x } rule"]


def _spaced(rng, tokens):
    """tokens joined by random whitespace, at times none."""
    return "".join(t + rng.choice(_SPACES) for t in tokens)


def _clause_group_text(rng, near_misses):
    if rng.random() < near_misses:
        return rng.choice(_NEAR_MISSES)
    a, b = rng.choice(_TERMS), rng.choice(_TERMS)
    if rng.random() < 0.5:
        return _spaced(rng, [a, "-", b, ">=", rng.choice(["0", "3", "-2", "\u0664"])])
    return _spaced(rng, [a, rng.choice([">=", ">", "="]), b])


def _system_text(rng):
    """A system text near the clause-group reading's edge: random spacing,
    numeric rule names and labels, clause groups whose tokens touch, and in
    half the texts, near misses, odd names, empty bodies, comments, bad
    headers and trailing input."""
    odd = rng.random() < 0.5
    header = rng.choice(_HEADERS + _BAD_HEADERS * odd)
    names = _NAMES + ["[", "->", "", "x#"] * odd
    rules = []
    for _ in range(rng.randint(0, 3)):
        groups = [_clause_group_text(rng, 0.2 * odd) for _ in range(rng.randint(1, 3))]
        if odd and rng.random() < 0.1:
            groups = []  # an empty body
        name = "rule" + rng.choice([" ", "\n", "\u00a0", ""] if odd else [" ", "\n", "\u00a0"])
        name += _spaced(rng, [rng.choice(names)])
        label = _spaced(rng, ["[", rng.choice(names), "]"]) if rng.random() < 0.7 else ""
        rules.append(name + label + ":" + rng.choice(_SPACES) + "&".join(groups) + ";"
                     + rng.choice(_SPACES))
    tail = rng.choice(["", "\n"] + ["x", "@", ";", "rule", "}", "\u00b2", " # end\n"] * odd)
    return header + rng.choice(_SPACES) + "".join(rules) + tail


def test_plain_systems_parse_as_the_token_parser_reads_them():
    rng = random.Random(230)
    texts = [_system_text(rng) for _ in range(3000)]
    texts += [serialize_gcs(random_window_closed_gcs(rng)) for _ in range(200)]
    plain = 0
    for text in texts:
        g = frontend._parse_plain_gcs(text)  # never raises
        want = _outcome(frontend._parse_gcs_tokens, text)
        assert _outcome(parse_gcs, text) == want, text
        if g is not None:
            assert ("ok", g) == want and "#" not in text, text
            plain += 1
    # texts of both readings, accepted and refused ones among the others
    refused = sum(_outcome(parse_gcs, t)[0] == "error" for t in texts)
    assert 500 < plain < len(texts) - 500 and refused > 500, (plain, refused)


def test_a_gen_qbf_instance_lexes_only_its_header(monkeypatch):
    g, _, _ = qbf_to_gcs(parse_qbf("A x1 E x2 A x3 E x4 : (x1 | !x2 | x3) & (!x1 | x4) & (x2 | !x4)"))
    text = serialize_gcs(g)
    assert len(g.rules) > 10 and parse_gcs(text) == frontend._parse_gcs_tokens(text) == g
    containers = {name: len(v) for name, v in vars(frontend).items() if isinstance(v, (dict, list, set))}
    lexed = []

    class Counting(frontend._Stream):
        def __init__(self, t):
            lexed.append(t)
            super().__init__(t)

    monkeypatch.setattr(frontend, "_Stream", Counting)
    for _ in range(3):
        assert parse_gcs(text) == g
    assert lexed == [text[:text.index("}") + 1]] * 3
    # nothing of a parse is kept between calls: no module-level container
    # grows, and the module binds no global beyond these
    assert {name: len(v) for name, v in vars(frontend).items()
            if isinstance(v, (dict, list, set))} == containers
    tree = ast.parse(Path(frontend.__file__).read_text())
    assert not any(isinstance(node, (ast.Global, ast.Nonlocal)) for node in ast.walk(tree))
    bound = {target.id for node in tree.body if isinstance(node, (ast.Assign, ast.AnnAssign))
             for target in (node.targets if isinstance(node, ast.Assign) else [node.target])}
    assert bound == {
        "_NUM", "_NAME", "_LEXEME", "_COMPARISONS", "_HEADER", "_TERM", "_CLAUSE_GROUP",
        "_PLAIN_RULE", "_PATH_OPERATORS", "_parse_and", "_parse_or",
        "_FORMULA_PARTS", "_LTS_LINE", "_parse_bool_and", "_parse_bool_or", "_QBF_PARTS",
    }


# -- formulas ----------------------------------------------------------------------------


def test_parse_formula_shapes():
    assert parse_formula("true") == TrueF()
    assert parse_formula("false") == NotF(TrueF())
    assert parse_formula("x - y >= 1") == Atom(Clause("x", "y", 1))
    f = parse_formula("EF (x = 0 & y = 0)")
    assert isinstance(f, Ef)
    assert parse_formula("<a> true") == Diamond("a", TrueF())
    assert parse_formula("<a>{x' - 0 >= 3} true") == Diamond("a", TrueF(), (Clause("x'", 0, 3),))
    assert parse_formula("EF[a,b]{x' >= 0} true") == Ef(
        TrueF(), (Clause("x'", 0, 0),), ("a", "b")
    )
    assert parse_formula("[a] true") == NotF(Diamond("a", NotF(TrueF())))
    assert parse_formula("AG true") == NotF(Ef(NotF(TrueF())))
    assert isinstance(parse_formula("EG true"), Eg)
    assert isinstance(parse_formula("E (true U false)"), Eu)


def test_formula_precedence():
    f = parse_formula("!x >= 0 & y >= 0 | true")
    assert isinstance(f, OrF)
    assert isinstance(f.left, AndF)
    assert isinstance(f.left.left, NotF)


def random_formula(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        a, b = rng.sample(["x", "y", "0"], 2)
        term = lambda t: t if t != "0" else 0
        return Atom(Clause(term(a), term(b), rng.randint(-3, 3)))
    kind = rng.choice(["not", "and", "or", "dia", "ef", "ag"])
    sub = lambda: random_formula(rng, depth - 1)
    if kind == "not":
        return NotF(sub())
    if kind == "and":
        return AndF(sub(), sub())
    if kind == "or":
        return OrF(sub(), sub())
    if kind == "dia":
        guard = (Clause("x'", 0, rng.randint(0, 2)),) if rng.random() < 0.3 else ()
        return Diamond(rng.choice("ab"), sub(), guard)
    if kind == "ef":
        actions = ("a",) if rng.random() < 0.3 else None
        return Ef(sub(), (), actions)
    return NotF(Ef(NotF(sub())))


def test_formula_round_trips():
    rng = random.Random(72)
    for _ in range(200):
        f = random_formula(rng, rng.randint(1, 4))
        assert parse_formula(serialize_formula(f)) == f


def test_formula_parse_error_location():
    with pytest.raises(ParseError) as e:
        parse_formula("true &")
    assert e.value.line == 1


def _reference_serialize_formula(f):
    """The recursive printer that serialize_formula replaced, kept as its
    reference: one call per node, so it reaches only a few hundred levels."""
    def guard_str(guard):
        if not guard:
            return ""
        return "{" + " & ".join(f"{c.left} - {c.right} >= {c.k}" for c in guard) + "}"

    def acts_str(actions):
        return "" if actions is None else "[" + ",".join(actions) + "]"

    def go(f, prec):
        # prec: 0 = or-context, 1 = and-context, 2 = unary argument
        if isinstance(f, TrueF):
            return "true"
        if isinstance(f, Atom):
            return f"({f.clause.left} - {f.clause.right} >= {f.clause.k})"
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
            s = go(f.left, 1) + " & " + go(f.right, 2)
            return f"({s})" if prec >= 2 else s
        if isinstance(f, OrF):
            s = go(f.left, 0) + " | " + go(f.right, 1)
            return f"({s})" if prec >= 1 else s
        raise TypeError(f"not a formula: {f!r}")

    return go(f, 0)


def any_formula(rng, depth):
    """A random formula over every node type, EG and E..U included, each
    anywhere in the tree."""
    if depth == 0 or rng.random() < 0.2:
        return rng.choice([TrueF(), Atom(Clause("x", rng.choice(["y", 0]), rng.randint(-3, 3)))])
    sub = lambda: any_formula(rng, depth - 1)
    guard = (Clause("x'", 0, rng.randint(0, 2)),) if rng.random() < 0.3 else ()
    actions = rng.choice([None, ("a",), ("a", "b")])
    return rng.choice([
        lambda: NotF(sub()), lambda: AndF(sub(), sub()), lambda: OrF(sub(), sub()),
        lambda: Diamond(rng.choice("ab"), sub(), guard), lambda: Ef(sub(), guard, actions),
        lambda: Eg(sub(), guard, actions), lambda: Eu(sub(), sub()),
    ])()


def test_formula_printer_matches_the_recursive_reference():
    # every node type in every position, and oracle.random_formula's trees
    rng = random.Random(74)
    for _ in range(1500):
        g = random_window_closed_gcs(rng)
        for f in (any_formula(rng, rng.randint(1, 6)), oracle_random_formula(rng, g, depth=5)):
            assert serialize_formula(f) == _reference_serialize_formula(f)


def test_a_wide_formula_prints_and_parses_back():
    # the printer keeps its own stack: a 3000-wide disjunction prints, and
    # the left-associative parse reads it back
    f = or_all([Atom(Clause("x", 0, k)) for k in range(3000)])
    text = serialize_formula(f)
    assert text.count(" | ") == 2999
    assert serialize_formula(parse_formula(text)) == text
    assert parse_formula(text) == f and hash(parse_formula(text)) == hash(f)


def test_wide_formulas_compare_and_hash_without_recursion():
    # formula == and hash walk the nodes with an explicit stack: two parses
    # of a 3000-term & chain are equal and hash alike, and one term less or
    # one offset changed is not equal
    text = " & ".join(f"x - 0 >= {k}" for k in range(3000))
    a, b = parse_formula(text), parse_formula(text)
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != parse_formula(text.rsplit(" & ", 1)[0])
    assert a != parse_formula(text.replace(">= 1500", ">= -1500"))
    # sharing does not count: a shared operand equals two equal copies
    x = Atom(Clause("x", 0, 1))
    assert AndF(x, x) == AndF(Atom(Clause("x", 0, 1)), Atom(Clause("x", 0, 1)))
    assert AndF(x, x) != OrF(x, x) and Ef(x) != Ef(x, actions=()) and x != "x"


# -- valuations ----------------------------------------------------------------------------


def test_valuation_round_trips():
    rng = random.Random(73)
    assert parse_valuation("x=3, y=0") == {"x": 3, "y": 0}
    for _ in range(24):
        v = {name: rng.randint(-9, 9) for name in rng.sample(["x", "y", "z", "w"], rng.randint(1, 4))}
        assert parse_valuation(serialize_valuation(v)) == v


def test_valuation_refuses_a_dangling_comma():
    # a comma asks for an assignment after it, at the end of input as well
    for text, found, col in (("x=1,", "end of input", 5), ("x=1,,", ",", 5), ("x=1, ", "end of input", 6)):
        with pytest.raises(ParseError, match=f"expected a variable, found {found!r}") as e:
            parse_valuation(text)
        assert (e.value.line, e.value.col) == (1, col)
    assert parse_valuation("") == {}


# -- LTS documents ----------------------------------------------------------------------------


def test_parse_lts_basic():
    l = parse_lts("s -a-> t\nt -tau-> u\nv\n")
    assert set(l.states) == {"s", "t", "u", "v"}
    assert ("s", "a", "t") in l.transitions
    assert l.successors("v", "a") == set()


def test_lts_round_trips():
    rng = random.Random(74)
    for _ in range(24):
        states = [f"s{i}" for i in range(rng.randint(1, 5))]
        trans = {
            (rng.choice(states), rng.choice(["a", "b", "tau"]), rng.choice(states))
            for _ in range(rng.randint(0, 6))
        }
        lines = [f"{s} -{a}-> {t}" for s, a, t in sorted(trans)] + states
        l = parse_lts("\n".join(lines))
        l2 = parse_lts(serialize_lts(l))
        assert set(l2.states) == set(l.states)
        assert l2.transitions == l.transitions


# -- MG / set JSON ---------------------------------------------------------------------------


def test_mg_json_schema_and_round_trip():
    g = from_constraint([Clause("x", "y", 2), Clause("y", 0, 0)], ("x", "y"), (0,)).closure()
    doc = mg_to_json(g)
    assert set(doc) == {"nodes", "edges"}
    for e in doc["edges"]:
        assert set(e) == {"from", "to", "weight"}
    back = mg_from_json(doc)
    assert back == g


def test_mg_json_round_trips_random():
    rng = random.Random(75)
    done = 0
    while done < 24:
        g = random_plain_mg(rng)
        if not g.is_satisfiable():
            continue
        g = g.closure()
        # non-positive self edges are implied by cycles and elided in JSON;
        # closing again restores them
        assert mg_from_json(mg_to_json(g)).closure() == g
        done += 1


def test_mg_json_weights_beyond_the_exact_range_are_refused():
    # two nodes: weights up to 2^53 // 3 leave room for every path sum
    ok = 2**53 // 3
    for k in (ok, -ok):
        doc = {"nodes": ["x", 0], "edges": [{"from": "x", "to": 0, "weight": k}]}
        assert mg_from_json(doc).weight("x", 0) == k
    for k in (ok + 1, -ok - 1):
        doc = {"nodes": ["x", 0], "edges": [{"from": "x", "to": 0, "weight": k}]}
        with pytest.raises(ValueError, match="2\\^53"):
            mg_from_json(doc)


def test_mg_json_plus_inf_and_minus_inf_tokens():
    g = from_constraint([Clause("x", "y", 1), Clause("y", "x", 0)], ("x", "y"), (0,)).closure()
    doc = mg_to_json(g)
    assert any(e["weight"] == "+inf" for e in doc["edges"])
    doc["edges"].append({"from": "x", "to": "y", "weight": "-inf"})
    assert mg_from_json(doc).weight("x", "x") == float("inf")


def _mg_json_reference(m):
    """mg_to_json entry by entry, as the format defines it."""
    ns = m.u.nodes
    edges = []
    for i, x in enumerate(ns):
        for j, y in enumerate(ns):
            w = m.w[i, j]
            if w == NEG_INF:
                continue
            if is_const(x) and is_const(y) and w <= x - y:
                continue
            if i == j and w <= 0:
                continue
            weight = "+inf" if w == POS_INF else int(w)
            edges.append({"from": x, "to": y, "weight": weight})
    return {"nodes": list(ns), "edges": edges}


def test_mg_json_matches_per_entry_reference():
    rng = random.Random(78)
    for _ in range(60):
        g = random_transitional_mg(rng, consts=(-2, 0, 3), positive=False)
        for h in (g, g.closure()):
            assert mg_to_json(h) == _mg_json_reference(h)
    inf = from_constraint([Clause("x", "y", 1), Clause("y", "x", 0)], ("x", "y"), (0,)).closure()
    assert any(e["weight"] == "+inf" for e in mg_to_json(inf)["edges"])
    assert mg_to_json(inf) == _mg_json_reference(inf)


def test_dump_set_is_json_dumps_with_indent_2():
    rng = random.Random(79)
    universes = [(("x", "y"), (0,)), (("x", "y"), (-2, 0, 3)), (("a", "b", "c"), (-5,)),
                 (("p", "q"), ()), ((), (-1, 4))]
    sets = [make_set(("x", "y"), (0,)), full_set(("x", "y"), (0,)), full_set((), ()),
            full_set((), (1, 2)), make_set((), ())]
    for vars, consts in universes:
        for _ in range(30):
            graphs = [random_plain_mg(rng, vars, consts) for _ in range(rng.randint(0, 4))]
            sets.append(make_set(vars, consts, graphs))
    # the text form does not rely on the set invariant: +inf prints as in a graph
    inf = from_constraint([Clause("x", "y", 1), Clause("y", "x", 0)], ("x", "y"), (0,)).closure()
    sets.append(SymbolicSet(("x", "y"), (0,), inf.w[None].copy()))
    assert any(len(s.w) > 1 for s in sets)
    for s in sets:
        text = dump_set(s)
        assert text == json.dumps(set_to_json(s), indent=2)
        assert set_to_json(s) == [_mg_json_reference(m) for m in s.members]


def _reference_dump(ws, u):
    """The graph JSON text with every kept weight formatted edge by edge."""
    if not len(ws):
        return "[]"
    n = len(u.nodes)
    lits = [json.dumps(x) for x in u.nodes]
    node_list = '"nodes": [\n      ' + ",\n      ".join(lits) + "\n    ]" if lits else '"nodes": []'
    heads = [f'      {{\n        "from": {a},\n        "to": {b},\n        "weight": '
             for a in lits for b in lits]
    keep = ws > u.floor
    _, pair = np.nonzero(keep.reshape(len(ws), n * n))
    edges = [heads[k] + ('"+inf"' if x == POS_INF else str(int(x))) + "\n      }"
             for k, x in zip(pair.tolist(), ws[keep].tolist())]
    members, start = [], 0
    for stop in np.cumsum(keep.sum(axis=(1, 2))).tolist():
        edge_list = '"edges": [\n' + ",\n".join(edges[start:stop]) + "\n    ]" if stop > start else '"edges": []'
        members.append("  {\n    " + node_list + ",\n    " + edge_list + "\n  }")
        start = stop
    return "[\n" + ",\n".join(members) + "\n]"


def test_dump_is_byte_identical_to_the_per_edge_formatter():
    # full-layout stacks that need not satisfy the set invariant, fed to
    # _dump: +inf, repeated and negative weights, a member with no edge, and
    # no member; then real sets, through dump_set
    rng, draw = np.random.default_rng(80), random.Random(82)
    universes = [(("x", "y"), (0,)), (("x", "y", "z"), (-2, 0, 3)), ((), (-1, 4)), (("p",), ())]
    for vars, consts in universes:
        u = universe(vars, consts)
        n = len(u.nodes)
        for members in (0, 1, 2, 5):
            w = rng.choice([NEG_INF, POS_INF, -7.0, -1.0, 0.0, 0.0, 2.0, 5.0, 5.0, 2.0**52],
                           size=(members, n, n))
            if members > 1:
                w[1] = NEG_INF  # no edge
            text = _dump(w, u)
            assert text == _reference_dump(w, u)
            graphs = [MonotonicityGraph(vars, consts, False, m) for m in w]
            assert [mg_to_json(m) for m in graphs] == json.loads(text)
            for m in graphs:
                assert mg_to_json(m) == json.loads(_reference_dump(m.w[None], m.u))[0]
        real = [full_set(vars, consts), make_set(vars, consts)]
        for _ in range(5 if n > 1 else 0):
            real.append(make_set(vars, consts, [random_plain_mg(draw, vars, consts) for _ in range(3)]))
        for s in real:
            text = dump_set(s)
            assert text == _reference_dump(u.leave(s.w), u)
            assert set_to_json(s) == json.loads(text)
    rng = random.Random(81)
    for _ in range(40):
        g = random_transitional_mg(rng, consts=(-2, 0, 3), positive=False)
        for h in (g, g.closure()):
            assert mg_to_json(h) == json.loads(_reference_dump(h.w[None], h.u))[0]
    empty = make_set(("x",), (0,))
    assert dump_set(empty) == _reference_dump(empty.w, empty.u) == "[]"


def test_set_json_round_trip_and_determinism():
    rng = random.Random(76)
    for _ in range(24):
        graphs = [g for g in (random_plain_mg(rng) for _ in range(3)) if g.is_satisfiable()]
        s = make_set(("x", "y"), (0,), graphs)
        doc = set_to_json(s)
        assert same_set(set_from_json(json.loads(json.dumps(doc)), s.vars, s.consts), s)
        assert dump_set(s) == dump_set(set_from_json(doc, s.vars, s.consts))


# -- QBF text -------------------------------------------------------------------------------


def rand_expr(rng, depth, names):
    if depth == 0 or rng.random() < 0.4:
        return BVar(rng.choice(names))
    k = rng.choice(["n", "a", "o"])
    if k == "n":
        return BNot(rand_expr(rng, depth - 1, names))
    cls = BAnd if k == "a" else BOr
    return cls(rand_expr(rng, depth - 1, names), rand_expr(rng, depth - 1, names))


def test_qbf_round_trips():
    rng = random.Random(77)
    texts = ["E x : x", "A x E y : (x & y) | (!x & !y)", "A x : x | !x"]
    for t in texts:
        q = parse_qbf(t)
        assert parse_qbf(serialize_qbf(q)) == q
    for _ in range(24):
        names = [f"x{i}" for i in range(1, rng.randint(2, 4))]
        q = Qbf(
            tuple((rng.choice("AE"), v) for v in names),
            rand_expr(rng, rng.randint(1, 3), names),
        )
        assert parse_qbf(serialize_qbf(q)) == q


def _reference_serialize_qbf(q):
    """The recursive printer that serialize_qbf replaced, kept as its reference."""
    def go(e, prec):
        if isinstance(e, BVar):
            return e.name
        if isinstance(e, BNot):
            return "!" + go(e.f, 2)
        if isinstance(e, BAnd):
            s = go(e.left, 1) + " & " + go(e.right, 2)
            return f"({s})" if prec >= 2 else s
        if isinstance(e, BOr):
            s = go(e.left, 0) + " | " + go(e.right, 1)
            return f"({s})" if prec >= 1 else s
        raise TypeError(f"not a boolean expression: {e!r}")

    prefix = " ".join(f"{q_} {v}" for q_, v in q.prefix)
    return f"{prefix} : {go(q.matrix, 0)}".strip()


def test_qbf_printer_matches_the_recursive_reference():
    rng = random.Random(78)
    for _ in range(1500):
        names = [f"x{i}" for i in range(1, rng.randint(2, 5))]
        q = Qbf(tuple((rng.choice("AE"), v) for v in names), rand_expr(rng, rng.randint(1, 6), names))
        assert serialize_qbf(q) == _reference_serialize_qbf(q)


@pytest.mark.parametrize("op", ["&", "|"], ids=["and-chain", "or-chain"])
def test_a_wide_qbf_parses_translates_and_prints(op):
    # nothing in a flat chain nests: it is parsed, reduced and printed at
    # any length, and the reduction's verdict is the QBF's value
    text = "E x : " + f" {op} ".join(["x"] * 3000)
    q = parse_qbf(text)
    assert serialize_qbf(q) == text
    again = parse_qbf(text)
    assert again is not q and again == q and hash(again) == hash(q)
    assert again.matrix == q.matrix and hash(again.matrix) == hash(q.matrix)
    assert q != parse_qbf(text.rsplit(f" {op} ", 1)[0])
    g, v0, f = qbf_to_gcs(q)
    assert logic.check(g, v0, f) == qbf_eval(q) is True


def test_parse_qbf_refuses_deep_nesting():
    # the descent recurses once per parenthesis; the depth is reported as a
    # parse error, as parse_formula does, not as a RecursionError
    for matrix in ("(" * 2000 + "x" + ")" * 2000, "!(" * 1000 + "x" + ")" * 1000):
        with pytest.raises(ParseError, match="the QBF nests too deeply to parse"):
            parse_qbf("E x : " + matrix)
    assert parse_qbf("E x : " + "(" * 50 + "x" + ")" * 50) == parse_qbf("E x : x")

