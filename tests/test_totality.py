"""Totality of the command line: every input gets a verdict or a clean refusal.

Each example generates, from one seed that hypothesis draws, system files,
formulas, valuations, LTS files and JSON set files, each well-formed or
mutated or truncated, and runs ``gapmc check``, ``denote``, ``prestar`` or
``bisim`` on them in-process.  Every run must exit 0, 1 or 2 without a
traceback, and a run that exits 2 must say why on an ``error:`` line.  The
examples are derandomized, so every run tests the same inputs, and
``--max-pool`` bounds the work of each.  A failure prints its seed.
"""

import contextlib
import io
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapmc.cli import main

VARS = ("x", "y", "z")
ACTS = ("a", "b", "tau")
STATES = ("s0", "s1", "s2")
# names no system declares, and magnitudes beyond the exact range of weights
STRANGERS = ("q", "q'", "zz", str(2**53), str(-(2**60)))
# fragments that a mutation inserts: separators, names, numbers, keywords
NOISE = [*";:,{}[]<>()!&|-='#\"\n", "x", "x'", "-0", "99999999999999999999", "EF", "é",
         "vars: x;", "true", "null", "1.5"]
# nesting deeper than a recursive descent goes
DEEP = ["[" * 3000, "(" * 3000, "!" * 3000, "EF " * 3000, '{"a": ' * 3000]
# JSON values that are not names or integers, and odd weights
ODD_NODES = (False, None, " 7 ", 2.5, {}, "q")
ODD_WEIGHTS = ("+inf", "-inf", 2**60, True, "5", 2.5, 3.0, 1e300, [1])


def mangle(rng: random.Random, text: str) -> str:
    """Mostly the text itself; else the text truncated, with a slice deleted
    or repeated, or with a noise or deep fragment inserted."""
    how = rng.choice(["keep"] * 12 + ["truncate", "delete", "repeat", "insert", "nest"])
    if how == "keep":
        return text
    i = rng.randint(0, len(text))
    if how == "truncate":
        return text[:i]
    if how == "delete":
        return text[:i] + text[i + rng.randint(1, 4):]
    if how == "repeat":
        j = rng.randint(i, len(text))
        return text[:j] + text[i:j] + text[j:]
    if how == "nest":  # at the start, where a value or formula is sure to begin
        return rng.choice(DEEP) + text
    return text[:i] + rng.choice(NOISE) + text[i:]


class Inputs:
    """The names one generated system declares, and text drawn over them; if
    odd, the text now and then uses a stranger instead."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.odd = rng.random() < 0.5
        self.vars = sorted(rng.sample(VARS, rng.randint(0, 3)))
        self.consts = sorted(rng.sample(range(-3, 4), rng.randint(0, 3)))
        self.acts = rng.sample(ACTS, rng.randint(1, 3))

    def pick(self, known, strangers=STRANGERS):
        """Mostly one of the known items; now and then a stranger, if odd."""
        return self.rng.choice([*known] * 5 + [*strangers] * self.odd or list(strangers))

    def clause(self, primed: bool) -> str:
        names = [*self.vars, *map(str, self.consts), *(v + "'" for v in self.vars if primed)]
        a, b = (self.pick(names or ["0"]) for _ in range(2))
        if self.rng.random() < 0.5:
            return f"{a} {self.rng.choice(['>=', '>', '='])} {b}"
        return f"{a} - {b} >= {self.rng.randint(-3, 3)}"

    def clauses(self, primed: bool) -> str:
        return " & ".join(self.clause(primed) for _ in range(self.rng.randint(1, 3)))

    def system(self) -> str:
        header = [f"{key}: {', '.join(map(str, names))};"
                  for key, names in (("vars", self.vars), ("consts", self.consts)) if names]
        if self.rng.random() < 0.5:
            header.append(f"acts: {', '.join(self.acts)};")
        rules = "".join(
            f"rule r{i} [{self.pick(self.acts)}]: {self.clauses(True)};\n"
            for i in range(self.rng.randint(0, 3))
        )
        return "gcs {\n  " + "\n  ".join(header) + "\n}\n" + rules

    def guard(self) -> str:
        return "{" + self.clauses(True) + "}" if self.rng.random() < 0.25 else ""

    def formula(self, budget: int = 3) -> str:
        kind = self.rng.choice(
            ["atom", "true", "false"] if budget == 0 else
            ["atom", "atom", "not", "and", "or", "diamond", "box", "EF", "EF", "AG"]
            + ["EG", "EU"] * self.odd
        )
        sub = lambda: self.formula(budget - 1)  # noqa: E731
        if kind == "atom":
            return f"({self.clause(False)})"
        if kind in ("true", "false"):
            return kind
        if kind == "not":
            return "!" + sub()
        if kind in ("and", "or"):
            return f"({sub()} {'&' if kind == 'and' else '|'} {sub()})"
        if kind == "diamond":
            return f"<{self.pick(self.acts)}>{self.guard()} {sub()}"
        if kind == "box":
            return f"[{self.pick(self.acts)}] {sub()}"
        if kind == "EU":
            return f"E({sub()} U {sub()})"
        acts = self.actions()
        return f"{kind}{'[' + ','.join(acts) + ']' if acts else ''}{self.guard()} {sub()}"

    def actions(self) -> list[str]:
        return [self.pick(self.acts) for _ in range(self.rng.randint(0, 2))]

    def valuation(self) -> str:
        names = self.pick([self.vars], [self.vars[1:], [*self.vars, "q"]])
        return ", ".join(f"{x}={self.pick(range(-3, 4), STRANGERS[3:])}" for x in names)

    def lts(self) -> str:
        steps = [f"{self.pick(STATES, ())} -{self.pick(self.acts)}-> {self.pick(STATES, ())}\n"
                 for _ in range(self.rng.randint(0, 4))]
        return "s0\n" + "".join(steps)

    def set_file(self) -> str:
        nodes = [*self.vars, *self.consts]
        node = lambda: self.pick(nodes, ODD_NODES)  # noqa: E731
        weight = lambda: self.pick(range(-3, 4), ODD_WEIGHTS)  # noqa: E731
        graphs = [
            {"nodes": nodes if self.rng.random() < 0.75 else [node()],
             "edges": [{"from": node(), "to": node(), "weight": weight()}
                       for _ in range(self.rng.randint(0, 3))]}
            for _ in range(self.rng.randint(0, 3))
        ]
        return json.dumps(self.pick([graphs], ({"nodes": nodes}, [{"edges": []}], [[]])))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("totality")


@settings(max_examples=800, derandomize=True, database=None, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_every_input_gets_a_verdict_or_exit_2(workdir, seed):
    rng = random.Random(seed)
    u = Inputs(rng)
    files = {"system.gcs": u.system(), "set.json": u.set_file(), "loop.lts": u.lts()}
    for name, content in files.items():
        (workdir / name).write_text(mangle(rng, content))
    sys_file, set_file, lts_file = (str(workdir / name) for name in files)
    command = rng.choice(["check", "denote", "prestar", "bisim"])
    options = [command, "--max-pool=20"]
    if command == "check":
        operands = [sys_file, mangle(rng, u.valuation()), mangle(rng, u.formula())]
    elif command == "denote":
        operands = [sys_file, mangle(rng, u.formula())]
    elif command == "prestar":
        options += ["--actions=" + ",".join(u.actions()),
                    "--guard=" + (u.clauses(True) if rng.random() < 0.5 else "")]
        operands = [sys_file, set_file]
    else:
        options.append("--mode=" + rng.choice(["strong", "weak"]))
        operands = [sys_file, mangle(rng, u.valuation()), lts_file,
                    u.pick(["s0"], ("s1", "nowhere"))]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(options + ["--"] + operands)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert any(line.startswith("error:") for line in err.getvalue().splitlines())
    else:
        assert out.getvalue()
