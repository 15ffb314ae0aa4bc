"""Seeded inputs and operations of the three workloads.

Every workload is a list of operations, generated from the seed alone in
blocks of a fixed make-up; a round holds enough blocks for about 1.3 times
the measured seconds on the reference host (see README.md) and never fewer
than 100 operations.  gapmc receives only the generated inputs.  Each
operation carries its own judge, computed at set-up by ``judges`` from the
inputs, without gapmc.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Any, Callable

import judges
from gapmc import bisim, cli, gcs, logic, reductions
from gapmc.bisim import FiniteLts
from gapmc.frontend import parse_qbf
from gapmc.sets import Metrics


@dataclass
class Op:
    """One call into gapmc: ``run`` returns its answer, ``judge`` says whether
    the answer is right, ``counts`` reads the ``Metrics`` the call filled as
    (graphs created, pool size)."""

    run: Callable[[], Any]
    judge: Callable[[Any], bool]
    counts: Callable[[Any], tuple[int, int]]


def _round_blocks(seconds: float, block_s: float, block_ops: int) -> int:
    """Blocks in a round: about 1.3 x ``seconds`` of work at ``block_s``
    seconds per block (each ``*_BLOCK_S`` is measured on the reference
    host), and at least 100 operations."""
    return max(math.ceil(1.3 * seconds / block_s), math.ceil(100 / block_ops))


# -- qbf ------------------------------------------------------------------------


def _binomial(k: int) -> list[int]:
    """Numbers of universal quantifiers over 2**k prefixes of k variables."""
    return [a for a in range(k + 1) for _ in range(math.comb(k, a))]


# (variables, universal quantifiers) of one block: as many instances of each
# size, with the universal counts of uniformly random prefixes
QBF_BLOCK = (
    [(3, a) for a in _binomial(3)] * 4
    + [(4, a) for a in _binomial(4)] * 2
    + [(5, a) for a in _binomial(5)]
)
QBF_BLOCK_S = 1.6

# (variables, universal quantifiers) of one denote block
DENOTE_BLOCK = [(4, 1), (4, 1), (4, 2), (5, 1)]
DENOTE_BLOCK_S = 0.33


def random_qbf(rng: random.Random, k: int, universal: int):
    """A prenex QBF over x1..xk with ``universal`` universal quantifiers at
    random positions and, as in the criterion-5 corpus, a matrix of one to
    four distinct literal disjunctions.  Returns (text, prefix, cnf)."""
    names = [f"x{i}" for i in range(1, k + 1)]
    quants = ["A"] * universal + ["E"] * (k - universal)
    rng.shuffle(quants)
    disjunctions = [
        tuple(zip(sub, signs))
        for n in range(1, k + 1)
        for sub in itertools.combinations(names, n)
        for signs in itertools.product((True, False), repeat=n)
    ]
    cnf = rng.sample(disjunctions, rng.randint(1, 4))
    prefix = list(zip(quants, names))
    text = " ".join(f"{q} {v}" for q, v in prefix) + " : " + " & ".join(
        "(" + " | ".join(v if pos else "!" + v for v, pos in c) + ")" for c in cnf
    )
    return text, prefix, cnf


def _metrics_counts(answer) -> tuple[int, int]:
    m = answer[1]
    return m.graphs_created, m.pool_size


def qbf_ops(seed: int, seconds: float, workdir: str) -> list[Op]:
    """reductions.qbf_to_gcs(q) then logic.check(g, v0, f): early-stop
    backward reachability; judged by the QBF's truth value."""
    rng = random.Random(seed)
    ops = []
    for _ in range(_round_blocks(seconds, QBF_BLOCK_S, len(QBF_BLOCK))):
        for k, universal in QBF_BLOCK:
            text, prefix, cnf = random_qbf(rng, k, universal)
            ops.append(_qbf_op(parse_qbf(text), judges.qbf_value(prefix, cnf)))
    return ops


def _qbf_op(q, expected: bool) -> Op:
    def run():
        m = Metrics()
        g, v0, f = reductions.qbf_to_gcs(q)
        return logic.check(g, v0, f, metrics=m), m

    return Op(run, lambda answer: answer[0] == expected, _metrics_counts)


# -- bisim --------------------------------------------------------------------

LTS_ACTS = ("a", "b", "tau")
# (states, labels of the transitions) of each LTS of one block; the last
# LTS has no tau step, so that weak and strong bisimilarity coincide on it
BISIM_BLOCK = [
    (3, ("a", "a", "b", "tau")),
    (4, ("a", "b", "tau")),
    (3, ("a", "a", "b", "b")),
]
BISIM_BLOCK_S = 2.8


def random_lts(rng: random.Random, n: int, labels) -> FiniteLts:
    """States s0..s(n-1) and one distinct transition per entry of
    ``labels``, with random source and target, drawn again until no two
    states are strongly bisimilar."""
    states = tuple(f"s{i}" for i in range(n))
    while True:
        transitions: set = set()
        for a in labels:
            while True:
                t = (rng.choice(states), a, rng.choice(states))
                if t not in transitions:
                    transitions.add(t)
                    break
        same = judges.bisimilar(states, transitions, weak=False)
        if all(p == q for p, q in same):
            return FiniteLts(states, LTS_ACTS, frozenset(transitions))


def bisim_ops(seed: int, seconds: float, workdir: str) -> list[Op]:
    """bisim.equiv_check(encode_finite_lts(l), {"state": i}, l, s, mode) for
    every state pair of each LTS, strong then weak; judged by the
    bisimilarity the benchmark computes itself."""
    rng = random.Random(seed)
    block_ops = sum(2 * n * n for n, _ in BISIM_BLOCK)
    ops = []
    for _ in range(_round_blocks(seconds, BISIM_BLOCK_S, block_ops)):
        for n, labels in BISIM_BLOCK:
            l = random_lts(rng, n, labels)
            for mode in ("strong", "weak"):
                same = judges.bisimilar(l.states, l.transitions, mode == "weak")
                for i, p in enumerate(l.states, start=1):
                    for s in l.states:
                        ops.append(_bisim_op(l, i, s, mode, (p, s) in same))
    return ops


def _bisim_op(l: FiniteLts, i: int, s: str, mode: str, expected: bool) -> Op:
    def run():
        m = Metrics()
        g = gcs.encode_finite_lts(l)
        return bisim.equiv_check(g, {"state": i}, l, s, mode, metrics=m), m

    return Op(run, lambda answer: answer[0] == expected, _metrics_counts)


# -- denote -------------------------------------------------------------------


def denote_ops(seed: int, seconds: float, workdir: str) -> list[Op]:
    """``gapmc denote <instance.gcs> "<EF target>" --metrics`` through
    gapmc.cli.main, on instances ``gapmc gen-qbf`` writes at set-up: the
    full reachability fixpoint, its JSON output and the parsers.  Judged by
    membership of every encoded state against an explicit search, and of
    the initial state against the QBF's truth value."""
    rng = random.Random(seed)
    ops = []
    blocks = _round_blocks(seconds, DENOTE_BLOCK_S, len(DENOTE_BLOCK))
    for b in range(blocks):
        for j, (k, universal) in enumerate(DENOTE_BLOCK):
            text, prefix, cnf = random_qbf(rng, k, universal)
            out = os.path.join(workdir, f"{b}-{j}")
            with contextlib.redirect_stdout(io.StringIO()):
                if cli.main(["gen-qbf", text, "--out", out]) != 0:
                    raise RuntimeError(f"gapmc gen-qbf failed on {text!r}")
            files = {}
            for name in ("instance.gcs", "initial.val", "target.ef"):
                with open(os.path.join(out, name)) as fh:
                    files[name] = fh.read()
            inst = judges.Instance(
                files["instance.gcs"], files["initial.val"], files["target.ef"]
            )
            path = os.path.join(out, "instance.gcs")
            target = files["target.ef"].strip()
            judge = DenoteJudge(inst, judges.qbf_value(prefix, cnf))
            ops.append(_denote_op(path, target, judge))
    return ops


class DenoteJudge:
    """Right when the exit code is 0, every encoded state's membership in
    the printed set equals the explicit search, and the initial state's
    equals the QBF's truth value."""

    def __init__(self, inst: judges.Instance, truth: bool):
        self.inst, self.truth = inst, truth

    def __call__(self, answer) -> bool:
        code, out, _ = answer
        if code != 0:
            return False
        member = self.inst.members(json.loads(out))
        return bool((member == self.inst.reach).all()) and bool(
            member[self.inst.initial]
        ) is self.truth


def _denote_op(path: str, target: str, judge: DenoteJudge) -> Op:
    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["denote", path, target, "--metrics"])
        return code, out.getvalue(), err.getvalue()

    def counts(answer):
        m = json.loads(answer[2].splitlines()[-1])  # after any warnings
        return m["graphs_created"], m["pool_size"]

    return Op(run, judge, counts)


# name -> (modules a cold start imports, operations)
WORKLOADS = {
    "qbf": (("gapmc.reductions", "gapmc.logic"), qbf_ops),
    "bisim": (("gapmc.bisim", "gapmc.gcs"), bisim_ops),
    "denote": (("gapmc.cli",), denote_ops),
}
