"""Seeded engine runs against a recording of their verdicts, member bytes and Metrics.

``tests/data/identity.json`` holds one record per case: the verdict (or
the refusal's type and message), a digest of the denoted set's member
bytes and every ``Metrics`` field.  The cases are ``denote`` and ``check``
calls on ``oracle.random_window_closed_gcs`` systems and
``oracle.random_formula`` formulas, with pool caps of 0 to 6 or none,
``equiv_check`` calls on random small LTSs, and operations of the qbf
benchmark workload.  A change to the engine's internals must leave every
record as it is; a change that means to alter one rewrites the file with

    PYTHONPATH=src python tests/test_identity.py

and says why in its change notes.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
import tempfile
from pathlib import Path

from gapmc import bisim, gcs, logic, oracle
from gapmc.sets import Metrics

RECORDING = Path(__file__).parent / "data" / "identity.json"
BENCH = Path(__file__).parents[1] / "bench"


def _outcome(run) -> dict:
    """The record of run(metrics): its verdict, the digest of a set's
    member bytes, and the Metrics it filled."""
    metrics = Metrics()
    try:
        out = run(metrics)
    except (ValueError, RuntimeError) as e:  # GuardError, PoolLimitExceeded, ...
        return {"verdict": f"{type(e).__name__}: {e}", "metrics": metrics.as_dict()}
    if isinstance(out, logic.Denotation):
        w = out.set.u.leave(out.set.w)  # the full layout the recording was made in
        digest = hashlib.sha256(repr(w.shape).encode() + w.tobytes()).hexdigest()[:20]
        return {"verdict": len(w), "members": digest, "metrics": metrics.as_dict()}
    return {"verdict": out, "metrics": metrics.as_dict()}


def _cap(rng: random.Random):
    c = rng.randint(0, 7)
    return None if c == 7 else c


def _random_lts(rng: random.Random) -> bisim.FiniteLts:
    states = tuple(f"s{i}" for i in range(rng.randint(2, 3)))
    acts = ("a", "b", "tau")
    transitions = {
        (rng.choice(states), rng.choice(acts), rng.choice(states)) for _ in range(rng.randint(1, 5))
    }
    return bisim.FiniteLts(states, acts, frozenset(transitions))


def record() -> dict[str, dict]:
    """Every case of the recording, by name."""
    out: dict[str, dict] = {}
    rng = random.Random(2026)
    for i in range(200):
        g = oracle.random_window_closed_gcs(rng, 0, rng.choice((3, 4, 6)))
        f = oracle.random_formula(rng, g, 4)
        f = logic.Ef(f) if i % 3 == 0 else f
        cap = None if i % 2 else _cap(rng)
        out[f"denote {i}"] = _outcome(lambda m: logic.denote(g, f, metrics=m, max_pool=cap))
    for i in range(600):
        g = oracle.random_window_closed_gcs(rng, 0, rng.choice((3, 4, 6)))
        f = oracle.random_formula(rng, g, 4)
        f = logic.Ef(f) if i % 2 else f
        v = {x: rng.randint(-1, 7) for x in g.vars}
        cap = _cap(rng)
        out[f"check {i}"] = _outcome(lambda m: logic.check(g, v, f, metrics=m, max_pool=cap))
    for i in range(40):
        lts = _random_lts(rng)
        g = gcs.encode_finite_lts(lts)
        p, s = rng.randint(1, len(lts.states)), rng.choice(lts.states)
        mode = rng.choice(("strong", "weak"))
        out[f"equiv_check {i}"] = _outcome(
            lambda m: bisim.equiv_check(g, {"state": p}, lts, s, mode, metrics=m)
        )
    sys.path.insert(0, str(BENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(BENCH))
    with tempfile.TemporaryDirectory() as work:
        ops = workloads.qbf_ops(7, 0, work)[:30]
    for i, op in enumerate(ops):
        verdict, metrics = op.run()
        out[f"qbf {i}"] = {"verdict": verdict, "metrics": metrics.as_dict()}
    return out


def test_engine_runs_match_the_recording():
    expect = json.loads(RECORDING.read_text())
    got = json.loads(json.dumps(record()))
    assert sorted(got) == sorted(expect)
    differ = [name for name in expect if got[name] != expect[name]]
    assert differ == [], [(name, expect[name], got[name]) for name in differ[:3]]


if __name__ == "__main__":
    cases = record()
    RECORDING.write_text(
        "{\n" + ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in cases.items()) + "\n}\n"
    )
    print(f"wrote {len(cases)} cases to {RECORDING}")
