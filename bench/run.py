#!/usr/bin/env python3
"""Benchmark of gapmc: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload qbf --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout; gapmc is imported from the checkout's
``src``.  One process drives gapmc as a closed loop with a single caller,
one operation at a time, for whole rounds of the workload's operations until
``--seconds`` have passed.  Every answer is checked by a judge computed
apart from gapmc (``judges.py``); an operation that raises or answers wrong
counts as failed, and a wrong answer also makes ``correct`` false.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median cold start
of a fresh interpreter importing the workload's gapmc entry point),
``ops_per_s``, ``op_p50_ms``, ``op_p90_ms`` and ``peak_rss_mb``.
``--trace 1`` runs the round untraced, then again with spans around gapmc's
public functions (``spans.py``), and prints the per-layer metrics with the
tracing overhead; the spans are written to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
COLD_STARTS = 7
IMPORT_PROFILES = 5


def _env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": str(SRC) + (os.pathsep + path if path else "")}


def cold_start_s(modules) -> float:
    """Median wall time of a fresh interpreter importing ``modules``; one
    launch first so that every timed one finds the bytecode caches."""
    cmd = [sys.executable, "-c", "import " + ", ".join(modules)]
    subprocess.run(cmd, env=_env(), check=True)
    times = []
    for _ in range(COLD_STARTS):
        t0 = perf_counter()
        subprocess.run(cmd, env=_env(), check=True)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def import_ms() -> dict:
    """Median cumulative import times of numpy and of gapmc.cli (which
    includes numpy), from ``python -X importtime``."""
    cmd = [sys.executable, "-X", "importtime", "-c", "import gapmc.cli"]
    found = {"numpy": [], "gapmc.cli": []}
    for _ in range(IMPORT_PROFILES):
        err = subprocess.run(
            cmd, env=_env(), check=True, capture_output=True, text=True
        ).stderr
        for line in err.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in found:
                found[parts[2].strip()].append(int(parts[1]) / 1000)
    return {
        "import.numpy_ms": (statistics.median(found["numpy"]), "ms"),
        "import.gapmc.cli_ms": (statistics.median(found["gapmc.cli"]), "ms"),
    }


class Run:
    """Per-operation times and outcomes of whole rounds of operations."""

    def __init__(self):
        self.times: list[float] = []
        self.failed = 0
        self.wrong = 0
        self.graphs_created = 0
        self.pool_size_max = 0

    def ops_per_s(self) -> float:
        return len(self.times) / sum(self.times)


def measure(ops, seconds: float, counts: bool = False) -> Run:
    run = Run()
    start = perf_counter()
    while True:
        for op in ops:
            t0 = perf_counter()
            try:
                answer = op.run()
            except Exception:
                run.times.append(perf_counter() - t0)
                run.failed += 1
                if run.failed <= 3:
                    traceback.print_exc()
                continue
            run.times.append(perf_counter() - t0)
            try:
                ok = op.judge(answer)
            except Exception:  # an unreadable answer is a wrong one
                if run.failed < 3:
                    traceback.print_exc()
                ok = False
            if not ok:
                run.failed += 1
                run.wrong += 1
            if counts and ok:
                graphs, pool = op.counts(answer)
                run.graphs_created += graphs
                run.pool_size_max = max(run.pool_size_max, pool)
        if perf_counter() - start >= seconds:
            return run


def end_to_end(modules, ops, seconds: float) -> tuple[Run, dict]:
    setup = cold_start_s(modules)
    run = measure(ops, seconds)
    times = sorted(run.times)
    return run, {
        "setup_s": (setup, "s"),
        "ops_per_s": (run.ops_per_s(), "1/s"),
        "op_p50_ms": (statistics.median(times) * 1e3, "ms"),
        "op_p90_ms": (statistics.quantiles(times, n=10)[8] * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(ops, seconds: float, out: Path) -> tuple[list[Run], dict]:
    from spans import Tracer

    metrics = import_ms()
    base = measure(ops, seconds)
    tracer = Tracer()
    tracer.install()
    try:
        traced = measure(ops, seconds, counts=True)
    finally:
        tracer.uninstall()
    metrics.update(
        tracer.layer_metrics(
            len(traced.times),
            {"graphs_created": traced.graphs_created,
             "pool_size_max": traced.pool_size_max},
        )
    )
    metrics["trace.untraced_ops_per_s"] = (base.ops_per_s(), "1/s")
    metrics["trace.traced_ops_per_s"] = (traced.ops_per_s(), "1/s")
    metrics["trace.overhead_pct"] = (
        (base.ops_per_s() / traced.ops_per_s() - 1) * 100, "%"
    )
    out.parent.mkdir(exist_ok=True)
    tracer.write(out)
    return [base, traced], metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("qbf", "bisim", "denote"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "gapmc" / "__init__.py").is_file():
        print(f"error: no gapmc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    modules, make_ops = WORKLOADS[args.workload]
    (BENCH / "work").mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=BENCH / "work")
    try:
        ops = make_ops(args.seed, args.seconds, workdir)
        if args.trace:
            out = BENCH / "results" / f"spans-{args.workload}-seed{args.seed}.json"
            runs, metrics = per_layer(ops, args.seconds, out)
        else:
            run, metrics = end_to_end(modules, ops, args.seconds)
            runs = [run]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({
        "correct": not any(r.wrong for r in runs),
        "attempted": sum(len(r.times) for r in runs),
        "failed": sum(r.failed for r in runs),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
