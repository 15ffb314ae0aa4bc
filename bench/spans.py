"""Spans around calls into gapmc's public functions, recorded from outside.

``Tracer.install`` replaces each function listed in ``FUNCTIONS`` by a
wrapper in every gapmc module that binds it (``sets`` imports
``compose_batch`` by name, ``cli`` the frontend parsers, ``frontend``
``make_set``), and ``MonotonicityGraph.closure`` on its class.  A span is
(function, start, end, parent); spans stay in memory until ``write``.  A
function that calls itself through its module name (``nesting_depth``) is
timed at its outermost call only.  Self time is a span's duration minus the
durations of its direct children.

The wrappers also count, where the work happens, the ratios of useful
outcomes to attempts and the sizes named in ``Tracer.layer_metrics``.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

FUNCTIONS = {
    "mg": ("closure", "compose", "compose_batch", "close_rules"),
    "sets": (
        "make_set",
        "intersect_sets",
        "complement",
        "pre_constraint",
        "transitional_graphs",
        "pre_star",
        "reaches",
    ),
    "logic": ("denote", "check", "nesting_depth"),
    "bisim": ("characteristic_formula", "equiv_check"),
    "reductions": ("qbf_to_gcs",),
    "frontend": ("parse_gcs", "parse_formula", "dump_set"),
    "cli": ("main",),
}

NAMES = [f"{m}.{f}" for m, fs in FUNCTIONS.items() for f in fs]

# ratios of useful outcomes to attempts: metric -> (numerator, denominator)
RATIOS = {
    "mg.compose_batch.kept_ratio": ("compose_batch.kept", "compose_batch.pairs"),
    "mg.compose.sat_ratio": ("compose.sat", "compose.calls"),
    "mg.closure.work_ratio": ("closure.open", "closure.calls"),
    "sets.make_set.kept_ratio": ("make_set.out", "make_set.in"),
}
# sizes counted by the wrappers, reported per operation
PER_OP = {
    "frontend.parse_gcs.bytes": "parse_gcs.bytes",
    "frontend.dump_set.bytes": "dump_set.bytes",
}


def _formula_sizes(f) -> tuple[int, int]:
    """(structurally distinct nodes, nodes as a tree) of a formula DAG,
    visiting each node object once, without recursion: a node's canonical
    id is its type and field values with children replaced by their ids."""
    canon: dict = {}
    done: dict[int, tuple[int, int]] = {}  # id(node) -> (canonical id, tree size)
    stack = [(f, False)]
    while stack:
        node, expanded = stack.pop()
        if id(node) in done:
            continue
        values = [getattr(node, name) for name in node.__dataclass_fields__]
        if not expanded:
            stack.append((node, True))
            stack.extend((v, False) for v in values if hasattr(v, "__dataclass_fields__"))
            continue
        fields, size = [type(node).__name__], 1
        for v in values:
            if hasattr(v, "__dataclass_fields__"):
                cid, sub = done[id(v)]
                fields.append(("node", cid))
                size += sub
            else:
                fields.append(v)
        done[id(node)] = (canon.setdefault(tuple(fields), len(canon)), size)
    return len(canon), done[id(f)][1]


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._depth = [0] * len(NAMES)
        self.counts: dict[str, float] = defaultdict(float)
        self.formulas: dict = {}  # arguments -> [formula, calls]
        self._patches: list = []

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, name: str, fn, before=None, after=None):
        idx = NAMES.index(name)
        spans, stack, depth = self.spans, self._stack, self._depth

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if depth[idx]:
                return fn(*args, **kwargs)  # a recursive call inside the span
            if before is not None:
                args, kwargs = before(args, kwargs)
            parent = stack[-1] if stack else -1
            i = len(spans)
            spans.append(None)
            stack.append(i)
            depth[idx] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                depth[idx] -= 1
                stack.pop()
                spans[i] = (idx, t0, t1, parent)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _hooks(self, name: str):
        c = self.counts

        def closure_before(args, kwargs):
            c["closure.calls"] += 1
            c["closure.open"] += not args[0].closed
            return args, kwargs

        def compose_after(args, result):
            c["compose.calls"] += 1
            c["compose.sat"] += not np.isposinf(result.w).any()

        def compose_batch_after(args, result):
            c["compose_batch.pairs"] += len(result)
            c["compose_batch.kept"] += sum(r is not None for r in result)

        def make_set_before(args, kwargs):
            # make_set(vars, consts, graphs=()) takes any iterable: count it
            if len(args) > 2:
                args = args[:2] + (list(args[2]),) + args[3:]
                c["make_set.in"] += len(args[2])
            elif "graphs" in kwargs:
                kwargs = {**kwargs, "graphs": list(kwargs["graphs"])}
                c["make_set.in"] += len(kwargs["graphs"])
            return args, kwargs

        def make_set_after(args, result):
            c["make_set.out"] += len(result.members)

        def count(key, size):
            def after(args, result):
                c[key] += size(args, result)

            return after

        def keep_formula(args, result):
            # equal arguments give an equal formula: size each one once
            self.formulas.setdefault(args, [result, 0])[1] += 1

        return {
            "mg.closure": (closure_before, None),
            "mg.compose": (None, compose_after),
            "mg.compose_batch": (None, compose_batch_after),
            "sets.make_set": (make_set_before, make_set_after),
            "frontend.parse_gcs": (None, count("parse_gcs.bytes", lambda a, r: len(a[0]))),
            "frontend.dump_set": (None, count("dump_set.bytes", lambda a, r: len(r))),
            "reductions.qbf_to_gcs": (
                None,
                count("qbf_to_gcs.rules", lambda a, r: len(r[0].rules)),
            ),
            "bisim.characteristic_formula": (None, keep_formula),
        }.get(name, (None, None))

    def install(self) -> None:
        """Wrap every listed function in every loaded gapmc module."""
        import gapmc.cli  # noqa: F401  (loads every module that binds one)
        from gapmc.mg import MonotonicityGraph

        modules = [m for k, m in sys.modules.items() if k.startswith("gapmc.")]
        for mod_name, funcs in FUNCTIONS.items():
            home = importlib.import_module("gapmc." + mod_name)
            for f in funcs:
                name = f"{mod_name}.{f}"
                if name == "mg.closure":
                    original = MonotonicityGraph.closure
                    owners = [MonotonicityGraph]
                else:
                    original = getattr(home, f)
                    owners = [m for m in modules if vars(m).get(f) is original]
                wrapper = self._wrap(name, original, *self._hooks(name))
                for owner in owners:
                    self._patches.append((owner, f, original))
                    setattr(owner, f, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ----------------------------------------------------------------

    def layer_metrics(self, ops: int, op_counts: dict) -> dict:
        """Per-layer metrics over ``ops`` traced operations.  Calls, self time
        and sizes are per operation; ``op_counts`` holds the sums of the
        ``Metrics`` each operation filled."""
        calls = [0] * len(NAMES)
        total = [0.0] * len(NAMES)
        children = [0.0] * len(self.spans)
        for idx, t0, t1, parent in self.spans:
            calls[idx] += 1
            total[idx] += t1 - t0
            if parent >= 0:
                children[parent] += t1 - t0
        for (idx, _, _, _), child in zip(self.spans, children):
            total[idx] -= child
        out = {}
        for i, name in enumerate(NAMES):
            out[f"{name}.calls"] = (calls[i] / ops, "count/op")
            out[f"{name}.self_s"] = (total[i] / ops, "s/op")
        c = self.counts
        for name, (num, den) in RATIOS.items():
            out[name] = (c[num] / c[den] if c[den] else 0.0, "ratio")
        for name, key in PER_OP.items():
            out[name] = (c[key] / ops, "count/op")
        out["sets.graphs_created"] = (op_counts["graphs_created"] / ops, "count/op")
        out["sets.pool_size_max"] = (op_counts["pool_size_max"], "count")
        nodes = tree = 0
        for f, k in self.formulas.values():
            distinct, size = _formula_sizes(f)
            nodes, tree = nodes + k * distinct, tree + k * size
        n = sum(k for _, k in self.formulas.values()) or 1
        out["bisim.formula_nodes"] = (nodes / n, "count")
        out["bisim.formula_tree_nodes"] = (tree / n, "count")
        calls_q = calls[NAMES.index("reductions.qbf_to_gcs")]
        out["reductions.qbf_to_gcs.rules"] = (
            c["qbf_to_gcs.rules"] / calls_q if calls_q else 0.0,
            "count",
        )
        return out

    def write(self, path) -> None:
        """All spans as rows [function, start_ns, duration_ns, parent], with
        start times relative to the first span."""
        t_first = self.spans[0][1] if self.spans else 0.0
        rows = [
            [idx, round((t0 - t_first) * 1e9), round((t1 - t0) * 1e9), parent]
            for idx, t0, t1, parent in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({"functions": NAMES, "spans": rows}, fh, separators=(",", ":"))
