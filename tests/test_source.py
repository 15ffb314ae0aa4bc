"""Checks on the package source itself."""

import ast
import importlib
from pathlib import Path

import gapmc


def test_no_assert_statements_in_the_package():
    # python -O strips assert statements, so an invariant check written as
    # one would silently stop running; the package raises real exceptions
    found = []
    for path in sorted(Path(gapmc.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_every_function_the_benchmark_traces_exists():
    # bench/run.py --trace 1 wraps these by name; a renamed or removed
    # function would silently drop out of the per-layer report
    spans = Path(__file__).parents[1] / "bench" / "spans.py"
    table = next(
        ast.literal_eval(node.value)
        for node in ast.parse(spans.read_text()).body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["FUNCTIONS"]
    )
    missing = []
    for module_name, names in table.items():
        module = importlib.import_module("gapmc." + module_name)
        for name in names:
            # spans wraps mg.closure on the graph class, the others on their module
            owner = module.MonotonicityGraph if (module_name, name) == ("mg", "closure") else module
            if not callable(getattr(owner, name, None)):
                missing.append(f"{module_name}.{name}")
    assert table and missing == []


def test_every_cache_is_bounded_and_lives_in_mg():
    # node positions and per-universe tables are worked out in mg alone, and
    # an unbounded module cache would grow for the life of the process
    uses = []
    for path in sorted(Path(gapmc.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (getattr(node, "attr", None) or getattr(node, "id", None)) in ("lru_cache", "cache"):
                uses.append(f"{path.name}:{node.lineno}")
    assert uses and {use.split(":")[0] for use in uses} == {"mg.py"}, uses
    mg = importlib.import_module("gapmc.mg")
    cached = [f for f in vars(mg).values() if hasattr(f, "cache_parameters")]
    assert len(cached) == len(uses)  # each use decorates a module-level function
    assert all(isinstance(f.cache_parameters()["maxsize"], int) for f in cached)
