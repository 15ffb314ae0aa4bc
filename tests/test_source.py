"""Checks on the package source itself."""

import ast
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
