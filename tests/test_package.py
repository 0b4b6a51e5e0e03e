"""Rules that hold across the whole package source."""

import ast
from pathlib import Path

import mmskit


def test_no_assert_statements_in_the_package():
    # `python -O` strips assert statements, so an invariant must raise instead.
    root = Path(mmskit.__file__).parent
    found = [
        f"{path.relative_to(root)}:{node.lineno}"
        for path in sorted(root.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
