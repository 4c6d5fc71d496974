"""The library checks its invariants with explicit raises: `python -O`
strips assert statements, so none may appear under src/raagkit."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "raagkit"


def test_library_has_no_assert_statements():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []
