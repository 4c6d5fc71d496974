"""The library checks its invariants with explicit raises: `python -O`
strips assert statements, so none may appear under src/raagkit, and a
raised AssertionError would reach the user as a raw traceback instead of
the one-line internal error of `InvariantViolationError`."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "raagkit"


def _nodes(pred):
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if pred(node)]
    return found


def test_library_has_no_assert_statements():
    assert _nodes(lambda node: isinstance(node, ast.Assert)) == []


def test_library_raises_no_assertion_error():
    assert _nodes(lambda node: isinstance(node, ast.Name) and node.id == "AssertionError") == []
