"""Every private helper of the library has a caller in the library.

Slow reference versions that only the tests read belong in
`tests/oracles_bf.py`, not under src/raagkit, so a module-level `_name`
function there that nothing in the package reads is a leftover."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "raagkit"


def test_every_private_function_has_a_caller():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path)) for path in sorted(SRC.glob("*.py"))}
    uses = []  # (name, module, line) of every read of a name or an attribute
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses.append((node.id, module, node.lineno))
            elif isinstance(node, ast.Attribute):
                uses.append((node.attr, module, node.lineno))
    orphans = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, ast.FunctionDef) or not node.name.startswith("_") or node.name.startswith("__"):
                continue
            inside = range(node.lineno, node.end_lineno + 1)
            if not any(n == node.name and not (m == module and line in inside) for n, m, line in uses):
                orphans.append(f"{module}:{node.lineno} {node.name}")
    assert orphans == []
