"""No public name in ``src/wot`` that only tests use.

Every public module-level function and class of ``src/wot`` must be
loaded, as a name or an attribute, somewhere in ``src/wot`` or
``perfbench`` outside its own definition. An import or an ``__all__``
entry does not count as a use.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "wot"


def _trees(directory):
    return [(path, ast.parse(path.read_text(encoding="utf-8"), str(path)))
            for path in sorted(directory.glob("*.py"))]


def test_every_public_definition_is_used_outside_tests():
    loads = []  # (path, line, name)
    for path, tree in _trees(SRC) + _trees(ROOT / "perfbench"):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loads.append((path, node.lineno, node.id))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loads.append((path, node.lineno, node.attr))

    unused = []
    for path, tree in _trees(SRC):
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) \
                    or node.name.startswith("_"):
                continue
            inside = range(node.lineno, node.end_lineno + 1)
            if not any(name == node.name and not (where == path and line in inside)
                       for where, line, name in loads):
                unused.append(f"{path.name}::{node.name}")
    assert unused == []
