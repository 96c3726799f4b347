"""Every top-level function and class of the package is read by the package.

A name that only tests reach is dead weight: no scenario, verdict or export
depends on it.  A name counts as read when it appears in ``src/weakcomm`` as
a loaded name, an attribute or an imported name (so an ``__init__`` export
is a use); its own definition does not count.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "weakcomm"


def _trees():
    return {
        path.name: ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE.glob("*.py")
    }


def _read_names(trees) -> set[str]:
    names = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return names


def test_every_top_level_definition_is_read_by_the_package():
    trees = _trees()
    read = _read_names(trees)
    unread = sorted(
        f"{module}:{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name not in read
    )
    assert unread == []
