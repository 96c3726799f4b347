"""Every top-level function, class and assigned name of the package, and
every method and property of its classes, is read by the package.

A name that only tests reach is dead weight: no scenario, verdict or export
depends on it.  A name counts as read when it appears in ``src/weakcomm`` as
a loaded name, an attribute or an imported name (so an ``__init__`` export
is a use); its own definition, or any assignment to it, does not count.
Dunder names, which the language reads, are exempt.

Likewise every defaulted parameter is passed, by position or keyword, by some
call in ``src/weakcomm`` or in the benchmark's scripts (``perfbench/*.py``
other than its tests), matching calls to definitions by name: a default that
no caller overrides is a constant.
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
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
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


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def test_every_module_level_assignment_is_read_by_the_package():
    trees = _trees()
    read = _read_names(trees)
    unread = sorted(
        f"{module}:{target.id}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name) and not _dunder(target.id) and target.id not in read
    )
    assert unread == []


def test_every_method_and_property_is_read_by_the_package():
    trees = _trees()
    read = _read_names(trees)
    unread = sorted(
        f"{module}:{cls.name}.{node.name}"
        for module, tree in trees.items()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not _dunder(node.name)
        and node.name not in read
    )
    assert unread == []


# The entry point that tests call with an argument list; the console script
# calls it without one.
_DEFAULT_EXEMPT = {"cli:main(argv)"}


def _calls() -> list[ast.Call]:
    scripts = (PACKAGE.parents[1] / "perfbench").glob("*.py")
    paths = list(PACKAGE.glob("*.py")) + [p for p in scripts if not p.name.startswith("test_")]
    return [
        node
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
    ]


def _callee(call: ast.Call) -> str | None:
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def _defaulted(fn: ast.FunctionDef, bound: int) -> list[tuple[str, int | None]]:
    """(name, position among the caller's arguments or None when keyword-only)
    of every parameter with a default; ``bound`` leading parameters (self) are
    not passed by the caller."""
    args = fn.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    out = [(a.arg, i - bound) for i, a in enumerate(positional) if i >= first]
    out += [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return out


def _passes(call: ast.Call, name: str, position: int | None) -> bool:
    if any(k.arg is None or k.arg == name for k in call.keywords):
        return True
    if position is None:
        return False
    return any(isinstance(a, ast.Starred) for a in call.args) or len(call.args) > position


def _functions(trees):
    """(label prefix, name its callers use, definition, count of bound leading
    parameters) of every top-level function and every method."""
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield f"{module[:-3]}:{node.name}", node.name, node, 0
            elif isinstance(node, ast.ClassDef):
                for fn in node.body:
                    if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        continue
                    static = any(
                        isinstance(d, ast.Name) and d.id == "staticmethod"
                        for d in fn.decorator_list
                    )
                    callee = node.name if fn.name in ("__init__", "__new__") else fn.name
                    yield f"{module[:-3]}:{node.name}.{fn.name}", callee, fn, 0 if static else 1


def test_every_defaulted_parameter_is_passed_by_some_call():
    by_callee: dict[str, list[ast.Call]] = {}
    for call in _calls():
        by_callee.setdefault(_callee(call), []).append(call)
    unpassed = sorted(
        f"{label}({name})"
        for label, callee, fn, bound in _functions(_trees())
        for name, position in _defaulted(fn, bound)
        if f"{label}({name})" not in _DEFAULT_EXEMPT
        and not any(_passes(c, name, position) for c in by_callee.get(callee, []))
    )
    assert unpassed == []
