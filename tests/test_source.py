"""Checks on the package source itself."""

from __future__ import annotations

import ast
from pathlib import Path

import veroproj


def test_checks_raise_rather_than_assert():
    # `python -O` strips assert statements, so a check on a result must raise
    package = Path(veroproj.__file__).resolve().parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in src/veroproj: {found}"


def _names_used(path: Path) -> set[str]:
    """The names a module reads: bare names and attributes, not its own defs."""
    used = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def test_every_export_has_a_caller():
    # a public name that only its own tests call is code to delete, not to export
    package = Path(veroproj.__file__).resolve().parent
    init = package / "__init__.py"
    exports = [
        alias.name
        for node in ast.parse(init.read_text()).body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    callers = [p for p in package.glob("*.py") if p != init]
    callers += (Path(__file__).resolve().parents[1] / "perfbench").glob("*.py")
    used = set().union(*map(_names_used, callers))
    unused = [name for name in exports if name not in used]
    assert not unused, f"exported from veroproj with no caller in src/veroproj or perfbench: {unused}"


def test_every_import_is_read():
    # a name a module imports and never reads is dead weight; `__init__`
    # re-exports and `from __future__ import annotations` are exempt
    package = Path(veroproj.__file__).resolve().parent
    unread = []
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                bound = [(alias.asname or alias.name).split(".")[0] for alias in node.names]
                unread += [f"{path.name}:{node.lineno} {name}" for name in bound if name not in read]
    assert not unread, f"imported but never read in src/veroproj: {unread}"
