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


def _names_read(tree: ast.AST) -> set[str]:
    """The names a syntax tree reads: bare names and attributes, not its own defs."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def _names_used(path: Path) -> set[str]:
    return _names_read(ast.parse(path.read_text(), filename=str(path)))


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


def test_every_public_definition_has_a_reader():
    # the module-level twin of the export check: a public function or class
    # that nothing reads outside its own body is code to delete
    package = Path(veroproj.__file__).resolve().parent
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    statements = [
        (path, stmt, _names_read(stmt))
        for path in sorted(package.glob("*.py")) + sorted(perfbench.glob("*.py"))
        for stmt in ast.parse(path.read_text(), filename=str(path)).body
    ]
    unread = [
        f"{path.name}:{stmt.lineno} {stmt.name}"
        for path, stmt, _ in statements
        if path.parent == package
        and isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
        and not stmt.name.startswith("_")
        and not any(stmt.name in names for _, other, names in statements if other is not stmt)
    ]
    assert not unread, f"public in src/veroproj with no reader in src/veroproj or perfbench: {unread}"


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
