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
