"""Exactness of the library, read off its source: every result is an int or a
Fraction, so no module may hold a float literal, call float() or use the
true-division operator ``/`` (floor division ``//`` is exact)."""

from __future__ import annotations

import ast
from pathlib import Path

import towerbounds

SOURCES = sorted(Path(towerbounds.__file__).resolve().parent.rglob("*.py"))


def inexact_nodes(tree: ast.AST) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(f"line {node.lineno}: literal {node.value!r}")
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "float"):
            found.append(f"line {node.lineno}: float() call")
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append(f"line {node.lineno}: '/' operator")
    return found


def test_sources_found():
    names = {path.name for path in SOURCES}
    assert {"series.py", "bounds.py", "curve.py", "density.py"} <= names


def test_no_float_literal_call_or_true_division():
    offences = {path.name: inexact_nodes(ast.parse(path.read_text(encoding="utf-8")))
                for path in SOURCES}
    assert {name: found for name, found in offences.items() if found} == {}


def test_walk_flags_each_form():
    tree = ast.parse("a = 1.5\nb = float(a)\nc = a / 2\nc /= 3\nd = a // 2\n")
    assert sorted(line.split(":")[0] for line in inexact_nodes(tree)) == [
        "line 1", "line 2", "line 3", "line 4"]
