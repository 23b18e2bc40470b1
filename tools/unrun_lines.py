"""A pytest plugin that lists the function-body lines of src/towerbounds that
a test run never runs.

Run it from the repository root:

    PYTHONPATH=src:tools python -m pytest -p unrun_lines -q

``-p`` imports this module before conftest imports the package, and the
tracer is installed on import, so every call into the package is seen.  A
line counts as run when it raised a "line" trace event in the pytest process
or one of its threads; a line that runs only in a forked child (a density
scan's other shares) reads as unrun.  Lines marked ``pragma: no cover`` are
left out.  Tracing slows every call into the package, so hypothesis runs
without deadlines here.  The plugin lives outside ``tests/``, the only test
path, so the suite never collects it.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1].joinpath("src", "towerbounds")
_PREFIX = str(PACKAGE) + os.sep

_run: set[tuple[str, int]] = set()
_ours: dict[str, bool] = {}


def _line(frame, event, arg):
    if event == "line":
        _run.add((frame.f_code.co_filename, frame.f_lineno))
    return _line


def _call(frame, event, arg):
    name = frame.f_code.co_filename
    ours = _ours.get(name)
    if ours is None:
        ours = _ours[name] = os.path.realpath(name).startswith(_PREFIX)
    return _line if ours else None


sys.settrace(_call)
threading.settrace(_call)

try:
    from hypothesis import settings
except ImportError:  # pragma: no cover - hypothesis is in the test extra
    pass
else:
    settings.register_profile("unrun_lines", deadline=None)
    settings.load_profile("unrun_lines")


def body_lines(source: str) -> set[int]:
    """First lines of the statements inside function bodies, docstrings and
    lines marked ``pragma: no cover`` left out."""
    text = source.splitlines()
    lines = set()
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        body = fn.body
        if ast.get_docstring(fn) is not None:
            body = body[1:]
        stack = list(body)
        while stack:
            stmt = stack.pop()
            lines.add(stmt.lineno)
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue  # a nested body is walked as its own function
            for field in ("body", "orelse", "finalbody", "handlers"):
                stack.extend(getattr(stmt, field, ()))
    return {n for n in lines if "pragma: no cover" not in text[n - 1]}


def unrun() -> list[tuple[Path, int, str]]:
    run = {(os.path.realpath(name), n) for name, n in _run}
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        text = source.splitlines()
        for n in sorted(body_lines(source)):
            if (str(path), n) not in run:
                out.append((path, n, text[n - 1].strip()))
    return out


def pytest_terminal_summary(terminalreporter):
    sys.settrace(None)
    threading.settrace(None)
    rows = unrun()
    terminalreporter.section(f"function-body lines never run: {len(rows)}")
    root = PACKAGE.parents[1]
    for path, n, code in rows:
        terminalreporter.write_line(f"{path.relative_to(root)}:{n}: {code}")
