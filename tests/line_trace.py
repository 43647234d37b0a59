"""Statements of src/nmesolve/*.py that the Tier-1 suite never reaches.

    python tests/line_trace.py [OUT.json]

Runs pytest in-process over tests/ and bench/ with a ``sys.settrace`` line
tracer on the frames of src/nmesolve only (``coverage`` is not a dependency),
then prints each unreached statement as ``module.py:line text`` and, given
OUT.json, writes ``{"pytest_exit": ..., "unreached": [...]}`` there.  A
statement counts as reached when a line event falls on its header: for a
compound statement (if, for, while, with, try) the lines before its first
body statement, otherwise all its lines.  Docstrings, defs, classes and
imports are not statements here.  Code run in a child process (``nme`` as a
command, ``python -m nmesolve``) is not traced.  The file is not collected
by pytest, whose test files are named ``test_*.py``.
"""

import ast
import json
import os
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "nmesolve"


def trace_suite() -> tuple[int, dict]:
    """Run the suite under the tracer; returns pytest's exit code and the
    line numbers reached per file name."""
    hits = {}

    def local(frame, event, arg):
        if event == "line":
            hits.setdefault(frame.f_code.co_filename, set()).add(frame.f_lineno)
        return local

    def enter(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(str(SRC)) else None

    os.chdir(ROOT)
    sys.settrace(enter)
    threading.settrace(enter)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", "tests", "bench"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), hits


def statements(tree: ast.Module):
    """(first, last) line of the header of each statement of ``tree``."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef,
                       ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            continue  # a docstring
        body = getattr(node, "body", None)
        end = body[0].lineno - 1 if isinstance(body, list) and body else node.end_lineno
        yield node.lineno, max(node.lineno, end)


def unreached(hits: dict) -> list[str]:
    out = []
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        lines, got = text.splitlines(), hits.get(str(path), set())
        out.extend(f"{path.name}:{first} {lines[first - 1].strip()}"
                   for first, last in statements(ast.parse(text))
                   if not got.intersection(range(first, last + 1)))
    return out


def main(argv: list[str]) -> int:
    code, hits = trace_suite()
    missed = unreached(hits)
    print(f"pytest exit {code}; {len(missed)} statements unreached")
    print("\n".join(missed))
    if argv:
        Path(argv[0]).write_text(json.dumps({"pytest_exit": code, "unreached": missed}, indent=1))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
