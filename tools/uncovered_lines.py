"""Print every statement of ``src/ffrat`` that the Tier-1 suite never runs.

Run from anywhere with ``python3 tools/uncovered_lines.py``.  It runs the
Tier-1 suite in this process under ``sys.settrace``, with line events only in
frames whose code lives in ``src/ffrat``, and then prints ``file:line:
source`` for each statement none of whose lines ran, docstrings aside.  A
compound statement counts as run when any line of it ran, its body included.
Code that runs only in a child process (a demo, the console script, a worker
of ``verify --jobs``) is not seen.  Standard library and pytest only.
"""

from __future__ import annotations

import ast
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ffrat"


def statements(path: Path) -> list[tuple[int, int]]:
    """(first line, last line) of every statement in the file, decorators
    included, docstrings left out."""
    tree = ast.parse(path.read_text(), str(path))
    docstrings = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.add(first)
    return sorted((min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())]),
                   node.end_lineno)
                  for node in ast.walk(tree)
                  if isinstance(node, ast.stmt) and node not in docstrings)


def run_traced(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """pytest's exit code for ``args``, and the lines run in each file of
    the package."""
    prefix = str(PACKAGE) + os.sep
    ran: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def calls(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        ran.setdefault(name, set()).add(frame.f_lineno)
        return local

    import pytest
    sys.settrace(calls)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
    return code, ran


def main() -> int:
    os.chdir(ROOT)
    src = str(ROOT / "src")
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    if "ffrat" in sys.modules:
        raise SystemExit("ffrat was imported before tracing began")
    code, ran = run_traced(["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"])
    print("pytest exit code %d; statements never run:" % code)
    for path in sorted(PACKAGE.glob("*.py")):
        lines = ran.get(str(path), set())
        source = path.read_text().splitlines()
        for first, last in statements(path):
            if not any(line in lines for line in range(first, last + 1)):
                print("%s:%d: %s" % (path.relative_to(ROOT), first, source[first - 1].strip()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
