"""List the statements of a package that a pytest run never executes.

A stand-in for a coverage tool: it runs pytest in this process under a
`sys.settrace` line tracer that follows only the files below the source
directory, then prints, per module, the line of each statement inside a
function body that never ran. Module- and class-level statements run at
import and docstrings never run, so neither is listed; `global` and
`nonlocal` are left out too, as they compile to nothing. Code that runs only
in a child process (a pool worker, a fresh interpreter) counts as never run.

    python tools/uncovered.py [--source DIR] [PYTEST_ARGS ...]

DIR defaults to src/twophase_ate; its parent goes first on sys.path. For
example, the unit tests without the Monte-Carlo acceptance studies:

    python tools/uncovered.py tests -q -p no:cacheprovider --ignore tests/test_acceptance.py

The exit status is pytest's.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

import pytest

_SILENT = (ast.Global, ast.Nonlocal)
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def statements(source: str) -> dict[int, range]:
    """The statements inside function bodies: first line -> the lines on
    which the tracer reports it (its header, if it holds a block)."""
    out: dict[int, range] = {}

    def visit(node: ast.AST, in_function: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, ast.stmt):
                visit(child, in_function)
                continue
            is_docstring = (isinstance(node, _SCOPES) and node.body[0] is child
                            and isinstance(child, ast.Expr)
                            and isinstance(child.value, ast.Constant)
                            and isinstance(child.value.value, str))
            if in_function and not is_docstring and not isinstance(child, _SILENT):
                first = min([child.lineno] + [d.lineno for d in getattr(child, "decorator_list", [])])
                body = getattr(child, "body", None)
                last = max(first, body[0].lineno - 1) if body else child.end_lineno
                out[child.lineno] = range(first, last + 1)
            visit(child, in_function or isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)))

    visit(ast.parse(source), False)
    return out


def main(argv: list[str]) -> int:
    root = Path(__file__).resolve().parent.parent / "src" / "twophase_ate"
    if argv[:1] == ["--source"]:
        root, argv = Path(argv[1]).resolve(), argv[2:]
    sys.path.insert(0, str(root.parent))
    prefix = str(root) + "/"
    ran: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        ran.setdefault(filename, set())
        return local

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(argv)
    finally:
        sys.settrace(None)
        threading.settrace(None)

    for path in sorted(root.rglob("*.py")):
        stmts = statements(path.read_text(encoding="utf-8"))
        hit = ran.get(str(path), set())
        missed = [line for line, lines in stmts.items() if hit.isdisjoint(lines)]
        print(f"{path.relative_to(root.parent)}: {len(missed)} of {len(stmts)} never ran"
              + (": " + ", ".join(map(str, sorted(missed))) if missed else ""))
    return int(status)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
