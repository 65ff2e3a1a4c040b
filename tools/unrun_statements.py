#!/usr/bin/env python3
"""The statements of ``src/cdl`` that a test run never executes.

Runs pytest in this process under a ``sys.settrace`` line tracer (the
standard library only; threads are traced too), then prints each statement
that never ran as ``path:line`` with its first line of source, and a count.

What counts as a statement: every AST statement of ``src/cdl``, less
definitions (``def``, ``class``), docstrings and imports.  A statement
spanning several lines is named by its first line and ran when any line of
its own ran; a compound statement's own lines are its header's (its
nested statements are counted by themselves), and a ``try`` also ran when
its first statement did.

    PYTHONPATH=src python3 tools/unrun_statements.py -q

Every argument goes to pytest.  Traced, tier-1 takes about 1.5 times as
long.  The exit status is pytest's.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "cdl"
NOT_COUNTED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import,
               ast.ImportFrom)
NESTED = ("body", "orelse", "finalbody", "handlers")


def _children(node):
    """The statements nested directly in ``node``, except handlers' bodies
    reached through the handlers themselves."""
    for name in NESTED:
        for child in getattr(node, name, ()):
            if isinstance(child, ast.ExceptHandler):
                yield from child.body
            else:
                yield child


def _span(node):
    first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
    return set(range(first, node.end_lineno + 1))


def statements(path):
    """{first line: (source line, lines whose run means the statement ran)}
    of every counted statement of the file at ``path``."""
    text = Path(path).read_text(encoding="utf-8")
    tree = ast.parse(text)
    docstrings = {id(body[0]) for body in
                  [tree.body] + [n.body for n in ast.walk(tree) if isinstance(n, NOT_COUNTED[:3])]
                  if body and isinstance(body[0], ast.Expr)
                  and isinstance(body[0].value, ast.Constant)
                  and isinstance(body[0].value.value, str)}

    def probe(node):
        own = _span(node).difference(*(_span(c) for c in _children(node))) or {node.lineno}
        if isinstance(node, ast.Try):
            own |= probe(node.body[0])
        return own

    source = text.splitlines()
    return {node.lineno: (source[node.lineno - 1].strip(), probe(node))
            for node in ast.walk(tree)
            if isinstance(node, ast.stmt) and not isinstance(node, NOT_COUNTED)
            and id(node) not in docstrings}


def traced(run):
    """(run's result, {real file path: lines run}) for the files under SRC."""
    prefix = os.path.realpath(SRC) + os.sep
    lines, by_name = {}, {}  # by_name: a code file name's set in lines, or None

    def local(frame, event, arg):
        if event == "line":
            by_name[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in by_name:
            path = os.path.realpath(name)
            by_name[name] = lines.setdefault(path, set()) if path.startswith(prefix) else None
        return None if by_name[name] is None else local

    outer = sys.gettrace(), threading.gettrace()
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        result = run()
    finally:  # a tracer already set, such as this tool's own, is set again
        sys.settrace(outer[0])
        threading.settrace(outer[1])
    return result, lines


def unrun(lines):
    """[(path relative to the repo, first line, source line)] of every counted
    statement under SRC that ``lines`` ({real path: lines run}) does not
    show running, and the number of counted statements."""
    root = SRC.parent.parent
    missed, total = [], 0
    for path in sorted(SRC.rglob("*.py")):
        seen = lines.get(os.path.realpath(path), set())
        found = statements(path)
        total += len(found)
        missed += [(path.relative_to(root).as_posix(), lineno, text)
                   for lineno, (text, probe) in sorted(found.items()) if not probe & seen]
    return missed, total


def main(argv=None):
    import pytest  # imported here so that nothing runs before the tracer is set

    code, lines = traced(lambda: pytest.main(sys.argv[1:] if argv is None else argv))
    missed, total = unrun(lines)
    print()
    for path, lineno, text in missed:
        print(f"{path}:{lineno}: {text}")
    print(f"{len(missed)} of {total} statements in src/cdl never ran")
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
