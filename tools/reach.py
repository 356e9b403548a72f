"""Statements of ``src/toricpot`` that the Tier-1 suite never executes.

    python3 tools/reach.py

Runs the Tier-1 suite under ``tests`` with pytest in this process,
under a ``sys.settrace`` line tracer that traces only frames whose code
lies in ``src/toricpot``, then prints each module's statements that
never ran, one ``module.py:line: source`` line each.
Docstrings are not counted as statements.  A compound statement counts
as run when any line of its header ran, or any statement inside it.
pytest's own output goes to stderr and the report to stdout, so

    python3 tools/reach.py > reach.txt

keeps only the report.  The exit status is 0 whatever the tests did:
this is a report, not a check (a failed test run is noted in it).
Standard library only, apart from pytest itself.
"""

import ast
import contextlib
import os
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "toricpot")
PYTEST_ARGS = ["-q", "--continue-on-collection-errors", "-p",
               "no:cacheprovider", os.path.join(ROOT, "tests")]


def trace_lines():
    """Run pytest under the tracer; ``(exit code, {path: lines run})``."""
    hits: dict = {}

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        path = frame.f_code.co_filename
        if not path.startswith(PACKAGE):
            return None
        hits.setdefault(path, set()).add(frame.f_lineno)
        return local

    sys.path.insert(0, SRC)
    import pytest  # noqa: E402  (imported after the path is set)

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        with contextlib.redirect_stdout(sys.stderr):
            code = pytest.main(PYTEST_ARGS)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), hits


def _is_docstring(node):
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def _header(node):
    """First and last line of a statement's own code: its decorators and
    header for a compound statement, all of it for a simple one."""
    first = min([node.lineno] + [d.lineno for d in
                                 getattr(node, "decorator_list", [])])
    body = getattr(node, "body", None)
    if isinstance(body, list) and body:
        return first, max(node.lineno, body[0].lineno - 1)
    return first, node.end_lineno


def unreached(path, ran):
    """``(statements, [(line, source)] never run)`` of one module; of a
    block that never ran only its outermost statement is listed."""
    with open(path) as fh:
        source = fh.read()
    lines = source.splitlines()
    missed = []

    def counted(node):
        return (isinstance(node, ast.stmt) and not _is_docstring(node)
                and not isinstance(node, (ast.Global, ast.Nonlocal, ast.Try)))

    def visit(node):
        """Whether ``node`` ran, listing the statements below it that did
        not; a statement without code of its own ran when a child did."""
        children = [c for c in ast.iter_child_nodes(node)
                    if isinstance(c, ast.stmt)]
        before = len(missed)
        child_ran = [visit(c) for c in children]
        if not counted(node):
            return not isinstance(node, ast.stmt) or _is_docstring(node) \
                or any(child_ran)
        first, last = _header(node)
        if any(child_ran) or any(line in ran
                                 for line in range(first, last + 1)):
            return True
        del missed[before:]
        missed.append((node.lineno, lines[node.lineno - 1].strip()))
        return False

    tree = ast.parse(source, path)
    visit(tree)
    total = sum(1 for n in ast.walk(tree) if counted(n))
    return total, sorted(missed)


def main() -> int:
    code, hits = trace_lines()
    print("Statements of src/toricpot that no Tier-1 test executes")
    if code != 0:
        print(f"(pytest exited {code}: the trace covers a failed run)")
    grand = 0
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        total, missed = unreached(path, hits.get(path, set()))
        grand += len(missed)
        print(f"{name}: {len(missed)} of {total} statements unreached")
        for line, text in missed:
            print(f"  {name}:{line}: {text}")
    print(f"total: {grand} unreached")
    return 0


if __name__ == "__main__":
    sys.exit(main())
