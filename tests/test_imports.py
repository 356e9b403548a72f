"""Every import and every module-level name in a package module is used.

Neither ruff nor pyflakes is a test dependency, so these are small
``ast`` scans.  A name bound by an import must be read somewhere else in
the module; ``__init__.py`` is exempt, because its imports are the
package's re-exports.  A function, class or variable defined at the top
level of a package module must be read somewhere in the package or its
tests, by name, as an attribute or through an import.
"""

import ast
from pathlib import Path

import pytest

import toricpot

PACKAGE = Path(toricpot.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TESTS = Path(__file__).parent
READERS = sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py"))


def unused_imports(source):
    """Names bound by an import of ``source`` that nothing reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in read)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_scan_finds_an_unused_import():
    src = "import math\nfrom fractions import Fraction\nx = Fraction(1)\n"
    assert unused_imports(src) == [(1, "math")]


def defined_names(source):
    """(line, name) of each def, class and assignment at the top level."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            out += [(node.lineno, n.id) for t in targets
                    for n in ast.walk(t) if isinstance(n, ast.Name)]
    return out


def names_read(source):
    """Names that ``source`` reads, as names, attributes or imports."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


@pytest.fixture(scope="module")
def read_anywhere():
    return set().union(*(names_read(p.read_text()) for p in READERS))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_definitions(path, read_anywhere):
    assert [(line, name) for line, name in defined_names(path.read_text())
            if name not in read_anywhere] == []


def test_scan_finds_an_unused_definition():
    src = ("A = 1\nB: int = A\ndef f():\n    return g\ndef g():\n"
           "    pass\nclass C:\n    pass\nD, (E, F) = C.x, (1, 2)\n")
    unread = [d for d in defined_names(src) if d[1] not in names_read(src)]
    assert unread == [(2, "B"), (3, "f"), (9, "D"), (9, "E"), (9, "F")]
