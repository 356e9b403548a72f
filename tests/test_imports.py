"""Every import in a package module is used.

Neither ruff nor pyflakes is a test dependency, so this is a small
``ast`` scan: a name bound by an import must be read somewhere else in
the module.  ``__init__.py`` is exempt, because its imports are the
package's re-exports.
"""

import ast
from pathlib import Path

import pytest

import toricpot

MODULES = sorted(p for p in Path(toricpot.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


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
