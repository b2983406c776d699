"""Checks in the library must not vanish under ``python -O``, which strips
every ``assert`` statement and every block guarded by ``__debug__``."""

import ast
from pathlib import Path

import djkm

SOURCES = sorted(Path(djkm.__file__).parent.glob("*.py"))


def optimized_away(tree: ast.AST) -> list:
    """Line numbers of the assert statements and __debug__ names in tree."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
        or (isinstance(node, ast.Name) and node.id == "__debug__")
    ]


def test_the_finder_sees_both_forms():
    tree = ast.parse("assert x\nif __debug__:\n    check()\n")
    assert optimized_away(tree) == [1, 2]


def test_no_check_in_the_library_vanishes_under_python_O():
    assert SOURCES  # an empty glob would pass vacuously
    found = {
        path.name: lines
        for path in SOURCES
        if (lines := optimized_away(ast.parse(path.read_text(), str(path))))
    }
    assert found == {}
