"""Test modules stand alone: what several share comes from ``tests/mpref.py``."""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent


def _imported(tree):
    """Every dotted name an import statement names; a ``from`` import gives
    each of its names under its module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield from (f"{node.module or ''}.{alias.name}" for alias in node.names)


def test_no_test_module_imports_another():
    paths = sorted(TESTS.glob("test_*.py"))
    modules = {path.stem for path in paths}
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found = [name for name in _imported(tree) if modules & set(name.split("."))]
        assert not found, f"{path.name} imports test modules: {found}"
