"""Every module-level import of the package is used by its module.

``__init__.py`` is skipped: its imports are the public re-exports.
``from __future__`` imports are compiler directives, not names.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "powerstruct"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def module_level(nodes):
    """The statements run at import time: the module body and the branches
    of its top-level ``try`` and ``if`` blocks."""
    for node in nodes:
        yield node
        if isinstance(node, ast.Try):
            for handler in node.handlers:
                yield from module_level(handler.body)
        if isinstance(node, (ast.Try, ast.If)):
            yield from module_level(node.body)
            yield from module_level(node.orelse)


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text())
    imported = {}
    for node in module_level(tree.body):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_module_imports(path):
    assert unused_imports(path) == []


def test_the_check_sees_an_unused_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os, sys\n"
        "from math import gcd as g, lcm\n"
        "try:\n    from fractions import Fraction\nexcept ImportError:\n    Fraction = None\n"
        "def f(x: lcm):\n    return sys.argv\n"
    )
    assert unused_imports(module) == ["m.py:2 os", "m.py:3 g", "m.py:5 Fraction"]
