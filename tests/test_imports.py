"""Every module-level import in src/adasub is used by its module.

No linter ships with the test environment, so this walks the syntax trees
itself.  __init__.py is exempt: its imports are the package's re-exports.
"""
import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "adasub"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by top-level imports (bar `from __future__`) that no
    expression of the module reads."""
    tree = ast.parse(source)
    bound = [
        (alias.asname or alias.name).split(".")[0]
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
        for alias in node.names
    ]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def test_modules_are_found():
    assert {p.name for p in MODULES} >= {"engine.py", "model.py", "policies.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_is_reported():
    source = ("from __future__ import annotations\n"
              "import math\nimport os.path\nfrom typing import Any, Callable as C\n"
              "def f(x: C) -> float:\n    return math.pi\n")
    assert unused_imports(source) == ["os", "Any"]
