"""Every module-level import in src/adasub is used by its module, and every
top-level private name is read somewhere in the package.

No linter ships with the test environment, so this walks the syntax trees
itself.  __init__.py is exempt from the import check: its imports are the
package's re-exports.
"""
import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "adasub"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")

# Private names that only bench/tracing.py reads; ROADMAP item 8 empties this.
TRACER_NAMES = {"_bags_fast_marginals"}


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


def private_names(source: str) -> set[str]:
    """Top-level private names (one leading underscore) a module defines."""
    bound = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return {name for name in bound if name.startswith("_") and not name.startswith("__")}


def read_names(source: str) -> set[str]:
    """Names a module loads, bare or as an attribute."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            or isinstance(node, ast.Attribute)}


def test_private_names_are_read():
    sources = [p.read_text() for p in SRC.glob("*.py")]
    defined = set().union(*map(private_names, sources))
    read = set().union(*map(read_names, sources))
    assert defined - read == TRACER_NAMES


def test_unread_private_name_is_reported():
    source = ("_A = 1\n_B: int = 2\n_C, D = 3, 4\n__all__ = []\n"
              "def _f():\n    return _A\nclass _K:\n    pass\nD._f\n")
    assert private_names(source) == {"_A", "_B", "_C", "_f", "_K"}
    assert private_names(source) - read_names(source) == {"_B", "_C", "_K"}
