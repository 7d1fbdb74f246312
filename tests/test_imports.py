"""Every top-level import in a ``foggame`` module is used in that module.

``__init__.py`` is exempt: it imports names to re-export them, so there the
imported names must be exactly ``__all__`` less ``__version__``.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "foggame"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by top-level imports of ``source`` that it never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_guard_sees_an_unused_import():
    source = "import dataclasses\nimport json\nfrom typing import Any, Sequence\nx: Any = json\n"
    assert unused_imports(source) == ["line 1: dataclasses", "line 3: Sequence"]


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_no_unused_top_level_import(module):
    assert unused_imports(module.read_text()) == []


def reexport_mismatch(source: str) -> tuple[list[str], list[str]]:
    """(names imported but not in ``__all__``, ``__all__`` entries never imported)."""
    tree = ast.parse(source)
    imported: set[str] = set()
    exported: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    exported.discard("__version__")
    return sorted(imported - exported), sorted(exported - imported)


def test_reexport_guard_sees_a_mismatch():
    source = 'from .a import x, y\n__version__ = "1"\n__all__ = ["x", "z", "__version__"]\n'
    assert reexport_mismatch(source) == (["y"], ["z"])


def test_init_reexports_exactly_all():
    assert reexport_mismatch((PACKAGE / "__init__.py").read_text()) == ([], [])
