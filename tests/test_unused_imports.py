"""Every name a module under src/nilorb imports is used in that module.

No linter ships with the project, so this scan stands in for one.  It
reads each module's syntax tree with the standard library: a name bound by
``import`` or ``from ... import`` must appear as a name or attribute base
somewhere else in the module, including inside quoted annotations.
``__init__.py`` is skipped because its imports are re-exports.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "nilorb"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imported_names(tree: ast.Module) -> dict:
    """Bound name -> line of the import that binds it."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _used_names(tree: ast.Module) -> set:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # Quoted annotations such as "Scalar" or "Optional[Triple]".
            try:
                inner = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(n.id for n in ast.walk(inner) if isinstance(n, ast.Name))
    return used


def unused_imports(source: str) -> list:
    """``(line, name)`` for every imported name the source never uses."""
    tree = ast.parse(source)
    used = _used_names(tree)
    return sorted((line, name) for name, line in _imported_names(tree).items()
                  if name not in used)


def test_scan_finds_modules():
    assert {p.name for p in MODULES} >= {"scalars.py", "matrices.py", "cli.py"}


def test_scan_flags_unused_and_accepts_used():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import json as js\n"
        "from typing import List, Tuple\n"
        "from .scalars import Scalar\n"
        "def f(x: List[int]) -> 'Scalar':\n"
        "    return js.dumps(x)\n"
    )
    assert unused_imports(source) == [(2, "os"), (4, "Tuple")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
