"""Only ``matrices`` and ``scalars`` decide how a matrix is laid out.

Every other module under src/nilorb builds matrices from their nonzero
entries (``ExactMatrix.from_entries``) and reads them back through
``ExactMatrix.nonzeros``.  This scan reads each module's syntax tree with
the standard library and fails on the two signs of a hand-rolled dense
layout: importing ``ZERO``, or a comprehension of list-multiplied rows
such as ``[[ZERO] * n for _ in range(m)]``.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "nilorb"
LAYOUT_OWNERS = {"matrices.py", "scalars.py"}
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name not in LAYOUT_OWNERS)


def _is_multiplied_list(node: ast.AST) -> bool:
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
            and (isinstance(node.left, ast.List) or isinstance(node.right, ast.List)))


def dense_layouts(source: str) -> list:
    """``(line, what)`` for every ZERO import and list-multiplied row grid."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            found.extend((node.lineno, "imports ZERO") for alias in node.names
                         if alias.name == "ZERO")
        elif isinstance(node, ast.ListComp) and _is_multiplied_list(node.elt):
            found.append((node.lineno, "row grid"))
    return sorted(found)


def test_scan_finds_modules():
    assert {p.name for p in MODULES} >= {"triples.py", "homotopy.py", "cli.py"}
    assert not LAYOUT_OWNERS & {p.name for p in MODULES}


def test_scan_flags_dense_layouts_and_accepts_sparse_ones():
    source = (
        "from .scalars import ONE, ZERO\n"
        "from .scalars import ZERO as Z\n"
        "grid = [[ZERO] * n for _ in range(n)]\n"
        "cols = [n * [None] for _ in range(m)]\n"
        "signs = [ONE] * p + [-ONE] * q\n"
        "rows = [[x * 2 for x in row] for row in rows]\n"
        "m = ExactMatrix.from_entries(n, n, {(i, i): ONE for i in range(n)})\n"
    )
    assert dense_layouts(source) == [(1, "imports ZERO"), (2, "imports ZERO"),
                                     (3, "row grid"), (4, "row grid")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_dense_layout_outside_matrices(path):
    assert dense_layouts(path.read_text()) == []
