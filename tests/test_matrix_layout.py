"""Only ``matrices`` and ``scalars`` decide how a matrix is laid out.

A matrix stores one int denominator ``_den`` and, per row, its nonzero
entries' int numerators ``_num``; it keeps nothing else.  Every other
module under src/nilorb builds matrices from their nonzero entries
(``ExactMatrix.from_entries``) or int numerators
(``ExactMatrix.from_numerators``) and reads them back through
``ExactMatrix.nonzeros`` or ``ExactMatrix.integer_nonzeros``.  This scan
reads each module's syntax tree with the standard library and fails on the
two signs of a hand-rolled dense layout: importing ``ZERO``, or a
comprehension of list-multiplied rows such as ``[[ZERO] * n for _ in
range(m)]``.

A second scan keeps every module from reading Scalars one entry at a
time: outside ``matrices`` and ``scalars``, no module calls ``.rows()``,
which builds every cell, zeros included, or builds a matrix by calling
``ExactMatrix(...)``.  ``cli`` is scanned too: it renders its JSON text and
its matrix tables by handing the int-native renderers of ``scalars``
(``value_json``, ``value_text``) to the sparse reader
``ExactMatrix._rendered_nonzeros``, which feeds them the zero cell's and
each distinct value's numerators and returns the rendered zero and each
row's rendered nonzeros; ``cli`` fills the zero in itself, so it reads no
numerators and imports no ``ZERO``.  It names a failing entry from
``nonzeros()``.

A third scan keeps the storage itself private: outside ``matrices`` and
``scalars``, no module touches ``_num`` or ``_den``.  The centralizer
solver reads numerators through the public
``ExactMatrix.integer_nonzeros``.

A fourth scan keeps int assembly behind public operations such as
``kron``, ``block_oplus`` and ``ExactMatrix.from_numerators``: outside
``matrices`` and ``scalars``, no module calls the private constructors
``_of`` or ``_reduced``.

The name sets below also hold names of earlier layouts that no module
defines any more (``row``, ``entry``, ``_d``, ``_n``, ``_nonzeros``,
``_rows``, ``_set_ints``, ``_set_scalars``); a stale name only widens a
scan, so they stay.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "nilorb"
LAYOUT_OWNERS = {"matrices.py", "scalars.py"}
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name not in LAYOUT_OWNERS)
ENTRY_READERS = LAYOUT_OWNERS
HOT_MODULES = sorted(p for p in MODULES if p.name not in ENTRY_READERS)
ENTRY_METHODS = {"rows", "row", "entry"}
STORAGE_ATTRIBUTES = {"_num", "_den", "_d", "_n", "_nonzeros", "_rows"}
PRIVATE_CONSTRUCTORS = {"_of", "_reduced", "_set_ints", "_set_scalars"}


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


def entry_reads(source: str) -> list:
    """``(line, what)`` for every per-entry read and positional matrix build."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if isinstance(func, ast.Attribute) and name in ENTRY_METHODS:
            found.append((node.lineno, f".{name}()"))
        elif name == "ExactMatrix":
            found.append((node.lineno, "ExactMatrix(rows)"))
    return sorted(found)


def test_scan_finds_modules():
    assert {p.name for p in MODULES} >= {"triples.py", "homotopy.py", "cli.py"}
    assert not LAYOUT_OWNERS & {p.name for p in MODULES}
    assert {p.name for p in HOT_MODULES} >= {"triples.py", "homotopy.py",
                                             "centralizers.py"}
    assert "cli.py" in {p.name for p in HOT_MODULES}


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


def test_scan_flags_entry_reads_and_accepts_nonzeros():
    source = (
        "x = m.entry(0, 1)\n"
        "for row in m.rows():\n"
        "    pass\n"
        "r = m.row(2)\n"
        "a = ExactMatrix([[ONE]])\n"
        "b = matrices.ExactMatrix(rows)\n"
        "c = ExactMatrix.from_entries(1, 1, {(0, 0): ONE})\n"
        "nz = m.nonzeros()\n"
        "rows = layout.rows\n"
        "v = m.variant()\n"
    )
    assert entry_reads(source) == [(1, ".entry()"), (2, ".rows()"), (4, ".row()"),
                                   (5, "ExactMatrix(rows)"), (6, "ExactMatrix(rows)")]


@pytest.mark.parametrize("path", HOT_MODULES, ids=lambda p: p.name)
def test_no_entry_reads_outside_matrices_scalars_and_cli(path):
    assert entry_reads(path.read_text()) == []


def storage_reads(source: str) -> list:
    """``(line, what)`` for every access to a matrix's private storage."""
    return sorted((node.lineno, f".{node.attr}") for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute) and node.attr in STORAGE_ATTRIBUTES)


def test_scan_flags_storage_reads_and_accepts_public_readers():
    source = (
        "den, num = m._den, m._num\n"
        "d = m._d\n"
        "n = other._n\n"
        "nz = m._nonzeros\n"
        "rows = m._rows\n"
        "nz = m.nonzeros()\n"
        "ints = m.integer_nonzeros()\n"
        "zero, rows = m._rendered_nonzeros(value_text)\n"
        "k = m.ncols, m.nrows\n"
        "num = _num\n"
    )
    assert storage_reads(source) == [(1, "._den"), (1, "._num"), (2, "._d"), (3, "._n"),
                                     (4, "._nonzeros"), (5, "._rows")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_storage_reads_outside_matrices_and_scalars(path):
    assert storage_reads(path.read_text()) == []


def private_constructor_calls(source: str) -> list:
    """``(line, what)`` for every call of a private matrix or scalar constructor."""
    return sorted((node.lineno, f".{node.func.attr}()")
                  for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr in PRIVATE_CONSTRUCTORS)


def test_scan_flags_private_constructors_and_accepts_public_ones():
    source = (
        "m = ExactMatrix._of(1, 1, 1, ((),))\n"
        "r = ExactMatrix._reduced(n, n, den, num)\n"
        "m._set_ints()\n"
        "m._set_scalars(1, 1, ((),))\n"
        "s = Scalar._of(comps)\n"
        "p = datum.p_of(3)\n"
        "k = kron(level, ExactMatrix.identity(t))\n"
        "g = block_oplus(blocks)\n"
        "e = ExactMatrix.from_entries(1, 1, {(0, 0): ONE})\n"
        "f = ExactMatrix._of\n"
    )
    assert private_constructor_calls(source) == [
        (1, "._of()"), (2, "._reduced()"), (3, "._set_ints()"),
        (4, "._set_scalars()"), (5, "._of()")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_constructors_outside_matrices_and_scalars(path):
    assert private_constructor_calls(path.read_text()) == []
