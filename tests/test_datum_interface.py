"""Every datum answers ``.partition``; no module switches on its type to read it.

A ``Partition`` is its own ``.partition`` and a ``SignedDiagram`` carries
one, so code reads a datum's (d, t) pairs as ``datum.partition.pairs``.
This scan reads the syntax tree of every module under src/nilorb with the
standard library.  It fails on a call of ``getattr(..., "partition", ...)``
anywhere, and on a call of ``isinstance(..., SignedDiagram)`` outside the
three places that need the type itself: ``diagrams`` (``SignedDiagram.__eq__``),
``catalog`` (a record's JSON shape and the membership rule) and ``families``
(the so_pq fiber rule's input check).
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "nilorb"
MODULES = sorted(PACKAGE.glob("*.py"))
TYPE_SWITCH_OWNERS = {"diagrams.py", "catalog.py", "families.py"}


def _is_name(node: ast.AST, name: str) -> bool:
    return isinstance(node, ast.Name) and node.id == name


def _names_signed_diagram(node: ast.AST) -> bool:
    """Whether an isinstance class argument is or holds ``SignedDiagram``."""
    if isinstance(node, ast.Tuple):
        return any(_names_signed_diagram(elt) for elt in node.elts)
    return (_is_name(node, "SignedDiagram")
            or isinstance(node, ast.Attribute) and node.attr == "SignedDiagram")


def datum_switches(source: str, allow_isinstance: bool = False) -> list:
    """``(line, kind)`` for every getattr of ``"partition"`` and, unless
    allowed, every isinstance test against ``SignedDiagram``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call) or len(node.args) < 2:
            continue
        key = node.args[1]
        if (_is_name(node.func, "getattr") and isinstance(key, ast.Constant)
                and key.value == "partition"):
            found.append((node.lineno, "getattr"))
        elif (_is_name(node.func, "isinstance") and not allow_isinstance
                and _names_signed_diagram(key)):
            found.append((node.lineno, "isinstance"))
    return sorted(found)


def test_scan_finds_modules():
    names = {p.name for p in MODULES}
    assert names >= {"__init__.py", "catalog.py", "triples.py", "cli.py"}
    assert names >= TYPE_SWITCH_OWNERS


def test_scan_flags_switches_and_accepts_attribute_reads():
    flagged = (
        "part = getattr(datum, 'partition', datum)\n"
        "x = 2\n"
        "signed = isinstance(datum, SignedDiagram)\n"
        "ok = isinstance(d, (Partition, diagrams.SignedDiagram))\n"
    )
    assert datum_switches(flagged) == [(1, "getattr"), (3, "isinstance"),
                                       (4, "isinstance")]
    assert datum_switches(flagged, allow_isinstance=True) == [(1, "getattr")]
    accepted = (
        "part = datum.partition\n"
        "pairs = rec.datum.partition.pairs\n"
        "ok = isinstance(other, Partition)\n"
        "size = getattr(args, 'n', None)\n"
        "from .diagrams import SignedDiagram\n"
    )
    assert datum_switches(accepted) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_switches_on_the_datum_type(path):
    allowed = path.name in TYPE_SWITCH_OWNERS
    assert datum_switches(path.read_text(), allow_isinstance=allowed) == []
