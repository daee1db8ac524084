"""Only ``centralizers`` turns the ad(H)-grading into reported dimensions.

``centralizer_report`` is the one place that makes dim z(X,H,Y), dim z(X)
and dim O out of dim g_0, g_1 and g_2, and the one place that sets a zero
orbit's dimensions; ``list``, ``describe`` and ``verify`` read its report.
This scan reads the syntax tree of every other module under src/nilorb
with the standard library and fails on a call of ``graded_dims``,
``_grade_nullities`` or ``_part_grading`` (one part's memoized count), by
bare name or as an attribute.  Importing or re-exporting the name is not a
call and passes.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "nilorb"
OWNER = "centralizers.py"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != OWNER)
GRADED = {"graded_dims", "_grade_nullities", "_part_grading"}


def graded_calls(source: str) -> list:
    """``(line, name)`` for every call of a graded count."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = (func.id if isinstance(func, ast.Name)
                else func.attr if isinstance(func, ast.Attribute) else None)
        if name in GRADED:
            found.append((node.lineno, name))
    return sorted(found)


def test_scan_finds_modules():
    names = {p.name for p in MODULES}
    assert names >= {"__init__.py", "catalog.py", "homotopy.py", "cli.py"}
    assert OWNER not in names
    assert (PACKAGE / OWNER).exists()


def test_scan_flags_graded_calls_and_accepts_report_reads():
    flagged = (
        "g0, g1, g2 = graded_dims(triple, a)\n"
        "dims = centralizers._grade_nullities(constraint, weights)\n"
        "x = 2\n"
        "y = f(graded_dims(t, a))\n"
        "part = _part_grading(spec, 'identity', 3, 1, None)\n"
    )
    assert graded_calls(flagged) == [(1, "graded_dims"), (2, "_grade_nullities"),
                                     (4, "graded_dims"), (5, "_part_grading")]
    accepted = (
        "from .centralizers import centralizer_report, graded_dims\n"
        "__all__ = ['graded_dims']\n"
        "report = centralizer_report(a, datum)\n"
        "dz = report.dim_z_triple\n"
        "route = graded_dims\n"
    )
    assert graded_calls(accepted) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_centralizers_counts_the_grading(path):
    assert graded_calls(path.read_text()) == []
