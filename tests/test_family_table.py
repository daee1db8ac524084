"""Only the family table names a family.

Every per-family fact lives in one record per family in
``nilorb.families``.  This scan reads the syntax tree of every other
module under src/nilorb with the standard library and fails on the two
signs of a family branch: a string constant equal to a family name, or a
comparison with a ``.family`` attribute or a ``fam``/``family`` name on
either side.  Output text that merely contains a family name, such as
``f"{a.family} needs --n"``, is not a branch and passes.

The record's derived facts are pinned here too: ``constraint``, a
property read from ``ambient`` and ``signed``, and the ``even_embed``
field, a function of the even parts' factor ring and M's ring that the
record still spells out.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from nilorb.families import (COMPLEX, FAMILIES, FAMILY_SPECS, QUATERNION, REAL,
                             ring_of_kind)

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "nilorb"
FAMILY_MODULE = "families.py"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != FAMILY_MODULE)
FAMILY_NAMES = {"fam", "family"}


def _names_a_family(node: ast.AST) -> bool:
    if isinstance(node, ast.Attribute):
        return node.attr == "family"
    return isinstance(node, ast.Name) and node.id in FAMILY_NAMES


def family_branches(source: str) -> list:
    """``(line, what)`` for every quoted family name and family comparison."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and node.value in FAMILIES:
            found.append((node.lineno, f"names {node.value}"))
        elif isinstance(node, ast.Compare) and any(
                map(_names_a_family, [node.left, *node.comparators])):
            found.append((node.lineno, "compares a family"))
    return sorted(found)


def test_scan_finds_modules():
    names = {p.name for p in MODULES}
    assert names >= {"catalog.py", "triples.py", "centralizers.py", "homotopy.py",
                     "cli.py"}
    assert FAMILY_MODULE not in names
    assert (PACKAGE / FAMILY_MODULE).exists()


def test_scan_flags_family_branches_and_accepts_record_reads():
    flagged = (
        'if a.family == "so_c":\n'
        "    pass\n"
        'lo = 3 if fam in ("sl_r",) else 1\n'
        "ok = family != other\n"
        "same = spec.family is x.family\n"
        "x = 2\n"
    )
    assert family_branches(flagged) == [(1, "compares a family"), (1, "names so_c"),
                                        (3, "compares a family"), (3, "names sl_r"),
                                        (4, "compares a family"),
                                        (5, "compares a family")]
    accepted = (
        "spec = a.family_spec\n"
        "if spec.signed and spec.form is not None:\n"
        '    msg = f"{a.family} takes --p and --q"\n'
        'doc = {"algebra": a.family, "kind": "so_cc"}\n'
        "rec = FAMILY_SPECS[self.family]\n"
        "if spec.cartan == 'BD':\n"
        "    pass\n"
    )
    assert family_branches(accepted) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_the_family_table_names_families(path):
    assert family_branches(path.read_text()) == []


CONSTRAINTS = {
    "sl_r": "chi=1", "sl_c": "chi=1", "sl_h": "none", "so_c": "chi=1",
    "so_pq": "chi_p=chi_q=1", "sp_c": "none", "sp_pq": "none", "so_star": None,
}


def test_constraint_is_pinned_for_every_family():
    assert {name: spec.constraint for name, spec in FAMILY_SPECS.items()} == CONSTRAINTS


#: The ring of M for each ambient kind.
AMBIENT_RINGS = {"SO": REAL, "SU": COMPLEX, "Sp": QUATERNION}

#: ``even_embed`` by (even parts' factor ring, M's ring).
EVEN_EMBEDS = {
    (QUATERNION, REAL): "H-to-R",
    (COMPLEX, REAL): "C-to-R",
    (COMPLEX, QUATERNION): "i-to-j",
    (REAL, QUATERNION): None,
}


def test_even_embed_is_the_table_of_the_two_rings():
    seen = set()
    for spec in FAMILY_SPECS.values():
        if spec.form is None or spec.ambient is None:
            continue
        key = (ring_of_kind(spec.k_kind(0)), AMBIENT_RINGS[spec.ambient])
        assert spec.even_embed == EVEN_EMBEDS[key]
        seen.add(key)
    assert seen == set(EVEN_EMBEDS)


def test_trace_zero_families_carry_no_even_embed():
    trace_zero = [name for name, spec in FAMILY_SPECS.items() if spec.form is None]
    assert trace_zero == ["sl_r", "sl_c", "sl_h"]
    assert all(FAMILY_SPECS[name].even_embed is None for name in trace_zero)
