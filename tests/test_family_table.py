"""Only the family table names a family, and only its builder fills a record.

Every per-family fact lives in one record per family in
``nilorb.families``.  This scan reads the syntax tree of every other
module under src/nilorb with the standard library and fails on the two
signs of a family branch: a string constant equal to a family name, or a
comparison with a ``.family`` attribute or a ``fam``/``family`` name on
either side.  Output text that merely contains a family name, such as
``f"{a.family} needs --n"``, is not a branch and passes.

Each row of the table declares six inputs, and the builder ``_family``
derives the other seven fields from the ring and the form.  A second
scan, of ``families.py`` itself, fails on a record made anywhere but in
the builder, so no derived value is declared by hand again.  The derived
values are pinned here as literals recorded while the table still spelled
them out, with the two facts read from them: ``constraint``, a property
read from ``ambient`` and ``signed``, and ``even_embed``, a function of
the even parts' factor ring and M's ring.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from nilorb.families import (COMPLEX, FAMILIES, FAMILY_SPECS, QUATERNION, REAL,
                             _family, ring_of_kind)

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


#: The fields ``_family`` derives, in the order of :data:`DERIVED`'s tuples.
DERIVED_FIELDS = ("signed", "free_sign", "paired", "cartan", "ambient", "k_kinds",
                  "even_embed")

#: Every family's derived fields, as the hand-written table declared them.
DERIVED = {
    "sl_r": (False, None, None, "A", "SO", None, None),
    "sl_c": (False, None, None, "A", "SU", None, None),
    "sl_h": (False, None, None, "A", "Sp", None, None),
    "so_c": (False, None, 0, "BD", "SO", ("Sp", "O"), "H-to-R"),
    "so_pq": (True, 1, 0, "BD", "SO", ("U", "O"), "C-to-R"),
    "sp_c": (False, None, 1, "C", "Sp", ("O", "Sp"), None),
    "sp_pq": (True, 1, None, "C", "Sp", ("U", "Sp"), "i-to-j"),
    "so_star": (False, 0, None, "BD", None, None, None),
}


def derived_fields(specs) -> dict:
    """Each family's derived fields, as a :data:`DERIVED` tuple."""
    return {name: tuple(getattr(spec, field) for field in DERIVED_FIELDS)
            for name, spec in specs.items()}


def test_derived_fields_are_pinned_for_every_family():
    assert derived_fields(FAMILY_SPECS) == DERIVED


def test_the_builder_rebuilds_every_record_from_its_inputs():
    for spec in FAMILY_SPECS.values():
        assert _family(spec.ring, spec.form, spec.min_n, spec.low_rank, spec.boxes_per_n,
                       spec.fibers) == spec


BUILDER = "_family"
RECORD_MAKERS = {"FamilySpec", "_make", "_replace"}


def _makes_a_record(node: ast.AST) -> bool:
    func = node.func if isinstance(node, ast.Call) else None
    if isinstance(func, ast.Attribute):
        return func.attr in RECORD_MAKERS
    return isinstance(func, ast.Name) and func.id in RECORD_MAKERS


def records_made_outside_the_builder(source: str) -> list:
    """The lines of every ``FamilySpec(...)``, ``._make(...)`` or
    ``._replace(...)`` call that is not inside the builder's body."""
    tree = ast.parse(source)
    inside = {id(node)
              for builder in ast.walk(tree)
              if isinstance(builder, ast.FunctionDef) and builder.name == BUILDER
              for node in ast.walk(builder)}
    return sorted(node.lineno for node in ast.walk(tree)
                  if _makes_a_record(node) and id(node) not in inside)


def test_scan_flags_records_made_outside_the_builder():
    flagged = (
        "def _sl(ring):\n"
        "    return FamilySpec(ring=ring, form=None)\n"
        "SPECS = {'a': families.FamilySpec(REAL, None)}\n"
        "B = FamilySpec._make(row)\n"
        "C = SPECS['a']._replace(cartan='C')\n"
        "def _family(ring, form):\n"
        "    return FamilySpec(ring=ring, form=form)\n"
    )
    assert records_made_outside_the_builder(flagged) == [2, 3, 4, 5]
    accepted = (
        "class FamilySpec(NamedTuple):\n"
        "    ring: Ring\n"
        "def _family(ring, form):\n"
        "    kinds = _KINDS[ring, form[0]]\n"
        "    return FamilySpec(ring=ring, form=form, k_kinds=kinds)\n"
        "SPECS = {'a': _family(REAL, None)}\n"
        "spec = SPECS['a'].cartan\n"
    )
    assert records_made_outside_the_builder(accepted) == []


def test_only_the_builder_makes_a_family_record():
    source = (PACKAGE / FAMILY_MODULE).read_text()
    assert records_made_outside_the_builder(source) == []
    builders = [node for node in ast.walk(ast.parse(source))
                if isinstance(node, ast.FunctionDef) and node.name == BUILDER]
    assert len(builders) == 1
    assert sum(map(_makes_a_record, ast.walk(builders[0]))) == 1
