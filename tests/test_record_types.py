"""The record types: the per-record values of ``list`` (``OrbitRecord``,
``CentralizerReport`` and ``HomotopyType``) and the values that ``describe``
and ``verify`` build (``Triple``, ``AdaptedBasis``, ``BlockSpec``,
``FactorSpec`` and ``MembershipResult``).

Each is an immutable record compared by value: equal fields give equal
records with equal hashes, a field cannot be assigned, ``_replace``
returns a changed copy and leaves the original alone, and the derived
readings (``is_zero_orbit``, ``to_json()``, ``rendered()``) are pinned
here for four orbits that between them take each rendering branch: O
factors grouped under ``S(...)``, a U character ``chi = 1``, the signed
``chi_p = chi_q = 1`` with its auxiliary group, and ``none``.  Under
``src/nilorb`` only ``catalog`` imports ``dataclasses``, for
``AlgebraSpec``; every other record is a ``typing.NamedTuple``.
"""

from __future__ import annotations

import ast
import random
from pathlib import Path

import pytest

from nilorb.catalog import AlgebraSpec, OrbitRecord, enumerate_orbits
from nilorb.centralizers import CentralizerReport, centralizer_report
from nilorb.homotopy import (FactorSpec, HomotopyType, MembershipResult, factor_layout,
                             sample_k_element, verify_K_membership)
from nilorb.matrices import ExactMatrix
from nilorb.triples import AdaptedBasis, BlockSpec, Triple, adapted_basis, build_triple

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "nilorb"

CASES = {
    "sl_r [2,1]": (
        AlgebraSpec("sl_r", n=3), "[2,1]",
        {"datum": {"partition": [[2, 1], [1, 1]]}, "fiber_count": 1,
         "is_zero_orbit": False},
        {"dim_z_triple": 1, "dim_z_X": 4, "dim_g": 8, "dim_orbit": 4,
         "expected_reductive": 1, "expected_compact": 0, "match": True},
        "SO(3) / (O(1) × S(O(1)))",
        {"ambient": "SO(3)",
         "factors": [{"kind": "O", "size": 1, "multiplicity_pattern": "repeat:2"},
                     {"kind": "O", "size": 1, "multiplicity_pattern": "repeat:1"}],
         "constraint": "chi=1", "dim_M": 3, "dim_K": 0, "dim_quotient": 3}),
    "sl_c zero": (
        AlgebraSpec("sl_c", n=2), "[1,1]",
        {"datum": {"partition": [[1, 2]]}, "fiber_count": 1, "is_zero_orbit": True},
        {"dim_z_triple": 6, "dim_z_X": 6, "dim_g": 6, "dim_orbit": 0,
         "expected_reductive": 6, "expected_compact": 3, "match": True},
        "SU(2) / {U(2) : chi = 1}",
        {"ambient": "SU(2)",
         "factors": [{"kind": "U", "size": 2, "multiplicity_pattern": "repeat:1"}],
         "constraint": "chi=1", "dim_M": 3, "dim_K": 3, "dim_quotient": 0}),
    "so_pq [3](3:0)": (
        AlgebraSpec("so_pq", p=2, q=1), "[3](3:0)",
        {"datum": {"partition": [[3, 1]], "p": [[3, 0]]}, "fiber_count": 2,
         "is_zero_orbit": False},
        {"dim_z_triple": 0, "dim_z_X": 1, "dim_g": 3, "dim_orbit": 2,
         "expected_reductive": 0, "expected_compact": 0, "match": True},
        "SO(2)×SO(1) / {O(0) × O(1) : chi_p = chi_q = 1}",
        {"ambient": "SO(2)×SO(1)",
         "factors": [{"kind": "O", "size": 0,
                      "multiplicity_pattern": "plus-levels:1;minus-levels:2"},
                     {"kind": "O", "size": 1,
                      "multiplicity_pattern": "plus-levels:2;minus-levels:1"}],
         "constraint": "chi_p=chi_q=1", "dim_M": 1, "dim_K": 0, "dim_quotient": 1,
         "auxiliary": {"ambient": "S(O(2) × O(1))", "constraint": "chi_p*chi_q=1"}}),
    "sp_pq [2](2:1)": (
        AlgebraSpec("sp_pq", p=1, q=1), "[2](2:1)",
        {"datum": {"partition": [[2, 1]], "p": [[2, 1]]}, "fiber_count": 1,
         "is_zero_orbit": False},
        {"dim_z_triple": 1, "dim_z_X": 4, "dim_g": 10, "dim_orbit": 6,
         "expected_reductive": 1, "expected_compact": 1, "match": True},
        "Sp(1)×Sp(1) / (U(1))",
        {"ambient": "Sp(1)×Sp(1)",
         "factors": [{"kind": "U", "size": 1,
                      "multiplicity_pattern": "levels:1;sides:2;embed:i-to-j"}],
         "constraint": "none", "dim_M": 6, "dim_K": 1, "dim_quotient": 5}),
}


def records(case: str):
    """The orbit record, its centralizer report and its descriptor."""
    a, rendered_datum = CASES[case][:2]
    (rec,) = [r for r in enumerate_orbits(a) if str(r.datum) == rendered_datum]
    report = centralizer_report(a, rec.datum)
    return rec, report, report.compact


@pytest.mark.parametrize("case", CASES)
def test_records_read_as_pinned(case):
    _, _, record_json, report_json, rendered, homotopy_json = CASES[case]
    rec, report, h = records(case)
    assert rec.is_zero_orbit is record_json["is_zero_orbit"]
    assert rec.to_json() == record_json
    assert report.to_json() == report_json
    assert h.rendered() == rendered
    assert h.to_json() == homotopy_json


@pytest.mark.parametrize("case", CASES)
def test_equal_fields_give_equal_records(case):
    rec, report, h = records(case)
    twins = (OrbitRecord(datum=rec.datum, fiber_count=rec.fiber_count),
             CentralizerReport(**report._asdict()),
             HomotopyType(**h._asdict()))
    for value, twin in zip((rec, report, h), twins):
        assert twin is not value and twin == value
        if h.auxiliary is None:
            assert hash(twin) == hash(value)
    assert HomotopyType(*h[:-1]).auxiliary is None


@pytest.mark.parametrize("case", CASES)
def test_fields_cannot_be_assigned(case):
    rec, report, h = records(case)
    for value, field in ((rec, "fiber_count"), (report, "dim_orbit"), (h, "dim_K")):
        with pytest.raises(AttributeError):
            setattr(value, field, 7)
        assert getattr(value, field) != 7


@pytest.mark.parametrize("case", CASES)
def test_replace_returns_a_changed_copy(case):
    rec, report, h = records(case)
    for value, field in ((rec, "fiber_count"), (report, "dim_orbit"), (h, "dim_K")):
        old = getattr(value, field)
        changed = value._replace(**{field: old + 7})
        assert type(changed) is type(value)
        assert getattr(changed, field) == old + 7 and getattr(value, field) == old
        assert changed != value
        assert changed._replace(**{field: old}) == value


#: Each value record's fields, in order.
VALUE_FIELDS = {
    Triple: ("family", "partition", "X", "H", "Y", "gram", "epsilon", "sigma"),
    AdaptedBasis: ("matrix", "plus_blocks", "minus_blocks"),
    BlockSpec: ("factor", "size"),
    FactorSpec: ("kind", "size", "role", "part"),
    MembershipResult: ("failures", "embedded"),
}

#: Nonzero orbits of form families, which have an adapted basis.
VALUE_CASES = ("so_pq [3](3:0)", "sp_pq [2](2:1)")


def values(case: str):
    """``(record, field, new value)`` for a triple, its adapted basis, that
    basis's first block, the first compact factor and a membership result."""
    a = CASES[case][0]
    datum = records(case)[0].datum
    t = build_triple(a, datum)
    adapted = adapted_basis(a, datum)
    block, factor = adapted.plus_blocks[0], factor_layout(a, datum)[0]
    member = verify_K_membership(a, datum, sample_k_element(a, datum, random.Random(case)), t)
    return ((t, "epsilon", -t.epsilon),
            (adapted, "matrix", adapted.matrix.scale_left(2)),
            (block, "size", block.size + 7),
            (factor, "size", factor.size + 7),
            (member, "failures", ("changed",)))


@pytest.mark.parametrize("case", VALUE_CASES)
def test_value_records_keep_their_fields_and_readings(case):
    a, homotopy_json = CASES[case][0], CASES[case][5]
    built = [value for value, _, _ in values(case)]
    for value in built:
        assert type(value)._fields == VALUE_FIELDS[type(value)]
    t, member = built[0], built[-1]
    assert t.to_json()["basis_layout"] == t.basis_layout()
    layout = factor_layout(a, records(case)[0].datum)
    assert sum(f.dim() for f in layout) == homotopy_json["dim_K"]
    assert [f.multiplicity_pattern(a.family) for f in layout] == [
        f["multiplicity_pattern"] for f in homotopy_json["factors"]]
    assert member.ok and member.embedded is not None
    assert MembershipResult(("x",)).embedded is None and not MembershipResult(("x",)).ok


@pytest.mark.parametrize("case", VALUE_CASES)
def test_equal_value_fields_give_equal_records(case):
    for value, _, _ in values(case):
        twin = type(value)(**value._asdict())
        assert twin is not value and twin == value and hash(twin) == hash(value)


@pytest.mark.parametrize("case", VALUE_CASES)
def test_value_fields_cannot_be_assigned(case):
    for value, field, new in values(case):
        with pytest.raises(AttributeError):
            setattr(value, field, new)
        assert getattr(value, field) != new


@pytest.mark.parametrize("case", VALUE_CASES)
def test_value_replace_returns_a_changed_copy(case):
    for value, field, new in values(case):
        old = getattr(value, field)
        changed = value._replace(**{field: new})
        assert type(changed) is type(value)
        assert getattr(changed, field) == new and getattr(value, field) == old
        assert changed != value
        assert changed._replace(**{field: old}) == value


def _dataclasses_importers() -> set:
    found = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "dataclasses" for name in names):
                found.add(path.name)
    return found


def test_only_catalog_imports_dataclasses():
    """``AlgebraSpec`` is the one dataclass: its checks and cached facts
    have no NamedTuple home yet."""
    assert _dataclasses_importers() == {"catalog.py"}
