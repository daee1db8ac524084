"""The facts of one algebra are computed once per ``AlgebraSpec`` instance.

M's sizes, name and dimension, dim g and the descriptor's constraint facts
belong to the algebra, not to an orbit, so ``list`` computes each once per
command and every record reads it from the command's ``AlgebraSpec``.
They live on the instance and in no module-level memo, so a command that
follows a change to the family table reads the new record.
"""

from __future__ import annotations

import json
from collections import Counter
from functools import cached_property

import pytest

from nilorb import cli
from nilorb.catalog import AlgebraSpec, enumerate_orbits
from nilorb.centralizers import centralizer_report
from nilorb.families import FAMILY_SPECS
from nilorb.homotopy import compact_pair
from nilorb.partitions import Partition

FACTS = ("ambient_sizes", "ambient_name", "dim_M", "dim_g", "constraint_facts")


def count_fact_builds(monkeypatch) -> Counter:
    """Replace each fact of ``AlgebraSpec`` by one that counts its builds."""
    builds = Counter()
    for name in FACTS:
        build = vars(AlgebraSpec)[name].func

        def counted(self, build=build, name=name):
            builds[name] += 1
            return build(self)
        fact = cached_property(counted)
        fact.__set_name__(AlgebraSpec, name)
        monkeypatch.setattr(AlgebraSpec, name, fact)
    return builds


def list_json(capsys, *argv) -> dict:
    assert cli.main(["list", *argv, "--format", "json"]) == 0
    return json.loads(capsys.readouterr().out)


def test_list_builds_each_algebra_fact_once(capsys, monkeypatch):
    builds = count_fact_builds(monkeypatch)
    doc = list_json(capsys, "--algebra", "so_c", "--n", "10")
    assert len(doc["orbit_records"]) == 16
    assert builds == {name: 1 for name in FACTS}


def test_the_facts_read_as_before():
    """Each fact against its closed form, and the descriptor and the
    centralizer report of an orbit carry it."""
    cases = [
        (AlgebraSpec("sl_r", n=4), "SO(4)", 6, 15, ("chi=1", False, None)),
        (AlgebraSpec("sl_c", n=3), "SU(3)", 8, 16, ("chi=1", True, None)),
        (AlgebraSpec("sl_h", n=2), "Sp(2)", 10, 15, ("none", False, None)),
        (AlgebraSpec("so_c", n=5), "SO(5)", 10, 20, ("chi=1", False, None)),
        (AlgebraSpec("sp_c", n=2), "Sp(2)", 10, 20, ("none", False, None)),
        (AlgebraSpec("so_pq", p=3, q=2), "SO(3)×SO(2)", 4, 10,
         ("chi_p=chi_q=1", False,
          {"ambient": "S(O(3) × O(2))", "constraint": "chi_p*chi_q=1"})),
        (AlgebraSpec("sp_pq", p=2, q=1), "Sp(2)×Sp(1)", 13, 21, ("none", False, None)),
    ]
    for a, name, m, g, facts in cases:
        assert (a.ambient_name, a.dim_M, a.dim_g, a.constraint_facts) == (name, m, g, facts)
        zero = enumerate_orbits(a)[0].datum
        h, rep = compact_pair(a, zero), centralizer_report(a, zero)
        assert (h.ambient, h.dim_M, rep.dim_g, rep.compact) == (name, m, g, h)
    so_star = AlgebraSpec("so_star", n=3)
    assert so_star.dim_g == 15
    with pytest.raises(ValueError, match="no homotopy descriptor for so_star"):
        so_star.ambient_name


def test_records_of_one_algebra_share_its_auxiliary_group():
    a = AlgebraSpec("so_pq", p=2, q=2)
    first, second = [compact_pair(a, rec.datum) for rec in enumerate_orbits(a)[:2]]
    assert first.auxiliary is second.auxiliary is a.constraint_facts[2]


def test_a_command_after_a_family_change_reads_the_new_record(capsys, monkeypatch):
    """No memo keeps the facts across commands: with no memo cleared, the
    second command reads the changed ambient."""
    argv = ("--algebra", "so_pq", "--p", "2", "--q", "1")
    before = list_json(capsys, *argv)["orbit_records"][0]["homotopy"]
    assert (before["ambient"], before["dim_M"], before["constraint"]) == (
        "SO(2)×SO(1)", 1, "chi_p=chi_q=1")
    assert before["auxiliary"] == {"ambient": "S(O(2) × O(1))",
                                   "constraint": "chi_p*chi_q=1"}

    monkeypatch.setitem(FAMILY_SPECS, "so_pq", FAMILY_SPECS["so_pq"]._replace(ambient="Sp"))
    after = list_json(capsys, *argv)["orbit_records"][0]["homotopy"]
    assert (after["ambient"], after["dim_M"], after["constraint"]) == (
        "Sp(2)×Sp(1)", 13, "none")
    assert "auxiliary" not in after


@pytest.mark.parametrize("a, datum, sizes", [
    (AlgebraSpec("sl_r", n=4), Partition([2, 1]), "datum size 3 does not match sl_r(n=4)"),
    (AlgebraSpec("so_c", n=5), Partition([3, 3]), "datum size 6 does not match so_c(n=5)"),
    (AlgebraSpec("sl_h", n=3), Partition([2, 2]), "datum size 4 does not match sl_h(n=3)"),
], ids=str)
def test_centralizer_report_refuses_a_datum_of_the_wrong_size(a, datum, sizes):
    with pytest.raises(ValueError) as raised:
        centralizer_report(a, datum)
    assert str(raised.value) == sizes
