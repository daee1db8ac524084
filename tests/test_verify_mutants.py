"""Semantic mutants of the family data, and the ``verify`` line that catches each.

Each mutant replaces one field of a family's record in ``FAMILY_SPECS``
through ``monkeypatch``.  ``verify`` must then exit 1 with its whole table
printed and no traceback, and the catching line must fail:

=============================  =================================  ==========================================
mutant                         command                            catching line
=============================  =================================  ==========================================
``sp_pq`` even parts U -> Sp   ``verify --algebra sp_pq --p 2      ``K-membership`` and
                               --q 2``                            ``embedding-homomorphism``: ``ValueError:
                                                                  entry is not a rational complex number``
                                                                  (raised by ``matrices.i_to_j``)
``sp_c`` odd parts Sp -> U     ``verify --algebra sp_c --n 3``    ``zero-orbit-quotient``:
                                                                  ``[1,1,1,1,1,1]: dim_quotient=12``
=============================  =================================  ==========================================

A check that raises fails on its own line, naming the orbit and the
exception as ``ExcType: message``; the tests at the end raise on purpose
to pin that.
"""

from __future__ import annotations

import pytest

from nilorb import cli
from nilorb.families import FAMILY_SPECS
from nilorb.homotopy import factor_layout
from nilorb.triples import adapted_basis


@pytest.fixture
def cold_memos():
    """Layouts and adapted bases are memoized per algebra and datum, so a
    mutant's must not leak into, or come from, another test."""
    factor_layout.cache_clear()
    adapted_basis.cache_clear()
    yield
    factor_layout.cache_clear()
    adapted_basis.cache_clear()


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def check_lines(out: str) -> dict:
    """Each table line's check name mapped to the rest of its line."""
    lines = [line.strip() for line in out.splitlines() if line.startswith("  ")]
    return dict(line.split(" ", 1) for line in lines)


MUTANTS = {
    "sp_pq even U->Sp": (
        "sp_pq", {"k_kinds": ("Sp", "Sp")}, ["--p", "2", "--q", "2"],
        {"K-membership": "FAILED (5 orbit(s)) [3 failed: [2,1,1](2:1,1:1): "
                         "ValueError: entry is not a rational complex number]",
         "embedding-homomorphism": "FAILED (5 orbit(s)) [3 failed: [2,1,1](2:1,1:1): "
                                   "ValueError: entry is not a rational complex number]"}),
    "sp_c odd Sp->U": (
        "sp_c", {"k_kinds": ("O", "U")}, ["--n", "3"],
        {"zero-orbit-quotient": "FAILED (1 orbit(s)) "
                                "[1 failed: [1,1,1,1,1,1]: dim_quotient=12]"}),
}


@pytest.mark.parametrize("mutant", MUTANTS)
def test_verify_catches_the_mutant_without_a_traceback(capsys, monkeypatch, cold_memos,
                                                       mutant):
    family, fields, size, caught = MUTANTS[mutant]
    argv = ["verify", "--algebra", family, *size]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "") and out.endswith("verify: PASS\n")
    clean = check_lines(out)

    monkeypatch.setitem(FAMILY_SPECS, family, FAMILY_SPECS[family]._replace(**fields))
    factor_layout.cache_clear()
    adapted_basis.cache_clear()
    code, out, err = run(capsys, *argv)
    assert (code, err) == (1, "") and out.endswith("verify: FAIL\n")
    mutated = check_lines(out)
    assert list(mutated) == list(clean)
    assert {name: line for name, line in mutated.items() if "FAILED" in line} == caught


def test_a_raising_check_fails_alone_and_names_the_exception(capsys, monkeypatch):
    def broken(x):
        raise RuntimeError("no Jordan type")

    monkeypatch.setattr(cli, "jordan_type", broken)
    code, out, err = run(capsys, "verify", "--algebra", "sl_r", "--n", "3")
    assert (code, err) == (1, "") and out.endswith("verify: FAIL\n")
    lines = check_lines(out)
    assert lines.pop("jordan-type") == (
        "FAILED (2 orbit(s)) [2 failed: [2,1]: RuntimeError: no Jordan type]")
    assert all(line.startswith("PASSED") for line in lines.values())


def test_a_raising_shared_value_fails_each_check_that_reads_it(capsys, monkeypatch):
    """A triple that cannot be built fails every check of a nonzero orbit
    that reads it; block-accounting and the zero orbit's checks still pass."""
    def broken(a, datum):
        raise ValueError("no triple")

    monkeypatch.setattr(cli, "build_triple", broken)
    code, out, err = run(capsys, "verify", "--algebra", "so_pq", "--p", "2", "--q", "1")
    assert (code, err) == (1, "") and out.endswith("verify: FAIL\n")
    lines = check_lines(out)
    assert lines.pop("block-accounting").startswith("PASSED")
    assert lines.pop("zero-orbit-quotient").startswith("PASSED")
    assert set(lines) >= {"centralizer-dim", "adapted-basis", "K-membership"}
    for line in lines.values():
        assert line in ("FAILED (1 orbit(s)) [1 failed: [3](3:0): ValueError: no triple]",
                        "FAILED (2 orbit(s)) [1 failed: [3](3:0): ValueError: no triple]")
