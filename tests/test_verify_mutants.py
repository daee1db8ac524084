"""Semantic mutants of the family data, and the ``verify`` line that catches each.

Each mutant is applied through ``monkeypatch``: it replaces one field of a
family's record in ``FAMILY_SPECS``, or swaps a function for one that
drops a rule.  ``verify`` must then exit 1 with its whole table printed and
no traceback, and the catching line must fail:

=============================  =================================  ==========================================
mutant                         command                            catching line
=============================  =================================  ==========================================
``sp_pq`` even parts U -> Sp   ``verify --algebra sp_pq --p 2      ``K-membership`` and
                               --q 2``                            ``embedding-homomorphism``: ``ValueError:
                                                                  entry is not a rational complex number``
                                                                  (raised by ``matrices.i_to_j``)
``sp_c`` odd parts Sp -> U     ``verify --algebra sp_c --n 3``    ``zero-orbit-quotient``:
                                                                  ``[1,1,1,1,1,1]: dim_quotient=12``
``dim_K`` keeps the U circle   ``verify --algebra sl_c --n 3``    ``zero-orbit-quotient``:
(no -1 for chi = 1)                                               ``[1,1,1]: dim_quotient=-1``
=============================  =================================  ==========================================

A check that raises fails on its own line, naming the orbit and the
exception as ``ExcType: message``; the tests at the end raise on purpose
to pin that.
"""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import nilorb
import nilorb.centralizers
from nilorb import cli
from nilorb.families import FAMILY_SPECS
from nilorb.homotopy import compact_pair


def package_memos():
    """Every memoized nilorb function: the module-level names of the
    package's modules that have a ``cache_clear``, each once."""
    memos = {}
    for info in pkgutil.iter_modules(nilorb.__path__):
        module = importlib.import_module(f"nilorb.{info.name}")
        for value in vars(module).values():
            if (callable(getattr(value, "cache_clear", None))
                    and getattr(value, "__module__", "").startswith("nilorb")):
                memos[id(value)] = value
    return list(memos.values())


def clear_memos():
    for memo in package_memos():
        memo.cache_clear()


@pytest.fixture
def cold_memos():
    """Layouts, bases, blocks and part counts are memoized, some per
    algebra and datum, so a mutant's must not leak into, or come from,
    another test; every memo the package holds is cleared."""
    clear_memos()
    yield
    clear_memos()


def test_the_memo_scan_finds_every_memo():
    names = {memo.__name__ for memo in package_memos()}
    assert names >= {"factor_layout", "adapted_basis", "_part_grading", "_triple_block",
                     "_gram_block", "_cross_sizes", "row_plus_minus"}


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def check_lines(out: str) -> dict:
    """Each table line's check name mapped to the rest of its line."""
    lines = [line.strip() for line in out.splitlines() if line.startswith("  ")]
    return dict(line.split(" ", 1) for line in lines)


def family_fields(family, **fields):
    """The mutant that replaces ``fields`` of the family's record."""
    def mutate(monkeypatch):
        monkeypatch.setitem(FAMILY_SPECS, family, FAMILY_SPECS[family]._replace(**fields))
    return mutate


def keep_the_circle(monkeypatch):
    """The mutant whose descriptor, as ``centralizer_report`` reads it,
    counts every factor's dimension in dim K, with no -1 for the circle
    that chi = 1 removes."""
    def kept(a, datum):
        h = compact_pair(a, datum)
        k = sum(f.dim() for f in h.factors)
        return h._replace(dim_K=k, dim_quotient=h.dim_M - k)
    monkeypatch.setattr(nilorb.centralizers, "compact_pair", kept)


MUTANTS = {
    "sp_pq even U->Sp": (
        ["sp_pq", "--p", "2", "--q", "2"], family_fields("sp_pq", k_kinds=("Sp", "Sp")),
        {"K-membership": "FAILED (5 orbit(s)) [3 failed: [2,1,1](2:1,1:1): "
                         "ValueError: entry is not a rational complex number]",
         "embedding-homomorphism": "FAILED (5 orbit(s)) [3 failed: [2,1,1](2:1,1:1): "
                                   "ValueError: entry is not a rational complex number]"}),
    "sp_c odd Sp->U": (
        ["sp_c", "--n", "3"], family_fields("sp_c", k_kinds=("O", "U")),
        {"zero-orbit-quotient": "FAILED (1 orbit(s)) "
                                "[1 failed: [1,1,1,1,1,1]: dim_quotient=12]"}),
    "dim_K keeps the U circle": (
        ["sl_c", "--n", "3"], keep_the_circle,
        {"zero-orbit-quotient": "FAILED (1 orbit(s)) "
                                "[1 failed: [1,1,1]: dim_quotient=-1]"}),
}


@pytest.mark.parametrize("mutant", MUTANTS)
def test_verify_catches_the_mutant_without_a_traceback(capsys, monkeypatch, cold_memos,
                                                       mutant):
    algebra, mutate, caught = MUTANTS[mutant]
    argv = ["verify", "--algebra", *algebra]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "") and out.endswith("verify: PASS\n")
    clean = check_lines(out)

    mutate(monkeypatch)
    clear_memos()
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
