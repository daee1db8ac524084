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
``sp_c`` odd parts Sp -> U     ``verify --algebra sp_c --n 3``    ``centralizer-dim``: ``[2,1,1,1,1]: dim
                                                                  K: 2 x 4 != dim z(triple) 20`` and
                                                                  ``zero-orbit-quotient``:
                                                                  ``[1,1,1,1,1,1]: dim_quotient=12``
``dim_K`` keeps the U circle   ``verify --algebra sl_c --n 3``    ``centralizer-dim``: ``[2,1]: dim K: 2 x
(no -1 for chi = 1)                                               2 != dim z(triple) 2`` and
                                                                  ``zero-orbit-quotient``:
                                                                  ``[1,1,1]: dim_quotient=-1``
``sp_c`` even parts O -> U     ``verify --algebra sp_c --n 3``    ``centralizer-dim`` and
                                                                  ``K-membership``: ``[2,2,1,1]:
                                                                  commutes[X]: entry (0,2) is ...``, the
                                                                  first bad entry of each identity
``compact_dim("Sp", n)`` is    ``verify --algebra sp_c --n 3``    ``centralizer-dim``: ``[2,1,1,1,1]: dim
n(2n - 1), the dimension of                                       K: 2 x 6 != dim z(triple) 20``; dim M
SO(2n), not Sp(n)                                                 and dim K shrink alike, so
                                                                  ``zero-orbit-quotient`` passes
``so_pq`` odd parts O -> U     ``verify --algebra so_pq --p 3     ``zero-orbit-quotient`` and
                               --q 3``                            ``K-membership``: ``[2,2,1,1](2:2,1:1):
                                                                  preserves[S]: entry (4,4) is ...``
=============================  =================================  ==========================================

The field sweep at the end mutates every descriptor family's ``k_kinds``,
``even_embed``, ``fibers`` and ``ambient`` and pins, for each mutant, the
lines that catch it or the reason it survives.  The rule sweep after it
swaps each entry of the builder's kind table, keyed by (ring, eps'), for
each other kind, rebuilds every record through the builder and pins the
mutant the same way.

A check that raises fails on its own line, naming the orbit and the
exception as ``ExcType: message``; the tests at the end raise on purpose
to pin that.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import itertools
import pkgutil

import pytest

import nilorb
import nilorb.centralizers
from nilorb import cli, families
from nilorb.families import (COMPLEX, FAMILY_SPECS, QUATERNION, REAL, _family,
                             _indefinite_orthogonal_fibers, _one_fiber, _two_if_even,
                             _two_if_very_even)
from nilorb.homotopy import compact_pair
from test_family_table import DERIVED, derived_fields


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


def sp_dim_of_so_2n(monkeypatch):
    """The mutant whose ``compact_dim("Sp", n)`` is n(2n - 1), in every
    module that binds the function."""
    true = families.compact_dim

    def wrong(kind, n):
        return n * (2 * n - 1) if kind == "Sp" else true(kind, n)
    for info in pkgutil.iter_modules(nilorb.__path__):
        module = importlib.import_module(f"nilorb.{info.name}")
        if getattr(module, "compact_dim", None) is true:
            monkeypatch.setattr(module, "compact_dim", wrong)


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
        {"centralizer-dim": "FAILED (8 orbit(s)) [4 failed: [2,1,1,1,1]: "
                            "dim K: 2 x 4 != dim z(triple) 20]",
         "zero-orbit-quotient": "FAILED (1 orbit(s)) "
                                "[1 failed: [1,1,1,1,1,1]: dim_quotient=12]"}),
    "dim_K keeps the U circle": (
        ["sl_c", "--n", "3"], keep_the_circle,
        {"centralizer-dim": "FAILED (3 orbit(s)) [2 failed: [2,1]: "
                            "dim K: 2 x 2 != dim z(triple) 2]",
         "zero-orbit-quotient": "FAILED (1 orbit(s)) "
                                "[1 failed: [1,1,1]: dim_quotient=-1]"}),
    "sp_c even O->U": (
        ["sp_c", "--n", "3"], family_fields("sp_c", k_kinds=("U", "Sp")),
        {"centralizer-dim": "FAILED (8 orbit(s)) [6 failed: [2,1,1,1,1]: "
                            "dim K: 2 x 11 != dim z(triple) 20]",
         "K-membership": "FAILED (7 orbit(s)) [4 failed: [2,2,1,1]: "
                         "commutes[X]: entry (0,2) is -7/9+4/9*i, expected -7/9-4/9*i; "
                         "commutes[Y]: entry (2,0) is -7/9-4/9*i, expected -7/9+4/9*i]"}),
    "compact_dim Sp is n(2n-1)": (
        ["sp_c", "--n", "3"], sp_dim_of_so_2n,
        {"centralizer-dim": "FAILED (8 orbit(s)) [4 failed: [2,1,1,1,1]: "
                            "dim K: 2 x 6 != dim z(triple) 20]"}),
    "so_pq odd O->U": (
        ["so_pq", "--p", "3", "--q", "3"], family_fields("so_pq", k_kinds=("U", "U")),
        {"zero-orbit-quotient": "FAILED (1 orbit(s)) "
                                "[1 failed: [1,1,1,1,1,1](1:3): dim_quotient=-12]",
         "K-membership": "FAILED (6 orbit(s)) [6 failed: [2,2,1,1](2:2,1:1): "
                         "preserves[S]: entry (4,4) is -119/169-120/169*i, expected 1]"}),
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


# ---------------------------------------------------------------------------
# The field sweep
# ---------------------------------------------------------------------------

#: The algebras each family's field mutants are verified on.
SWEEP_ALGEBRAS = {
    "sl_r": (["--n", "4"], ["--n", "5"]),
    "sl_c": (["--n", "3"], ["--n", "4"]),
    "sl_h": (["--n", "3"],),
    "so_c": (["--n", "7"], ["--n", "8"]),
    "so_pq": (["--p", "3", "--q", "3"], ["--p", "4", "--q", "2"]),
    "sp_c": (["--n", "3"],),
    "sp_pq": (["--p", "2", "--q", "2"], ["--p", "3", "--q", "1"]),
}

KINDS = ("O", "U", "Sp")


def field_values(spec):
    """``(field, text, value)`` for every value the sweep puts in a field of
    the family's record, the record's own values among them.

    A trace-zero family takes K's kinds from its ring, so its ``k_kinds``
    stays ``None``.  The so_pq fiber rule reads signs, so only the signed
    families get it.  An ambient of ``None`` would drop the descriptor,
    not change it, so the ambients are the three compact kinds.
    """
    if spec.form is not None:
        for pair in itertools.product(KINDS, KINDS):
            yield "k_kinds", ",".join(pair), pair
    for embed in (None, "H-to-R", "C-to-R", "i-to-j"):
        yield "even_embed", str(embed), embed
    rules = [_one_fiber, _two_if_even, _two_if_very_even]
    if spec.signed:
        rules.append(_indefinite_orthogonal_fibers)
    for rule in rules:
        yield "fibers", rule.__name__, rule
    for kind in ("SO", "SU", "Sp"):
        yield "ambient", kind, kind


#: ``"family field value"`` -> (family, the replaced field), for every
#: single-field mutant of every family with a descriptor.
FIELD_MUTANTS = {
    f"{family} {field} {text}": (family, {field: value})
    for family, spec in FAMILY_SPECS.items() if spec.has_descriptor
    for field, text, value in field_values(spec) if value != getattr(spec, field)
}

NO_EVEN_PARTS = "a trace-zero family's factors are whole parts, so nothing reads even_embed"
NO_FIBER_CHECK = "verify checks no fiber count"
SUBGROUP = ("the even or odd factor becomes a subgroup of the true one, which membership "
            "accepts, and on a real form verify compares neither dim K nor its components "
            "with a solve")

#: The mutants ``verify`` does not catch, each with its reason.
SURVIVORS = {
    "sl_r even_embed H-to-R": NO_EVEN_PARTS,
    "sl_r even_embed C-to-R": NO_EVEN_PARTS,
    "sl_r even_embed i-to-j": NO_EVEN_PARTS,
    "sl_c even_embed H-to-R": NO_EVEN_PARTS,
    "sl_c even_embed C-to-R": NO_EVEN_PARTS,
    "sl_c even_embed i-to-j": NO_EVEN_PARTS,
    "sl_h even_embed H-to-R": NO_EVEN_PARTS,
    "sl_h even_embed C-to-R": NO_EVEN_PARTS,
    "sl_h even_embed i-to-j": NO_EVEN_PARTS,
    "sp_c even_embed i-to-j": "sp_c's even factors are O, rational, so i -> j leaves them as they are",
    "so_pq k_kinds O,O": SUBGROUP,
    "sp_pq k_kinds O,Sp": SUBGROUP,
    "sl_r fibers _one_fiber": NO_FIBER_CHECK,
    "sl_r fibers _two_if_very_even": NO_FIBER_CHECK,
    "sl_c fibers _two_if_even": NO_FIBER_CHECK,
    "sl_c fibers _two_if_very_even": NO_FIBER_CHECK,
    "sl_h fibers _two_if_even": NO_FIBER_CHECK,
    "sl_h fibers _two_if_very_even": NO_FIBER_CHECK,
    "so_c fibers _one_fiber": NO_FIBER_CHECK,
    "so_c fibers _two_if_even": NO_FIBER_CHECK,
    "so_pq fibers _one_fiber": NO_FIBER_CHECK,
    "so_pq fibers _two_if_even": NO_FIBER_CHECK,
    "so_pq fibers _two_if_very_even": NO_FIBER_CHECK,
    "sp_c fibers _two_if_even": NO_FIBER_CHECK,
    "sp_c fibers _two_if_very_even": NO_FIBER_CHECK,
    "sp_pq fibers _two_if_even": NO_FIBER_CHECK,
    "sp_pq fibers _two_if_very_even": NO_FIBER_CHECK,
    "sp_pq fibers _indefinite_orthogonal_fibers": NO_FIBER_CHECK,
    "rule R,+1 U": "drops so_pq's descriptor: its verify table loses the checks that read "
                   "one, so it does not line up with the clean table (block-accounting "
                   "fails); the literal pins catch it",
    "rule H,+1 U": "drops sp_pq's descriptor: its verify table loses the checks that read "
                   "one, so it does not line up with the clean table (block-accounting and "
                   "centralizer-dim fail); the literal pins catch it",
    "rule H,-1 O": "gives so_star a descriptor, which no sweep algebra verifies, and makes "
                   "sp_pq's even factor O, a subgroup of U that membership accepts, whose "
                   "rational entries need no i -> j; the literal pins catch it",
}

#: The mutants ``verify`` catches, each with the lines that fail on one of
#: its family's sweep algebras at least, in table order.
CAUGHT = {
    "sl_r ambient SU": "zero-orbit-quotient",
    "sl_r ambient Sp": "zero-orbit-quotient",
    "sl_c ambient SO": "zero-orbit-quotient",
    "sl_c ambient Sp": "centralizer-dim zero-orbit-quotient",
    "sl_h ambient SO": "zero-orbit-quotient embedding-homomorphism K-membership",
    "sl_h ambient SU": "zero-orbit-quotient embedding-homomorphism K-membership",
    "so_c k_kinds O,O": "centralizer-dim",
    "so_c k_kinds O,U": "centralizer-dim zero-orbit-quotient K-membership",
    "so_c k_kinds O,Sp": ("centralizer-dim zero-orbit-quotient embedding-homomorphism "
                          "K-membership"),
    "so_c k_kinds U,O": "centralizer-dim",
    "so_c k_kinds U,U": "centralizer-dim zero-orbit-quotient K-membership",
    "so_c k_kinds U,Sp": ("centralizer-dim zero-orbit-quotient embedding-homomorphism "
                          "K-membership"),
    "so_c k_kinds Sp,U": "centralizer-dim zero-orbit-quotient K-membership",
    "so_c k_kinds Sp,Sp": ("centralizer-dim zero-orbit-quotient embedding-homomorphism "
                           "K-membership"),
    "so_c even_embed None": "embedding-homomorphism K-membership",
    "so_c even_embed C-to-R": "embedding-homomorphism K-membership",
    "so_c even_embed i-to-j": "embedding-homomorphism K-membership",
    "so_c ambient SU": "zero-orbit-quotient",
    "so_c ambient Sp": "zero-orbit-quotient embedding-homomorphism K-membership",
    "so_pq k_kinds O,U": "zero-orbit-quotient K-membership",
    "so_pq k_kinds O,Sp": "zero-orbit-quotient embedding-homomorphism K-membership",
    "so_pq k_kinds U,U": "zero-orbit-quotient K-membership",
    "so_pq k_kinds U,Sp": "zero-orbit-quotient embedding-homomorphism K-membership",
    "so_pq k_kinds Sp,O": "embedding-homomorphism K-membership",
    "so_pq k_kinds Sp,U": "zero-orbit-quotient embedding-homomorphism K-membership",
    "so_pq k_kinds Sp,Sp": "zero-orbit-quotient embedding-homomorphism K-membership",
    "so_pq even_embed None": "embedding-homomorphism K-membership",
    "so_pq even_embed H-to-R": "embedding-homomorphism K-membership",
    "so_pq even_embed i-to-j": "embedding-homomorphism K-membership",
    "so_pq ambient SU": "zero-orbit-quotient",
    "so_pq ambient Sp": "zero-orbit-quotient",
    "sp_c k_kinds O,O": "centralizer-dim zero-orbit-quotient",
    "sp_c k_kinds O,U": "centralizer-dim zero-orbit-quotient",
    "sp_c k_kinds U,O": "centralizer-dim zero-orbit-quotient K-membership",
    "sp_c k_kinds U,U": "centralizer-dim zero-orbit-quotient K-membership",
    "sp_c k_kinds U,Sp": "centralizer-dim K-membership",
    "sp_c k_kinds Sp,O": "centralizer-dim zero-orbit-quotient K-membership",
    "sp_c k_kinds Sp,U": "centralizer-dim zero-orbit-quotient K-membership",
    "sp_c k_kinds Sp,Sp": "centralizer-dim K-membership",
    "sp_c even_embed H-to-R": "embedding-homomorphism K-membership",
    "sp_c even_embed C-to-R": "embedding-homomorphism K-membership",
    "sp_c ambient SO": "zero-orbit-quotient embedding-homomorphism K-membership",
    "sp_c ambient SU": "zero-orbit-quotient embedding-homomorphism K-membership",
    "sp_pq k_kinds O,O": "zero-orbit-quotient",
    "sp_pq k_kinds O,U": "zero-orbit-quotient",
    "sp_pq k_kinds U,O": "zero-orbit-quotient",
    "sp_pq k_kinds U,U": "zero-orbit-quotient",
    "sp_pq k_kinds Sp,O": "zero-orbit-quotient embedding-homomorphism K-membership",
    "sp_pq k_kinds Sp,U": "zero-orbit-quotient embedding-homomorphism K-membership",
    "sp_pq k_kinds Sp,Sp": "embedding-homomorphism K-membership",
    "sp_pq even_embed None": "K-membership",
    "sp_pq even_embed H-to-R": "embedding-homomorphism K-membership",
    "sp_pq even_embed C-to-R": "embedding-homomorphism K-membership",
    "sp_pq ambient SO": "zero-orbit-quotient embedding-homomorphism K-membership",
    "sp_pq ambient SU": "zero-orbit-quotient embedding-homomorphism K-membership",
    "rule R,+1 Sp": "so_pq: centralizer-dim K-membership",
    "rule R,-1 O": "so_pq: embedding-homomorphism K-membership",
    "rule R,-1 Sp": "so_pq: embedding-homomorphism K-membership",
    "rule C,+1 U": "so_c: drops its descriptor; sp_c: centralizer-dim K-membership",
    "rule C,+1 Sp": "so_c: centralizer-dim embedding-homomorphism K-membership; "
                    "sp_c: centralizer-dim embedding-homomorphism K-membership",
    "rule C,-1 O": "so_c: centralizer-dim embedding-homomorphism K-membership; "
                   "sp_c: centralizer-dim K-membership",
    "rule C,-1 U": "so_c: centralizer-dim embedding-homomorphism K-membership; "
                   "sp_c: drops its descriptor",
    "rule H,+1 O": "sp_pq: centralizer-dim embedding-homomorphism K-membership",
    "rule H,-1 Sp": "sp_pq: K-membership; so_star: gains a descriptor",
}

RINGS = {"R": REAL, "C": COMPLEX, "H": QUATERNION}

#: ``"rule ring,eps' kind"`` -> (the kind table's key, the kind put there),
#: for every entry of the builder's kind table and every other kind.
RULE_MUTANTS = {
    f"rule {letter},{sign:+d} {kind}": ((ring, sign), kind)
    for letter, ring in RINGS.items() for sign in (1, -1)
    for kind in KINDS if kind != families._KINDS[ring, sign]
}


def test_every_field_mutant_is_caught_or_pinned():
    """Every field mutant and every rule mutant, each pinned once."""
    assert len(FIELD_MUTANTS) == 83 and len(RULE_MUTANTS) == 12
    assert not set(CAUGHT) & set(SURVIVORS)
    assert set(CAUGHT) | set(SURVIVORS) == set(FIELD_MUTANTS) | set(RULE_MUTANTS)


@pytest.fixture(scope="module")
def clean_tables():
    """The check lines of each sweep algebra's unmutated ``verify`` table."""
    clear_memos()
    tables = {}
    for family, algebras in SWEEP_ALGEBRAS.items():
        for params in algebras:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert cli.main(["verify", "--algebra", family, *params]) == 0
            tables[family, tuple(params)] = list(check_lines(out.getvalue()))
    clear_memos()
    return tables


@pytest.mark.parametrize("mutant", FIELD_MUTANTS)
def test_a_field_mutant_fails_its_pinned_lines_or_survives_for_its_reason(
        capsys, monkeypatch, cold_memos, clean_tables, mutant):
    """Every table still prints whole, with no traceback; a caught mutant
    makes ``verify`` exit 1 with exactly its pinned lines failing, and a
    pinned survivor passes everywhere."""
    family, fields = FIELD_MUTANTS[mutant]
    family_fields(family, **fields)(monkeypatch)
    clear_memos()
    assert sweep_failures(capsys, clean_tables, family) == CAUGHT.get(mutant, "")


def sweep_failures(capsys, clean_tables, family) -> str:
    """The lines that fail on one of the family's sweep algebras at least,
    in table order, each table printed whole with no traceback."""
    failed = set()
    for params in SWEEP_ALGEBRAS[family]:
        code, out, err = run(capsys, "verify", "--algebra", family, *params)
        lines = check_lines(out)
        assert err == "" and list(lines) == clean_tables[family, tuple(params)]
        bad = {name for name, line in lines.items() if line.startswith("FAILED")}
        assert code == (1 if bad else 0)
        assert out.endswith("verify: FAIL\n" if bad else "verify: PASS\n")
        failed |= bad
    return " ".join(name for name in cli._CHECK_ORDER if name in failed)


@pytest.mark.parametrize("mutant", RULE_MUTANTS)
def test_a_rule_mutant_fails_its_pinned_lines_or_survives_for_its_reason(
        capsys, monkeypatch, cold_memos, clean_tables, mutant):
    """Every record is rebuilt through the builder from the mutated kind
    table, and the literal pins of the derived fields fail.  A family whose
    record changes is named with the lines that fail on its sweep
    algebras, or with the descriptor it gains or drops: verify's table for
    it then changes shape.  A mutant pinned in ``SURVIVORS`` fails no line
    of a family that keeps its descriptor."""
    key, kind = RULE_MUTANTS[mutant]
    monkeypatch.setitem(families._KINDS, key, kind)
    table = {name: _family(spec.ring, spec.form, spec.min_n, spec.low_rank,
                           spec.boxes_per_n, spec.fibers)
             for name, spec in FAMILY_SPECS.items()}
    assert derived_fields(table) != DERIVED
    changed = {name: (FAMILY_SPECS[name], spec) for name, spec in table.items()
               if spec != FAMILY_SPECS[name]}
    for name, (_, spec) in changed.items():
        monkeypatch.setitem(FAMILY_SPECS, name, spec)
    clear_memos()
    parts = []
    for name, (old, new) in changed.items():
        if old.has_descriptor != new.has_descriptor:
            parts.append(f"{name}: {'gains a' if new.has_descriptor else 'drops its'} descriptor")
        elif failed := sweep_failures(capsys, clean_tables, name):
            parts.append(f"{name}: {failed}")
    if mutant in SURVIVORS:
        assert parts and all(part.endswith(" descriptor") for part in parts)
    else:
        assert "; ".join(parts) == CAUGHT[mutant]
