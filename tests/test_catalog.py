"""Orbit catalogs: enumeration sets, fiber counts, and membership messages."""

from __future__ import annotations

import itertools
import json

import pytest

from nilorb.catalog import (FAMILIES, SIGNED_FAMILIES, AlgebraSpec,
                            datum_membership_error, enumerate_orbits,
                            fiber_count, orbit_record_bound)
from nilorb.cli import main
from nilorb.diagrams import SignedDiagram, sign_row
from nilorb.partitions import Partition, enumerate_partitions


def orbit_total(a: AlgebraSpec) -> int:
    """Number of orbits: fiber counts summed over all records."""
    return sum(rec.fiber_count for rec in enumerate_orbits(a))


# Catalog totals frozen from independent hand enumeration:
#   sl_r n=2: [2] splits in two, [1,1] stays      -> 3
#   sl_c n=4: partitions of 4                      -> 5
#   sl_h n=4: partitions of 4                      -> 5
#   sp_c n=2: partitions of 4 with odd parts in pairs
#             {[1^4],[2,1,1],[2,2],[4]}            -> 4
#   so_c n=5: {[1^5],[2,2,1],[3,1,1],[5]}          -> 4
#   sp_c n=1: {[1,1],[2]}                          -> 2
FROZEN_TOTALS = [
    ("sl_r", {"n": 2}, 3),
    ("sl_c", {"n": 4}, 5),
    ("sl_h", {"n": 4}, 5),
    ("sp_c", {"n": 2}, 4),
    ("so_c", {"n": 5}, 4),
    ("sp_c", {"n": 1}, 2),
]


@pytest.mark.parametrize("family,params,total", FROZEN_TOTALS)
def test_frozen_totals(family, params, total):
    assert orbit_total(AlgebraSpec(family, **params)) == total


def test_cross_isomorphism_counts():
    """Low-rank coincidences force equal orbit totals."""
    assert orbit_total(AlgebraSpec("so_pq", p=2, q=1)) == \
        orbit_total(AlgebraSpec("sl_r", n=2)) == 3
    assert orbit_total(AlgebraSpec("sp_c", n=2)) == \
        orbit_total(AlgebraSpec("so_c", n=5)) == 4
    assert orbit_total(AlgebraSpec("sp_c", n=1)) == \
        orbit_total(AlgebraSpec("sl_c", n=2)) == 2


def test_indefinite_orthogonal_2_1_example():
    recs = enumerate_orbits(AlgebraSpec("so_pq", p=2, q=1))
    assert len(recs) == 2
    assert sorted(r.fiber_count for r in recs) == [1, 2]
    by_str = {str(r.datum): r for r in recs}
    assert by_str["[3](3:0)"].fiber_count == 2


def test_special_linear_catalog_is_all_partitions():
    for family in ("sl_r", "sl_c", "sl_h"):
        for n in range(1, 7):
            recs = enumerate_orbits(AlgebraSpec(family, n=n))
            assert [r.datum.partition for r in recs] == enumerate_partitions(n)


def test_complex_orthogonal_catalog_filter():
    for n in range(3, 9):
        recs = enumerate_orbits(AlgebraSpec("so_c", n=n))
        want = [p for p in enumerate_partitions(n)
                if all(t % 2 == 0 for d, t in p.pairs if d % 2 == 0)]
        assert [r.datum.partition for r in recs] == want


def test_complex_symplectic_catalog_filter():
    for n in range(1, 5):
        recs = enumerate_orbits(AlgebraSpec("sp_c", n=n))
        want = [p for p in enumerate_partitions(2 * n)
                if all(t % 2 == 0 for d, t in p.pairs if d % 2 == 1)]
        assert [r.datum.partition for r in recs] == want


def test_signed_catalogs_respect_signature():
    for p in range(1, 5):
        for q in range(1, 5):
            a = AlgebraSpec("so_pq", p=p, q=q)
            for rec in enumerate_orbits(a):
                assert rec.datum.sgn_counts() == (p, q)
                assert all(t % 2 == 0 for d, t in rec.datum.partition.pairs
                           if d % 2 == 0)
            b = AlgebraSpec("sp_pq", p=p, q=q)
            for rec in enumerate_orbits(b):
                assert rec.datum.sgn_counts() == (p, q)


def _so_pq_brute_force(p, q):
    """The so_pq data of signature (p, q), re-derived from every partition of
    p + q and every sign count of its parts: even parts keep even
    multiplicity, rows of even length start with +, and the boxes of the
    rows written out by :func:`sign_row` give the signature."""
    out = []
    for part in enumerate_partitions(p + q):
        if any(d % 2 == 0 and t % 2 for d, t in part.pairs):
            continue
        sizes = [d for d, _ in part.pairs]
        for combo in itertools.product(*(range(t + 1) for _, t in part.pairs)):
            data = dict(zip(sizes, combo))
            if any(d % 2 == 0 and data[d] != t for d, t in part.pairs):
                continue
            signs = [s for d, t in part.pairs
                     for row in [sign_row(d, 1)] * data[d] + [sign_row(d, -1)] * (t - data[d])
                     for s in row]
            if (signs.count(1), signs.count(-1)) == (p, q):
                out.append(SignedDiagram(part, data))
    return out


@pytest.mark.parametrize("p,q", [(p, n - p) for n in range(2, 7) for p in range(1, n)])
def test_so_pq_data_match_brute_force(p, q):
    """The free signs and the even-multiplicity rule together, in order."""
    got = [rec.datum for rec in enumerate_orbits(AlgebraSpec("so_pq", p=p, q=q))]
    assert got == _so_pq_brute_force(p, q)


def test_quaternionic_orthogonal_catalog():
    for n in range(1, 5):
        a = AlgebraSpec("so_star", n=n)
        for rec in enumerate_orbits(a):
            # Odd rows all start +; no signature constraint applies.
            for d, t in rec.datum.partition.pairs:
                if d % 2 == 1:
                    assert rec.datum.p_of(d) == t


# --- fiber rules re-derived from the classification tables -----------------

def rederived_fiber(family: str, datum) -> int:
    """Independent restatement of the orbit-fiber tables."""
    part = datum.partition
    all_even = all(d % 2 == 0 for d, _ in part.pairs)
    very_even = all_even and all(t % 2 == 0 for _, t in part.pairs)
    if family == "sl_r":
        return 2 if all_even else 1
    if family == "so_c":
        return 2 if very_even else 1
    if family == "so_pq":
        if very_even:
            return 4
        evens_paired = all(t % 2 == 0 for d, t in part.pairs if d % 2 == 0)
        plus_side = minus_side = True
        for d, t in part.pairs:
            if d % 2 == 0:
                continue
            for start, count in ((1, datum.p_of(d)), (-1, t - datum.p_of(d))):
                if count == 0:
                    continue
                row = sign_row(d, start)
                if sum(1 for s in row if s == 1) % 2:
                    plus_side = False
                if sum(1 for s in row if s == -1) % 2:
                    minus_side = False
        if evens_paired and (plus_side or minus_side):
            return 2
        return 1
    return 1


def test_fiber_rules_exhaustive():
    """Every datum with at most 8 boxes, against the re-derived tables."""
    for n in range(1, 9):
        for part in enumerate_partitions(n):
            a = AlgebraSpec("sl_r", n=n)
            if datum_membership_error(a, part) is None:
                assert fiber_count(a, part) == rederived_fiber("sl_r", part)
        for family, lo in (("sl_c", 1), ("sl_h", 1), ("so_c", 3)):
            if n < lo:
                continue
            a = AlgebraSpec(family, n=n)
            for rec in enumerate_orbits(a):
                assert rec.fiber_count == rederived_fiber(family, rec.datum)
        if n % 2 == 0:
            a = AlgebraSpec("sp_c", n=n // 2)
            for rec in enumerate_orbits(a):
                assert rec.fiber_count == 1
        for p in range(1, n):
            q = n - p
            for family in ("so_pq", "sp_pq"):
                a = AlgebraSpec(family, p=p, q=q)
                for rec in enumerate_orbits(a):
                    assert rec.fiber_count == rederived_fiber(family, rec.datum), \
                        (family, p, q, str(rec.datum))
            a = AlgebraSpec("so_star", n=n)
            for rec in enumerate_orbits(a):
                assert rec.fiber_count == 1


def test_so_pq_fiber_rule_refuses_a_plain_partition():
    with pytest.raises(ValueError, match="so_pq data carry signs"):
        fiber_count(AlgebraSpec("so_pq", p=2, q=1), Partition([3]))


def test_total_count_sums_fibers(capsys):
    """``list``'s ``total_orbit_count`` is the fiber counts summed over the records."""
    for argv, a in ((["--p", "3", "--q", "2"], AlgebraSpec("so_pq", p=3, q=2)),
                    (["--n", "4"], AlgebraSpec("sl_r", n=4)),
                    (["--n", "8"], AlgebraSpec("so_c", n=8))):
        assert main(["list", "--algebra", a.family, *argv, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["total_orbit_count"] == orbit_total(a) == sum(
            r["fiber_count"] for r in doc["orbit_records"])


# --- membership messages ----------------------------------------------------

def test_membership_accepts_catalog_members():
    specs = [AlgebraSpec("sl_r", n=3), AlgebraSpec("so_c", n=6),
             AlgebraSpec("sp_c", n=2), AlgebraSpec("so_pq", p=2, q=2),
             AlgebraSpec("sp_pq", p=2, q=1), AlgebraSpec("so_star", n=3)]
    for a in specs:
        for rec in enumerate_orbits(a):
            assert datum_membership_error(a, rec.datum) is None


def test_membership_rejections_name_the_rule():
    a = AlgebraSpec("so_c", n=6)
    msg = datum_membership_error(a, Partition([4, 2]))
    assert "even multiplicity" in msg
    msg = datum_membership_error(a, Partition([3, 2, 2]))
    assert "boxes" in msg  # wrong size
    a = AlgebraSpec("sp_c", n=2)
    msg = datum_membership_error(a, Partition([3, 1]))
    assert "odd part" in msg
    a = AlgebraSpec("so_pq", p=2, q=1)
    msg = datum_membership_error(
        a, SignedDiagram(Partition([3]), {3: 1}))
    assert "sign counts" in msg
    msg = datum_membership_error(a, Partition([3]))
    assert "signed" in msg
    a = AlgebraSpec("sl_r", n=3)
    msg = datum_membership_error(
        a, SignedDiagram(Partition([3]), {3: 1}))
    assert "plain partitions" in msg


def test_algebra_spec_validation():
    with pytest.raises(ValueError):
        AlgebraSpec("so_pq", n=3)
    with pytest.raises(ValueError):
        AlgebraSpec("sl_r", p=1, q=1)
    with pytest.raises(ValueError):
        AlgebraSpec("so_c", n=2)
    with pytest.raises(ValueError):
        AlgebraSpec("nope", n=2)
    with pytest.raises(ValueError):
        AlgebraSpec("sp_pq", p=0, q=2)


def test_low_rank_warning():
    assert AlgebraSpec("so_c", n=4).low_rank_warning
    assert not AlgebraSpec("so_c", n=5).low_rank_warning
    assert AlgebraSpec("so_pq", p=2, q=2).low_rank_warning
    assert not AlgebraSpec("so_pq", p=3, q=2).low_rank_warning
    assert not AlgebraSpec("sp_pq", p=1, q=1).low_rank_warning


def test_partition_counts_match_enumeration():
    """Without parity rules the bound's series counts p(size) exactly."""
    for k in range(1, 21):
        assert orbit_record_bound(AlgebraSpec("sl_r", n=k)) == len(enumerate_partitions(k))
    assert orbit_record_bound(AlgebraSpec("sl_r", n=64)) == 1741630


# Largest size checked per family: signed algebras up to p + q = 14, so_c
# and so_star up to 14, sp_c up to 8 (16 boxes), the sl families up to 8.
_BOUND_CHECK_SIZES = {"so_pq": 14, "sp_pq": 14, "so_c": 14, "sp_c": 8, "so_star": 14}


def _small_algebras():
    for fam in FAMILIES:
        hi = _BOUND_CHECK_SIZES.get(fam, 8)
        if fam in SIGNED_FAMILIES:
            yield from (AlgebraSpec(fam, p=p, q=total - p)
                        for total in range(2, hi + 1) for p in range(1, total))
        else:
            lo = 3 if fam == "so_c" else 1
            yield from (AlgebraSpec(fam, n=n) for n in range(lo, hi + 1))


@pytest.mark.parametrize("a", list(_small_algebras()), ids=str)
def test_orbit_record_bound_bounds_the_enumeration(a):
    """The parity-rule count is exact for every family without a
    signature; so_pq and sp_pq count the diagrams of every signature."""
    bound, count = orbit_record_bound(a), len(enumerate_orbits(a))
    assert bound >= count
    if a.family not in SIGNED_FAMILIES:
        assert bound == count


@pytest.mark.parametrize("a, bound, records", [
    (AlgebraSpec("so_pq", p=7, q=7), 465, 99),
    (AlgebraSpec("sp_pq", p=7, q=7), 1_040, 256),
    (AlgebraSpec("so_c", n=21), 196, 196),
], ids=str)
def test_orbit_record_bound_counts_the_parity_rules(a, bound, records):
    """The bound stays near the record count: within 5x for the signed
    algebras of size 14, exact for so_c 21, past the enumeration test's
    sizes."""
    assert (orbit_record_bound(a), len(enumerate_orbits(a))) == (bound, records)
