"""The classical low-rank isomorphisms as a cross-family certificate.

Isomorphic real Lie algebras have the same nilpotent orbits, with the same
orbit and centralizer dimensions and the same maximal compact subgroups of
their centralizers (Helgason, ch. X §6).  nilorb states each family's
closed forms, parity rules and factor layout separately, so every pair
below is an independent route to the numbers the catalog ships.

An algebra's certificate is the multiset of (orbit dim, dim z_triple,
dim K, dim M/K) over its orbit records, each record counted
``fiber_count`` times: the raw record counts differ between the two sides
of a pair (sl_r(4) has 5 records and so_pq(3,3) has 7), and the fiber
counts reconcile them.
"""

from __future__ import annotations

from collections import Counter

import pytest

from nilorb.catalog import AlgebraSpec, enumerate_orbits
from nilorb.centralizers import centralizer_report


def certificate(a: AlgebraSpec, with_compact: bool = True) -> Counter:
    out: Counter = Counter()
    for rec in enumerate_orbits(a):
        rep = centralizer_report(a, rec.datum)
        key = (rep.dim_orbit, rep.dim_z_triple)
        if with_compact:
            key += (rep.compact.dim_K, rep.compact.dim_quotient)
        out[key] += rec.fiber_count
    return out


ISOMORPHIC_PAIRS = [
    (AlgebraSpec("sl_r", n=2), AlgebraSpec("so_pq", p=2, q=1)),
    (AlgebraSpec("sl_c", n=2), AlgebraSpec("so_pq", p=3, q=1)),
    (AlgebraSpec("so_pq", p=3, q=1), AlgebraSpec("so_c", n=3)),
    (AlgebraSpec("so_c", n=3), AlgebraSpec("sp_c", n=1)),
    (AlgebraSpec("sp_c", n=2), AlgebraSpec("so_c", n=5)),
    (AlgebraSpec("sl_c", n=4), AlgebraSpec("so_c", n=6)),
    (AlgebraSpec("sl_r", n=4), AlgebraSpec("so_pq", p=3, q=3)),
    (AlgebraSpec("sl_h", n=2), AlgebraSpec("so_pq", p=5, q=1)),
    (AlgebraSpec("sp_pq", p=1, q=1), AlgebraSpec("so_pq", p=4, q=1)),
]

SWAPPED_PAIRS = [
    (AlgebraSpec(family, p=p, q=q), AlgebraSpec(family, p=q, q=p))
    for family in ("so_pq", "sp_pq")
    for p in range(1, 8) for q in range(p + 1, 9 - p)
]


@pytest.mark.parametrize("left,right", ISOMORPHIC_PAIRS, ids=lambda a: str(a))
def test_isomorphic_algebras_have_one_certificate(left, right):
    assert certificate(left) == certificate(right)


@pytest.mark.parametrize("left,right", SWAPPED_PAIRS, ids=lambda a: str(a))
def test_swapped_signatures_have_one_certificate(left, right):
    assert certificate(left) == certificate(right)


def test_the_pairs_cover_the_listed_isomorphisms():
    assert len(ISOMORPHIC_PAIRS) == 9
    assert len(SWAPPED_PAIRS) == 24


def test_quaternionic_orthogonal_matches_on_its_dimensions():
    """so*(8) = so(6,2); so_star has no descriptor, so only the orbit and
    centralizer dimensions are compared."""
    left = certificate(AlgebraSpec("so_star", n=4), with_compact=False)
    right = certificate(AlgebraSpec("so_pq", p=6, q=2), with_compact=False)
    assert left == right
    assert len(enumerate_orbits(AlgebraSpec("so_star", n=4))) == 9
    assert len(enumerate_orbits(AlgebraSpec("so_pq", p=6, q=2))) == 6
