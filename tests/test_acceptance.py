"""Acceptance gate: one pass/fail line per shipped guarantee.

Run with ``pytest -v tests/test_acceptance.py``; each criterion below is a
single test whose PASSED/FAILED line is the acceptance record.
"""

from __future__ import annotations

import json
import random

from nilorb.catalog import AlgebraSpec, enumerate_orbits
from nilorb.centralizers import (centralizer_dim_triple, centralizer_report,
                                 expected_reductive_dim)
from nilorb.cli import main
from nilorb.diagrams import SignedDiagram
from nilorb.homotopy import (characters, compact_pair, embed_K,
                             sample_k_element, signed_block_totals,
                             verify_K_membership)
from nilorb.matrices import ExactMatrix, congruence_signature, det
from nilorb.partitions import Partition, enumerate_partitions
from nilorb.scalars import Scalar
from nilorb.triples import build_triple, gram_matrix, jordan_type, sigma_transpose

TWO = Scalar.rational(2)


def commutator(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """The reference bracket ``[a, b] = a b - b a``, built with ``@`` and ``-``."""
    return a @ b - b @ a


def small_specs(include_zero_rank=False):
    return (
        [AlgebraSpec(f, n=n) for f in ("sl_r", "sl_c", "sl_h")
         for n in range(1, 7)]
        + [AlgebraSpec("so_c", n=n) for n in range(3, 7)]
        + [AlgebraSpec("sp_c", n=n) for n in range(1, 4)]
        + [AlgebraSpec("so_star", n=n) for n in range(1, 7)]
        + [AlgebraSpec(f, p=p, q=t - p) for f in ("so_pq", "sp_pq")
           for t in range(2, 7) for p in range(1, t)]
    )


def orbit_total(a):
    """Number of orbits: fiber counts summed over all records."""
    return sum(rec.fiber_count for rec in enumerate_orbits(a))


def test_criterion_1_parametrization_counts():
    assert orbit_total(AlgebraSpec("sl_r", n=2)) == 3
    assert orbit_total(AlgebraSpec("sl_c", n=4)) == 5
    assert orbit_total(AlgebraSpec("sl_h", n=4)) == 5
    assert orbit_total(AlgebraSpec("sp_c", n=2)) == 4
    assert orbit_total(AlgebraSpec("so_c", n=5)) == 4
    # Low-rank isomorphisms force equal totals across families.
    assert orbit_total(AlgebraSpec("so_pq", p=2, q=1)) == \
        orbit_total(AlgebraSpec("sl_r", n=2)) == 3
    assert orbit_total(AlgebraSpec("sp_c", n=2)) == \
        orbit_total(AlgebraSpec("so_c", n=5)) == 4
    assert orbit_total(AlgebraSpec("sp_c", n=1)) == \
        orbit_total(AlgebraSpec("sl_c", n=2)) == 2
    print("CRITERION 1 PASS: catalog totals and cross-family counts")


def test_criterion_2_fiber_rules_exhaustive():
    """Every partition with at most 8 boxes, per-family split tables."""
    def row_plus(d, start):
        row = [start * (-1) ** j for j in range(d)]
        if d % 4 == 3:
            row[-1] = -start
        return sum(1 for s in row if s == 1)

    for n in range(1, 9):
        for part in enumerate_partitions(n):
            all_even = all(d % 2 == 0 for d, _ in part.pairs)
            very_even = all_even and all(t % 2 == 0 for _, t in part.pairs)
            a = AlgebraSpec("sl_r", n=n)
            rec = next(r for r in enumerate_orbits(a) if r.datum == part)
            assert rec.fiber_count == (2 if all_even else 1)
        if n >= 3:
            for rec in enumerate_orbits(AlgebraSpec("so_c", n=n)):
                part = rec.datum.partition
                very_even = (all(d % 2 == 0 for d, _ in part.pairs)
                             and all(t % 2 == 0 for _, t in part.pairs))
                assert rec.fiber_count == (2 if very_even else 1)
        for p in range(1, n):
            a = AlgebraSpec("so_pq", p=p, q=n - p)
            for rec in enumerate_orbits(a):
                part = rec.datum.partition
                very_even = (all(d % 2 == 0 for d, _ in part.pairs)
                             and all(t % 2 == 0 for _, t in part.pairs))
                evens_paired = all(t % 2 == 0 for d, t in part.pairs
                                   if d % 2 == 0)
                plus_ok = minus_ok = True
                for d, t in part.pairs:
                    if d % 2 == 0:
                        continue
                    for start, cnt in ((1, rec.datum.p_of(d)),
                                       (-1, rec.datum.q_of(d))):
                        if cnt == 0:
                            continue
                        pl = row_plus(d, start)
                        if pl % 2:
                            plus_ok = False
                        if (d - pl) % 2:
                            minus_ok = False
                if very_even:
                    want = 4
                elif evens_paired and (plus_ok or minus_ok):
                    want = 2
                else:
                    want = 1
                assert rec.fiber_count == want, (p, n - p, str(rec.datum))
    print("CRITERION 2 PASS: fiber tables, exhaustive to 8 boxes")


def test_criterion_3_triple_identities():
    for a in small_specs():
        for rec in enumerate_orbits(a):
            if rec.is_zero_orbit:
                continue
            t = build_triple(a, rec.datum)
            assert commutator(t.H, t.X) == t.X.scale_left(TWO)
            assert commutator(t.H, t.Y) == t.Y.scale_left(-TWO)
            assert commutator(t.X, t.Y) == t.H
            assert jordan_type(t.X) == rec.datum.partition
    print("CRITERION 3 PASS: triple identities and Jordan types, exact")


def test_criterion_4_form_correctness():
    for a in small_specs():
        if a.family not in ("so_c", "so_pq", "sp_c", "sp_pq", "so_star"):
            continue
        for rec in enumerate_orbits(a):
            if rec.is_zero_orbit:
                continue
            t = build_triple(a, rec.datum)
            s = t.gram
            assert sigma_transpose(s, t.sigma) == (s if t.epsilon == 1 else -s)
            for m in (t.X, t.H, t.Y):
                assert (sigma_transpose(m, t.sigma) @ s + s @ m).is_zero()
        if a.family in ("so_pq", "sp_pq"):
            for rec in enumerate_orbits(a):
                s = gram_matrix(a, rec.datum)
                assert congruence_signature(s) == (a.p, a.q)
    print("CRITERION 4 PASS: form symmetry, invariance, and signatures")


def test_criterion_5_centralizer_dimensions():
    for a in small_specs():
        for rec in enumerate_orbits(a):
            if rec.is_zero_orbit:
                continue
            t = build_triple(a, rec.datum)
            assert centralizer_dim_triple(t, a) == \
                expected_reductive_dim(a, rec.datum), (str(a), str(rec.datum))
    print("CRITERION 5 PASS: solved centralizer dims equal the closed forms")


def test_criterion_6_embedding_properties():
    reps = [AlgebraSpec("sl_r", n=3), AlgebraSpec("sl_c", n=3),
            AlgebraSpec("sl_h", n=2), AlgebraSpec("so_c", n=4),
            AlgebraSpec("sp_c", n=2), AlgebraSpec("so_pq", p=2, q=1),
            AlgebraSpec("sp_pq", p=1, q=1)]
    for a in reps:
        for rec in enumerate_orbits(a):
            rng = random.Random(f"accept6:{a}:{rec.datum}")
            for _ in range(100):
                e1 = sample_k_element(a, rec.datum, rng)
                e2 = sample_k_element(a, rec.datum, rng)
                prod = tuple([x @ y for x, y in zip(e1, e2)])
                assert embed_K(a, rec.datum, e1) @ embed_K(a, rec.datum, e2) \
                    == embed_K(a, rec.datum, prod)
    for n in range(2, 6):
        for fam in ("sl_r", "sl_c"):
            a = AlgebraSpec(fam, n=n)
            for rec in enumerate_orbits(a):
                rng = random.Random(f"accept6chi:{a}:{rec.datum}")
                e = sample_k_element(a, rec.datum, rng)
                assert (det(embed_K(a, rec.datum, e)),) == characters(a, rec.datum, e)
    member_specs = ([AlgebraSpec("so_c", n=n) for n in (3, 4)]
                    + [AlgebraSpec("sp_c", n=n) for n in (1, 2)]
                    + [AlgebraSpec(f, n=n) for f in ("sl_r", "sl_c", "sl_h")
                       for n in range(2, 6)])
    for a in member_specs:
        for rec in enumerate_orbits(a):
            if rec.is_zero_orbit:
                continue
            t = build_triple(a, rec.datum)
            rng = random.Random(f"accept6m:{a}:{rec.datum}")
            e = sample_k_element(a, rec.datum, rng)
            assert verify_K_membership(a, rec.datum, e, t).ok
    print("CRITERION 6 PASS: homomorphism, character, and membership checks")


def test_criterion_7_block_accounting():
    for total in range(2, 7):
        for p in range(1, total):
            for fam in ("so_pq", "sp_pq"):
                a = AlgebraSpec(fam, p=p, q=total - p)
                for rec in enumerate_orbits(a):
                    assert signed_block_totals(a, rec.datum) \
                        == rec.datum.sgn_counts() \
                        == (p, total - p)
    print("CRITERION 7 PASS: split block sizes match on every signed datum")


def test_criterion_8_minimal_orbit_sanity():
    a = AlgebraSpec("sl_c", n=2)
    datum = Partition([2])
    assert centralizer_report(a, datum).dim_orbit == 4
    assert compact_pair(a, datum).dim_quotient == 3
    assert compact_pair(a, datum).dim_K == 0
    print("CRITERION 8 PASS: minimal complex orbit retracts onto a 3-manifold")


def test_criterion_9_cli_contract(capsys):
    assert main(["verify", "--algebra", "sl_h", "--n", "3", "--seed", "3"]) == 0
    first = capsys.readouterr().out
    assert main(["verify", "--algebra", "sl_h", "--n", "3", "--seed", "3"]) == 0
    assert capsys.readouterr().out == first
    assert main(["verify", "--algebra", "so_pq", "--p", "2", "--q", "1",
                 "--inject-fault"]) == 1
    out = capsys.readouterr().out
    assert "[X,Y]=H FAILED" in out
    assert main(["describe", "--algebra", "sp_c", "--n", "2",
                 "--datum", "3,1"]) == 2
    capsys.readouterr()
    assert main(["list", "--algebra", "so_star", "--n", "2",
                 "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == 1
    print("CRITERION 9 PASS: exit codes, stability, and fault naming")
