"""Centralizer dimensions solved exactly versus the closed-form tables."""

from __future__ import annotations

import pytest

from nilorb.catalog import AlgebraSpec, enumerate_orbits
import nilorb.centralizers
from nilorb.centralizers import (AlgebraConstraint, _centralizer_nullity,
                                 _cross_sizes, _grade_nullities,
                                 _grade_positions, _grade_sizes, _part_grading,
                                 centralizer_dim_nilpotent,
                                 centralizer_dim_triple, centralizer_report,
                                 expected_orbit_dim, expected_reductive_dim)
from nilorb.cli import main
from nilorb.diagrams import SignedDiagram
from nilorb.homotopy import compact_pair
from nilorb.matrices import ExactMatrix
from nilorb.partitions import Partition, enumerate_partitions
from nilorb.scalars import J_UNIT
from nilorb.triples import (_gram_block, build_triple, gram_block_keys, part_weights,
                            slot_weights)


def graded_dims(t, a):
    """dim g_0, g_1 and g_2 of the triple ``t``'s own grading, counted over
    the whole ``t.gram`` and ``t.partition``: the count ``centralizer_report``
    sums from its parts, here for any Gram matrix a test puts in the
    triple."""
    return _grade_nullities(AlgebraConstraint(a.family_spec, t.gram),
                            slot_weights(t.partition))


SWEEP = (
    [AlgebraSpec(f, n=n) for f in ("sl_r", "sl_c", "sl_h") for n in range(2, 7)]
    + [AlgebraSpec("so_c", n=n) for n in range(3, 7)]
    + [AlgebraSpec("sp_c", n=n) for n in range(1, 4)]
    + [AlgebraSpec("so_star", n=n) for n in range(1, 7)]
    + [AlgebraSpec(f, p=p, q=t - p)
       for f in ("so_pq", "sp_pq")
       for t in range(2, 7) for p in range(1, t)]
)


@pytest.mark.parametrize("a", SWEEP, ids=str)
def test_triple_centralizer_matches_reductive_dimension(a):
    """The solved kernel dimension equals the closed-form count for every
    nonzero orbit: the centralizer of a standard triple is reductive with a
    dimension determined by the multiplicities alone."""
    for rec in enumerate_orbits(a):
        if rec.is_zero_orbit:
            continue
        t = build_triple(a, rec.datum)
        got = centralizer_dim_triple(t, a)
        want = expected_reductive_dim(a, rec.datum)
        assert got == want, (str(rec.datum), got, want)


@pytest.mark.parametrize("a", SWEEP[:14], ids=str)
def test_nilpotent_centralizer_at_least_triple_centralizer(a):
    for rec in enumerate_orbits(a):
        if rec.is_zero_orbit:
            continue
        t = build_triple(a, rec.datum)
        z_triple = centralizer_dim_triple(t, a)
        z_x = centralizer_dim_nilpotent(t.X, a, rec.datum)
        assert z_x >= z_triple
        assert centralizer_report(a, rec.datum).dim_orbit == dim_of(a) - z_x


GRADING_SWEEP = (
    [AlgebraSpec("sl_r", n=n) for n in range(2, 7)]
    + [AlgebraSpec("sl_c", n=n) for n in range(2, 6)]
    + [AlgebraSpec("sl_h", n=n) for n in range(2, 5)]
    + [AlgebraSpec("so_c", n=n) for n in range(3, 10)]
    + [AlgebraSpec("sp_c", n=n) for n in range(1, 5)]
    + [AlgebraSpec("so_star", n=n) for n in range(1, 6)]
    + [AlgebraSpec(f, p=p, q=t - p)
       for f in ("so_pq", "sp_pq")
       for t in range(2, 7) for p in range(1, t)]
)


@pytest.mark.parametrize("a", GRADING_SWEEP, ids=str)
def test_grading_matches_direct_solves_and_closed_forms(a):
    """dim g_0 - dim g_2 is the triple centralizer and dim g_0 + dim g_1
    the centralizer of X, by the direct solves and by the closed forms;
    each grade's paired count is the generic solve over all its entries."""
    for rec in enumerate_orbits(a):
        if rec.is_zero_orbit:
            continue
        t = build_triple(a, rec.datum)
        g0, g1, g2 = graded_dims(t, a)
        assert (g0 - g2 == centralizer_dim_triple(t, a)
                == expected_reductive_dim(a, rec.datum)), str(rec.datum)
        assert (g0 + g1 == centralizer_dim_nilpotent(t.X, a, rec.datum)
                == a.dim_g - expected_orbit_dim(a, rec.datum)), str(rec.datum)
        assert (g0, g1, g2) == graded_dims(t, a)
        constraint = AlgebraConstraint(a.family_spec, t.gram)
        weights = slot_weights(t.partition)
        assert (g0, g1, g2) == tuple(
            _centralizer_nullity(constraint, [], _grade_positions(weights, k))
            for k in (0, 1, 2)), str(rec.datum)


#: The nullity of each one-entry block (a, pi(a)) of a form family.  Its one
#: condition is sigma(z) g + epsilon sigma(g) z = 0 for the unit g = G[a][pi(a)],
#: so the nullity depends on the form alone: none of z survives for
#: epsilon = 1 and sigma = id, all of it for epsilon = -1 and sigma = id,
#: the imaginary quaternions for sp_pq and one real line for so_star.
ONE_ENTRY_NULLITY = {"so_c": 0, "so_pq": 0, "sp_c": 2, "sp_pq": 3, "so_star": 1}


@pytest.mark.parametrize("family", ONE_ENTRY_NULLITY)
def test_grading_sweep_meets_every_block_kind(family):
    """The paired count is pinned above on two-entry blocks and on one-entry
    blocks in grades 0 and 2 of every form family, and over the five
    families on one-entry blocks of nullity 0 and of nullity > 0."""
    met = set()
    for a in GRADING_SWEEP:
        if a.family != family:
            continue
        for rec in enumerate_orbits(a):
            if rec.is_zero_orbit:
                continue
            t = build_triple(a, rec.datum)
            constraint = AlgebraConstraint(a.family_spec, t.gram)
            weights = slot_weights(t.partition)
            pi = constraint.pairing(weights)
            for k in (0, 1, 2):
                for r, s in _grade_positions(weights, k):
                    if s != pi[r]:
                        met.add("two-entry")
                        continue
                    met.add(f"one-entry in g_{k}")
                    assert (_centralizer_nullity(constraint, [], [(r, s)])
                            == ONE_ENTRY_NULLITY[family]), (str(rec.datum), r, s)
    assert met == {"two-entry", "one-entry in g_0", "one-entry in g_2"}


REPORT_SWEEP = (
    [a for a in GRADING_SWEEP if a.family_spec.form is not None]
    + [AlgebraSpec("so_c", n=14), AlgebraSpec("sp_pq", p=4, q=4), AlgebraSpec("sp_c", n=6)]
)


@pytest.mark.parametrize("a", REPORT_SWEEP, ids=str)
def test_report_sums_the_part_counts_to_the_whole_gram_count(a):
    """The report's sum over parts plus the cross-part pairs is the count
    over the whole Gram matrix, on a cold part memo and a warm one."""
    _part_grading.cache_clear()
    for _ in range(2):
        for rec in enumerate_orbits(a):
            if rec.is_zero_orbit:
                continue
            g0, g1, g2 = graded_dims(build_triple(a, rec.datum), a)
            report = centralizer_report(a, rec.datum)
            assert (report.dim_z_triple, report.dim_z_X, report.dim_orbit) == (
                g0 - g2, g0 + g1, a.dim_g - g0 - g1), str(rec.datum)


def test_cross_part_sizes_are_the_whole_count_less_the_parts():
    """The closed-form counts between two parts equal the entries of each
    weight difference over the datum's slot weights less those inside one
    part, for every partition of size at most 16."""
    checked = 0
    for n in range(17):
        for part in enumerate_partitions(n):
            pairs = part.pairs
            cross = [0, 0, 0]
            for i, (d, t) in enumerate(pairs):
                for d2, t2 in pairs[i + 1:]:
                    for k, count in enumerate(_cross_sizes(d, d2)):
                        cross[k] += t * t2 * count
            whole = _grade_sizes(slot_weights(part))
            own = [_grade_sizes(part_weights(d, t)) for d, t in pairs]
            assert tuple(cross) == tuple(whole[k] - sum(size[k] for size in own)
                                         for k in range(3)), str(part)
            checked += 1
    assert checked == 915


def _record_with_part(family, d, t):
    """The first nonzero record of ``family`` in the grading sweep with a
    part ``(d, t)`` whose signed rows, if any, start once with +1, and that
    part's Gram block key."""
    for a in GRADING_SWEEP:
        if a.family != family:
            continue
        for rec in enumerate_orbits(a):
            if rec.is_zero_orbit:
                continue
            for key in gram_block_keys(a, rec.datum):
                if key[1:3] == (d, t) and key[3] in (None, 1):
                    return a, rec.datum, key
    raise AssertionError(f"no part ({d}, {t}) in the {family} sweep")


def test_part_counts_are_kept_per_family():
    """so_pq and sp_pq name their (1, 2) part by the same block key, and so
    do so_c and so_pq their (2, 2) part, yet each family keeps its own
    count in either order of filling: the (1, 2) part's g_0 is one
    two-entry block and two one-entry blocks, ``e + 2 * ONE_ENTRY_NULLITY``
    for the real dimension e of an entry."""
    picks = {family: _record_with_part(family, 1, 2) for family in ONE_ENTRY_NULLITY}
    assert picks["so_pq"][2] == picks["sp_pq"][2] == ("signed", 1, 2, 1)
    assert (_record_with_part("so_c", 2, 2)[2] == _record_with_part("so_pq", 2, 2)[2]
            == ("alternating", 2, 2, None))
    for order in (list(picks), list(reversed(picks))):
        _part_grading.cache_clear()
        for family in order:
            a, datum, key = picks[family]
            g0, g1, g2 = graded_dims(build_triple(a, datum), a)
            report = centralizer_report(a, datum)
            assert (report.dim_z_triple, report.dim_z_X) == (g0 - g2, g0 + g1), family
            entry = a.family_spec.ring.dim
            assert _part_grading(a.family_spec, *key) == (
                entry + 2 * ONE_ENTRY_NULLITY[family], 0, 0), family
    assert _grade_sizes(part_weights(1, 2)) == (4, 0, 0)


def _refused_grams(gram):
    """Gram matrices of the size of ``gram``, each breaking one rule of the pairing."""
    n = gram.nrows
    return {
        "row": ExactMatrix.from_entries(
            n, n, {(r, s): 1 + r + s for r in range(n) for s in range(n)}),
        "involution": ExactMatrix.from_entries(
            n, n, {(r, (r + 1) % n): 1 for r in range(n)}),
        "grade": ExactMatrix.identity(n),
        "epsilon": ExactMatrix.from_entries(
            n, n, {(r, n - 1 - r): 1 if 2 * r < n else -1 for r in range(n)}),
        "ring": gram.scale_left(J_UNIT),
    }


@pytest.mark.parametrize("rule,match", [
    ("row", "Gram row 0 has 4 nonzeros"),
    ("involution", "not an involution"),
    ("grade", "outside its grade"),
    ("epsilon", "epsilon G"),
    ("ring", "outside the scalar ring"),
])
def test_paired_count_refuses_a_gram_it_cannot_pair(monkeypatch, rule, match):
    """graded_dims accepts any Gram matrix, but the paired count holds only
    for a monomial, involutive, grade-respecting, epsilon-Hermitian one over
    the ring: it raises on any other, and the direct solve still solves
    every one whose entries lie in the ring and raises the same ValueError
    on the one that does not.  The report checks a part's block when it
    first counts it: with the part memo cleared, a corrupted block raises
    there too."""
    a = AlgebraSpec("so_c", n=4)
    t = build_triple(a, Partition([2, 2]))
    report = centralizer_report(a, t.partition)
    with monkeypatch.context() as patch:
        patch.setattr(nilorb.centralizers, "_gram_block",
                      lambda *key: _refused_grams(_gram_block(*key))[rule])
        _part_grading.cache_clear()
        with pytest.raises(ValueError, match=match):
            centralizer_report(a, t.partition)
    _part_grading.cache_clear()
    assert centralizer_report(a, t.partition) == report
    assert slot_weights(t.partition) == [1, 1, -1, -1]
    bad = t._replace(gram=_refused_grams(t.gram)[rule])
    with pytest.raises(ValueError, match=match):
        graded_dims(bad, a)
    if rule == "ring":
        with pytest.raises(ValueError, match=match):
            centralizer_dim_triple(bad, a)
    else:
        assert centralizer_dim_triple(bad, a) >= 0
    g0, _, g2 = graded_dims(t, a)
    assert g0 - g2 == centralizer_dim_triple(t, a)


def test_a_cold_list_counts_each_distinct_part_once(capsys, monkeypatch):
    """``list`` counts the grading of each distinct part once, not each
    record's: so_c 14 has 104 part lookups over 27 distinct parts."""
    counted = []
    graded = nilorb.centralizers._grade_nullities

    def counting(constraint, weights):
        counted.append(len(weights))
        return graded(constraint, weights)

    a = AlgebraSpec("so_c", n=14)
    records = [rec for rec in enumerate_orbits(a) if not rec.is_zero_orbit]
    lookups = [key for rec in records for key in gram_block_keys(a, rec.datum)]
    assert (len(lookups), len(set(lookups))) == (104, 27)
    monkeypatch.setattr(nilorb.centralizers, "_grade_nullities", counting)
    _part_grading.cache_clear()
    assert main(["list", "--algebra", "so_c", "--n", "14", "--format", "json"]) == 0
    capsys.readouterr()
    assert len(counted) == 27
    info = _part_grading.cache_info()
    assert (info.misses, info.hits) == (27, 104 - 27)


def test_paired_count_solves_only_the_self_paired_entries(monkeypatch):
    """One graded_dims call hands the generic eliminator only the entries
    (a, pi(a)) with a of weight 0 or 1: at most n of them, not every entry
    of weight difference 0, 1 or 2."""
    solved = []
    generic = nilorb.centralizers._centralizer_nullity

    def counting(constraint, commute_with, positions):
        solved.append(len(positions))
        return generic(constraint, commute_with, positions)

    monkeypatch.setattr(nilorb.centralizers, "_centralizer_nullity", counting)
    for family, params in [("so_c", {"n": 9}), ("so_pq", {"p": 4, "q": 3}),
                           ("sp_c", {"n": 4}), ("sp_pq", {"p": 3, "q": 2}),
                           ("so_star", {"n": 4})]:
        a = AlgebraSpec(family, **params)
        rec = max((r for r in enumerate_orbits(a) if not r.is_zero_orbit),
                  key=lambda r: (len(r.datum.partition.pairs), str(r.datum)))
        t = build_triple(a, rec.datum)
        weights = slot_weights(t.partition)
        solved.clear()
        graded_dims(t, a)
        assert len(solved) == 3, family
        assert 0 < sum(solved) <= sum(1 for w in weights if w in (0, 1)) <= len(weights)


def dim_of(a: AlgebraSpec) -> int:
    """Real dimension of the ambient algebra, rebuilt from first principles."""
    n = a.size
    return {
        "sl_r": n * n - 1,
        "sl_c": 2 * (n * n - 1),
        "sl_h": 4 * n * n - 1,
        "so_c": n * (n - 1),
        "so_pq": n * (n - 1) // 2,
        "sp_c": n * (n + 1),  # n = 2 * a.n boxes
        "sp_pq": n * (2 * n + 1),
        "so_star": n * (2 * n - 1),
    }[a.family]


def test_hand_worked_examples():
    """Dimensions computed by hand from small matrices."""
    # sl(2, R), regular orbit: centralizer of the triple is trivial.
    a = AlgebraSpec("sl_r", n=2)
    t = build_triple(a, Partition([2]))
    assert centralizer_dim_triple(t, a) == 0
    assert centralizer_dim_nilpotent(t.X, a, Partition([2])) == 1
    assert centralizer_report(a, Partition([2])).dim_orbit == 2

    # sl(2, C) as a real algebra: z(X) is spanned by X and iX.
    a = AlgebraSpec("sl_c", n=2)
    assert centralizer_dim_nilpotent(
        build_triple(a, Partition([2])).X, a, Partition([2])) == 2
    assert centralizer_report(a, Partition([2])).dim_orbit == 4

    # sp(1,1), datum [2] with one +row: worked out entry by entry.
    a = AlgebraSpec("sp_pq", p=1, q=1)
    rec = [r for r in enumerate_orbits(a) if not r.is_zero_orbit][0]
    t = build_triple(a, rec.datum)
    assert centralizer_dim_triple(t, a) == 1

    # so(2,1), regular orbit [3].
    a = AlgebraSpec("so_pq", p=2, q=1)
    from nilorb.diagrams import SignedDiagram
    d = SignedDiagram(Partition([3]), {3: 0})
    assert centralizer_report(a, d).dim_orbit == 2


def test_zero_orbit_dimensions():
    a = AlgebraSpec("sp_pq", p=2, q=1)
    zero = Partition([1, 1, 1])
    recs = [r for r in enumerate_orbits(a) if r.is_zero_orbit]
    assert len(recs) == 1
    rep = centralizer_report(a, recs[0].datum)
    assert rep.dim_orbit == 0
    assert rep.dim_z_X == rep.dim_g
    assert rep.dim_z_triple == rep.dim_g
    assert rep.match


def test_commuting_matrices_must_be_rational():
    """The commutation rows read one real component, so a fixed matrix with
    an irrational or imaginary entry is refused, not solved wrongly."""
    from nilorb.scalars import I_UNIT, SQRT2

    a = AlgebraSpec("sl_c", n=3)
    t = build_triple(a, Partition([2, 1]))
    for unit in (I_UNIT, SQRT2):
        with pytest.raises(ValueError, match="rational entries"):
            centralizer_dim_nilpotent(t.X.scale_left(unit), a)
        with pytest.raises(ValueError, match="rational entries"):
            centralizer_dim_triple(t._replace(Y=t.Y.scale_left(unit)), a)


def test_datum_of_another_size_is_refused():
    a = AlgebraSpec("so_pq", p=2, q=1)
    d = SignedDiagram(Partition([3, 1]), {3: 0, 1: 1})
    with pytest.raises(ValueError, match="does not match"):
        centralizer_report(a, d)


def test_zero_type_datum_of_another_size_is_refused_first(monkeypatch):
    """The size is checked before the zero-orbit branch and before the
    descriptor is built, so a wrong-size zero-type datum gets no report."""
    a = AlgebraSpec("so_pq", p=2, q=1)
    d = SignedDiagram(Partition([1, 1, 1, 1]), {1: 3})

    def no_descriptor(*args):
        raise AssertionError("compact_pair ran before the size check")
    monkeypatch.setattr(nilorb.centralizers, "compact_pair", no_descriptor)
    with pytest.raises(ValueError, match=r"^datum size 4 does not match so_pq\(2,1\)$"):
        centralizer_report(a, d)


def test_compact_at_most_reductive():
    for a in SWEEP:
        if a.family == "so_star":
            continue
        for rec in enumerate_orbits(a):
            assert (compact_pair(a, rec.datum).dim_K
                    <= expected_reductive_dim(a, rec.datum))


def test_complex_orbits_have_even_dimension():
    for a in (AlgebraSpec("sl_c", n=5), AlgebraSpec("so_c", n=6),
              AlgebraSpec("sp_c", n=3)):
        for rec in enumerate_orbits(a):
            assert centralizer_report(a, rec.datum).dim_orbit % 2 == 0


def test_low_rank_isomorphism_dimension_match():
    """so(3) = sl(2,R) up to cover: orbit dimensions agree pairwise."""
    left = sorted(centralizer_report(AlgebraSpec("so_pq", p=2, q=1), r.datum).dim_orbit
                  for r in enumerate_orbits(AlgebraSpec("so_pq", p=2, q=1)))
    right = sorted({centralizer_report(AlgebraSpec("sl_r", n=2), r.datum).dim_orbit
                    for r in enumerate_orbits(AlgebraSpec("sl_r", n=2))})
    assert left == right == [0, 2]


def test_report_fields():
    a = AlgebraSpec("sl_h", n=2)
    rec = [r for r in enumerate_orbits(a) if not r.is_zero_orbit][0]
    rep = centralizer_report(a, rec.datum)
    doc = rep.to_json()
    assert set(doc) == {"dim_z_triple", "dim_z_X", "dim_g", "dim_orbit",
                        "expected_reductive", "expected_compact", "match"}
    assert doc["dim_g"] == 4 * 4 - 1
    assert doc["dim_orbit"] == doc["dim_g"] - doc["dim_z_X"]
    assert doc["match"] is True


ORBIT_DIM_SWEEP = (
    [AlgebraSpec("sl_r", n=n) for n in range(2, 6)]
    + [AlgebraSpec("sl_c", n=n) for n in range(2, 5)]
    + [AlgebraSpec("sl_h", n=n) for n in range(2, 4)]
    + [AlgebraSpec("so_c", n=n) for n in range(3, 8)]
    + [AlgebraSpec("sp_c", n=n) for n in range(1, 4)]
    + [AlgebraSpec("so_star", n=n) for n in range(1, 4)]
    + [AlgebraSpec(f, p=p, q=q)
       for f in ("so_pq", "sp_pq") for p in range(1, 4) for q in range(1, 4)]
)


@pytest.mark.parametrize("a", ORBIT_DIM_SWEEP, ids=str)
def test_solved_orbit_dim_matches_dual_partition_formula(a):
    """The kernel solver and the closed form of Collingwood-McGovern agree
    on every orbit, the zero orbit included."""
    for rec in enumerate_orbits(a):
        got = centralizer_report(a, rec.datum).dim_orbit
        assert got == expected_orbit_dim(a, rec.datum), str(rec.datum)


def test_expected_orbit_dim_hand_values():
    from nilorb.diagrams import SignedDiagram
    # Regular orbits: dim g - rank, doubled for the complex families.
    assert expected_orbit_dim(AlgebraSpec("sl_r", n=3), Partition([3])) == 6
    assert expected_orbit_dim(AlgebraSpec("sl_c", n=3), Partition([3])) == 12
    assert expected_orbit_dim(AlgebraSpec("so_c", n=5), Partition([5])) == 16
    assert expected_orbit_dim(AlgebraSpec("sp_c", n=2), Partition([4])) == 16
    # Minimal orbit of sl(3): dual partition [2, 1].
    assert expected_orbit_dim(AlgebraSpec("sl_r", n=3), Partition([2, 1])) == 4
    # sp(1,1) = so(4,1) up to cover: its one nonzero orbit has dimension 6.
    d = SignedDiagram(Partition([2]), {2: 1})
    assert expected_orbit_dim(AlgebraSpec("sp_pq", p=1, q=1), d) == 6
    # sl(2,H) = so(5,1) up to cover: the complexified partition is [2,2].
    assert expected_orbit_dim(AlgebraSpec("sl_h", n=2), Partition([2])) == 8
    # Zero orbits.
    assert expected_orbit_dim(AlgebraSpec("so_star", n=3),
                              SignedDiagram(Partition([1, 1, 1]), {1: 3})) == 0


def test_expected_compact_unsupported_family():
    a = AlgebraSpec("so_star", n=2)
    rec = enumerate_orbits(a)[0]
    with pytest.raises(ValueError):
        compact_pair(a, rec.datum).dim_K
