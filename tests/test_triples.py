"""Standard triples, invariant forms, and the compact-adapted basis."""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from nilorb import triples
from nilorb.catalog import AlgebraSpec, enumerate_orbits
from nilorb.diagrams import row_plus_minus
from nilorb.centralizers import _part_grading, centralizer_report
from nilorb.homotopy import embed_K, factor_layout, sample_k_element
from nilorb.matrices import ExactMatrix, congruence_signature, rank
from nilorb.partitions import Partition
from nilorb.scalars import J_UNIT, MINUS_ONE, ONE, ZERO, Scalar
from nilorb.triples import (ZeroOrbitError, _form_block, _odd_level_takes_plus_rows,
                            adapted_basis, build_triple, gram_matrix, jordan_type,
                            sigma_transpose, slot_weights, standard_adapted_gram)

TWO = Scalar.rational(2)


def commutator(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """The reference bracket ``[a, b] = a b - b a``, built with ``@`` and ``-``."""
    return a @ b - b @ a

ALL_SMALL_SPECS = (
    [AlgebraSpec(f, n=n) for f in ("sl_r", "sl_c", "sl_h") for n in range(1, 7)]
    + [AlgebraSpec("so_c", n=n) for n in range(3, 7)]
    + [AlgebraSpec("sp_c", n=n) for n in range(1, 4)]
    + [AlgebraSpec("so_star", n=n) for n in range(1, 7)]
    + [AlgebraSpec(f, p=p, q=t - p)
       for f in ("so_pq", "sp_pq")
       for t in range(2, 7) for p in range(1, t)]
)


def nonzero_orbits(a):
    return [r for r in enumerate_orbits(a) if not r.is_zero_orbit]


@pytest.mark.parametrize("a", ALL_SMALL_SPECS, ids=str)
def test_triple_identities(a):
    """[H,X] = 2X, [H,Y] = -2Y, [X,Y] = H, with zero tolerance."""
    for rec in nonzero_orbits(a):
        t = build_triple(a, rec.datum)
        assert commutator(t.H, t.X) == t.X.scale_left(TWO)
        assert commutator(t.H, t.Y) == t.Y.scale_left(-TWO)
        assert commutator(t.X, t.Y) == t.H


@pytest.mark.parametrize("a", ALL_SMALL_SPECS, ids=str)
def test_jordan_type_recovers_partition(a):
    for rec in nonzero_orbits(a):
        t = build_triple(a, rec.datum)
        assert jordan_type(t.X) == rec.datum.partition


def test_jordan_type_starts_its_powers_at_x(monkeypatch):
    """For X of largest part d the powers X^2 .. X^d are the only products;
    a zero matrix makes none, and a matrix that is not nilpotent still
    raises after n + 1 ranks."""
    products = [0]
    matmul = ExactMatrix.__matmul__

    def counting(a, b):
        products[0] += 1
        return matmul(a, b)

    monkeypatch.setattr(ExactMatrix, "__matmul__", counting)
    for a in (AlgebraSpec("sl_r", n=5), AlgebraSpec("so_pq", p=3, q=2)):
        for rec in nonzero_orbits(a):
            x = build_triple(a, rec.datum).X
            products[0] = 0
            assert jordan_type(x) == rec.datum.partition
            assert products[0] == max(rec.datum.partition.parts()) - 1
    products[0] = 0
    assert jordan_type(ExactMatrix.zeros(3, 3)) == Partition([1, 1, 1])
    assert jordan_type(ExactMatrix.zeros(0, 0)) == Partition([])
    assert products[0] == 0
    shift = ExactMatrix.from_entries(3, 3, {(0, 1): 1, (1, 2): 1, (2, 0): 1})
    with pytest.raises(ValueError, match="matrix is not nilpotent"):
        jordan_type(shift)
    assert products[0] == 3


def test_weight_multiplicities():
    """H acts with weight 1 - d + 2l on each string; the multiplicity of an
    eigenvalue w over the entry ring is the number of (d, l) with
    l = (w + d - 1)/2 in range, summed with multiplicity t_d."""
    for part in (Partition([3, 2, 2, 1]), Partition([5, 1]), Partition([4, 4])):
        weights = slot_weights(part)
        assert len(weights) == part.size()
        for w in set(weights):
            expected = sum(
                t for d, t in part.pairs
                if d > abs(w) and (d - 1 - w) % 2 == 0)
            assert weights.count(w) == expected


def test_nilpotency_degree():
    a = AlgebraSpec("sl_r", n=5)
    t = build_triple(a, Partition([3, 2]))
    x2 = t.X @ t.X
    x3 = x2 @ t.X
    assert rank(x2) == 1  # only the 3-string survives twice
    assert x3.is_zero()


def test_zero_orbit_raises():
    with pytest.raises(ZeroOrbitError):
        build_triple(AlgebraSpec("sl_r", n=3), Partition([1, 1, 1]))


def test_size_mismatch_raises():
    with pytest.raises(ValueError):
        build_triple(AlgebraSpec("sl_r", n=3), Partition([4]))


def test_membership_violation_raises():
    a = AlgebraSpec("so_c", n=6)
    with pytest.raises(ValueError):
        build_triple(a, Partition([4, 2]))


FORM_SPECS = [a for a in ALL_SMALL_SPECS
              if a.family in ("so_c", "so_pq", "sp_c", "sp_pq", "so_star")]


@pytest.mark.parametrize("a", FORM_SPECS, ids=str)
def test_gram_symmetry_and_invariance(a):
    """The Gram matrix has the family's (epsilon, sigma) symmetry and the
    triple acts by form-skew maps: sigma(M)^t S + S M = 0."""
    for rec in nonzero_orbits(a):
        t = build_triple(a, rec.datum)
        s = t.gram
        assert s is not None
        flipped = sigma_transpose(s, t.sigma)
        assert flipped == (s if t.epsilon == 1 else -s)
        for m in (t.X, t.H, t.Y):
            assert (sigma_transpose(m, t.sigma) @ s + s @ m).is_zero()


@pytest.mark.parametrize(
    "a", [a for a in FORM_SPECS if a.family in ("so_pq", "sp_pq")], ids=str)
def test_gram_signature_matches_form(a):
    for rec in enumerate_orbits(a):
        s = gram_matrix(a, rec.datum)
        assert congruence_signature(s) == (a.p, a.q), str(rec.datum)


def test_special_linear_triples_have_no_form():
    t = build_triple(AlgebraSpec("sl_c", n=3), Partition([2, 1]))
    assert t.gram is None
    assert sum((row[i] for i, row in enumerate(t.H.rows())), ZERO).is_zero()


ADAPTED_SPECS = [a for a in FORM_SPECS if a.family != "so_star"]


@pytest.mark.parametrize("a", ADAPTED_SPECS, ids=str)
def test_adapted_basis_diagonalizes_gram(a):
    """Columns of the change of basis carry the Gram matrix to the fixed
    standard form of the family (identity, signature diagonal, or the
    split skew form)."""
    for rec in enumerate_orbits(a):
        t_matrix = adapted_basis(a, rec.datum).matrix
        s = gram_matrix(a, rec.datum)
        sigma = "conj" if a.family == "sp_pq" else "id"
        got = sigma_transpose(t_matrix, sigma) @ s @ t_matrix
        assert got == standard_adapted_gram(a, rec.datum), str(rec.datum)


@pytest.mark.parametrize("a", ADAPTED_SPECS, ids=str)
def test_adapted_block_sizes_sum_to_dimension(a):
    for rec in enumerate_orbits(a):
        ab = adapted_basis(a, rec.datum)
        total = sum(b.size for b in ab.plus_blocks)
        total += sum(b.size for b in ab.minus_blocks)
        assert total == a.size
        assert ab.matrix.nrows == ab.matrix.ncols == a.size


def test_odd_levels_on_the_plus_half_match_the_plus_boxes():
    """The adapted basis restates the row sign rule: the levels of an odd
    part that put its +1 rows on the plus half are as many as the +1 boxes
    of a row starting with +1."""
    for d in range(1, 42, 2):
        levels = sum(_odd_level_takes_plus_rows(d, l) for l in range(d))
        assert levels == row_plus_minus(d, 1)[0], d


def test_triple_json_round_trip_fields():
    a = AlgebraSpec("so_pq", p=2, q=2)
    rec = nonzero_orbits(a)[0]
    t = build_triple(a, rec.datum)
    doc = t.to_json()
    assert doc["family"] == "so_pq"
    assert set(doc) >= {"family", "partition", "X", "H", "Y", "gram"}
    assert doc["form"]["epsilon"] in (1, -1)


# --- the per-part Kronecker builders against the slot-by-slot references -----
#
# The references below build every entry through ``Slots``, as the library
# did before it joined memoized per-part Kronecker blocks.

class Slots:
    """Row index of ``X^l v_j`` inside the part of size ``d`` (j is 1-based),
    in the basis layout the triples module documents."""

    def __init__(self, partition):
        self.parts = {}
        self.dim = 0
        for d, t in partition.pairs:
            self.parts[d] = (self.dim, t)
            self.dim += d * t

    def slot(self, d, l, j):
        off, t = self.parts[d]
        if not (0 <= l < d and 1 <= j <= t):
            raise IndexError("slot out of range")
        return off + (d - 1 - l) * t + (j - 1)


def reference_nilpotent(partition):
    lay = Slots(partition)
    return ExactMatrix.from_entries(lay.dim, lay.dim, {
        (lay.slot(d, l + 1, j), lay.slot(d, l, j)): ONE
        for d, t in partition.pairs for l in range(d - 1) for j in range(1, t + 1)})


def reference_semisimple(partition):
    return ExactMatrix.diagonal([Scalar.rational(w) for w in slot_weights(partition)])


def reference_lowering(partition):
    lay = Slots(partition)
    return ExactMatrix.from_entries(lay.dim, lay.dim, {
        (lay.slot(d, l - 1, j), lay.slot(d, l, j)): l * (d - l)
        for d, t in partition.pairs for l in range(1, d) for j in range(1, t + 1)})


def reference_lowest_weight_form(a, datum, d):
    t = datum.partition.multiplicity(d)
    block = _form_block(a.family_spec, d)
    if block == "alternating":
        half = t // 2
        entries = {}
        for i in range(half):
            entries[i, half + i] = ONE
            entries[half + i, i] = MINUS_ONE
        return ExactMatrix.from_entries(t, t, entries)
    if block == "signed":
        plus = datum.p_of(d)
        return ExactMatrix.diagonal([ONE] * plus + [MINUS_ONE] * (t - plus))
    return ExactMatrix.diagonal([J_UNIT] * t) if block == "j" else ExactMatrix.identity(t)


def reference_gram(a, datum):
    part = datum.partition
    lay = Slots(part)
    entries = {}
    for d, _ in part.pairs:
        base = reference_lowest_weight_form(a, datum, d).nonzeros()
        for l in range(d):
            for i, row in enumerate(base, 1):
                for j, val in row:
                    entries[lay.slot(d, l, i), lay.slot(d, d - 1 - l, j + 1)] = (
                        val if l % 2 == 0 else -val)
    return ExactMatrix.from_entries(lay.dim, lay.dim, entries)


PIN_SWEEP = (
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


def clear_part_memo():
    triples._triple_block.cache_clear()
    triples._gram_block.cache_clear()


@pytest.mark.parametrize("a", PIN_SWEEP, ids=str)
def test_kronecker_builders_match_the_slot_references(a):
    """X, H, Y and the Gram matrix equal the slot-by-slot builds, signed data
    included, on a cold memo, a warm one and after clearing it."""
    clear_part_memo()
    has_form = a.family_spec.form is not None
    for rec in enumerate_orbits(a):
        if has_form:
            expected = reference_gram(a, rec.datum)
            for _ in range(2):
                assert gram_matrix(a, rec.datum) == expected, str(rec.datum)
        if rec.is_zero_orbit:
            continue
        part = rec.datum.partition
        refs = (reference_nilpotent(part), reference_semisimple(part),
                reference_lowering(part))
        for _ in range(2):
            t = build_triple(a, rec.datum)
            assert (t.X, t.H, t.Y) == refs, str(rec.datum)
            if has_form:
                assert t.gram == expected
    clear_part_memo()
    for rec in enumerate_orbits(a):
        if has_form:
            assert gram_matrix(a, rec.datum) == reference_gram(a, rec.datum)
        if not rec.is_zero_orbit:
            t = build_triple(a, rec.datum)
            assert t.X == reference_nilpotent(rec.datum.partition)


FORM_FAMILY_ORBITS = [
    (AlgebraSpec("so_c", n=7), Partition([3, 2, 2])),
    (AlgebraSpec("sp_c", n=3), Partition([3, 3])),
    (AlgebraSpec("so_star", n=4), Partition([2, 1, 1])),
    (AlgebraSpec("so_pq", p=3, q=2), Partition([3, 1, 1])),
    (AlgebraSpec("sp_pq", p=2, q=1), Partition([2, 1])),
]


def _datum_of(a, partition):
    return next(rec.datum for rec in enumerate_orbits(a)
                if rec.datum.partition == partition and not rec.is_zero_orbit)


@pytest.mark.parametrize("a,partition", FORM_FAMILY_ORBITS, ids=lambda x: str(x))
def test_builders_build_no_scalar(monkeypatch, a, partition):
    """Once the part blocks are built, a Gram matrix or a triple only joins
    int blocks, and the blocks themselves are built from ints: neither
    constructor of ``Scalar`` runs and no ``is_zero`` is asked, so a
    process counts the same scalar work whether the memo is warm or cold.
    Nor does a K sample or its embedding, with the factor layout cold or
    warm, nor the centralizer report, with its part counts cold or warm,
    nor rendering the matrices."""
    datum = _datum_of(a, partition)
    gram_matrix(a, datum)
    build_triple(a, datum)
    report = centralizer_report(a, datum)
    if a.family_spec.has_descriptor:
        adapted_basis(a, datum)
    built = []
    original_init, original_of = Scalar.__init__, Scalar._of
    original_is_zero = Scalar.is_zero

    def counting_init(self, components):
        built.append("__init__")
        original_init(self, components)

    def counting_of(components):
        built.append("_of")
        return original_of(components)

    def counting_is_zero(self):
        built.append("is_zero")
        return original_is_zero(self)
    monkeypatch.setattr(Scalar, "__init__", counting_init)
    monkeypatch.setattr(Scalar, "_of", staticmethod(counting_of))
    monkeypatch.setattr(Scalar, "is_zero", counting_is_zero)
    gram = gram_matrix(a, datum)
    t = build_triple(a, datum)
    assert built == []
    clear_part_memo()
    assert gram_matrix(a, datum) == gram
    assert build_triple(a, datum) == t
    assert built == []
    assert centralizer_report(a, datum) == report
    clear_part_memo()
    _part_grading.cache_clear()
    assert centralizer_report(a, datum) == report
    assert built == []
    if a.family_spec.has_descriptor:
        # A K sample is drawn and built from int numerators, and embedded
        # by int block maps (sp_pq's even part by i_to_j), cold or warm.
        factor_layout.cache_clear()
        cold = sample_k_element(a, datum, random.Random(0))
        embedded = embed_K(a, datum, cold)
        assert sample_k_element(a, datum, random.Random(0)) == cold
        assert embed_K(a, datum, cold) == embedded
        assert built == []
    # Rendering reads the numerators and builds no Scalar either.
    t.X.to_json()
    gram.to_json()
    assert built == []
    # The wrapper counts: reading entries back builds Scalars.
    t.X.nonzeros()
    gram.rows()
    assert built


@pytest.mark.parametrize("a", [
    AlgebraSpec("sl_r", n=4), AlgebraSpec("sl_c", n=4), AlgebraSpec("sl_h", n=3),
    AlgebraSpec("so_c", n=7), AlgebraSpec("sp_c", n=3),
    AlgebraSpec("so_pq", p=3, q=3), AlgebraSpec("sp_pq", p=2, q=2),
], ids=str)
def test_cold_adapted_basis_and_factor_layout_make_no_scalar_work(monkeypatch, a):
    """A cold adapted basis or factor layout constructs no Scalar, multiplies
    none and asks no ``is_zero``, so a process counts the same scalar work
    whether their memos are warm or cold.  The wrappers count: a product,
    the Scalar it builds and a zero test after the builds are seen."""
    records = enumerate_orbits(a)
    seen = []
    original_init, original_of = Scalar.__init__, Scalar._of
    original_mul, original_is_zero = Scalar.__mul__, Scalar.is_zero

    def counting_init(self, components):
        seen.append("__init__")
        original_init(self, components)

    def counting_of(components):
        seen.append("_of")
        return original_of(components)

    def counting_mul(self, other):
        seen.append("__mul__")
        return original_mul(self, other)

    def counting_is_zero(self):
        seen.append("is_zero")
        return original_is_zero(self)
    monkeypatch.setattr(Scalar, "__init__", counting_init)
    monkeypatch.setattr(Scalar, "_of", staticmethod(counting_of))
    monkeypatch.setattr(Scalar, "__mul__", counting_mul)
    monkeypatch.setattr(Scalar, "is_zero", counting_is_zero)
    adapted_basis.cache_clear()
    factor_layout.cache_clear()
    for rec in records:
        factor_layout(a, rec.datum)
        if a.family_spec.has_adapted_basis:
            adapted_basis(a, rec.datum)
    assert seen == []
    assert factor_layout.cache_info().misses == len(records)
    assert adapted_basis.cache_info().misses == (
        len(records) if a.family_spec.has_adapted_basis else 0)
    assert (TWO * TWO).is_zero() is False
    assert seen == ["__mul__", "_of", "is_zero"]


#: so_c 3-10, sp_c 1-5, and so_pq and sp_pq with p + q <= 8: 493 records.
T_DIGEST_SWEEP = (
    [AlgebraSpec("so_c", n=n) for n in range(3, 11)]
    + [AlgebraSpec("sp_c", n=n) for n in range(1, 6)]
    + [AlgebraSpec(f, p=p, q=q) for f in ("so_pq", "sp_pq")
       for p in range(1, 8) for q in range(1, 9 - p)]
)


def test_adapted_bases_match_their_pinned_digest():
    """One SHA-256 over every record of :data:`T_DIGEST_SWEEP`, each the JSON
    of its algebra, datum, ``T.to_json()`` and plus and minus block specs,
    built cold.  The digest was computed at commit 4f5f2e2, where ``T`` was
    still assembled column by column from Scalar column dicts, so the part
    blocks reproduce that basis, its column order and its block specs."""
    adapted_basis.cache_clear()
    digest = hashlib.sha256()
    count = 0
    for a in T_DIGEST_SWEEP:
        for rec in enumerate_orbits(a):
            ab = adapted_basis(a, rec.datum)
            digest.update(json.dumps([
                str(a), str(rec.datum), ab.matrix.to_json(),
                [[list(b.factor), b.size] for b in ab.plus_blocks],
                [[list(b.factor), b.size] for b in ab.minus_blocks]]).encode())
            count += 1
    assert count == 493
    assert digest.hexdigest() == (
        "1774c25b183767a9e78bd9eb303d5a7feba8093f3521659967d46eaa8b23fcb0")
