"""Compact homogeneous descriptors: factors, embeddings, characters, membership."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from nilorb.catalog import AlgebraSpec, enumerate_orbits
from nilorb import homotopy
from nilorb.centralizers import centralizer_report
from nilorb.homotopy import (characters, compact_pair,
                             component_representative, embed_K,
                             factor_layout, k_element_defect,
                             random_compact_point, sample_k_element,
                             signed_block_totals, verify_K_membership)
from nilorb.matrices import (ExactMatrix, complex_to_real_blocks, conj_transpose,
                             det, diagonal_block, inverse, reduced_norm, solve)
from nilorb.partitions import Partition
from nilorb.scalars import MINUS_ONE, ONE, Scalar
from nilorb.triples import adapted_basis, build_triple

HOMOTOPY_SPECS = [
    AlgebraSpec("sl_r", n=3), AlgebraSpec("sl_c", n=3), AlgebraSpec("sl_h", n=2),
    AlgebraSpec("so_c", n=5), AlgebraSpec("sp_c", n=2),
    AlgebraSpec("so_pq", p=2, q=1), AlgebraSpec("so_pq", p=2, q=2),
    AlgebraSpec("sp_pq", p=1, q=1), AlgebraSpec("sp_pq", p=2, q=1),
]


def multiply(e1: tuple, e2: tuple) -> tuple:
    return tuple([g1 @ g2 for g1, g2 in zip(e1, e2)])


@pytest.mark.parametrize("a", HOMOTOPY_SPECS, ids=str)
def test_embedding_is_a_homomorphism(a):
    """100 seeded random pairs per datum, exact equality."""
    rng = random.Random(f"homo:{a}")
    for rec in enumerate_orbits(a):
        for _ in range(100):
            e1 = sample_k_element(a, rec.datum, rng)
            e2 = sample_k_element(a, rec.datum, rng)
            lhs = embed_K(a, rec.datum, e1) @ embed_K(a, rec.datum, e2)
            assert lhs == embed_K(a, rec.datum, multiply(e1, e2))


@pytest.mark.parametrize("a", HOMOTOPY_SPECS, ids=str)
def test_embedding_sends_identity_to_identity(a):
    rng = random.Random(f"ident:{a}")
    for rec in enumerate_orbits(a):
        e = sample_k_element(a, rec.datum, rng)
        ident = tuple([ExactMatrix.identity(g.nrows) for g in e])
        embedded = embed_K(a, rec.datum, ident)
        assert embedded == ExactMatrix.identity(embedded.nrows)


@pytest.mark.parametrize("a", HOMOTOPY_SPECS, ids=str)
def test_embedding_is_injective_on_samples(a):
    """A sample with any non-identity factor never embeds to the identity."""
    rng = random.Random(f"inj:{a}")
    for rec in enumerate_orbits(a):
        for _ in range(10):
            e = sample_k_element(a, rec.datum, rng)
            if all(g == ExactMatrix.identity(g.nrows) for g in e):
                continue
            embedded = embed_K(a, rec.datum, e)
            assert embedded != ExactMatrix.identity(embedded.nrows)


def test_membership_holds_on_a_hundred_points_per_family():
    """One small datum per family, 100 exact sampled points each."""
    cases = [AlgebraSpec("sl_r", n=2), AlgebraSpec("sl_c", n=2),
             AlgebraSpec("sl_h", n=2), AlgebraSpec("so_c", n=3),
             AlgebraSpec("sp_c", n=1), AlgebraSpec("so_pq", p=2, q=1),
             AlgebraSpec("sp_pq", p=1, q=1)]
    for a in cases:
        rec = next(r for r in enumerate_orbits(a) if not r.is_zero_orbit)
        t = build_triple(a, rec.datum)
        rng = random.Random(f"hundred:{a}")
        for _ in range(100):
            e = sample_k_element(a, rec.datum, rng)
            assert verify_K_membership(a, rec.datum, e, t).ok


def test_sampled_elements_satisfy_factor_relations():
    rng = random.Random("defect")
    for a in HOMOTOPY_SPECS:
        for rec in enumerate_orbits(a):
            for _ in range(5):
                e = sample_k_element(a, rec.datum, rng)
                assert k_element_defect(a, rec.datum, e) is None


@pytest.mark.parametrize("a", [AlgebraSpec("sl_r", n=4), AlgebraSpec("sl_c", n=3)],
                         ids=str)
def test_det_of_embedding_equals_character(a):
    rng = random.Random(f"char:{a}")
    for rec in enumerate_orbits(a):
        for _ in range(20):
            e = sample_k_element(a, rec.datum, rng)
            assert (det(embed_K(a, rec.datum, e)),) == characters(a, rec.datum, e)


def test_reduced_norm_of_quaternionic_embedding_equals_character():
    a = AlgebraSpec("sl_h", n=3)
    rng = random.Random("char:sl_h")
    for rec in enumerate_orbits(a):
        for _ in range(10):
            e = sample_k_element(a, rec.datum, rng)
            assert (reduced_norm(embed_K(a, rec.datum, e)),) == characters(a, rec.datum, e)


def test_split_orthogonal_characters_are_signs():
    a = AlgebraSpec("so_pq", p=2, q=2)
    rng = random.Random("char:so_pq")
    for rec in enumerate_orbits(a):
        for _ in range(10):
            e = sample_k_element(a, rec.datum, rng)
            cp, cq = characters(a, rec.datum, e)
            assert cp in (ONE, MINUS_ONE)
            assert cq in (ONE, MINUS_ONE)


# --- characters against the per-family routes they replaced -----------------

def reference_chi(a, datum, e) -> Scalar:
    """The single character of a trace-zero family or of so_c: the product,
    over the factors of whole parts or of odd parts, of their determinants
    (reduced norms for Sp factors) to the power of the part."""
    total = ONE
    for f, g in zip(factor_layout(a, datum), e):
        if f.role in ("part", "odd"):
            base = reduced_norm(g) if f.kind == "Sp" else det(g)
            for _ in range(f.part):
                total = total * base
    return total


def reference_chi_pair(a, datum, e):
    """The two characters of so_pq: each even part's realified U factor to
    the power d/2 on both sides, each odd row's O factor to the power 1 on
    its own side."""
    chi_p = ONE
    chi_q = ONE
    for spec, g in zip(factor_layout(a, datum), e):
        if spec.role == "even":
            base = det(complex_to_real_blocks(g))
            for _ in range(spec.part // 2):
                chi_p = chi_p * base
                chi_q = chi_q * base
        elif spec.role == "odd_p":
            chi_p = chi_p * det(g)
        elif spec.role == "odd_q":
            chi_q = chi_q * det(g)
    return chi_p, chi_q


def reference_characters(a, datum, e):
    """The reference route of the family; a form family without a character
    constraint (sp_c, sp_pq) has none, and its Sp factors' reduced norms and
    its even factors give the trivial character."""
    spec = a.family_spec
    if spec.constraint == "chi_p=chi_q=1":
        return reference_chi_pair(a, datum, e)
    if spec.form is None or spec.constraint == "chi=1":
        return (reference_chi(a, datum, e),)
    return (ONE,) * len(characters(a, datum, e))


CHARACTER_SPECS = (
    [AlgebraSpec("sl_r", n=n) for n in range(2, 6)]
    + [AlgebraSpec("sl_c", n=n) for n in range(2, 5)]
    + [AlgebraSpec("sl_h", n=n) for n in range(1, 4)]
    + [AlgebraSpec("so_c", n=n) for n in range(3, 9)]
    + [AlgebraSpec("sp_c", n=n) for n in range(1, 4)]
    + [AlgebraSpec(f, p=p, q=total - p) for f in ("so_pq", "sp_pq")
       for total in range(2, 8) for p in range(1, total)]
)


def character_points(a, datum, rng):
    """Two Cayley samples and the component representative of the datum."""
    return [sample_k_element(a, datum, rng), sample_k_element(a, datum, rng),
            component_representative(a, datum)]


@pytest.mark.parametrize("a", CHARACTER_SPECS, ids=str)
def test_characters_match_the_reference_routes(a):
    """One value per factor of M, equal to the family's reference route.
    Under chi_p = chi_q = 1 the O factors' determinants are +-1, so the
    power d of an odd row equals the reference's power 1."""
    rng = random.Random(f"characters:{a}")
    sides = 2 if a.family_spec.signed else 1
    for rec in enumerate_orbits(a):
        for e in character_points(a, rec.datum, rng):
            got = characters(a, rec.datum, e)
            assert len(got) == sides
            assert got == reference_characters(a, rec.datum, e), str(rec.datum)


def scalar_product_characters(a, datum, e):
    """The characters multiplied out as Scalars, factor by factor: the route
    ``characters`` took before it worked on int numerators."""
    values = [ONE] * (2 if a.family_spec.signed else 1)
    for f, g in zip(factor_layout(a, datum), e):
        if f.role == "part" or f.role.startswith("odd"):
            base = reduced_norm(g) if f.kind == "Sp" else det(g)
            side = 1 if f.role == "odd_q" else 0
            for _ in range(f.part):
                values[side] = values[side] * base
    return tuple(values)


NUMERATOR_SPECS = ([AlgebraSpec("sl_c", n=n) for n in range(2, 7)]
                   + [AlgebraSpec("sl_h", n=n) for n in range(1, 4)]
                   + [AlgebraSpec("so_pq", p=p, q=total - p)
                      for total in range(2, 7) for p in range(1, total)])


@pytest.mark.parametrize("a", NUMERATOR_SPECS, ids=str)
def test_characters_equal_the_scalar_product_route(a):
    """Each character, raised and multiplied on int numerators, equals the
    Scalar product of its factors' determinants (reduced norms on sl_h's Sp
    factors), component by exact Fraction component."""
    rng = random.Random(f"numerators:{a}")
    roles = set()
    for rec in enumerate_orbits(a):
        roles.update(f.role for f in factor_layout(a, rec.datum))
        for e in character_points(a, rec.datum, rng):
            got = characters(a, rec.datum, e)
            want = scalar_product_characters(a, rec.datum, e)
            assert got == want, str(rec.datum)
            assert [x.components for x in got] == [x.components for x in want]
    if a.family == "so_pq":
        assert "odd_q" in roles


@pytest.mark.parametrize("a", [s for s in CHARACTER_SPECS
                               if s.family_spec.constraint != "none"
                               and s.size <= 6], ids=str)
def test_each_block_of_M_has_its_character_as_determinant(a):
    """On a constrained family the determinant of each diagonal block of M in
    the embedded element is that block's character."""
    rng = random.Random(f"blocks:{a}")
    sizes = (a.p, a.q) if a.family_spec.signed else (a.n,)
    for rec in enumerate_orbits(a):
        for e in character_points(a, rec.datum, rng):
            emb = embed_K(a, rec.datum, e)
            dets, lo = [], 0
            for size in sizes:
                dets.append(det(diagonal_block(emb, lo, lo + size)))
                lo += size
            assert tuple(dets) == characters(a, rec.datum, e), str(rec.datum)


MEMBERSHIP_SPECS = (
    [AlgebraSpec(f, n=n) for f in ("sl_r", "sl_c", "sl_h") for n in range(2, 6)]
    + [AlgebraSpec("so_c", n=3), AlgebraSpec("so_c", n=4)]
    + [AlgebraSpec("sp_c", n=1), AlgebraSpec("sp_c", n=2)]
    + [AlgebraSpec("so_pq", p=2, q=1), AlgebraSpec("so_pq", p=2, q=2),
       AlgebraSpec("sp_pq", p=1, q=1), AlgebraSpec("sp_pq", p=2, q=1)]
)


@pytest.mark.parametrize("a", MEMBERSHIP_SPECS, ids=str)
def test_embedded_points_land_in_the_stabilizer(a):
    """Sampled compact points commute with the triple and preserve the form."""
    rng = random.Random(f"member:{a}")
    for rec in enumerate_orbits(a):
        if rec.is_zero_orbit:
            continue
        t = build_triple(a, rec.datum)
        for _ in range(3):
            e = sample_k_element(a, rec.datum, rng)
            result = verify_K_membership(a, rec.datum, e, t)
            assert result.ok, (str(rec.datum), result.failures)


@pytest.mark.parametrize("a", HOMOTOPY_SPECS, ids=str)
def test_membership_returns_the_element_it_checked(a):
    """The result carries embed_K's matrix of the element, or None when a
    factor relation fails and nothing was embedded."""
    rng = random.Random(f"embedded:{a}")
    for rec in enumerate_orbits(a):
        if rec.is_zero_orbit:
            continue
        t = build_triple(a, rec.datum)
        e = sample_k_element(a, rec.datum, rng)
        assert verify_K_membership(a, rec.datum, e, t).embedded == embed_K(a, rec.datum, e)
        bad = tuple([g.scale_left(Scalar.rational(2)) for g in e])
        result = verify_K_membership(a, rec.datum, bad, t)
        assert result.failures[0].startswith("factor relation: ")
        assert result.embedded is None


# Every family with a descriptor, with O factors of size 2 and more and
# signed parts whose factor on one side has size 0.
REPRESENTATIVE_SPECS = HOMOTOPY_SPECS + [
    AlgebraSpec("sl_r", n=5), AlgebraSpec("sl_c", n=4), AlgebraSpec("sl_h", n=3),
    AlgebraSpec("so_c", n=7), AlgebraSpec("sp_c", n=3),
    AlgebraSpec("so_pq", p=3, q=3), AlgebraSpec("sp_pq", p=2, q=2),
]


def test_representative_specs_cover_every_descriptor_family():
    from nilorb.families import FAMILY_SPECS

    assert ({a.family for a in REPRESENTATIVE_SPECS}
            == {family for family, spec in FAMILY_SPECS.items() if spec.has_descriptor})


@pytest.mark.parametrize("a", REPRESENTATIVE_SPECS, ids=str)
def test_component_representative_is_a_k_point(monkeypatch, a):
    """Each factor is diag(u, 1, ..., 1): an O factor has det -1, a U factor
    det (3+4i)/5 and an Sp factor reduced norm 1.  The tuple has no factor
    defect and passes K-membership on every nonzero orbit, and it is built,
    with the factor layout cold or warm, without constructing a Scalar."""
    records = enumerate_orbits(a)
    built = []
    original_init, original_of = Scalar.__init__, Scalar._of

    def counting_init(self, components):
        built.append("__init__")
        original_init(self, components)

    def counting_of(components):
        built.append("_of")
        return original_of(components)
    monkeypatch.setattr(Scalar, "__init__", counting_init)
    monkeypatch.setattr(Scalar, "_of", staticmethod(counting_of))
    factor_layout.cache_clear()
    reps = [homotopy.component_representative(a, rec.datum) for rec in records]
    assert [homotopy.component_representative(a, rec.datum) for rec in records] == reps
    assert built == []
    monkeypatch.undo()

    unit = Scalar.complex_value(Fraction(3, 5), Fraction(4, 5))
    expected = {"O": Scalar.rational(-1), "U": unit, "Sp": Scalar.rational(1)}
    kinds = set()
    for rec, rep in zip(records, reps):
        assert k_element_defect(a, rec.datum, rep) is None
        for spec, g in zip(factor_layout(a, rec.datum), rep):
            if spec.size == 0:
                assert g == ExactMatrix.zeros(0, 0)
                continue
            kinds.add(spec.kind)
            value = reduced_norm(g) if spec.kind == "Sp" else det(g)
            assert value == expected[spec.kind], (str(rec.datum), spec)
        if not rec.is_zero_orbit:
            result = verify_K_membership(a, rec.datum, rep, build_triple(a, rec.datum))
            assert result.ok, (str(rec.datum), result.failures)
    assert kinds == {f.kind for rec in records for f in factor_layout(a, rec.datum)}


def test_membership_rejects_corrupted_element():
    a = AlgebraSpec("sl_r", n=3)
    rec = [r for r in enumerate_orbits(a) if not r.is_zero_orbit][0]
    t = build_triple(a, rec.datum)
    rng = random.Random("bad")
    e = sample_k_element(a, rec.datum, rng)
    bad = tuple([g.scale_left(Scalar.rational(3)) for g in e])
    result = verify_K_membership(a, rec.datum, bad, t)
    assert not result.ok
    assert result.failures


def test_membership_failures_name_the_first_bad_entry(monkeypatch):
    """A failed commutation or form check names its first bad entry, and
    ``ok`` is read from the failures."""
    a, datum = AlgebraSpec("sl_r", n=3), Partition([2, 1])
    t = build_triple(a, datum)
    e = component_representative(a, datum)
    swap = ExactMatrix.from_entries(3, 3, {(0, 2): 1, (1, 1): 1, (2, 0): 1})
    monkeypatch.setattr(homotopy, "_assemble_K", lambda *_: swap)
    result = verify_K_membership(a, datum, e, t)
    assert not result.ok
    assert result.failures == ("commutes[X]: entry (0,1) is 0, expected 1",
                               "commutes[H]: entry (0,2) is 0, expected 1",
                               "commutes[Y]: entry (1,0) is 1, expected 0")

    a = AlgebraSpec("so_pq", p=2, q=1)
    datum = [r for r in enumerate_orbits(a) if not r.is_zero_orbit][0].datum
    t = build_triple(a, datum)
    e = component_representative(a, datum)
    twice = ExactMatrix.identity(3).scale_left(Scalar.rational(2))
    monkeypatch.setattr(homotopy, "_assemble_K", lambda *_: twice)
    result = verify_K_membership(a, datum, e, t)
    assert result.failures[0] == "preserves[S]: entry (0,2) is -4, expected -1"
    assert not result.ok
    assert homotopy.MembershipResult(()).ok


@pytest.mark.parametrize("a", [AlgebraSpec("sl_r", n=3), AlgebraSpec("so_pq", p=2, q=1)],
                         ids=str)
def test_embedding_and_membership_check_factors_through_k_element_defect(monkeypatch, a):
    """The factor relations are checked in ``k_element_defect`` alone: the
    defect it names makes ``embed_K`` raise and ``verify_K_membership`` fail."""
    import nilorb.homotopy as homotopy

    rec = [r for r in enumerate_orbits(a) if not r.is_zero_orbit][0]
    t = build_triple(a, rec.datum)
    e = sample_k_element(a, rec.datum, random.Random("defect route"))
    assert verify_K_membership(a, rec.datum, e, t).ok
    asked = []

    def planted(*args):
        asked.append(args)
        return "planted defect"
    monkeypatch.setattr(homotopy, "k_element_defect", planted)
    with pytest.raises(ValueError, match="^planted defect$"):
        embed_K(a, rec.datum, e)
    result = verify_K_membership(a, rec.datum, e, t)
    assert result.failures == ("factor relation: planted defect",)
    assert asked == [(a, rec.datum, e)] * 2


def test_det_vs_chi_compares_the_values(monkeypatch):
    """A character that is wrong but still not 1 is caught, and the failure
    names both values; comparing only whether each side is 1 would pass."""
    import nilorb.homotopy as homotopy
    from nilorb.scalars import I_UNIT

    a = AlgebraSpec("sl_c", n=3)
    rec = [r for r in enumerate_orbits(a) if not r.is_zero_orbit][0]
    t = build_triple(a, rec.datum)
    e = sample_k_element(a, rec.datum, random.Random("values"))
    assert verify_K_membership(a, rec.datum, e, t).ok
    true_det = det(embed_K(a, rec.datum, e))
    true_characters = homotopy.characters
    monkeypatch.setattr(homotopy, "characters",
                        lambda *args: (true_characters(*args)[0] * I_UNIT,))
    assert true_det not in (ONE, -I_UNIT)
    result = verify_K_membership(a, rec.datum, e, t)
    assert result.failures == (f"det-vs-chi: det {true_det} != chi {true_det * I_UNIT}",)
    monkeypatch.setattr(homotopy, "characters", true_characters)

    a = AlgebraSpec("so_pq", p=2, q=1)
    rec = [r for r in enumerate_orbits(a) if not r.is_zero_orbit][0]
    t = build_triple(a, rec.datum)
    e = sample_k_element(a, rec.datum, random.Random("values"))
    assert verify_K_membership(a, rec.datum, e, t).ok
    cp, cq = characters(a, rec.datum, e)
    monkeypatch.setattr(homotopy, "characters",
                        lambda *args: (true_characters(*args)[0], -true_characters(*args)[1]))
    result = verify_K_membership(a, rec.datum, e, t)
    assert result.failures == (f"det-vs-chi: det {cp}, {cq} != chi {cp}, {-cq}",)


# --- block accounting (the two size relations of the signed families) ------

FORM_SPECS = (
    [AlgebraSpec("so_pq", p=p, q=t - p) for t in range(2, 7) for p in range(1, t)]
    + [AlgebraSpec("sp_pq", p=p, q=t - p) for t in range(2, 6) for p in range(1, t)]
    + [AlgebraSpec("so_c", n=n) for n in range(3, 10)]
    + [AlgebraSpec("sp_c", n=n) for n in range(1, 5)]
)


def test_every_adapted_basis_is_unitary():
    """T* T = T T* = I on all 164 form-family orbits, so T* inverts T."""
    count = 0
    for a in FORM_SPECS:
        for rec in enumerate_orbits(a):
            T = adapted_basis(a, rec.datum).matrix
            ident = ExactMatrix.identity(T.nrows)
            assert conj_transpose(T) @ T == ident, (str(a), str(rec.datum))
            assert T @ conj_transpose(T) == ident, (str(a), str(rec.datum))
            count += 1
    assert count == 164


def test_membership_names_a_basis_that_is_not_unitary(monkeypatch):
    """A complex orthogonal, non-unitary Q keeps T Q adapted to the form,
    but T Q cannot be inverted by its conjugate transpose."""
    from fractions import Fraction

    from nilorb.scalars import Scalar

    a = AlgebraSpec("so_c", n=3)
    rec = [r for r in enumerate_orbits(a) if not r.is_zero_orbit][0]
    t = build_triple(a, rec.datum)
    x, y = Scalar.rational(Fraction(5, 4)), Scalar.complex_value(0, Fraction(3, 4))
    q = ExactMatrix.from_entries(3, 3, {(0, 0): x, (0, 1): y, (1, 0): -y,
                                        (1, 1): x, (2, 2): 1})
    assert q.transpose() @ q == ExactMatrix.identity(3)
    adapted = adapted_basis(a, rec.datum)
    e = sample_k_element(a, rec.datum, random.Random("unitary"))
    assert verify_K_membership(a, rec.datum, e, t).ok
    monkeypatch.setattr(homotopy, "adapted_basis",
                        lambda *_: adapted._replace(matrix=adapted.matrix @ q))
    result = verify_K_membership(a, rec.datum, e, t)
    assert not result.ok
    assert result.failures == ("unitary[T]",)


def test_block_accounting_every_signed_datum():
    for total in range(2, 7):
        for p in range(1, total):
            for family in ("so_pq", "sp_pq"):
                a = AlgebraSpec(family, p=p, q=total - p)
                for rec in enumerate_orbits(a):
                    counted = signed_block_totals(a, rec.datum)
                    closed = rec.datum.sgn_counts()
                    assert counted == closed == (p, total - p), \
                        (family, p, total - p, str(rec.datum))


# --- descriptor dimensions and rendering ------------------------------------

def reference_compact_dim(a, datum) -> int:
    """dim K by a closed form per family, written out independently of the
    family table: the reference for the factor layout."""
    part = datum.partition
    odd = [(d, t) for d, t in part.pairs if d % 2 == 1]
    even = [(d, t) for d, t in part.pairs if d % 2 == 0]
    if a.family == "sl_c":
        return sum(t * t for _, t in part.pairs) - 1
    if a.family == "sl_r":
        return sum(t * (t - 1) // 2 for _, t in part.pairs)
    if a.family == "sl_h":
        return sum(t * (2 * t + 1) for _, t in part.pairs)
    if a.family == "so_c":
        return (sum((t // 2) * (t + 1) for _, t in even)
                + sum(t * (t - 1) // 2 for _, t in odd))
    if a.family == "sp_c":
        return (sum(t * (t - 1) // 2 for _, t in even)
                + sum((t // 2) * (t + 1) for _, t in odd))
    signs = [(datum.p_of(d), datum.q_of(d)) for d, _ in odd]
    if a.family == "so_pq":
        return (sum((t // 2) ** 2 for _, t in even)
                + sum((p * (p - 1) + q * (q - 1)) // 2 for p, q in signs))
    return (sum(t * t for _, t in even)
            + sum(p * (2 * p + 1) + q * (2 * q + 1) for p, q in signs))


def test_factor_dims_sum_to_compact_dimension():
    specs = HOMOTOPY_SPECS + [AlgebraSpec("sl_r", n=6), AlgebraSpec("sl_c", n=5),
                              AlgebraSpec("sl_h", n=4), AlgebraSpec("so_c", n=9),
                              AlgebraSpec("so_c", n=8), AlgebraSpec("sp_c", n=4)]
    specs += [AlgebraSpec(family, p=p, q=6 - p) for family in ("so_pq", "sp_pq")
              for p in range(1, 6)]
    for a in specs:
        for rec in enumerate_orbits(a):
            dims = sum(f.dim() for f in factor_layout(a, rec.datum))
            if a.family == "sl_c":
                dims -= 1  # the determinant-one circle constraint
            assert dims == compact_pair(a, rec.datum).dim_K \
                == reference_compact_dim(a, rec.datum), (str(a), str(rec.datum))


def test_quotient_dim_is_orbit_retract_dimension():
    """The compact quotient has dim M - dim K; for the minimal complex
    special-linear orbit this is the known odd-dimensional sphere bundle."""
    a = AlgebraSpec("sl_c", n=2)
    assert centralizer_report(a, Partition([2])).dim_orbit == 4
    assert compact_pair(a, Partition([2])).dim_quotient == 3
    h = compact_pair(a, Partition([2]))
    assert h.dim_K == 0  # finite stabilizer
    assert h.dim_quotient == 3
    assert h.dim_M == 3


def test_zero_orbit_quotient_is_a_point():
    for a in HOMOTOPY_SPECS:
        zero = [r for r in enumerate_orbits(a) if r.is_zero_orbit][0]
        h = compact_pair(a, zero.datum)
        assert h.dim_quotient == 0
        assert h.dim_K == h.dim_M


def test_rendered_examples():
    h = compact_pair(AlgebraSpec("so_c", n=5), Partition([2, 2, 1]))
    assert h.rendered() == "SO(5) / (Sp(1) × S(O(1)))"
    h = compact_pair(AlgebraSpec("sl_h", n=3), Partition([2, 1]))
    assert h.rendered() == "Sp(3) / (Sp(1) × Sp(1))"
    h = compact_pair(AlgebraSpec("sl_c", n=2), Partition([2]))
    assert "chi = 1" in h.rendered()
    assert h.rendered().startswith("SU(2) /")


def test_descriptor_json_shape():
    h = compact_pair(AlgebraSpec("so_pq", p=2, q=2),
                     enumerate_orbits(AlgebraSpec("so_pq", p=2, q=2))[0].datum)
    doc = h.to_json()
    assert set(doc) >= {"ambient", "factors", "constraint", "dim_M", "dim_K",
                        "dim_quotient"}
    for f in doc["factors"]:
        assert set(f) == {"kind", "size", "multiplicity_pattern"}
        assert f["kind"] in ("O", "U", "Sp")
    assert doc["constraint"] == "chi_p=chi_q=1"


def test_dim_M_is_compact_group_dimension():
    assert AlgebraSpec("sl_r", n=4).dim_M == 6          # SO(4)
    assert AlgebraSpec("sl_c", n=4).dim_M == 15         # SU(4)
    assert AlgebraSpec("sl_h", n=2).dim_M == 10         # Sp(2)
    assert AlgebraSpec("so_c", n=5).dim_M == 10         # SO(5)
    assert AlgebraSpec("sp_c", n=2).dim_M == 10         # Sp(2)
    assert AlgebraSpec("so_pq", p=3, q=2).dim_M == 4    # SO(3) x SO(2)
    assert AlgebraSpec("sp_pq", p=2, q=1).dim_M == 13   # Sp(2) x Sp(1)


def test_no_descriptor_for_quaternionic_orthogonal():
    a = AlgebraSpec("so_star", n=2)
    rec = enumerate_orbits(a)[0]
    with pytest.raises(ValueError):
        factor_layout(a, rec.datum)
    with pytest.raises(ValueError):
        a.dim_M


def _reference_compact_point(rng: random.Random, kind: str, size: int) -> ExactMatrix:
    """The Fraction route ``random_compact_point`` replaced: one Scalar per
    raw entry, ``Fraction(randint(-2, 2), randint(1, 3))`` per component,
    built with ``from_entries``, and the Cayley point as the product
    ``(I - A) @ inverse(I + A)`` where the module makes one solve."""
    if size == 0:
        return ExactMatrix.zeros(0, 0)
    dim = {"O": 1, "U": 2, "Sp": 4}[kind]

    def random_scalar() -> Scalar:
        return Scalar([Fraction(rng.randint(-2, 2), rng.randint(1, 3))
                       for _ in range(dim)] + [Fraction(0)] * (8 - dim))

    raw = ExactMatrix.from_entries(size, size, {
        (r, c): random_scalar() for r in range(size) for c in range(size)})
    anti = raw - (raw.transpose() if kind == "O" else conj_transpose(raw))
    ident = ExactMatrix.identity(size)
    g = (ident - anti) @ inverse(ident + anti)
    if kind == "O" and rng.random() < 0.5:
        g = g @ ExactMatrix.diagonal([-1] + [1] * (size - 1))
    return g


@pytest.mark.parametrize("kind", ["O", "U", "Sp"])
def test_random_compact_point_keeps_the_fraction_draw_order(kind):
    """The int-numerator draws and the one-solve Cayley transform give the
    point the Fraction route and its product with an inverse gave, and leave
    the generator in the same state, so seeds keep their points."""
    for size in range(5):
        for seed in (0, 1, 7, 2024, "verify"):
            rng, ref_rng = random.Random(seed), random.Random(seed)
            for _ in range(3):
                assert (random_compact_point(rng, kind, size)
                        == _reference_compact_point(ref_rng, kind, size))
                assert rng.getstate() == ref_rng.getstate()


def _solve_route_point(rng: random.Random, kind: str, size: int) -> ExactMatrix:
    """The matrix route a Cayley point took before it was built from its
    draws: the raw matrix from int numerators over 6, ``A = raw - raw*``
    (``raw - raw^T`` for O) and one ``solve(I + A, I - A)``, at every size."""
    if size == 0:
        return ExactMatrix.zeros(0, 0)
    dim = {"O": 1, "U": 2, "Sp": 4}[kind]
    raw = ExactMatrix.from_numerators(size, size, 6, [
        [(c, tuple([rng.randint(-2, 2) * (6 // rng.randint(1, 3)) for _ in range(dim)])
          + (0,) * (8 - dim)) for c in range(size)]
        for _ in range(size)])
    anti = raw - (raw.transpose() if kind == "O" else conj_transpose(raw))
    ident = ExactMatrix.identity(size)
    g = solve(ident + anti, ident - anti)
    if kind == "O" and rng.random() < 0.5:
        g = g @ ExactMatrix.diagonal([-1] + [1] * (size - 1))
    return g


@pytest.mark.parametrize("kind", ["O", "U", "Sp"])
def test_random_compact_point_is_the_solve_route_point(kind, monkeypatch):
    """Built from its draws, a Cayley point has the storage of the matrix
    route's ``solve(I + A, I - A)`` on the same draws, for 100 seeds at each
    size 0 to 4, and leaves the generator in the same state; size 1 uses
    the closed form and makes no solve."""
    solves = []
    real_solve = homotopy.solve
    monkeypatch.setattr(homotopy, "solve",
                        lambda a, b: solves.append(a.nrows) or real_solve(a, b))
    for size in range(5):
        for seed in range(100):
            rng, ref_rng = random.Random(seed), random.Random(seed)
            got, expected = (random_compact_point(rng, kind, size),
                             _solve_route_point(ref_rng, kind, size))
            assert got == expected and hash(got) == hash(expected)
            assert got.integer_nonzeros() == expected.integer_nonzeros()
            assert rng.getstate() == ref_rng.getstate()
    assert solves == [size for size in range(2, 5) for _ in range(100)]


def test_multiplicity_patterns_are_built_once_per_family_role_and_part():
    """Descriptor documents read each factor's pattern from one memo entry
    per (family, role, part), however many records share it."""
    homotopy._multiplicity_pattern.cache_clear()
    keys = set()
    for a in (AlgebraSpec("so_pq", p=4, q=4), AlgebraSpec("sp_c", n=4),
              AlgebraSpec("sl_h", n=4)):
        for _ in range(2):
            for rec in enumerate_orbits(a):
                h = compact_pair(a, rec.datum)
                doc = h.to_json()
                keys |= {(a.family, f.role, f.part) for f in h.factors}
                assert [f["multiplicity_pattern"] for f in doc["factors"]] == [
                    f.multiplicity_pattern(a.family) for f in h.factors]
    info = homotopy._multiplicity_pattern.cache_info()
    assert info.misses == len(keys) and info.hits > info.misses
