"""Property tests: scalar and matrix arithmetic against component-level
references, matrix construction from nonzero entries, diagonal blocks and
the Kronecker product against raw-index and per-entry references, ring laws of the scalar tower, realification, exact rank, the
canonical integer-numerator storage, inverse, det and signature against
plain elimination, the int-native value renderers and the sign of
``a + b*sqrt2`` against Fraction references, matrix rendering against
per-entry references, the JSON encoder against ``json.dumps(doc, indent=2,
default=ExactMatrix.to_json)``, and the integer
centralizer solver against Bareiss rank, the Fraction echelon it replaced
and rescaled matrices.

Hypothesis runs derandomized with a fixed example budget, so every run
checks the same examples and the suite stays deterministic.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from math import gcd, lcm
from typing import List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilorb.catalog import AlgebraSpec, enumerate_orbits
from nilorb.centralizers import (AlgebraConstraint, _grade_nullities,
                                 centralizer_dim_triple, expected_reductive_dim)
from nilorb.cli import _json_text, _matrix_lines
from nilorb.matrices import (ExactMatrix, block_oplus, compare,
                             complex_to_real_blocks, congruence_signature,
                             conj_transpose, det, diagonal_block, integer_nullity,
                             inverse, kron, quaternion_to_complex_blocks, rank)
from nilorb.scalars import (BASIS_NAMES, I_UNIT, J_UNIT, K_UNIT, ONE,
                            VARIANT_COMPONENTS, ZERO, Scalar, real_sign, value_json,
                            value_text)
from nilorb.triples import build_triple, slot_weights

PROPERTY = settings(derandomize=True, deadline=None, database=None,
                    max_examples=40)

# Small rationals, zero half the time, so sparse operands are common.
fractions = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-3, max_value=3, max_denominator=4))


def scalars(components=range(8)):
    """Scalars whose support lies in ``components`` (indices of BASIS_NAMES)."""
    def build(values):
        comps = [Fraction(0)] * 8
        for idx, v in zip(components, values):
            comps[idx] = v
        return Scalar(comps)
    n = len(components)
    return st.lists(fractions, min_size=n, max_size=n).map(build)


COMPLEX = (0, 1, 4, 5)  # 1, i, sqrt2, i*sqrt2


def dense(rows) -> ExactMatrix:
    """The matrix with the given rows of Scalars (or ints or Fractions)."""
    return ExactMatrix.from_entries(len(rows), len(rows[0]) if rows else 0, {
        (r, c): x for r, row in enumerate(rows) for c, x in enumerate(row)})


@st.composite
def square_pairs(draw, entries):
    """Two n x n matrices, 1 <= n <= 3, with entries from ``entries``."""
    n = draw(st.integers(min_value=1, max_value=3))
    mats = [dense([[draw(entries) for _ in range(n)] for _ in range(n)])
            for _ in range(2)]
    return mats[0], mats[1]


# --- arithmetic against references on raw component tuples -------------------
#
# A value is an 8-tuple of Fractions: index q + 4*s holds the coefficient of
# quaternion unit q (1, i, j, k) times sqrt(2)**s.  The references below never
# go through Scalar operators.

F0 = Fraction(0)
ZERO_TUPLE = (F0,) * 8


@st.composite
def sparse_tuples(draw, components=range(8)):
    """A raw 8-tuple whose nonzero components are any subset of ``components``."""
    support = draw(st.sets(st.sampled_from(tuple(components))))
    values = [F0] * 8
    for idx in support:
        values[idx] = draw(st.fractions(min_value=-3, max_value=3,
                                        max_denominator=4).filter(bool))
    return tuple(values)


def ref_add(x, y):
    return tuple(a + b for a, b in zip(x, y))


def ref_neg(x):
    return tuple(-a for a in x)


def _root2_mul(x, y):
    """(x0 + x1*sqrt2) * (y0 + y1*sqrt2) on pairs of Fractions."""
    return (x[0] * y[0] + 2 * x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def ref_mul(x, y):
    """Hamilton's product with coefficients in Q(sqrt2)."""
    a = [(x[q], x[q + 4]) for q in range(4)]
    b = [(y[q], y[q + 4]) for q in range(4)]

    def term(sign, u, v):
        p = _root2_mul(a[u], b[v])
        return (sign * p[0], sign * p[1])

    units = (
        (term(1, 0, 0), term(-1, 1, 1), term(-1, 2, 2), term(-1, 3, 3)),
        (term(1, 0, 1), term(1, 1, 0), term(1, 2, 3), term(-1, 3, 2)),
        (term(1, 0, 2), term(-1, 1, 3), term(1, 2, 0), term(1, 3, 1)),
        (term(1, 0, 3), term(1, 1, 2), term(-1, 2, 1), term(1, 3, 0)),
    )
    sums = [(sum(t[0] for t in ts), sum(t[1] for t in ts)) for ts in units]
    return tuple(s[0] for s in sums) + tuple(s[1] for s in sums)


def exact_components(s: Scalar):
    """The components, after checking that each one is a Fraction."""
    assert all(type(c) is Fraction for c in s.components)
    return s.components


@settings(PROPERTY, max_examples=150)
@given(sparse_tuples(), sparse_tuples())
def test_scalar_arithmetic_matches_component_reference(x, y):
    a, b = Scalar(x), Scalar(y)
    assert exact_components(a + b) == ref_add(x, y)
    assert exact_components(a - b) == ref_add(x, ref_neg(y))
    assert exact_components(-a) == ref_neg(x)
    assert exact_components(a * b) == ref_mul(x, y)
    assert exact_components(b * a) == ref_mul(y, x)


@PROPERTY
@given(sparse_tuples())
def test_cancellation_gives_canonical_zero(x):
    a = Scalar(x)
    for diff in (a + (-a), a - a, -a + a):
        assert diff.is_zero()
        assert diff == ZERO
        assert hash(diff) == hash(ZERO)
        assert exact_components(diff) == ZERO_TUPLE


def ref_matmul(a, b):
    """Naive triple loop over raw tuples; ``a`` and ``b`` are lists of rows."""
    out = []
    for row in a:
        out_row = []
        for c in range(len(b[0])):
            acc = ZERO_TUPLE
            for k, x in enumerate(row):
                acc = ref_add(acc, ref_mul(x, b[k][c]))
            out_row.append(acc)
        out.append(out_row)
    return out


@st.composite
def raw_matrix(draw, nrows, ncols, components):
    """Rows of raw tuples with some whole rows and columns set to zero."""
    zero_rows = draw(st.sets(st.integers(0, nrows - 1)))
    zero_cols = draw(st.sets(st.integers(0, ncols - 1)))
    return [[ZERO_TUPLE if r in zero_rows or c in zero_cols
             else draw(sparse_tuples(components)) for c in range(ncols)]
            for r in range(nrows)]


@st.composite
def matmul_operands(draw, components):
    m, k, n = (draw(st.integers(1, 4)) for _ in range(3))
    return (draw(raw_matrix(m, k, components)),
            draw(raw_matrix(k, n, components)))


def to_matrix(raw) -> ExactMatrix:
    return dense([[Scalar(x) for x in row] for row in raw])


@pytest.mark.parametrize("components", [(0,), (0, 1), (0, 1, 2, 3), range(8)],
                         ids=["rational", "gauss", "quat", "quat_sqrt2"])
@settings(PROPERTY, max_examples=30)
@given(data=st.data())
def test_matmul_matches_triple_loop_reference(components, data):
    a, b = data.draw(matmul_operands(components))
    product = to_matrix(a) @ to_matrix(b)
    assert (product.nrows, product.ncols) == (len(a), len(b[0]))
    assert [[exact_components(x) for x in row] for row in product.rows()] \
        == ref_matmul(a, b)


def test_matmul_rejects_shape_mismatch():
    with pytest.raises(ValueError, match="shape mismatch: 2x3 @ 2x3"):
        ExactMatrix.zeros(2, 3) @ ExactMatrix.zeros(2, 3)


# --- matrices built from their nonzero entries --------------------------------
#
# References index rows of raw tuples directly; ``raw_of`` reads a matrix back
# into that form after checking that every component is a Fraction.

def raw_of(m: ExactMatrix):
    return [[exact_components(x) for x in row] for row in m.rows()]


def ref_nonzeros(raw):
    return [[(c, x) for c, x in enumerate(row) if x != ZERO_TUPLE] for row in raw]


def nonzeros_as_raw(m: ExactMatrix):
    return [[(c, exact_components(x)) for c, x in row] for row in m.nonzeros()]


@st.composite
def entry_maps(draw, components=range(8)):
    """(nrows, ncols, entries) with whole zero rows and columns and zero values."""
    nrows, ncols = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    cells = [(r, c) for r in range(nrows) for c in range(ncols)]
    keys = draw(st.lists(st.sampled_from(cells), unique=True)) if cells else []
    return nrows, ncols, {key: draw(sparse_tuples(components)) for key in keys}


@settings(PROPERTY, max_examples=60)
@given(entry_maps())
def test_from_entries_matches_raw_index_reference(shape):
    nrows, ncols, entries = shape
    m = ExactMatrix.from_entries(nrows, ncols,
                                 {key: Scalar(x) for key, x in entries.items()})
    raw = [[entries.get((r, c), ZERO_TUPLE) for c in range(ncols)]
           for r in range(nrows)]
    assert (m.nrows, m.ncols) == (nrows, ncols)
    assert raw_of(m) == raw
    assert nonzeros_as_raw(m) == ref_nonzeros(raw)
    assert m.nonzeros() == m.nonzeros()
    assert m.is_zero() == all(x == ZERO_TUPLE for row in raw for x in row)
    from_rows = to_matrix(raw)
    # Rows alone cannot give a 0-row matrix columns, so 0 x n differs from it.
    assert (m == from_rows) == (nrows > 0 or ncols == 0)
    if m == from_rows:
        assert hash(m) == hash(from_rows)


@PROPERTY
@given(st.integers(0, 4), st.integers(0, 4),
       st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(-5, 5))))
def test_int_entries_store_like_their_scalars(nrows, ncols, cells):
    """Entries given as ints build at once the storage the same Scalars build."""
    ints = {(r, c): v for r, c, v in cells if r < nrows and c < ncols}
    m = ExactMatrix.from_entries(nrows, ncols, ints)
    scalars = ExactMatrix.from_entries(
        nrows, ncols, {key: Scalar.rational(v) for key, v in ints.items()})
    assert m == scalars and hash(m) == hash(scalars)
    assert raw_of(m) == raw_of(scalars)
    assert nonzeros_as_raw(m) == nonzeros_as_raw(scalars)


@settings(PROPERTY, max_examples=60)
@given(entry_maps())
def test_every_constructor_stores_its_numerators(shape):
    """The int storage is plain slots that every constructor sets, and
    reading the entries back gives the values the matrix was built from."""
    assert ExactMatrix.__slots__ == ("nrows", "ncols", "_den", "_num")
    for name in ("_den", "_num"):
        assert type(getattr(ExactMatrix, name)).__name__ == "member_descriptor"
    nrows, ncols, entries = shape
    raw = [[entries.get((r, c), ZERO_TUPLE) for c in range(ncols)]
           for r in range(nrows)]
    m = ExactMatrix.from_entries(nrows, ncols,
                                 {key: Scalar(x) for key, x in entries.items()})
    size = min(nrows, ncols)
    built = [m, ExactMatrix.diagonal([Scalar(raw[i][i]) for i in range(size)])]
    if nrows:
        built.append(to_matrix(raw))
    for matrix in built:
        assert_canonical(matrix)
    assert nonzeros_as_raw(m) == ref_nonzeros(raw)


def test_matrices_without_rows_differ_by_column_count():
    shapes = [(0, 0), (0, 1), (0, 3), (1, 0), (2, 0), (1, 1)]
    for first in shapes:
        for second in shapes:
            m, other = ExactMatrix.zeros(*first), ExactMatrix.zeros(*second)
            assert (m == other) == (first == second)
            assert (hash(m) == hash(other)) == (first == second)


@PROPERTY
@given(st.integers(0, 3), st.integers(0, 3),
       st.sampled_from([0, 1, Fraction(-1, 2)]))
def test_from_entries_rejects_indices_outside_the_shape(nrows, ncols, value):
    for r in range(-2, nrows + 2):
        for c in range(-2, ncols + 2):
            entries = {(r, c): value}
            if 0 <= r < nrows and 0 <= c < ncols:
                m = ExactMatrix.from_entries(nrows, ncols, entries)
                assert exact_components(m.rows()[r][c]) == \
                    (Fraction(value),) + ZERO_TUPLE[1:]
            else:
                with pytest.raises(IndexError):
                    ExactMatrix.from_entries(nrows, ncols, entries)


def test_empty_and_zero_matrices_have_no_nonzeros():
    for m in (ExactMatrix.zeros(0, 0), ExactMatrix.from_entries(0, 0, {}),
              ExactMatrix.zeros(2, 3), ExactMatrix.from_entries(2, 2, {(1, 0): 0})):
        assert m.is_zero()
        assert all(row == () for row in m.nonzeros())
    assert ExactMatrix.zeros(0, 0).nonzeros() == ()
    assert not ExactMatrix.identity(1).is_zero()


@settings(PROPERTY, max_examples=30)
@given(matmul_operands(range(8)))
def test_product_nonzeros_skip_cancelled_entries(operands):
    a, b = operands
    product = to_matrix(a) @ to_matrix(b)
    raw = ref_matmul(a, b)
    assert nonzeros_as_raw(product) == ref_nonzeros(raw)
    assert product.is_zero() == all(x == ZERO_TUPLE for row in raw for x in row)


@settings(PROPERTY, max_examples=60)
@given(st.lists(st.integers(0, 3).flatmap(
    lambda n: raw_matrix(n, n, range(8)) if n else st.just([])), max_size=4))
def test_block_oplus_matches_raw_index_reference(blocks):
    n = sum(len(b) for b in blocks)
    ref = [[ZERO_TUPLE] * n for _ in range(n)]
    off = 0
    for b in blocks:
        for r, row in enumerate(b):
            for c, x in enumerate(row):
                ref[off + r][off + c] = x
        off += len(b)
    mats = [to_matrix(b) if b else ExactMatrix.zeros(0, 0) for b in blocks]
    out = block_oplus(mats)
    assert (out.nrows, out.ncols) == (n, n)
    assert raw_of(out) == ref


@settings(PROPERTY, max_examples=60)
@given(data=st.data())
def test_diagonal_block_matches_the_raw_index_reference(data):
    nrows, ncols, raw = shaped = data.draw(shaped_raw())
    hi = data.draw(st.integers(0, min(nrows, ncols)))
    lo = data.draw(st.integers(0, hi))
    block = diagonal_block(matrix_of(shaped), lo, hi)
    assert_canonical(block)
    assert (block.nrows, block.ncols) == (hi - lo, hi - lo)
    assert raw_of(block) == [row[lo:hi] for row in raw[lo:hi]]


def test_diagonal_block_rejects_bounds_outside_the_matrix():
    m = ExactMatrix.identity(3)
    assert diagonal_block(m, 1, 1) == ExactMatrix.zeros(0, 0)
    for lo, hi in ((-1, 2), (2, 1), (0, 4), (3, 4)):
        with pytest.raises(IndexError):
            diagonal_block(m, lo, hi)


def ref_kron(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """``a ⊗ b`` entry by entry through ``rows()`` and ``Scalar`` products."""
    m, n = b.nrows, b.ncols
    rows_a, rows_b = a.rows(), b.rows()
    return ExactMatrix.from_entries(a.nrows * m, a.ncols * n, {
        (i * m + j, k * n + l): rows_a[i][k] * rows_b[j][l]
        for i in range(a.nrows) for k in range(a.ncols)
        for j in range(m) for l in range(n)})


def _entry_matrix(shape) -> ExactMatrix:
    nrows, ncols, entries = shape
    return ExactMatrix.from_entries(nrows, ncols,
                                    {key: Scalar(x) for key, x in entries.items()})


@pytest.mark.parametrize("variant", sorted(VARIANT_COMPONENTS))
@settings(PROPERTY, max_examples=30)
@given(data=st.data())
def test_kron_matches_the_entrywise_reference(variant, data):
    """Every shape from 0 x 0 up, zero rows and columns included; the result's
    storage is the normalized storage of the same entries."""
    components = sorted(VARIANT_COMPONENTS[variant])
    a = _entry_matrix(data.draw(entry_maps(components)))
    b = _entry_matrix(data.draw(entry_maps(components)))
    out, expected = kron(a, b), ref_kron(a, b)
    assert (out.nrows, out.ncols) == (a.nrows * b.nrows, a.ncols * b.ncols)
    assert out == expected
    assert hash(out) == hash(expected)
    assert raw_of(out) == raw_of(expected)


def test_kron_keeps_the_left_factor_on_the_left():
    """i ⊗ j is i*j = k, not j*i = -k, in every entry."""
    i_block = ExactMatrix.from_entries(1, 2, {(0, 0): I_UNIT, (0, 1): ONE})
    j_block = ExactMatrix.from_entries(2, 1, {(0, 0): J_UNIT, (1, 0): K_UNIT})
    assert kron(i_block, j_block) == ExactMatrix.from_entries(2, 2, {
        (0, 0): K_UNIT, (0, 1): J_UNIT, (1, 0): -J_UNIT, (1, 1): K_UNIT})
    assert kron(j_block, i_block) == ExactMatrix.from_entries(2, 2, {
        (0, 0): -K_UNIT, (0, 1): J_UNIT, (1, 0): J_UNIT, (1, 1): K_UNIT})


def test_kron_denominators_and_empty_shapes():
    half, third = Scalar.rational(Fraction(1, 2)), Scalar.rational(Fraction(1, 3))
    a = ExactMatrix.diagonal([half, ONE])
    b = ExactMatrix.from_entries(1, 2, {(0, 0): third, (0, 1): 2})
    out = kron(a, b)
    expected = ExactMatrix.from_entries(2, 4, {
        (0, 0): Fraction(1, 6), (0, 1): 1, (1, 2): third, (1, 3): 2})
    assert out == expected and hash(out) == hash(expected)
    # The denominators cancel: the storage is that of the identity.
    two = ExactMatrix.diagonal([Scalar.rational(2)])
    assert kron(ExactMatrix.diagonal([half]), two) == ExactMatrix.identity(1)
    assert hash(kron(two, ExactMatrix.diagonal([half]))) == hash(ExactMatrix.identity(1))
    for left, right, shape in (((0, 3), (2, 2), (0, 6)), ((2, 2), (0, 0), (0, 0)),
                               ((2, 0), (1, 3), (2, 0)), ((0, 0), (0, 0), (0, 0)),
                               ((2, 2), (3, 1), (6, 2))):
        out = kron(ExactMatrix.zeros(*left), ExactMatrix.zeros(*right))
        assert out == ExactMatrix.zeros(*shape)
        assert hash(out) == hash(ExactMatrix.zeros(*shape))
    out = kron(ExactMatrix.identity(2), ExactMatrix.zeros(1, 2))
    assert (out.nrows, out.ncols) == (2, 4) and out.is_zero()


def ref_conj(x):
    return (x[0], -x[1], -x[2], -x[3], x[4], -x[5], -x[6], -x[7])


def _re(x):
    return (x[0], F0, F0, F0, x[4], F0, F0, F0)


def _im(x):
    return (x[1], F0, F0, F0, x[5], F0, F0, F0)


@st.composite
def rectangular(draw, components):
    nrows, ncols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    return draw(raw_matrix(nrows, ncols, components))


@settings(PROPERTY, max_examples=60)
@given(rectangular(COMPLEX))
def test_complex_to_real_blocks_matches_raw_index_reference(raw):
    m, n = len(raw), len(raw[0])
    ref = [[ZERO_TUPLE] * (2 * n) for _ in range(2 * m)]
    for r in range(m):
        for c in range(n):
            s, t = _re(raw[r][c]), _im(raw[r][c])
            ref[r][c] = ref[m + r][n + c] = s
            ref[r][n + c] = ref_neg(t)
            ref[m + r][c] = t
    assert raw_of(complex_to_real_blocks(to_matrix(raw))) == ref


@settings(PROPERTY, max_examples=60)
@given(rectangular(range(8)))
def test_quaternion_to_complex_blocks_matches_raw_index_reference(raw):
    m, n = len(raw), len(raw[0])
    ref = [[ZERO_TUPLE] * (2 * n) for _ in range(2 * m)]
    for r in range(m):
        for c in range(n):
            x = raw[r][c]
            p = (x[0], x[1], F0, F0, x[4], x[5], F0, F0)
            q = (x[2], -x[3], F0, F0, x[6], -x[7], F0, F0)
            ref[r][c] = p
            ref[r][n + c] = ref_neg(ref_conj(q))
            ref[m + r][c] = q
            ref[m + r][n + c] = ref_conj(p)
    assert raw_of(quaternion_to_complex_blocks(to_matrix(raw))) == ref


# --- conjugation, inverse and the scalar decompositions -----------------------

@settings(PROPERTY, max_examples=60)
@given(sparse_tuples(), sparse_tuples())
def test_conjugate_is_an_anti_automorphism(x, y):
    a, b = Scalar(x), Scalar(y)
    assert exact_components(a.conjugate()) == ref_conj(x)
    assert exact_components((a * b).conjugate()) == ref_conj(ref_mul(x, y))
    assert (a * b).conjugate() == b.conjugate() * a.conjugate()
    assert a.conjugate().conjugate() == a


@settings(PROPERTY, max_examples=60)
@given(sparse_tuples().filter(lambda x: x != ZERO_TUPLE))
def test_scalar_times_its_inverse_is_one(x):
    a = Scalar(x)
    inv = a.inverse()
    exact_components(inv)
    assert exact_components(a * inv) == exact_components(ONE)


@settings(PROPERTY, max_examples=50)
@given(sparse_tuples(), st.fractions(min_value=-3, max_value=3, max_denominator=4))
def test_scale_matches_component_reference(x, f):
    assert exact_components(Scalar(x).scale(f)) == tuple(c * f for c in x)


# --- the scalar tower is an associative ring with inverses --------------------

@PROPERTY
@given(scalars(), scalars(), scalars())
def test_scalar_multiplication_is_associative(a, b, c):
    assert (a * b) * c == a * (b * c)


@PROPERTY
@given(scalars(), scalars(), scalars())
def test_scalar_multiplication_distributes(a, b, c):
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c


@PROPERTY
@given(scalars().filter(lambda s: not s.is_zero()))
def test_nonzero_scalar_has_two_sided_inverse(a):
    inv = a.inverse()
    assert a * inv == ONE
    assert inv * a == ONE


# --- realification is a ring homomorphism -------------------------------------

def quaternion_realification(a: ExactMatrix) -> ExactMatrix:
    """A quaternion matrix over the reals: its complex image, realified."""
    return complex_to_real_blocks(quaternion_to_complex_blocks(a))


@settings(PROPERTY, max_examples=20)
@given(square_pairs(scalars(COMPLEX)))
def test_complex_realification_is_ring_homomorphism(pair):
    a, b = pair
    assert complex_to_real_blocks(a + b) == (complex_to_real_blocks(a)
                                             + complex_to_real_blocks(b))
    assert complex_to_real_blocks(a @ b) == (complex_to_real_blocks(a)
                                             @ complex_to_real_blocks(b))


@settings(PROPERTY, max_examples=20)
@given(square_pairs(scalars()))
def test_quaternion_realification_is_ring_homomorphism(pair):
    a, b = pair
    assert quaternion_realification(a + b) == (quaternion_realification(a)
                                               + quaternion_realification(b))
    assert quaternion_realification(a @ b) == (quaternion_realification(a)
                                               @ quaternion_realification(b))


# --- Bareiss rank agrees with plain Gaussian elimination -----------------------

def gaussian_rank(rows: List[List[Fraction]]) -> int:
    """Rank by textbook elimination over Fraction, the reference."""
    m = [row[:] for row in rows]
    ncols = len(m[0]) if m else 0
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        for i in range(r + 1, len(m)):
            f = m[i][c] / m[r][c]
            m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        r += 1
    return r


@st.composite
def rational_matrices(draw):
    nrows = draw(st.integers(min_value=1, max_value=5))
    ncols = draw(st.integers(min_value=1, max_value=5))
    return [[draw(fractions) for _ in range(ncols)] for _ in range(nrows)]


@settings(PROPERTY, max_examples=100)
@given(rational_matrices())
def test_rank_matches_gaussian_elimination(rows):
    m = dense([[Scalar.rational(x) for x in row] for row in rows])
    assert rank(m) == gaussian_rank(rows)


# --- integer-numerator storage ------------------------------------------------
#
# A matrix stores one positive int denominator and, per row, its nonzero
# entries as (column, 8-tuple of int numerators).  The properties below check
# every int-native operation against the raw-tuple references above, on shapes
# from 0 x 0 to 4 x 4 with zero rows and columns, and check that the storage
# is canonical, so that equal matrices have equal storage and equal hashes.

def assert_canonical(m: ExactMatrix):
    den, num = m._den, m._num
    assert type(den) is int and den > 0
    assert len(num) == m.nrows
    values = []
    for row in num:
        assert [c for c, _ in row] == sorted({c for c, _ in row})
        for c, x in row:
            assert 0 <= c < m.ncols
            assert len(x) == 8 and all(type(v) is int for v in x) and any(x)
            values.extend(x)
    assert gcd(den, *values) == 1
    if not values:
        assert den == 1


@st.composite
def shaped_raw(draw, nrows=None, ncols=None, components=range(8)):
    """(nrows, ncols, rows of raw tuples), 0 <= nrows, ncols <= 4, with zero
    rows and columns; ``nrows``/``ncols`` fix a dimension when given."""
    nrows = draw(st.integers(0, 4)) if nrows is None else nrows
    ncols = draw(st.integers(0, 4)) if ncols is None else ncols
    zero_rows = draw(st.sets(st.integers(0, 3)))
    zero_cols = draw(st.sets(st.integers(0, 3)))
    return nrows, ncols, [[ZERO_TUPLE if r in zero_rows or c in zero_cols
                           else draw(sparse_tuples(components)) for c in range(ncols)]
                          for r in range(nrows)]


def matrix_of(shaped) -> ExactMatrix:
    nrows, ncols, raw = shaped
    return ExactMatrix.from_entries(nrows, ncols, {
        (r, c): Scalar(x) for r, row in enumerate(raw) for c, x in enumerate(row)
        if x != ZERO_TUPLE})


def ref_transpose(raw, ncols, conj=False):
    return [[ref_conj(row[c]) if conj else row[c] for row in raw] for c in range(ncols)]


def ref_variant(raw) -> str:
    support = {i for row in raw for x in row for i, v in enumerate(x) if v}
    return next(name for name in ("rational", "gauss", "tower", "quat", "quat_sqrt2")
                if support <= VARIANT_COMPONENTS[name])


@st.composite
def same_shape_pairs(draw, components=range(8)):
    first = draw(shaped_raw(components=components))
    nrows, ncols, _ = first
    return first, draw(shaped_raw(nrows, ncols, components))


@pytest.mark.parametrize("components", [(0,), COMPLEX, range(8)],
                         ids=["rational", "tower", "quat_sqrt2"])
@settings(PROPERTY, max_examples=60)
@given(data=st.data())
def test_int_native_ops_match_raw_references(components, data):
    first, second = data.draw(same_shape_pairs(components))
    s = data.draw(sparse_tuples(components))
    (nrows, ncols, x), (_, _, y) = first, second
    a, b = matrix_of(first), matrix_of(second)
    cases = [
        (a + b, [[ref_add(u, v) for u, v in zip(ru, rv)] for ru, rv in zip(x, y)]),
        (a - b, [[ref_add(u, ref_neg(v)) for u, v in zip(ru, rv)]
                 for ru, rv in zip(x, y)]),
        (-a, [[ref_neg(u) for u in row] for row in x]),
        (a.scale_left(Scalar(s)), [[ref_mul(s, u) for u in row] for row in x]),
        (a.transpose(), ref_transpose(x, ncols)),
        (conj_transpose(a), ref_transpose(x, ncols, conj=True)),
    ]
    for m, ref in cases:
        assert_canonical(m)
        assert raw_of(m) == ref
        assert nonzeros_as_raw(m) == ref_nonzeros(ref)
        assert m.is_zero() == all(v == ZERO_TUPLE for row in ref for v in row)
    assert (a.transpose().nrows, a.transpose().ncols) == (ncols, nrows)
    assert a.variant() == ref_variant(x)
    assert (a == b) == (x == y)
    if x == y:
        assert hash(a) == hash(b)


@settings(PROPERTY, max_examples=60)
@given(data=st.data())
def test_products_of_any_shape_match_the_reference(data):
    m, k, n = (data.draw(st.integers(0, 4)) for _ in range(3))
    first = data.draw(shaped_raw(m, k))
    second = data.draw(shaped_raw(k, n))
    product = matrix_of(first) @ matrix_of(second)
    assert_canonical(product)
    assert (product.nrows, product.ncols) == (m, n)
    ref = [[ZERO_TUPLE] * n for _ in range(m)] if k == 0 else \
        ref_matmul(first[2], second[2])
    assert raw_of(product) == ref


def storage(m: ExactMatrix):
    return m.nrows, m.ncols, m._den, m._num


@settings(PROPERTY, max_examples=60)
@given(same_shape_pairs())
def test_one_matrix_by_two_routes_has_one_storage(pair):
    first, second = pair
    nrows, ncols, raw = first
    a, b = matrix_of(first), matrix_of(second)
    assert_canonical(a)
    routes = [
        (a + b) - b, -(-a), a.transpose().transpose(),
        conj_transpose(conj_transpose(a)),
        a @ ExactMatrix.identity(ncols), ExactMatrix.identity(nrows) @ a,
        ExactMatrix.from_entries(nrows, ncols, {
            (r, c): x for r, row in enumerate(a.nonzeros()) for c, x in row}),
        a.scale_left(Scalar.rational(Fraction(1, 3))).scale_left(Scalar.rational(3)),
        (a + a) - a,
    ]
    if nrows:
        routes.append(to_matrix(raw))
    for m in routes:
        assert m == a
        assert hash(m) == hash(a)
        assert storage(m) == storage(a)
    zero = a - a
    assert storage(zero) == (nrows, ncols, 1, ((),) * nrows)
    assert zero == ExactMatrix.zeros(nrows, ncols)
    assert hash(zero) == hash(ExactMatrix.zeros(nrows, ncols))


# --- inverse and det against plain elimination ----------------------------------

def fraction_det_and_inverse(rows: List[List[Fraction]]):
    """Textbook Gauss-Jordan over Fraction: (det, inverse rows or None)."""
    n = len(rows)
    m = [row[:] + [Fraction(int(r == c)) for c in range(n)] for r, row in enumerate(rows)]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0), None
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        m[col] = [x / m[col][col] for x in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return det, [row[n:] for row in m]


@st.composite
def rational_squares(draw):
    n = draw(st.integers(0, 4))
    return [[draw(fractions) for _ in range(n)] for _ in range(n)]


@settings(PROPERTY, max_examples=120)
@given(rational_squares())
def test_rational_inverse_and_det_match_fraction_elimination(rows):
    n = len(rows)
    a = ExactMatrix.from_entries(n, n, {(r, c): x for r, row in enumerate(rows)
                                        for c, x in enumerate(row)})
    ref_det, ref_inverse = fraction_det_and_inverse(rows)
    assert exact_components(det(a)) == (ref_det,) + ZERO_TUPLE[1:]
    if ref_inverse is None:
        with pytest.raises(ZeroDivisionError):
            inverse(a)
        return
    inv = inverse(a)
    assert_canonical(inv)
    assert raw_of(inv) == [[(x,) + ZERO_TUPLE[1:] for x in row] for row in ref_inverse]


def scalar_det(rows: List[List[Scalar]]) -> Scalar:
    """Textbook elimination with Scalar field operations (commuting entries)."""
    m = [list(row) for row in rows]
    n = len(m)
    result = ONE
    for col in range(n):
        pivot = next((r for r in range(col, n) if not m[r][col].is_zero()), None)
        if pivot is None:
            return ZERO
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            result = -result
        result = result * m[col][col]
        for r in range(col + 1, n):
            f = m[r][col] / m[col][col]
            m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return result


@st.composite
def squares(draw, components):
    n = draw(st.integers(0, 4))
    return [[Scalar(draw(sparse_tuples(components))) for _ in range(n)] for _ in range(n)]


@settings(PROPERTY, max_examples=40)
@given(squares(COMPLEX))
def test_complex_det_matches_scalar_elimination(rows):
    a = ExactMatrix.from_entries(len(rows), len(rows), {
        (r, c): x for r, row in enumerate(rows) for c, x in enumerate(row)})
    assert exact_components(det(a)) == exact_components(scalar_det(rows))


@st.composite
def full_squares(draw, components):
    """n x n, 2 <= n <= 5, with entries supported on ``components`` and
    nonzero but for about one in eight, so the nonzero pattern is mostly
    one block and Bareiss divides by non-rational pivots."""
    n = draw(st.integers(2, 5))
    rows = []
    for _ in range(n):
        row = []
        for _ in range(n):
            values = [F0] * 8
            if draw(st.integers(0, 7)):
                for idx in draw(st.sets(st.sampled_from(components), min_size=1)):
                    values[idx] = draw(st.fractions(min_value=-3, max_value=3,
                                                    max_denominator=4).filter(bool))
            row.append(Scalar(values))
        rows.append(row)
    return rows


@pytest.mark.parametrize("components", [(0, 1), COMPLEX], ids=["gauss", "tower"])
@settings(PROPERTY, max_examples=40)
@given(data=st.data())
def test_det_of_full_gauss_and_tower_matrices_matches_scalar_elimination(components,
                                                                         data):
    rows = data.draw(full_squares(components))
    a = dense(rows)
    assert exact_components(det(a)) == exact_components(scalar_det(rows))


@settings(PROPERTY, max_examples=40)
@given(squares(range(8)))
def test_quaternion_inverse_is_two_sided(rows):
    n = len(rows)
    a = ExactMatrix.from_entries(n, n, {
        (r, c): x for r, row in enumerate(rows) for c, x in enumerate(row)})
    try:
        inv = inverse(a)
    except ZeroDivisionError:
        # Singular: the complex image has zero determinant.
        assert det(quaternion_to_complex_blocks(a)).is_zero()
        return
    assert_canonical(inv)
    assert a @ inv == ExactMatrix.identity(n)
    assert inv @ a == ExactMatrix.identity(n)


@settings(PROPERTY, max_examples=60)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n),
    st.lists(scalars(), min_size=n * n, max_size=n * n))))
def test_signature_counts_the_signs_of_a_congruent_diagonal(case):
    """P* diag(signs) P has the signature of diag(signs) when P is invertible."""
    signs, values = case
    n = len(signs)
    p = ExactMatrix.from_entries(n, n, {(r, c): values[r * n + c]
                                        for r in range(n) for c in range(n)})
    try:
        inverse(p)
    except ZeroDivisionError:
        return
    form = conj_transpose(p) @ ExactMatrix.diagonal(signs) @ p
    assert congruence_signature(form) == (signs.count(1), signs.count(-1))


# --- rendering -------------------------------------------------------------------
#
# ``scalars.value_text`` and ``scalars.value_json`` render a value from its int
# numerators.  The references are the Fraction renderers that ``Scalar.__str__``
# and ``Scalar.to_json`` were before they fed those two.

def fraction_text(s: Scalar) -> str:
    """Nonzero terms joined by signs, e.g. ``1/2-i*sqrt2``; ``0`` for zero."""
    if not any(s.components):
        return "0"
    terms = []
    for name, c in zip(BASIS_NAMES, s.components):
        if not c:
            continue
        if name == "1":
            terms.append(str(c))
        elif c == 1:
            terms.append(name)
        elif c == -1:
            terms.append(f"-{name}")
        else:
            terms.append(f"{c}*{name}")
    return "+".join(terms).replace("+-", "-")


def fraction_json(s: Scalar) -> List[str]:
    """Component array of "num/den" strings (4 entries when no j/k parts)."""
    c = s.components
    parts = c if c[2] or c[3] or c[6] or c[7] else (c[0], c[1], c[4], c[5])
    return [f"{x.numerator}/{x.denominator}" for x in parts]


@st.composite
def numerator_values(draw):
    """``(numerators, den)`` of one value: a random variant's support, so 4-
    and 8-string cells both occur; zero, negative numerators, and numerators
    that are multiples of a factor of ``den``, so reductions happen."""
    support = draw(st.sampled_from(sorted(map(sorted, VARIANT_COMPONENTS.values()))))
    den = draw(st.integers(1, 72))
    factor = draw(st.sampled_from([d for d in range(1, den + 1) if den % d == 0]))
    nums = tuple(draw(st.integers(-40, 40)) * factor
                 if i in support and draw(st.booleans()) else 0 for i in range(8))
    return nums, den


def check_renderers(nums: tuple, den: int) -> None:
    s = Scalar([Fraction(v, den) for v in nums])
    assert value_text(nums, den) == str(s) == fraction_text(s)
    assert value_json(nums, den) == s.to_json() == fraction_json(s)


@settings(PROPERTY, max_examples=300)
@given(numerator_values())
def test_int_renderers_match_the_fraction_references(value):
    check_renderers(*value)


@pytest.mark.parametrize("index", range(8), ids=BASIS_NAMES)
def test_int_renderers_match_on_every_component_and_coefficient_form(index):
    """Coefficients 1, -1, whole, fractional and ones that reduce, alone and
    beside a rational part, on each component."""
    for v, den in ((1, 1), (-1, 1), (3, 1), (-6, 2), (1, 2), (-3, 4), (4, 6), (-9, 9)):
        for rational in (0, 5, -2):
            nums = [0] * 8
            nums[0] += rational * den
            nums[index] += v
            check_renderers(tuple(nums), den)
    check_renderers((0,) * 8, 1)
    check_renderers((0,) * 8, 12)


def ref_sign(a, b) -> int:
    """Sign of ``a + b*sqrt2``: that of ``a`` when ``a^2 > 2 b^2``, else that
    of ``b`` (the squares are equal only when both are zero)."""
    big = a if a * a > 2 * b * b else b
    return (big > 0) - (big < 0)


# Pell pairs (a, b) with a^2 - 2 b^2 = +-1, where a + b*sqrt2 is close to 0
# once the signs differ.
PELL = [(1, 1), (3, 2), (7, 5), (17, 12), (41, 29), (99, 70), (577, 408)]


@settings(PROPERTY, max_examples=300)
@given(st.one_of(
    st.tuples(fractions, fractions),
    st.tuples(st.integers(-10 ** 6, 10 ** 6), st.integers(-10 ** 6, 10 ** 6)),
    st.tuples(st.sampled_from(PELL), st.sampled_from([1, -1]), st.sampled_from([1, -1]),
              st.integers(1, 9)).map(lambda t: (t[0][0] * t[1] * t[3], t[0][1] * t[2] * t[3]))))
def test_real_sign_matches_the_squares_reference(pair):
    a, b = pair
    assert real_sign(a, b) == ref_sign(a, b)
    assert Scalar((a, 0, 0, 0, b, 0, 0, 0)).sign() == ref_sign(a, b)


# ``to_json``, ``cli._matrix_lines`` and ``matrices.compare`` read only the nonzero
# entries.  The references read every entry through ``rows()``.

def ref_to_json(m: ExactMatrix) -> list:
    return [[fraction_json(x) for x in row] for row in m.rows()]


def ref_matrix_lines(title: str, m: ExactMatrix) -> List[str]:
    cells = [[fraction_text(x) for x in row] for row in m.rows()]
    widths = [max((len(cells[r][c]) for r in range(m.nrows)), default=1)
              for c in range(m.ncols)]
    lines = [f"{title}:"]
    for r in range(m.nrows):
        row = "  ".join(cells[r][c].rjust(widths[c]) for c in range(m.ncols))
        lines.append(f"  [ {row} ]")
    return lines


def ref_compare(got: ExactMatrix, expected: ExactMatrix):
    if got == expected:
        return True, ""
    for r, (row_got, row_expected) in enumerate(zip(got.rows(), expected.rows())):
        for c, (x, y) in enumerate(zip(row_got, row_expected)):
            if x != y:
                return False, f"entry ({r},{c}) is {x}, expected {y}"
    return False, (f"shape {got.nrows}x{got.ncols}, "
                   f"expected {expected.nrows}x{expected.ncols}")


@st.composite
def rendered_matrices(draw):
    """Shapes 0 x 0 to 4 x 4 with zero rows and columns, any components (so
    4-string and 8-string cells mix), built from Scalars or from ints."""
    m = matrix_of(draw(shaped_raw()))
    return -(-m) if draw(st.booleans()) else m


@settings(PROPERTY, max_examples=100)
@given(rendered_matrices())
def test_to_json_matches_the_dense_reference(m):
    assert m.to_json() == ref_to_json(m)


@settings(PROPERTY, max_examples=100)
@given(rendered_matrices())
def test_matrix_lines_match_the_per_entry_reference(m):
    assert _matrix_lines("m", m) == ref_matrix_lines("m", m)


@settings(PROPERTY, max_examples=60)
@given(rendered_matrices())
def test_to_json_results_share_no_mutable_state(m):
    first = m.to_json()
    for row in first:
        row.append("extra")
        for cell in row[:-1]:
            cell[0] = "mutated"
            cell.append("extra")
    assert m.to_json() == ref_to_json(m)
    assert ExactMatrix.zeros(2, 3).to_json() == [[["0/1"] * 4] * 3] * 2


@st.composite
def describe_shaped_matrices(draw):
    """Shapes up to 10 x 10 shaped like describe's triples, Gram matrices
    and adapted bases: at most one nonzero per row, all-zero rows common,
    and zero columns, so some columns' widest cell is the zero.  Values
    mix one-character ints (as wide as the zero) with any components."""
    nrows, ncols = draw(st.integers(0, 10)), draw(st.integers(0, 10))
    zero_cols = draw(st.sets(st.integers(0, 9)))
    live_cols = [c for c in range(ncols) if c not in zero_cols]
    values = st.one_of(st.sampled_from([1, -1, 2]), sparse_tuples().filter(any).map(Scalar))
    entries = {}
    for r in range(nrows):
        if live_cols and draw(st.integers(0, 2)) == 0:
            entries[r, draw(st.sampled_from(live_cols))] = draw(values)
    m = ExactMatrix.from_entries(nrows, ncols, entries)
    return -(-m) if draw(st.booleans()) else m


@settings(PROPERTY, max_examples=150)
@given(describe_shaped_matrices())
def test_describe_shaped_matrix_lines_match_the_per_entry_reference(m):
    assert _matrix_lines("m", m) == ref_matrix_lines("m", m)


@settings(PROPERTY, max_examples=150)
@given(describe_shaped_matrices())
def test_describe_shaped_json_text_matches_the_dense_reference(m):
    doc = {"m": [m]}
    assert _json_text(doc) == json.dumps(doc, indent=2, default=ref_to_json)


@st.composite
def compare_pairs(draw):
    """Two matrices of one shape, or the first and a copy of either one
    with rows or columns cut off or zeros added, so the shapes differ."""
    first, second = draw(same_shape_pairs())
    if draw(st.booleans()):
        nrows, ncols, raw = draw(st.sampled_from([first, second]))
        new_rows = draw(st.sampled_from([nrows, 0, 1, 2, 3, 4]))
        new_cols = draw(st.sampled_from([max(ncols - 1, 0), 0, 1, 2, 3, 4]))
        second = (new_rows, new_cols, [
            [raw[r][c] if r < nrows and c < ncols else ZERO_TUPLE
             for c in range(new_cols)] for r in range(new_rows)])
    return matrix_of(first), matrix_of(second)


@settings(PROPERTY, max_examples=150)
@given(compare_pairs())
def test_compare_names_the_entry_the_reference_names(pair):
    for got, expected in (pair, pair[::-1]):
        assert compare(got, expected) == ref_compare(got, expected)


def test_compare_reads_only_the_columns_both_shapes_have():
    wide = ExactMatrix.from_entries(2, 3, {(1, 2): ONE})
    narrow = ExactMatrix.from_entries(2, 2, {(1, 1): ONE})
    assert compare(wide, ExactMatrix.zeros(2, 2)) == (False, "shape 2x3, expected 2x2")
    assert compare(ExactMatrix.zeros(2, 2), wide) == (False, "shape 2x2, expected 2x3")
    assert compare(wide, narrow) == (False, "entry (1,1) is 0, expected 1")


# --- the JSON encoder ------------------------------------------------------------
#
# cli._json_text must print json.dumps(doc, indent=2, default=ExactMatrix.to_json)
# byte for byte.  The trees mix every value type a document may hold with
# text the escaper must handle; a leaf list shared at two depths and the
# equal-content pair [1, True], [True, 1] under one parent check that each
# subtree is indented at its own depth.  ExactMatrix leaves sit at depths 0
# to 3, of every shape from 0 x 0 to 4 x 4 and every variant, so a cell text
# rendered once per matrix must carry the matrix's depth, and 4- and
# 8-string cells mix.

json_strings = st.text(alphabet=st.one_of(
    st.sampled_from(['"', "\\", "/", "\x00", "\x1f", "\n", "\t", "\x7f", "é",
                     "\u2028", "\ud800", "\U0001f600", "\U0010ffff"]),
    st.characters()), max_size=6)
json_ints = st.one_of(st.integers(), st.sampled_from([-1, -(2 ** 70), 2 ** 64, 2 ** 64 + 1]))
json_scalars = st.one_of(st.none(), st.booleans(), json_ints, json_strings)
json_trees = st.recursive(
    json_scalars,
    lambda children: st.one_of(st.lists(children, max_size=4),
                               st.lists(children, max_size=4).map(tuple),
                               st.dictionaries(json_strings, children, max_size=4)),
    max_leaves=20)


@st.composite
def shared_leaf_documents(draw):
    leaf = draw(st.lists(json_scalars, min_size=1, max_size=4))
    tree = draw(json_trees)
    shared = {"shallow": leaf, "deep": [[leaf, tree]], "twins": [[1, True], [True, 1]]}
    return draw(st.sampled_from([shared, [tree, shared, leaf], (leaf, [leaf])]))


@settings(PROPERTY, max_examples=150)
@given(json_trees)
def test_json_text_is_json_dumps_with_indent_2(doc):
    assert _json_text(doc) == json.dumps(doc, indent=2)


@settings(PROPERTY, max_examples=100)
@given(shared_leaf_documents())
def test_json_text_of_shared_lists_is_json_dumps(doc):
    assert _json_text(doc) == json.dumps(doc, indent=2)


def dumps_with_matrices(doc) -> str:
    return json.dumps(doc, indent=2, default=ExactMatrix.to_json)


@st.composite
def matrix_documents(draw, components):
    """A matrix nested 0 to 3 levels deep in lists, tuples and dicts, beside
    JSON values, other matrices or the same matrix again."""
    leaves = shaped_raw(components=components).map(matrix_of)
    first = doc = draw(leaves)
    for _ in range(draw(st.integers(0, 3))):
        sibling = draw(st.one_of(leaves, json_trees, st.just(first)))
        doc = draw(st.sampled_from([[doc, sibling], (sibling, doc),
                                    {"m": doc, "n": sibling}]))
    return doc


@pytest.mark.parametrize("variant", ["rational", "gauss", "tower", "quat", "quat_sqrt2"])
@settings(PROPERTY, max_examples=60)
@given(data=st.data())
def test_json_text_of_matrices_is_json_dumps_of_to_json(variant, data):
    doc = data.draw(matrix_documents(tuple(sorted(VARIANT_COMPONENTS[variant]))))
    assert _json_text(doc) == dumps_with_matrices(doc)


@pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0)], ids=["0x0", "0xn", "nx0"])
def test_json_text_of_empty_matrices_is_json_dumps_of_to_json(shape):
    m = ExactMatrix.zeros(*shape)
    for doc in (m, [m], (1, [m]), {"a": [{"b": m}], "c": m}):
        assert _json_text(doc) == dumps_with_matrices(doc)


def test_json_text_mixes_4_and_8_string_cells():
    m = ExactMatrix.diagonal([ONE, I_UNIT + J_UNIT, Scalar.rational(Fraction(-1, 3))])
    assert {len(cell) for row in m.to_json() for cell in row} == {4, 8}
    for doc in (m, [[m]], {"a": [m]}):
        assert _json_text(doc) == dumps_with_matrices(doc)


@pytest.mark.parametrize("doc, message", [
    (1.5, "Object of type float is not JSON serializable"),
    ({"a": [0, 2.0]}, "Object of type float is not JSON serializable"),
    ({1: "a"}, "keys must be str, not int"),
    ({None: "a"}, "keys must be str, not NoneType"),
    ([object()], "Object of type object is not JSON serializable"),
], ids=("float", "nested float", "int key", "None key", "object"))
def test_json_text_refuses_what_nilorb_documents_never_hold(doc, message):
    """json.dumps prints floats and turns int and None keys into strings;
    the encoder refuses those, and any other object, with TypeError."""
    with pytest.raises(TypeError, match=message):
        _json_text(doc)


# The cases json_trees (max_leaves=20) does not reach: deep nesting, the
# per-call caches of quoted keys and of each depth's indent, and leaves of
# every exact type inside tuples and as dict values.

class Key(str):
    """A str subclass, as a dict key: quoted as its str value."""


def nested(depth: int, leaf):
    """``leaf`` under ``depth`` containers, cycling list, tuple and dict."""
    doc = leaf
    for d in range(depth):
        doc = ([doc, d], (d, doc), {"k": doc, "d": d})[d % 3]
    return doc


@pytest.mark.parametrize("doc", [
    nested(200, "leaf"),
    nested(200, []),
    [nested(200, True), nested(3, None), nested(199, {})],
    {"a": {"a": {"a": [{"a": 1}, {"a": {"a": None}}]}, "b": {"a": 2}}, "c": {"a": "a"}},
    [{"x": 1, "y": 2}, {"y": 3, "x": 4}, ({"x": {"y": {"x": 5}}},)],
    (True, False, None, (None, (False,), True), [1, True, None, "s"]),
    {"t": True, "f": False, "n": None, "nested": {"t": False, "n": None, "f": True}},
    {Key("k"): 1, "k2": {Key("k"): {"k": Key("v")}}},
    {Key('q"uote\n'): [Key("é")]},
], ids=["200 deep", "200 deep to empty", "deep siblings", "one key at five depths",
        "keys in sibling dicts", "leaves in tuples", "leaves as dict values",
        "str-subclass keys", "escaped subclass key"])
def test_json_text_matches_json_dumps_beyond_the_tree_strategy(doc):
    assert _json_text(doc) == json.dumps(doc, indent=2)


@pytest.mark.parametrize("doc", [
    {1: "a"},
    {"a": 1, "b": {"a": 2, 1: 3}},
    [{"a": 1}, {"b": {"a": {1: None}}}],
], ids=["alone", "after cached keys", "deep after cached keys"])
def test_json_text_refuses_an_int_key_whatever_came_before(doc):
    with pytest.raises(TypeError, match="^keys must be str, not int$"):
        _json_text(doc)


def test_json_text_calls_share_no_state():
    """Each call starts its caches afresh and keeps no reference to the
    keys it quoted, whatever the call before it reached or raised."""
    key = "".join(["only", "-", "here"])
    refs = sys.getrefcount(key)
    deep, shallow = nested(40, {key: True}), {key: [1, {key: None}]}
    for doc in (deep, shallow, deep, {key: {1: 2}}, shallow):
        try:
            text = _json_text(doc)
        except TypeError:
            continue
        assert text == json.dumps(doc, indent=2)
    del deep, shallow, doc
    assert sys.getrefcount(key) == refs


# --- the integer centralizer solver --------------------------------------------
#
# The solver assembles its rows from ExactMatrix.integer_nonzeros, the matrix
# times the least int that clears its denominators, and eliminates
# fraction-free (matrices.integer_nullity, which matrices.rank shares).  Its
# kernel dimensions are checked against a dense Bareiss rank and against the
# Fraction echelon it replaced, both kept here, and its centralizer
# dimensions against the same matrices with other denominators.

def fraction_nullity(rows, num_unknowns: int) -> int:
    """Kernel dimension by the sparse Fraction echelon the solver used to run."""
    pivots = {}
    rank = 0
    for row in rows:
        r = {c: Fraction(v) for c, v in row.items()}
        while r:
            c = min(r)
            if c in pivots:
                factor = r.pop(c)
                for cc, vv in pivots[c].items():
                    if cc == c:
                        continue
                    nv = r.get(cc, Fraction(0)) - factor * vv
                    if nv:
                        r[cc] = nv
                    else:
                        r.pop(cc, None)
            else:
                piv = r[c]
                pivots[c] = {cc: vv / piv for cc, vv in r.items()}
                rank += 1
                break
    return num_unknowns - rank


def bareiss_nullity(rows, num_unknowns: int) -> int:
    """Kernel dimension by dense fraction-free (Bareiss) elimination, the
    reference for ``integer_nullity``: after step k every remaining entry is
    a (k+1)-minor, so the division by the previous pivot is exact."""
    m = [[row.get(c, 0) for c in range(num_unknowns)] for row in rows]
    found, prev = 0, 1
    for col in range(num_unknowns):
        pivot = next((r for r in range(found, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        m[found], m[pivot] = m[pivot], m[found]
        piv = m[found][col]
        for r in range(found + 1, len(m)):
            factor = m[r][col]
            for c in range(col, num_unknowns):
                m[r][c] = (piv * m[r][c] - factor * m[found][c]) // prev
        prev = piv
        found += 1
    return num_unknowns - found


# Small coefficients most of the time, and some up to 10^6 so that pivots and
# row contents have nontrivial gcds.
int_coefficients = st.one_of(st.integers(-9, 9), st.integers(-10 ** 6, 10 ** 6)).filter(bool)


@st.composite
def int_systems(draw):
    """``(rows, unknowns)``: sparse int rows over 0..8 unknowns, with empty
    rows, repeated rows, multiples and sums of earlier rows mixed in."""
    n = draw(st.integers(0, 8))
    columns = st.integers(0, n - 1) if n else st.nothing()
    rows = draw(st.lists(st.dictionaries(columns, int_coefficients, max_size=n),
                         max_size=8))
    for _ in range(draw(st.integers(0, 4)) if rows else 0):
        i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
        a, b = draw(int_coefficients), draw(st.integers(-3, 3))
        combined = {c: a * rows[i].get(c, 0) + b * rows[j].get(c, 0)
                    for c in rows[i].keys() | rows[j].keys()}
        rows.append({c: v for c, v in combined.items() if v})
    return draw(st.permutations(rows)), n


@settings(PROPERTY, max_examples=300)
@given(int_systems())
def test_integer_nullity_matches_bareiss_and_the_fraction_echelon(system):
    rows, n = system
    before = [dict(r) for r in rows]
    got = integer_nullity(rows, n)
    assert rows == before  # the input rows are not modified
    m = ExactMatrix.from_entries(len(rows), n, {(i, c): v for i, row in enumerate(rows)
                                                for c, v in row.items()})
    assert got == bareiss_nullity(rows, n) == fraction_nullity(rows, n)
    assert rank(m) == n - got


def test_integer_nullity_edge_cases():
    assert integer_nullity([], 0) == 0
    assert integer_nullity([{}, {}], 3) == 3
    assert integer_nullity([{0: 2, 1: 4}, {0: 2, 1: 4}, {0: -1, 1: -2}], 2) == 1
    assert integer_nullity([{0: 6, 1: 4}, {0: 9, 1: 6}, {1: 10 ** 6}], 3) == 1


@settings(PROPERTY, max_examples=60)
@given(shaped_raw())
def test_integer_nonzeros_are_the_matrix_times_its_least_denominator(shaped):
    m = matrix_of(shaped)
    nrows, _, raw = shaped
    den = lcm(*[f.denominator for row in raw for x in row for f in x])
    got = m.integer_nonzeros()
    assert got is m.integer_nonzeros()
    assert [[(c, tuple(Fraction(v, den) for v in x)) for c, x in row] for row in got] == [
        [(c, x) for c, x in enumerate(raw[r]) if x != ZERO_TUPLE] for r in range(nrows)]


def graded_dims(t, a):
    """dim g_0, g_1 and g_2 of the triple ``t``'s grading, over ``t.gram``."""
    return _grade_nullities(AlgebraConstraint(a.family_spec, t.gram),
                            slot_weights(t.partition))


def _scaled_triple(t, gram_by, x_by, y_by):
    def scale(m, f):
        return m.scale_left(Scalar.rational(f))
    return t._replace(gram=scale(t.gram, gram_by), X=scale(t.X, x_by),
                     Y=scale(t.Y, y_by))


FORM_ORBITS = [("so_c", {"n": 6}), ("so_pq", {"p": 3, "q": 2}), ("sp_c", {"n": 3}),
               ("sp_pq", {"p": 2, "q": 1}), ("so_star", {"n": 3})]


@pytest.mark.parametrize("family,params", FORM_ORBITS, ids=[f for f, _ in FORM_ORBITS])
@pytest.mark.parametrize("gram_by,x_by,y_by", [
    (Fraction(1, 3), 1, 1), (1, Fraction(1, 2), Fraction(1, 2)),
    (Fraction(-2, 3), Fraction(1, 2), Fraction(3, 2))])
def test_centralizer_dims_ignore_the_denominators(family, params, gram_by, x_by, y_by):
    """A scaled Gram matrix cuts out the same algebra, and X and Y scaled
    have the same centralizer, whatever denominator the scale brings in."""
    a = AlgebraSpec(family, **params)
    # The orbit with the most distinct parts, so odd and even parts meet.
    rec = max((r for r in enumerate_orbits(a) if not r.is_zero_orbit),
              key=lambda r: (len(r.datum.partition.pairs), str(r.datum)))
    t = build_triple(a, rec.datum)
    scaled = _scaled_triple(t, gram_by, x_by, y_by)
    assert scaled.gram != t.gram or scaled.X != t.X
    assert graded_dims(scaled, a) == graded_dims(t, a)
    assert (centralizer_dim_triple(scaled, a) == centralizer_dim_triple(t, a)
            == expected_reductive_dim(a, rec.datum))
