"""Property tests: scalar and matrix arithmetic against component-level
references, matrix construction from nonzero entries against raw-index
references, ring laws of the scalar tower, realification, exact rank.

Hypothesis runs derandomized with a fixed example budget, so every run
checks the same examples and the suite stays deterministic.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilorb.matrices import (ExactMatrix, block_oplus, complex_to_real_blocks,
                             quaternion_to_complex_blocks, rank, realify)
from nilorb.scalars import I_UNIT, J_UNIT, ONE, ZERO, Scalar

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


@st.composite
def square_pairs(draw, entries):
    """Two n x n matrices, 1 <= n <= 3, with entries from ``entries``."""
    n = draw(st.integers(min_value=1, max_value=3))
    mats = [ExactMatrix([[draw(entries) for _ in range(n)] for _ in range(n)])
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
    return ExactMatrix([[Scalar(x) for x in row] for row in raw])


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
    assert m.nonzeros() is m.nonzeros()
    assert m.is_zero() == all(x == ZERO_TUPLE for row in raw for x in row)
    from_rows = ExactMatrix([[Scalar(x) for x in row] for row in raw])
    # Rows alone cannot give a 0-row matrix columns, so 0 x n differs from it.
    assert (m == from_rows) == (nrows > 0 or ncols == 0)
    if m == from_rows:
        assert hash(m) == hash(from_rows)


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
                assert exact_components(m.entry(r, c)) == \
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


@settings(PROPERTY, max_examples=50)
@given(sparse_tuples(COMPLEX))
def test_real_imag_recompose(x):
    re, im = Scalar(x).real_imag()
    assert exact_components(re) == _re(x)
    assert exact_components(im) == _im(x)
    assert exact_components(re + I_UNIT * im) == x


@settings(PROPERTY, max_examples=50)
@given(sparse_tuples())
def test_complex_pair_recomposes(x):
    p, q = Scalar(x).complex_pair()
    exact_components(p)
    exact_components(q)
    assert p.is_complex_like() and q.is_complex_like()
    assert exact_components(p + J_UNIT * q) == x


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

@settings(PROPERTY, max_examples=20)
@given(square_pairs(scalars(COMPLEX)))
def test_complex_realification_is_ring_homomorphism(pair):
    a, b = pair
    assert realify(a + b, "complex") == (realify(a, "complex")
                                         + realify(b, "complex"))
    assert realify(a @ b, "complex") == (realify(a, "complex")
                                         @ realify(b, "complex"))


@settings(PROPERTY, max_examples=20)
@given(square_pairs(scalars()))
def test_quaternion_realification_is_ring_homomorphism(pair):
    a, b = pair
    assert realify(a + b, "quaternion") == (realify(a, "quaternion")
                                            + realify(b, "quaternion"))
    assert realify(a @ b, "quaternion") == (realify(a, "quaternion")
                                            @ realify(b, "quaternion"))


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
    m = ExactMatrix([[Scalar.rational(x) for x in row] for row in rows])
    assert rank(m) == gaussian_rank(rows)
