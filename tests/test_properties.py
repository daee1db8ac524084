"""Property tests: ring laws of the scalar tower, realification, exact rank.

Hypothesis runs derandomized with a fixed example budget, so every run
checks the same examples and the suite stays deterministic.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List

from hypothesis import given, settings
from hypothesis import strategies as st

from nilorb.matrices import ExactMatrix, rank, realify
from nilorb.scalars import ONE, Scalar

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
