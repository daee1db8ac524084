"""Exact matrices over the scalar tower.

Matrices act on column vectors from the left; scalars multiply vectors on
the right, so quaternionic non-commutativity is respected throughout.  All
kernel and signature computations are exact.

Every structured matrix (triples, Gram matrices, adapted bases, block
embeddings) is built from its nonzero entries with
:meth:`ExactMatrix.from_entries`, and every consumer that wants to skip
zeros reads them back through :meth:`ExactMatrix.nonzeros`, so how a
matrix is stored is decided in this module alone.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Callable, List, Mapping, Sequence, Tuple

from .scalars import ONE, ZERO, Scalar, as_scalar


class DegenerateFormError(ValueError):
    """Raised when a congruence diagonalization meets a singular form."""


class ExactMatrix:
    """An immutable rectangular matrix of :class:`Scalar` entries."""

    __slots__ = ("_rows", "nrows", "ncols", "_nonzeros")

    def __init__(self, rows: Sequence[Sequence[Scalar]]):
        self._rows = tuple(tuple(as_scalar(x) for x in row) for row in rows)
        self.nrows = len(self._rows)
        self.ncols = len(self._rows[0]) if self._rows else 0
        if any(len(r) != self.ncols for r in self._rows):
            raise ValueError("ragged rows")
        self._nonzeros = None

    @staticmethod
    def _of(rows: tuple, ncols: int) -> "ExactMatrix":
        """Wrap a tuple of ``ncols``-long tuples of Scalars without checking them."""
        m = object.__new__(ExactMatrix)
        m._rows = rows
        m.nrows = len(rows)
        m.ncols = ncols
        m._nonzeros = None
        return m

    # -- constructors --------------------------------------------------

    @staticmethod
    def from_entries(nrows: int, ncols: int,
                     entries: Mapping[Tuple[int, int], object]) -> "ExactMatrix":
        """The ``nrows x ncols`` matrix with ``entries[(r, c)]`` at (r, c).

        Absent entries are zero; values are coerced like :func:`as_scalar`.
        An index outside the shape, negative ones included, raises
        ``IndexError``.
        """
        grid = [[ZERO] * ncols for _ in range(nrows)]
        for (r, c), x in entries.items():
            if not (0 <= r < nrows and 0 <= c < ncols):
                raise IndexError(f"entry ({r},{c}) outside a {nrows}x{ncols} matrix")
            grid[r][c] = as_scalar(x)
        return ExactMatrix._of(tuple(map(tuple, grid)), ncols)

    @staticmethod
    def zeros(nrows: int, ncols: int) -> "ExactMatrix":
        return ExactMatrix.from_entries(nrows, ncols, {})

    @staticmethod
    def identity(n: int) -> "ExactMatrix":
        return ExactMatrix.from_entries(n, n, {(r, r): ONE for r in range(n)})

    @staticmethod
    def diagonal(entries: Sequence) -> "ExactMatrix":
        n = len(entries)
        return ExactMatrix.from_entries(n, n, {(r, r): e for r, e in enumerate(entries)})

    @staticmethod
    def build(nrows: int, ncols: int, fn: Callable[[int, int], Scalar]) -> "ExactMatrix":
        return ExactMatrix([[fn(r, c) for c in range(ncols)] for r in range(nrows)])

    # -- access ----------------------------------------------------------

    def entry(self, r: int, c: int) -> Scalar:
        return self._rows[r][c]

    def row(self, r: int) -> tuple:
        return self._rows[r]

    def rows(self) -> tuple:
        return self._rows

    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def nonzeros(self) -> tuple:
        """Per row, the ``(column, entry)`` pairs of its nonzero entries, by column.

        Computed on first use and kept, since matrices are immutable.
        """
        nz = self._nonzeros
        if nz is None:
            nz = self._nonzeros = tuple(
                tuple([(c, x) for c, x in enumerate(row) if not x.is_zero()])
                for row in self._rows)
        return nz

    def is_zero(self) -> bool:
        return not any(self.nonzeros())

    def variant(self) -> str:
        order = ("rational", "gauss", "tower", "quat", "quat_sqrt2")
        best = 0
        for row in self._rows:
            for x in row:
                best = max(best, order.index(x.variant()))
        return order[best]

    # -- ring operations ---------------------------------------------

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._check_same_shape(other)
        return ExactMatrix([[a + b for a, b in zip(ra, rb)]
                            for ra, rb in zip(self._rows, other._rows)])

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._check_same_shape(other)
        return ExactMatrix([[a - b for a, b in zip(ra, rb)]
                            for ra, rb in zip(self._rows, other._rows)])

    def __neg__(self) -> "ExactMatrix":
        return ExactMatrix([[-x for x in row] for row in self._rows])

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.ncols != other.nrows:
            raise ValueError(
                f"shape mismatch: {self.nrows}x{self.ncols} @ {other.nrows}x{other.ncols}")
        ncols = other.ncols
        # Each nonzero a[r][k] adds a[r][k] * b[k][c] to output entry (r, c)
        # for the nonzeros b[k][c] of row k of ``other``, in k order.
        other_rows = other.nonzeros()
        out = []
        for row in self.nonzeros():
            acc = [None] * ncols
            for k, a in row:
                for c, b in other_rows[k]:
                    prev = acc[c]
                    acc[c] = a * b if prev is None else prev + a * b
            out.append(tuple([ZERO if x is None else x for x in acc]))
        return ExactMatrix._of(tuple(out), ncols)

    def scale_left(self, s: Scalar) -> "ExactMatrix":
        s = as_scalar(s)
        return ExactMatrix([[s * x for x in row] for row in self._rows])

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix(list(zip(*self._rows))) if self.nrows else \
            ExactMatrix.zeros(self.ncols, 0)

    def trace(self) -> Scalar:
        if not self.is_square():
            raise ValueError("trace of a non-square matrix")
        acc = ZERO
        for r in range(self.nrows):
            acc = acc + self._rows[r][r]
        return acc

    def _check_same_shape(self, other: "ExactMatrix") -> None:
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise ValueError("shape mismatch")

    # -- serialization --------------------------------------------------

    def to_json(self) -> list:
        return [[x.to_json() for x in row] for row in self._rows]

    @staticmethod
    def from_json(data) -> "ExactMatrix":
        return ExactMatrix([[Scalar.from_json(x) for x in row] for row in data])

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self.ncols == other.ncols and self._rows == other._rows

    def __hash__(self) -> int:
        return hash((self.ncols, self._rows))

    def __repr__(self) -> str:
        return f"ExactMatrix({self.nrows}x{self.ncols})"


# -- elementwise helpers ---------------------------------------------------

def conj_transpose(a: ExactMatrix) -> ExactMatrix:
    """Transpose with conjugated entries (negates i, j, k; fixes sqrt2)."""
    return ExactMatrix([[a.entry(c, r).conjugate() for c in range(a.nrows)]
                        for r in range(a.ncols)])


def commutator(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    return a @ b - b @ a


def block_oplus(blocks: Sequence[ExactMatrix]) -> ExactMatrix:
    """Block-diagonal sum of square blocks."""
    for b in blocks:
        if not b.is_square():
            raise ValueError("block_oplus needs square blocks")
    entries = {}
    off = 0
    for b in blocks:
        for r, row in enumerate(b.nonzeros()):
            for c, x in row:
                entries[off + r, off + c] = x
        off += b.nrows
    return ExactMatrix.from_entries(off, off, entries)


def repeat_blocks(b: ExactMatrix, s: int) -> ExactMatrix:
    """The block-diagonal matrix with ``s`` copies of ``b`` (0 copies -> 0x0)."""
    if s < 0:
        raise ValueError("repeat count must be non-negative")
    if not b.is_square():
        raise ValueError("repeat_blocks needs a square block")
    if s == 0:
        return ExactMatrix.zeros(0, 0)
    return block_oplus([b] * s)


# -- realification ----------------------------------------------------------

def complex_to_real_blocks(a: ExactMatrix) -> ExactMatrix:
    """Substitute each complex-like entry ``S + iT`` by ``[[S, -T], [T, S]]``.

    The output is the 2m x 2m matrix ``[[S, -T], [T, S]]`` built from the
    entrywise real and imaginary parts; it is a ring homomorphism.
    """
    m, n = a.nrows, a.ncols
    entries = {}
    for r, row in enumerate(a.nonzeros()):
        for c, x in row:
            s, t = x.real_imag()
            entries[r, c] = entries[m + r, n + c] = s
            entries[r, n + c] = -t
            entries[m + r, c] = t
    return ExactMatrix.from_entries(2 * m, 2 * n, entries)


def quaternion_to_complex_blocks(a: ExactMatrix) -> ExactMatrix:
    """Substitute each quaternion entry ``P + jQ`` by ``[[P, -conj Q], [Q, conj P]]``."""
    m, n = a.nrows, a.ncols
    entries = {}
    for r, row in enumerate(a.nonzeros()):
        for c, x in row:
            p, q = x.complex_pair()
            entries[r, c] = p
            entries[r, n + c] = -q.conjugate()
            entries[m + r, c] = q
            entries[m + r, n + c] = p.conjugate()
    return ExactMatrix.from_entries(2 * m, 2 * n, entries)


def realify(a: ExactMatrix, kind: str | None = None) -> ExactMatrix:
    """Matrix of the same operator over real scalars.

    ``kind`` is one of ``"real"``, ``"complex"``, ``"quaternion"``; when
    omitted it is inferred from the entries.  A complex m x m matrix maps to
    a 2m x 2m real one, a quaternionic one to 4m x 4m.
    """
    if kind is None:
        v = a.variant()
        if v in ("quat", "quat_sqrt2"):
            kind = "quaternion"
        elif v in ("gauss", "tower"):
            kind = "complex"
        else:
            kind = "real"
    if kind == "real":
        return a
    if kind == "complex":
        return complex_to_real_blocks(a)
    if kind == "quaternion":
        return complex_to_real_blocks(quaternion_to_complex_blocks(a))
    raise ValueError(f"unknown realification kind {kind!r}")


# -- exact linear algebra ---------------------------------------------------

def _rational_rows(a: ExactMatrix) -> List[List[Fraction]]:
    rows = []
    for row in a.rows():
        out = []
        for x in row:
            if not x.is_rational():
                raise ValueError("operation requires rational entries")
            out.append(x.rational_value())
        rows.append(out)
    return rows


def _integer_rank(rows: List[List[int]], ncols: int) -> int:
    """Rank by fraction-free (Bareiss) elimination over the integers."""
    m = [row[:] for row in rows]
    nrows = len(m)
    rank = 0
    prev = 1
    for col in range(ncols):
        pivot_row = None
        for r in range(rank, nrows):
            if m[r][col]:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        m[rank], m[pivot_row] = m[pivot_row], m[rank]
        piv = m[rank][col]
        for r in range(rank + 1, nrows):
            if not any(m[r][col:]):
                continue
            factor = m[r][col]
            for c in range(col, ncols):
                m[r][c] = (piv * m[r][c] - factor * m[rank][c]) // prev
        prev = piv
        rank += 1
        if rank == min(nrows, ncols):
            break
    return rank


def rank(a: ExactMatrix) -> int:
    """Exact rank of a matrix with rational entries."""
    if a.nrows == 0 or a.ncols == 0:
        return 0
    rows = _rational_rows(a)
    int_rows = []
    for row in rows:
        lcm = 1
        for x in row:
            if x:
                lcm = lcm * x.denominator // gcd(lcm, x.denominator)
        int_rows.append([int(x * lcm) for x in row])
    return _integer_rank(int_rows, a.ncols)


def kernel_dim(a: ExactMatrix) -> int:
    """Exact nullity of a rational matrix via fraction-free elimination."""
    return a.ncols - rank(a)


def det(a: ExactMatrix) -> Scalar:
    """Exact determinant over a commutative scalar ring (no j/k parts)."""
    if not a.is_square():
        raise ValueError("determinant of a non-square matrix")
    n = a.nrows
    if n == 0:
        return ONE
    m = [list(row) for row in a.rows()]
    for row in m:
        for x in row:
            if not x.is_complex_like():
                raise ValueError(
                    "determinant needs commuting entries; use reduced_norm for quaternions")
    result = ONE
    sign = 1
    for col in range(n):
        pivot_row = None
        for r in range(col, n):
            if not m[r][col].is_zero():
                pivot_row = r
                break
        if pivot_row is None:
            return ZERO
        if pivot_row != col:
            m[col], m[pivot_row] = m[pivot_row], m[col]
            sign = -sign
        piv = m[col][col]
        result = result * piv
        inv = piv.inverse()
        for r in range(col + 1, n):
            if m[r][col].is_zero():
                continue
            f = m[r][col] * inv
            for c in range(col, n):
                m[r][c] = m[r][c] - f * m[col][c]
    return result if sign > 0 else -result


def inverse(a: ExactMatrix) -> ExactMatrix:
    """Exact inverse over the full (possibly quaternionic) scalar tower.

    Row reduction multiplies rows by scalars on the left, which is the
    correct one-sided operation over a division ring.
    """
    if not a.is_square():
        raise ValueError("inverse of a non-square matrix")
    n = a.nrows
    m = [list(row) + [ONE if r == c else ZERO for c in range(n)]
         for r, row in enumerate(a.rows())]
    for col in range(n):
        pivot_row = None
        for r in range(col, n):
            if not m[r][col].is_zero():
                pivot_row = r
                break
        if pivot_row is None:
            raise ZeroDivisionError("matrix is singular")
        if pivot_row != col:
            m[col], m[pivot_row] = m[pivot_row], m[col]
        inv = m[col][col].inverse()
        m[col] = [inv * x for x in m[col]]
        for r in range(n):
            if r == col or m[r][col].is_zero():
                continue
            f = m[r][col]
            m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return ExactMatrix([row[n:] for row in m])


def congruence_signature(s: ExactMatrix) -> Tuple[int, int]:
    """Signature (p, q) of a nondegenerate self-adjoint form.

    Accepts real symmetric or quaternion-Hermitian matrices (conjugate
    transpose equal to the matrix itself) and diagonalizes by simultaneous
    row/column operations.  Raises :class:`DegenerateFormError` when the
    form is singular.
    """
    if not s.is_square():
        raise ValueError("signature of a non-square matrix")
    n = s.nrows
    if conj_transpose(s) != s:
        raise ValueError("signature needs a self-adjoint matrix")
    m = [list(row) for row in s.rows()]

    def swap(i: int, j: int) -> None:
        m[i], m[j] = m[j], m[i]
        for row in m:
            row[i], row[j] = row[j], row[i]

    pos = neg = 0
    for k in range(n):
        if m[k][k].is_zero():
            found = None
            for t in range(k + 1, n):
                if not m[t][t].is_zero():
                    found = t
                    break
            if found is not None:
                swap(k, found)
            else:
                # Entire remaining diagonal is zero; create a pivot from an
                # off-diagonal entry q via a rank-two congruence update.
                spot = None
                for i in range(k, n):
                    for j in range(i + 1, n):
                        if not m[i][j].is_zero():
                            spot = (i, j)
                            break
                    if spot:
                        break
                if spot is None:
                    raise DegenerateFormError("form is degenerate")
                i, j = spot
                if i != k:
                    swap(i, k)
                    j = i if j == k else j
                alpha = m[k][j].conjugate()
                for x in range(n):
                    m[x][k] = m[x][k] + m[x][j] * alpha
                ac = alpha.conjugate()
                for y in range(n):
                    m[k][y] = m[k][y] + ac * m[j][y]
        d = m[k][k]
        if d.is_zero():
            raise DegenerateFormError("form is degenerate")
        dsign = d.sign()
        if dsign > 0:
            pos += 1
        else:
            neg += 1
        dinv = d.inverse()
        for t in range(k + 1, n):
            c = m[k][t]
            if c.is_zero():
                continue
            f = dinv * c
            for x in range(n):
                m[x][t] = m[x][t] - m[x][k] * f
            fc = c.conjugate() * dinv
            for y in range(n):
                m[t][y] = m[t][y] - fc * m[k][y]
    return pos, neg


# -- quaternionic trace and norm -------------------------------------------

def reduced_trace(a: ExactMatrix) -> Fraction:
    """Trace of the complex image of a quaternion matrix: 2 * sum of real parts."""
    if not a.is_square():
        raise ValueError("reduced trace of a non-square matrix")
    total = ZERO
    for r in range(a.nrows):
        x = a.entry(r, r)
        total = total + x + x.conjugate()
    if not total.is_rational():
        raise ValueError("reduced trace has an irrational part")
    return total.rational_value()


def reduced_norm(a: ExactMatrix) -> Scalar:
    """Determinant of the complex image of a quaternion matrix (real valued)."""
    if not a.is_square():
        raise ValueError("reduced norm of a non-square matrix")
    value = det(quaternion_to_complex_blocks(a))
    if not value.is_real():
        raise ValueError("reduced norm came out non-real")
    return value
