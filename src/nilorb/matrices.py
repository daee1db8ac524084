"""Exact matrices over the scalar tower.

Matrices act on column vectors from the left; scalars multiply vectors on
the right, so quaternionic non-commutativity is respected throughout.  All
kernel and signature computations are exact.

Storage.  A matrix keeps one positive integer denominator ``D`` and, per
row, its nonzero entries in column order as ``(column, numerators)``: an
entry is ``numerators / D``, where ``numerators`` holds eight ints in the
component order of :data:`~nilorb.scalars.BASIS_NAMES`.  Every result is
reduced so that ``gcd(D, all numerators) == 1``, and the zero matrix has
``D == 1`` and no entries, so equal matrices have equal storage and equal
hashes.  Products, sums, scaling, transposes, the block maps, equality,
rank, ``det``, ``solve``, :func:`is_isometry` and
``congruence_signature`` work on these ints, multiplying components
through ``scalars._PROD``.  A product reads only the rows of its right
operand that the left one meets.  ``det`` splits its input into the
connected components of its nonzero pattern and runs Bareiss on each;
``solve(a, b)`` is one Gauss-Jordan elimination with int pivots on
``[a | b]``, and ``inverse`` is ``solve(a, I)``.  The ints are the only
storage: every constructor converts its values to them once, when it
builds the matrix, and keeps no Scalar it was given.  A Scalar is made
only when a value leaves the matrix (:meth:`~ExactMatrix.rows`,
:meth:`~ExactMatrix.nonzeros` and :func:`det`), on each such call, and
the matrix does not keep it; a matrix built by
:meth:`ExactMatrix.from_entries` from ``int`` values, or by
:meth:`ExactMatrix.from_numerators` from int numerators, makes none, and
rendering makes none either.  Rendering goes through one sparse reader,
``ExactMatrix._rendered_nonzeros(render)``, which calls
``render(numerators, D)`` once per call on the zero cell and on each
distinct stored value, and returns the rendered zero and, per row, the
``(column, rendered)`` pairs of its nonzeros; equal cells share that one
rendered object within a result.  The renderers are the int-native
:func:`~nilorb.scalars.value_json` and :func:`~nilorb.scalars.value_text`,
which reduce each component by its gcd with ``D``.
:meth:`~ExactMatrix.to_json` and :meth:`~ExactMatrix.rows` fill the zero
into dense rows of that reader's cells.  The CLI reads it directly: its
matrix tables size each column from the zero and the nonzero texts and
patch the nonzeros into one padded zero row, and its JSON encoder builds
each distinct cell's indented text, shares one zero-row text across the
all-zero rows and patches the nonzeros into the others, so no dense cell
grid and no ``to_json`` cell list is built for a printed matrix.

Every structured matrix (triples, Gram matrices, block embeddings) is
built from its nonzero entries with :meth:`ExactMatrix.from_entries`, or
from such matrices by the int-native :func:`kron` and :func:`block_oplus`;
a random K point and an adapted basis's level matrices are built from
their int numerators with :meth:`ExactMatrix.from_numerators`, and an
adapted basis's columns are put in order by :func:`permute_columns`,
which moves numerators and computes none.  Every consumer
that wants to skip zeros reads them back through
:meth:`ExactMatrix.nonzeros`, so how a matrix is stored is decided in
this module alone.  A consumer whose answer does not change when the
matrix is scaled by a positive integer, such as a kernel solve, reads the
stored numerators instead through :meth:`ExactMatrix.integer_nonzeros`
and builds no Scalar.

Identities are checked by one fused kernel, :func:`products_agree`: each
side is a sum of terms ``(k, A, B)``, the int ``k`` times ``A @ B`` (or
times ``A`` when ``B`` is None), scaled to one common denominator, and
each row of the difference is accumulated from the stored ints into one
dict, the first nonzero row ending the check.  No product, sum or Scalar
is built for an identity that holds.  The rule is: the kernel decides,
and the terms are built only to explain.  :func:`compare_products` takes
the two term lists alone and returns the kernel's verdict; only on a
"differ" does it build each side from its own terms and hand them to
:func:`compare`, so a failure names its first bad entry, and a misshapen
side raises the ``ValueError`` that building it raises.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import itemgetter
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from .scalars import (_F0, _PROD, COMPLEX_LIKE_VARIANTS, Scalar,
                      as_scalar, real_sign, value_json, variant_of)


class DegenerateFormError(ValueError):
    """Raised when a congruence diagonalization meets a singular form."""


# Sign of each component under conjugation.
_CONJ_SIGNS = (1, -1, -1, -1, 1, -1, -1, -1)
_ZERO_NUM = (0,) * 8
_ONE_NUM = (1, 0, 0, 0, 0, 0, 0, 0)


def _to_scalar(nums: tuple, den: int) -> Scalar:
    return Scalar._of(tuple([Fraction(v, den) if v else _F0 for v in nums]))


def _content(g: int, num: tuple) -> int:
    """gcd of ``g`` and every numerator in ``num`` (stops early at 1)."""
    for row in num:
        for _, x in row:
            g = gcd(g, *x)
            if g == 1:
                return 1
    return g


def _conj_nums(x: tuple) -> tuple:
    """The numerators of the conjugate entry (negates i, j, k; fixes sqrt2)."""
    return tuple([s * v for s, v in zip(_CONJ_SIGNS, x)])


def _mul_nums(a: tuple, b: tuple) -> tuple:
    """The product of two entries' numerator tuples."""
    out = [0] * 8
    for ia, x in enumerate(a):
        if x:
            prod = _PROD[ia]
            for ib, y in enumerate(b):
                if y:
                    idx, f = prod[ib]
                    out[idx] += f * x * y
    return tuple(out)


def _scaled_row(row: tuple, f: int) -> tuple:
    """A stored row with every numerator multiplied by the int ``f``."""
    return tuple([(c, tuple([f * v for v in x])) for c, x in row])


def _row_times(row: tuple, b_num: tuple, f: int = 1,
               acc: Optional[Dict[int, list]] = None) -> Dict[int, list]:
    """``f`` times one stored row times the stored rows ``b_num``, added
    into ``acc`` (a new dict when None) as ``{column: numerators}``.

    Only the rows of ``b_num`` that ``row`` meets are read.  A rational
    left entry ``x`` scales the right row; any other one multiplies
    component by component, placed by ``_PROD``.  Entries may cancel to
    all-zero lists, which the caller drops.
    """
    if acc is None:
        acc = {}
    for k, a in row:
        b_row = b_num[k]
        if not b_row:
            continue
        x = a[0]
        if x and a.count(0) == 7:
            x *= f
            for c, y in b_row:
                v = acc.get(c)
                acc[c] = ([x * u for u in y] if v is None
                          else [p + x * u for p, u in zip(v, y)])
            continue
        a_terms = [(_PROD[ia], f * x) for ia, x in enumerate(a) if x]
        for c, y in b_row:
            v = acc.get(c)
            if v is None:
                v = acc[c] = [0] * 8
            for ib, u in enumerate(y):
                if u:
                    for prod, x in a_terms:
                        idx, g = prod[ib]
                        v[idx] += g * x * u
    return acc


def _columns(num: Sequence, ncols: int, conj: bool) -> List[list]:
    """The rows ``num`` of ``(column, value)`` pairs read by column: per
    column, its ``(row, value)`` pairs by row.  When ``conj``, each value
    is a numerators tuple and is conjugated."""
    cols: List[list] = [[] for _ in range(ncols)]
    for r, row in enumerate(num):
        for c, x in row:
            cols[c].append((r, _conj_nums(x) if conj else x))
    return cols


class ExactMatrix:
    """An immutable rectangular matrix over the scalar tower.

    See the module docstring for the storage: one denominator ``_den``
    and the per-row nonzero numerators ``_num``, both set by every
    constructor; the matrix keeps nothing else.
    """

    __slots__ = ("nrows", "ncols", "_den", "_num")

    @staticmethod
    def _of(nrows: int, ncols: int, den: int, num: tuple) -> "ExactMatrix":
        """Wrap storage that is already reduced, without checking it."""
        m = object.__new__(ExactMatrix)
        m.nrows, m.ncols, m._den, m._num = nrows, ncols, den, num
        return m

    @staticmethod
    def _reduced(nrows: int, ncols: int, den: int, num: tuple) -> "ExactMatrix":
        """The matrix ``num / den``: divide out the common gcd, then wrap."""
        g = _content(den, num)
        if g != 1:
            den //= g
            num = tuple(tuple([(c, tuple([v // g for v in x])) for c, x in row])
                        for row in num)
        return ExactMatrix._of(nrows, ncols, den, num)

    # -- constructors --------------------------------------------------

    @staticmethod
    def from_entries(nrows: int, ncols: int,
                     entries: Mapping[Tuple[int, int], object]) -> "ExactMatrix":
        """The ``nrows x ncols`` matrix with ``entries[(r, c)]`` at (r, c).

        Absent entries are zero; values are coerced like :func:`as_scalar`.
        An index outside the shape, negative ones included, raises
        ``IndexError``.  Each value is converted to numerators once, here.
        When every value is an ``int`` no Scalar is made; no Scalar given
        is kept.
        """
        ints = all(type(x) is int for x in entries.values())
        rows: List[list] = [[] for _ in range(nrows)]
        for (r, c), x in entries.items():
            if not (0 <= r < nrows and 0 <= c < ncols):
                raise IndexError(f"entry ({r},{c}) outside a {nrows}x{ncols} matrix")
            if ints:
                if x:
                    rows[r].append((c, (x, 0, 0, 0, 0, 0, 0, 0)))
            else:
                x = as_scalar(x)
                if any(x.components):
                    rows[r].append((c, x))
        by_column = tuple(tuple(sorted(row, key=lambda e: e[0])) for row in rows)
        if ints:
            return ExactMatrix._of(nrows, ncols, 1, by_column)
        # The least common denominator of reduced fractions leaves no common
        # factor.  Zero components are mostly the shared ``_F0``, which is
        # skipped by identity before any Fraction property is read.
        den = lcm(*{f.denominator for row in by_column for _, x in row
                    for f in x.components if f is not _F0})
        return ExactMatrix._of(nrows, ncols, den, tuple(
            tuple([(c, tuple([0 if f is _F0 else f.numerator * (den // f.denominator)
                              for f in x.components])) for c, x in row])
            for row in by_column))

    @staticmethod
    def from_numerators(nrows: int, ncols: int, den: int,
                        rows: Sequence[Sequence[Tuple[int, tuple]]]) -> "ExactMatrix":
        """The ``nrows x ncols`` matrix with ``numerators / den`` at (r, c)
        for each ``(c, numerators)`` pair in ``rows[r]``.

        ``numerators`` holds eight ints in the component order of
        :data:`~nilorb.scalars.BASIS_NAMES`, and ``den`` is a positive
        int; the result is reduced.  Pairs may come in any column order.
        Every pair is checked before the all-zero ones are dropped: a
        column outside the shape, or one given twice in a row, raises
        ``IndexError``, and numerators other than eight ints raise
        ``ValueError``.  No Scalar is made.
        """
        if len(rows) != nrows:
            raise ValueError(f"{len(rows)} rows given for a {nrows}-row matrix")
        if type(den) is not int or den <= 0:
            raise ValueError("the denominator must be a positive int")
        out = []
        for r, row in enumerate(rows):
            given = sorted([(c, tuple(x)) for c, x in row], key=itemgetter(0))
            for i, (c, x) in enumerate(given):
                if not 0 <= c < ncols or (i and given[i - 1][0] == c):
                    raise IndexError(f"entry ({r},{c}) outside a {nrows}x{ncols} "
                                     "matrix or given twice")
                if len(x) != 8 or any(type(v) is not int for v in x):
                    raise ValueError("an entry needs exactly 8 int numerators")
            out.append(tuple([e for e in given if any(e[1])]))
        return ExactMatrix._reduced(nrows, ncols, den, tuple(out))

    @staticmethod
    def zeros(nrows: int, ncols: int) -> "ExactMatrix":
        return ExactMatrix._of(nrows, ncols, 1, ((),) * nrows)

    @staticmethod
    def identity(n: int) -> "ExactMatrix":
        return ExactMatrix._of(n, n, 1, tuple(((r, _ONE_NUM),) for r in range(n)))

    @staticmethod
    def diagonal(entries: Sequence) -> "ExactMatrix":
        n = len(entries)
        return ExactMatrix.from_entries(n, n, {(r, r): e for r, e in enumerate(entries)})

    # -- access ----------------------------------------------------------

    def rows(self) -> tuple:
        """The entries as a tuple of dense rows of Scalars, built on each call
        from :meth:`_rendered_nonzeros`.

        Equal cells, the zero cells among them, share one Scalar within the
        result.
        """
        return tuple(map(tuple, self._dense_cells(_to_scalar)))

    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def nonzeros(self) -> tuple:
        """Per row, the ``(column, entry)`` pairs of its nonzero entries, by column.

        The Scalars are built from the stored numerators on each call and
        not kept.
        """
        den = self._den
        return tuple(tuple([(c, _to_scalar(x, den)) for c, x in row]) for row in self._num)

    def integer_nonzeros(self) -> tuple:
        """Per row, the ``(column, numerators)`` pairs of ``D * self``, by column.

        ``D`` is the least positive integer that clears every denominator,
        and ``numerators`` holds eight ints in the component order of
        :data:`~nilorb.scalars.BASIS_NAMES`.  The stored tuples are
        returned, not copied.  The result is the matrix times a positive
        integer that is not returned, so it suits only callers whose answer
        does not change under a nonzero scale, such as kernels and ranks.
        """
        return self._num

    def is_zero(self) -> bool:
        return not any(self._num)

    def variant(self) -> str:
        """Smallest named scalar variant containing every entry."""
        return variant_of({i for row in self._num for _, x in row
                           for i, v in enumerate(x) if v})

    # -- ring operations ---------------------------------------------

    def _combine(self, other: "ExactMatrix", sign: int) -> "ExactMatrix":
        """``self + sign * other`` over the least common denominator.

        A row that is empty in one operand is the other's row, scaled.
        """
        self._check_same_shape(other)
        den = lcm(self._den, other._den)
        fa, fb = den // self._den, sign * (den // other._den)
        out = []
        for ra, rb in zip(self._num, other._num):
            if not rb:
                out.append(ra if fa == 1 else _scaled_row(ra, fa))
                continue
            if not ra:
                out.append(_scaled_row(rb, fb))
                continue
            acc = dict(ra) if fa == 1 else dict(_scaled_row(ra, fa))
            for c, y in rb:
                x = acc.get(c)
                acc[c] = (tuple([fb * v for v in y]) if x is None
                          else tuple([u + fb * v for u, v in zip(x, y)]))
            out.append(tuple([(c, x) for c, x in sorted(acc.items()) if any(x)]))
        return ExactMatrix._reduced(self.nrows, self.ncols, den, tuple(out))

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        return self._combine(other, 1)

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        return self._combine(other, -1)

    def __neg__(self) -> "ExactMatrix":
        return ExactMatrix._of(self.nrows, self.ncols, self._den, tuple(
            tuple([(c, tuple([-v for v in x])) for c, x in row]) for row in self._num))

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.ncols != other.nrows:
            raise ValueError(
                f"shape mismatch: {self.nrows}x{self.ncols} @ {other.nrows}x{other.ncols}")
        b_num = other._num
        out = []
        for row in self._num:
            acc = _row_times(row, b_num)
            out.append(tuple([(c, tuple(v)) for c, v in sorted(acc.items()) if any(v)]))
        return ExactMatrix._reduced(self.nrows, other.ncols, self._den * other._den,
                                    tuple(out))

    def scale_left(self, s: Scalar) -> "ExactMatrix":
        """``s * self``; an ``int`` ``s`` scales the numerators without a Scalar."""
        if type(s) is int:
            if not s:
                return ExactMatrix.zeros(self.nrows, self.ncols)
            return ExactMatrix._reduced(self.nrows, self.ncols, self._den,
                                        tuple([_scaled_row(row, s) for row in self._num]))
        s_num, den = as_scalar(s)._ints()
        out = []
        for row in self._num:
            products = [(c, _mul_nums(s_num, x)) for c, x in row]
            out.append(tuple([(c, p) for c, p in products if any(p)]))
        return ExactMatrix._reduced(self.nrows, self.ncols, den * self._den, tuple(out))

    def _transposed(self, conj: bool) -> "ExactMatrix":
        """The transpose, with conjugated entries when ``conj``."""
        cols = _columns(self._num, self.ncols, conj)
        return ExactMatrix._of(self.ncols, self.nrows, self._den, tuple(map(tuple, cols)))

    def transpose(self) -> "ExactMatrix":
        return self._transposed(False)

    def _check_same_shape(self, other: "ExactMatrix") -> None:
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise ValueError("shape mismatch")

    # -- serialization --------------------------------------------------

    def _rendered_nonzeros(self, render: Callable[[tuple, int], object]) -> tuple:
        """``(zero, rows)``: the rendered zero cell and, per row, the
        ``(column, rendered)`` pairs of its nonzero entries, by column.

        The zero is rendered first, as ``render((0,) * 8, 1)``, whether or
        not a cell is zero; then each distinct stored numerator tuple once
        per call, in row order, and equal cells share that one object.
        ``render`` gets the ints as stored, not reduced to lowest terms.
        """
        den = self._den
        zero = render(_ZERO_NUM, 1)
        rendered: Dict[tuple, object] = {}
        rows = []
        for row in self._num:
            cells = []
            for c, x in row:
                cell = rendered.get(x)
                if cell is None:
                    cell = rendered[x] = render(x, den)
                cells.append((c, cell))
            rows.append(cells)
        return zero, rows

    def _dense_cells(self, render: Callable[[tuple, int], object]) -> list:
        """Dense rows of :meth:`_rendered_nonzeros`' cells, the zero filled in."""
        zero, rows = self._rendered_nonzeros(render)
        blank = [zero] * self.ncols
        out = []
        for row in rows:
            cells = blank.copy()
            for c, cell in row:
                cells[c] = cell
            out.append(cells)
        return out

    def to_json(self) -> list:
        """Dense rows of cells of "num/den" strings, as :meth:`Scalar.to_json`.

        Each distinct value is rendered once per call by
        :func:`~nilorb.scalars.value_json`, straight from its numerators,
        through :meth:`_rendered_nonzeros`; equal cells, the zero cells
        among them, share one object within a result and none with another
        call's result.  The CLI does not call this: its JSON encoder renders
        a matrix's text from :meth:`_rendered_nonzeros` directly, byte for
        byte what ``json.dumps`` prints for this list.
        """
        return self._dense_cells(value_json)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (self.ncols == other.ncols and self._den == other._den
                and self._num == other._num)

    def __hash__(self) -> int:
        return hash((self.ncols, self._den, self._num))

    def __repr__(self) -> str:
        return f"ExactMatrix({self.nrows}x{self.ncols})"


# -- elementwise helpers ---------------------------------------------------

def conj_transpose(a: ExactMatrix) -> ExactMatrix:
    """Transpose with conjugated entries (negates i, j, k; fixes sqrt2)."""
    return a._transposed(True)


def compare(got: ExactMatrix, expected: ExactMatrix) -> Tuple[bool, str]:
    """Whether two matrices agree and, if not, the first entry that differs.

    The detail names the first differing entry in row-major order, among
    the columns both matrices have, as ``entry (r,c) is x, expected y``;
    two matrices that agree there differ in shape, and the detail names
    both shapes.  ``verify``'s identity checks and K-membership name their
    first bad entry through it.
    """
    if got == expected:
        return True, ""
    ncols = min(got.ncols, expected.ncols)
    for r, (row_got, row_expected) in enumerate(zip(got.nonzeros(), expected.nonzeros())):
        x, y = dict(row_got), dict(row_expected)
        bad = [c for c in x.keys() | y.keys()
               if c < ncols and x.get(c, 0) != y.get(c, 0)]
        if bad:
            c = min(bad)
            return False, f"entry ({r},{c}) is {x.get(c, 0)}, expected {y.get(c, 0)}"
    return False, (f"shape {got.nrows}x{got.ncols}, "
                   f"expected {expected.nrows}x{expected.ncols}")


Term = Tuple[int, ExactMatrix, Optional[ExactMatrix]]


def products_agree(lhs: Sequence[Term], rhs: Sequence[Term]) -> bool:
    """Whether the sum of the terms ``lhs`` equals the sum of ``rhs``.

    A term ``(k, A, B)`` is the int ``k`` times ``A @ B``, or ``k`` times
    ``A`` when ``B`` is None.  No product, sum or Scalar is built: every
    term is scaled to one common denominator, and each row of
    ``sum(lhs) - sum(rhs)`` is accumulated from the stored ints into one
    ``{column: numerators}`` dict, by :func:`_row_times` for a product;
    the first nonzero row ends the check.  False as well when a product's
    operands do not chain or two terms differ in shape, where building the
    sides would raise or compare unequal: a caller then builds them to say
    why (:func:`compare_products`).
    """
    terms, shape, dens = [], None, []
    for sign, side in ((1, lhs), (-1, rhs)):
        for k, a, b in side:
            if b is None:
                term_shape, den = (a.nrows, a.ncols), a._den
            elif a.ncols != b.nrows:
                return False
            else:
                term_shape, den = (a.nrows, b.ncols), a._den * b._den
            if shape is None:
                shape = term_shape
            elif term_shape != shape:
                return False
            terms.append((sign * k, a._num, None if b is None else b._num))
            dens.append(den)
    if shape is None:
        return True
    common = lcm(*dens)
    terms = [(k * (common // den), a, b) for (k, a, b), den in zip(terms, dens) if k]
    for r in range(shape[0]):
        acc: Dict[int, list] = {}
        for f, a, b in terms:
            if b is not None:
                _row_times(a[r], b, f, acc)
                continue
            for c, x in a[r]:
                v = acc.get(c)
                acc[c] = ([f * u for u in x] if v is None
                          else [p + f * u for p, u in zip(v, x)])
        for v in acc.values():
            if any(v):
                return False
    return True


def _built(terms: Sequence[Term]) -> ExactMatrix:
    """The sum of one or more ``terms``, built with ``@``, ``scale_left``
    and ``+`` in term order."""
    total = None
    for k, a, b in terms:
        term = (a if b is None else a @ b).scale_left(k)
        total = term if total is None else total + term
    return total


def compare_products(lhs: Sequence[Term], rhs: Sequence[Term]) -> Tuple[bool, str]:
    """Whether the sums ``lhs`` and ``rhs``, each of one or more terms,
    agree and, if not, :func:`compare`'s detail of the two built sums.

    :func:`products_agree` alone decides.  Only when it finds the sides
    different or misshapen is each side built from its own terms, to name
    the first bad entry; a side whose terms do not chain or differ in shape
    raises the ``ValueError`` that building it raises.  Built sides that
    compare equal give the detail ``kernel and built sides disagree``.
    """
    if products_agree(lhs, rhs):
        return True, ""
    return False, compare(_built(lhs), _built(rhs))[1] or "kernel and built sides disagree"


def is_isometry(g: ExactMatrix, conj: bool) -> bool:
    """Whether ``g* g`` (``g^T g`` unless ``conj``) is the identity of size ``g.ncols``.

    For ``g = N / D`` this is ``N* N = D^2 I``, checked one row of the
    product at a time from the stored ints, row ``r`` of ``N*`` read as
    column ``r`` of ``N``; the first row that differs ends the check.
    """
    unit = [g._den ** 2] + [0] * 7
    num = g._num
    for r, row in enumerate(_columns(num, g.ncols, conj)):
        acc = _row_times(row, num)
        if acc.get(r) != unit or any(any(v) for c, v in acc.items() if c != r):
            return False
    return True


def block_oplus(blocks: Sequence[ExactMatrix]) -> ExactMatrix:
    """Block-diagonal sum of square blocks."""
    for b in blocks:
        if not b.is_square():
            raise ValueError("block_oplus needs square blocks")
    den = lcm(*[b._den for b in blocks])
    rows = []
    off = 0
    for b in blocks:
        f = den // b._den
        for row in b._num:
            rows.append(tuple([(off + c, x if f == 1 else tuple([f * v for v in x]))
                               for c, x in row]))
        off += b.nrows
    return ExactMatrix._reduced(off, off, den, tuple(rows))


def permute_columns(a: ExactMatrix, order: Sequence[int]) -> ExactMatrix:
    """The matrix whose column ``k`` is column ``order[k]`` of ``a``.

    ``order`` lists every column of ``a`` once; the stored numerators are
    moved, not recomputed.
    """
    if sorted(order) != list(range(a.ncols)):
        raise ValueError(f"{list(order)} is not an order of {a.ncols} columns")
    new = [0] * a.ncols
    for k, c in enumerate(order):
        new[c] = k
    return ExactMatrix._of(a.nrows, a.ncols, a._den, tuple(
        tuple(sorted([(new[c], x) for c, x in row], key=itemgetter(0))) for row in a._num))


def diagonal_block(a: ExactMatrix, lo: int, hi: int) -> ExactMatrix:
    """The square block of ``a`` on rows and columns ``lo..hi-1``."""
    if not 0 <= lo <= hi <= min(a.nrows, a.ncols):
        raise IndexError(f"block {lo}..{hi} outside a {a.nrows}x{a.ncols} matrix")
    return ExactMatrix._reduced(hi - lo, hi - lo, a._den, tuple(
        tuple([(c - lo, x) for c, x in row if lo <= c < hi]) for row in a._num[lo:hi]))


def kron(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """The Kronecker product ``a ⊗ b``.

    For ``b`` of shape ``m x n``, entry ``(i*m + j, k*n + l)`` is
    ``a[i][k] * b[j][l]``, with the left factor on the left, which matters
    over the quaternions.  Built from the int numerators alone; the scalar
    tower has no zero divisors, so every product of two nonzeros is kept.
    """
    m, n = b.nrows, b.ncols
    out = []
    for row_a in a._num:
        for row_b in b._num:
            out.append(tuple([(k * n + l, _mul_nums(x, y))
                              for k, x in row_a for l, y in row_b]))
    return ExactMatrix._reduced(a.nrows * m, a.ncols * n, a._den * b._den, tuple(out))


# -- realification ----------------------------------------------------------

def complex_to_real_blocks(a: ExactMatrix) -> ExactMatrix:
    """Substitute each complex-like entry ``S + iT`` by ``[[S, -T], [T, S]]``.

    The output is the 2m x 2m matrix ``[[S, -T], [T, S]]`` built from the
    entrywise real and imaginary parts; it is a ring homomorphism.
    """
    m, n = a.nrows, a.ncols
    top, bottom = [], []
    for row in a._num:
        re, im = [], []
        for c, x in row:
            if x[2] or x[3] or x[6] or x[7]:
                raise ValueError("scalar has quaternion parts")
            if x[0] or x[4]:
                re.append((c, (x[0], 0, 0, 0, x[4], 0, 0, 0)))
            if x[1] or x[5]:
                im.append((c, (x[1], 0, 0, 0, x[5], 0, 0, 0)))
        top.append(tuple(re + [(n + c, tuple([-v for v in t])) for c, t in im]))
        bottom.append(tuple(im + [(n + c, s) for c, s in re]))
    return ExactMatrix._of(2 * m, 2 * n, a._den, tuple(top + bottom))


def i_to_j(a: ExactMatrix) -> ExactMatrix:
    """Send each Gaussian rational entry ``x + iy`` to the quaternion ``x + jy``.

    Raises ``ValueError`` on an entry with a ``j``, ``k`` or ``sqrt2`` part.
    """
    rows = []
    for row in a._num:
        out = []
        for c, x in row:
            if any(x[2:]):
                raise ValueError("entry is not a rational complex number")
            out.append((c, (x[0], 0, x[1], 0, 0, 0, 0, 0)))
        rows.append(tuple(out))
    return ExactMatrix._of(a.nrows, a.ncols, a._den, tuple(rows))


def quaternion_to_complex_blocks(a: ExactMatrix) -> ExactMatrix:
    """Substitute each quaternion entry ``P + jQ`` by ``[[P, -conj Q], [Q, conj P]]``."""
    m, n = a.nrows, a.ncols
    top, bottom = [], []
    for row in a._num:
        ps, qs = [], []
        for c, (x0, x1, x2, x3, x4, x5, x6, x7) in row:
            if x0 or x1 or x4 or x5:
                ps.append((c, x0, x1, x4, x5))
            if x2 or x3 or x6 or x7:
                qs.append((c, x2, x3, x6, x7))
        # P = (x0, x1, x4, x5) and Q = (x2, -x3, x6, -x7) on the 1, i, sqrt2, i*sqrt2 parts.
        top.append(tuple([(c, (x0, x1, 0, 0, x4, x5, 0, 0)) for c, x0, x1, x4, x5 in ps]
                         + [(n + c, (-x2, -x3, 0, 0, -x6, -x7, 0, 0))
                            for c, x2, x3, x6, x7 in qs]))
        bottom.append(tuple([(c, (x2, -x3, 0, 0, x6, -x7, 0, 0)) for c, x2, x3, x6, x7 in qs]
                            + [(n + c, (x0, -x1, 0, 0, x4, -x5, 0, 0))
                               for c, x0, x1, x4, x5 in ps]))
    return ExactMatrix._of(2 * m, 2 * n, a._den, tuple(top + bottom))


# -- exact linear algebra ---------------------------------------------------

def integer_nullity(rows: List[Dict[int, int]], num_unknowns: int) -> int:
    """Kernel dimension of a sparse integer system by fraction-free echelon.

    Each row maps a column to its nonzero int coefficient; the rows are
    read, not changed.  Every pivot row is kept primitive: the gcd of its
    entries is 1.  A row whose leading column ``c`` holds a pivot ``p``,
    with ``f`` at ``c`` in the row, becomes ``(p/g) r - (f/g) pivot`` for
    ``g = gcd(p, f)`` and is then divided by its content, so the entries
    stay small.
    """
    pivots: Dict[int, Dict[int, int]] = {}
    for row in rows:
        r = dict(row)
        while r:
            c = min(r)
            pivot = pivots.get(c)
            if pivot is None:
                g = gcd(*r.values())
                pivots[c] = r if g == 1 else {cc: v // g for cc, v in r.items()}
                break
            f = r.pop(c)
            p = pivot[c]
            g = gcd(p, f)
            if g != 1:
                p, f = p // g, f // g
            if p != 1:
                r = {cc: p * v for cc, v in r.items()}
            for cc, v in pivot.items():
                if cc != c:
                    nv = r.get(cc, 0) - f * v
                    if nv:
                        r[cc] = nv
                    else:
                        del r[cc]
            if r:
                g = gcd(*r.values())
                if g != 1:
                    r = {cc: v // g for cc, v in r.items()}
    return num_unknowns - len(pivots)


def rank(a: ExactMatrix) -> int:
    """Exact rank of a matrix with rational entries."""
    if a.variant() != "rational":
        raise ValueError("operation requires rational entries")
    # The rows share one denominator, so the numerators have the same rank.
    rows = [{c: x[0] for c, x in row} for row in a._num]
    return a.ncols - integer_nullity(rows, a.ncols)


def _dense(a: ExactMatrix, width: int) -> List[list]:
    """The numerator rows of ``a`` as lists of ``width`` tuples, zeros filled in."""
    out = []
    for row in a._num:
        dense = [_ZERO_NUM] * width
        for c, x in row:
            dense[c] = x
        out.append(dense)
    return out


def _integer_multiplier(p: tuple) -> Tuple[tuple, int]:
    """``(w, d)`` with ``w * p == d`` a nonzero int, for a nonzero numerator tuple ``p``.

    ``w = (a - b sqrt2) * conj(p)``, where ``p * conj(p) = a + b sqrt2``,
    so ``d = a^2 - 2 b^2``.
    """
    if not any(p[1:]):
        return _ONE_NUM, p[0]
    conj = _conj_nums(p)
    norm = _mul_nums(p, conj)
    a, b = norm[0], norm[4]
    return _mul_nums((a, 0, 0, 0, -b, 0, 0, 0), conj), a * a - 2 * b * b


def _components(num: tuple) -> List[List[int]]:
    """The index sets of the connected components of a square matrix's
    nonzero pattern (``r ~ c`` when entry ``(r, c)`` is nonzero), each
    ascending, found by union-find over the stored rows."""
    parent = list(range(len(num)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for r, row in enumerate(num):
        for c, _ in row:
            i, j = find(r), find(c)
            if i != j:
                parent[i] = j
    groups: Dict[int, List[int]] = {}
    for i in range(len(num)):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def _bareiss(m: List[list]) -> tuple:
    """The numerators of the determinant of a dense square numerator matrix.

    Fraction-free: after step ``k`` every remaining entry is a
    ``(k+1)``-minor, so the division by the previous pivot ``p`` is exact.
    It is done as a product by the ``w`` of :func:`_integer_multiplier`,
    found once per step, and an int division by ``d = w * p``.  ``m`` is
    overwritten.
    """
    n = len(m)
    sign = 1
    w, d = _ONE_NUM, 1
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if any(m[r][col])), None)
        if pivot_row is None:
            return _ZERO_NUM
        if pivot_row != col:
            m[col], m[pivot_row] = m[pivot_row], m[col]
            sign = -sign
        piv, prow = m[col][col], m[col]
        for r in range(col + 1, n):
            row, f = m[r], m[r][col]
            for c in range(col + 1, n):
                x = tuple([u - v for u, v in zip(_mul_nums(piv, row[c]),
                                                  _mul_nums(f, prow[c]))])
                if w is not _ONE_NUM:
                    x = _mul_nums(w, x)
                row[c] = x if d == 1 else tuple([v // d for v in x])
        w, d = _integer_multiplier(piv)
    return tuple([sign * v for v in m[n - 1][n - 1]])


def det(a: ExactMatrix) -> Scalar:
    """Exact determinant over a commutative scalar ring (no j/k parts).

    The connected components of the nonzero pattern split the matrix, up
    to a simultaneous permutation of rows and columns, which has no sign,
    into diagonal blocks; each distinct block's determinant comes from
    one Bareiss elimination on its integer numerators (:func:`_bareiss`),
    and the determinant is the product over the blocks.  A connected
    matrix is one block.
    """
    return _to_scalar(*_det_nums(a))


def _det_nums(a: ExactMatrix) -> Tuple[tuple, int]:
    """:func:`det` as ``(numerators, denominator)``, before any Scalar is built."""
    if not a.is_square():
        raise ValueError("determinant of a non-square matrix")
    n = a.nrows
    if n == 0:
        return _ONE_NUM, 1
    if a.variant() not in COMPLEX_LIKE_VARIANTS:
        raise ValueError(
            "determinant needs commuting entries; use reduced_norm for quaternions")
    num = a._num
    total = _ONE_NUM
    # An embedded K point repeats each factor block, so equal blocks share one run.
    block_dets: Dict[tuple, tuple] = {}
    for comp in _components(num):
        index = {r: i for i, r in enumerate(comp)}
        m = []
        for r in comp:
            dense = [_ZERO_NUM] * len(comp)
            for c, x in num[r]:
                dense[index[c]] = x
            m.append(dense)
        key = tuple(map(tuple, m))
        block = block_dets.get(key)
        if block is None:
            block = block_dets[key] = _bareiss(m)
        if not any(block):
            return _ZERO_NUM, 1
        total = _mul_nums(total, block)
    return total, a._den ** n


def _primitive(row: list) -> list:
    """The row divided by the gcd of all its numerators."""
    g = 0
    for x in row:
        g = gcd(g, *x)
        if g == 1:
            return row
    return [tuple([v // g for v in x]) for x in row] if g > 1 else row


def solve(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """The exact ``a^-1 b`` for square invertible ``a``, over the full
    (possibly quaternionic) scalar tower.

    One Gauss-Jordan elimination on the integer numerators of ``[a | b]``.
    Row operations multiply rows by scalars on the left, which is the
    correct one-sided operation over a division ring: each pivot row is
    multiplied by the ``w`` of :func:`_integer_multiplier`, so its pivot
    becomes an int ``d``, and each other row ``r`` becomes
    ``d * r - f * pivot_row``.  Every row is kept primitive, so the ints
    stay small.  Raises ``ValueError`` on a non-square ``a`` or a ``b``
    with another row count, and ``ZeroDivisionError`` when ``a`` is
    singular.
    """
    if not a.is_square():
        raise ValueError("solve needs a square matrix")
    if b.nrows != a.nrows:
        raise ValueError(
            f"shape mismatch: solve {a.nrows}x{a.ncols} against {b.nrows}x{b.ncols}")
    n = a.nrows
    m = _dense(a, n + b.ncols)
    for row, b_row in zip(m, b._num):
        for c, x in b_row:
            row[n + c] = x
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if any(m[r][col])), None)
        if pivot_row is None:
            raise ZeroDivisionError("matrix is singular")
        m[col], m[pivot_row] = m[pivot_row], m[col]
        w, _ = _integer_multiplier(m[col][col])
        if w != _ONE_NUM:
            m[col] = [_mul_nums(w, x) if any(x) else x for x in m[col]]
        prow = m[col] = _primitive(m[col])
        d = prow[col][0]
        terms = [(j, y) for j, y in enumerate(prow) if any(y)]
        for r in range(n):
            f = m[r][col]
            if r == col or not any(f):
                continue
            row = [tuple([d * v for v in x]) if any(x) else x for x in m[r]]
            for j, y in terms:
                fy = _mul_nums(f, y)
                row[j] = tuple([u - v for u, v in zip(row[j], fy)])
            m[r] = _primitive(row)
    # Row r now reads [d_r * e_r | R_r], so row r of a^-1 b is R_r / d_r,
    # times D_a / D_b for the stored denominators.
    pivots = [m[r][r][0] for r in range(n)]
    den = lcm(*pivots)
    out = []
    for r, row in enumerate(m):
        f = den // pivots[r] * a._den
        out.append(tuple([(c, tuple([f * v for v in x]))
                          for c, x in enumerate(row[n:]) if any(x)]))
    return ExactMatrix._reduced(n, b.ncols, den * b._den, tuple(out))


def inverse(a: ExactMatrix) -> ExactMatrix:
    """Exact inverse over the full (possibly quaternionic) scalar tower:
    ``solve(a, I)``."""
    return solve(a, ExactMatrix.identity(a.nrows))


def congruence_signature(s: ExactMatrix) -> Tuple[int, int]:
    """Signature (p, q) of a nondegenerate self-adjoint form.

    Accepts real symmetric or quaternion-Hermitian matrices (conjugate
    transpose equal to the matrix itself) and diagonalizes by simultaneous
    row/column operations on the integer numerators.  A pivot ``d`` lies
    in Z[sqrt2]; clearing entry ``c`` of its row scales the other row and
    column by the int ``delta = d * d~`` (``d~`` flips the sign of the
    sqrt2 part) instead of dividing by ``d``, which is again a congruence.
    Dividing the remaining block by a positive gcd keeps the signature.
    Raises :class:`DegenerateFormError` when the form is singular.
    """
    if not s.is_square():
        raise ValueError("signature of a non-square matrix")
    n = s.nrows
    if conj_transpose(s) != s:
        raise ValueError("signature needs a self-adjoint matrix")
    m = _dense(s, n)

    def swap(i: int, j: int) -> None:
        m[i], m[j] = m[j], m[i]
        for row in m:
            row[i], row[j] = row[j], row[i]

    def combine(scale: int, x: tuple, y: tuple) -> tuple:
        return tuple([scale * u + v for u, v in zip(x, y)])

    pos = neg = 0
    for k in range(n):
        if not any(m[k][k]):
            found = next((t for t in range(k + 1, n) if any(m[t][t])), None)
            if found is not None:
                swap(k, found)
            else:
                # Entire remaining diagonal is zero; create a pivot from an
                # off-diagonal entry q via a rank-two congruence update.
                spot = next(((i, j) for i in range(k, n) for j in range(i + 1, n)
                             if any(m[i][j])), None)
                if spot is None:
                    raise DegenerateFormError("form is degenerate")
                i, j = spot
                if i != k:
                    swap(i, k)
                    j = i if j == k else j
                alpha = _conj_nums(m[k][j])
                for x in range(k, n):
                    m[x][k] = combine(1, m[x][k], _mul_nums(m[x][j], alpha))
                ac = _conj_nums(alpha)
                for y in range(k, n):
                    m[k][y] = combine(1, m[k][y], _mul_nums(ac, m[j][y]))
        d = m[k][k]
        if not any(d):
            raise DegenerateFormError("form is degenerate")
        if real_sign(d[0], d[4]) > 0:
            pos += 1
        else:
            neg += 1
        d_tilde = (d[0], 0, 0, 0, -d[4], 0, 0, 0)
        delta = d[0] * d[0] - 2 * d[4] * d[4]
        for t in range(k + 1, n):
            c = m[k][t]
            if not any(c):
                continue
            # Column t becomes delta * col_t - col_k * (d~ c), then row t
            # becomes delta * row_t - (conj(c) d~) * row_k.
            f = tuple([-v for v in _mul_nums(d_tilde, c)])
            for x in range(k, n):
                m[x][t] = combine(delta, m[x][t], _mul_nums(m[x][k], f))
            fc = tuple([-v for v in _mul_nums(_conj_nums(c), d_tilde)])
            for y in range(k, n):
                m[t][y] = combine(delta, m[t][y], _mul_nums(fc, m[k][y]))
        g = 0
        for row in m[k + 1:]:
            for x in row[k + 1:]:
                g = gcd(g, *x)
        if g > 1:
            for row in m[k + 1:]:
                row[k + 1:] = [tuple([v // g for v in x]) for x in row[k + 1:]]
    return pos, neg


# -- quaternionic norm ------------------------------------------------------

def reduced_norm(a: ExactMatrix) -> Scalar:
    """Determinant of the complex image of a quaternion matrix (real valued)."""
    return _to_scalar(*_reduced_norm_nums(a))


def _reduced_norm_nums(a: ExactMatrix) -> Tuple[tuple, int]:
    """:func:`reduced_norm` as ``(numerators, denominator)``."""
    if not a.is_square():
        raise ValueError("reduced norm of a non-square matrix")
    nums, den = _det_nums(quaternion_to_complex_blocks(a))
    if nums[1] or nums[2] or nums[3] or nums[5] or nums[6] or nums[7]:
        raise ValueError("reduced norm came out non-real")
    return nums, den
