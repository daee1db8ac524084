"""Exact centralizer dimensions and their closed-form cross-checks.

The solver realifies the linear conditions cutting a subspace out of the
ambient algebra and computes its dimension over the rationals.  Unknowns
are the real components of the matrix entries.  Assembly visits only the
nonzero entries of X, Y and the Gram matrix, and the scattered Gram
products are built once per triple and shared by its solves.

The reported dimensions come from the ad(H)-grading g = ⊕ g_k: by
sl2-theory dim z(X) = dim g_0 + dim g_1 and dim z(X,H,Y) = dim g_0 -
dim g_2, where each dim g_k is a small solve over the entries of weight
difference k, with no commutation rows.  The direct solves
``centralizer_dim_triple`` and ``centralizer_dim_nilpotent`` stay as
independent references; ``verify`` checks the direct triple solve and
the grading against each other and against the closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Dict, List, Optional, Tuple

from .catalog import AlgebraSpec, Datum, datum_partition
from .matrices import ExactMatrix
from .scalars import Scalar
from .triples import (FORM_KIND, RING_DIM, SCALAR_RING, Triple, build_triple,
                      gram_matrix, layout_for)

_UNITS = (
    Scalar.unit("1"),
    Scalar.unit("i"),
    Scalar.unit("j"),
    Scalar.unit("k"),
)


def dim_g(a: AlgebraSpec) -> int:
    """Real dimension of the ambient simple algebra."""
    n = a.n if a.n is not None else a.p + a.q
    return {
        "sl_r": n * n - 1,
        "sl_c": 2 * (n * n - 1),
        "sl_h": 4 * n * n - 1,
        "so_c": n * (n - 1),
        "so_pq": n * (n - 1) // 2,
        "sp_c": 2 * n * (2 * n + 1),
        "sp_pq": n * (2 * n + 1),
        "so_star": n * (2 * n - 1),
    }[a.family]


def expected_reductive_dim(a: AlgebraSpec, datum: Datum) -> int:
    """Real dimension of the reductive centralizer, in closed form."""
    part = datum_partition(datum)
    odd = [(d, t) for d, t in part.pairs if d % 2 == 1]
    even = [(d, t) for d, t in part.pairs if d % 2 == 0]
    fam = a.family
    if fam == "sl_c":
        return 2 * sum(t * t for _, t in part.pairs) - 2
    if fam == "sl_r":
        return sum(t * t for _, t in part.pairs) - 1
    if fam == "sl_h":
        return 4 * sum(t * t for _, t in part.pairs) - 1
    if fam == "so_c":
        return sum(t * (t - 1) for _, t in odd) + sum(t * (t + 1) for _, t in even)
    if fam == "so_pq":
        return (sum(t * (t - 1) // 2 for _, t in odd)
                + sum(t * (t + 1) // 2 for _, t in even))
    if fam == "sp_c":
        return sum(t * (t - 1) for _, t in even) + sum(t * (t + 1) for _, t in odd)
    if fam == "sp_pq":
        return (sum(t * (2 * t - 1) for _, t in even)
                + sum(t * (2 * t + 1) for _, t in odd))
    if fam == "so_star":
        return (sum(t * (2 * t - 1) for _, t in odd)
                + sum(t * (2 * t + 1) for _, t in even))
    raise ValueError(fam)


def expected_orbit_dim(a: AlgebraSpec, datum: Datum) -> int:
    """Real dimension of the orbit, in closed form over the dual partition.

    Uses Collingwood–McGovern, Cor. 6.1.4, on the complexified orbit: a
    real form's orbit has that complex dimension, and the complex families
    double it.  ``sl_h``, ``sp_pq`` and ``so_star`` complexify to a
    partition with every part repeated twice.
    """
    fam = a.family
    pairs = datum_partition(datum).pairs
    if fam in ("sl_h", "sp_pq", "so_star"):
        pairs = tuple((d, 2 * t) for d, t in pairs)
    n = sum(d * t for d, t in pairs)
    largest = max((d for d, _ in pairs), default=0)
    dual_squares = sum(sum(t for d, t in pairs if d >= i) ** 2
                       for i in range(1, largest + 1))
    odd = sum(t for d, t in pairs if d % 2 == 1)
    if fam in ("sl_r", "sl_c", "sl_h"):
        dim = n * n - dual_squares
    elif fam in ("so_c", "so_pq", "so_star"):
        dim = (n * (n - 1) - dual_squares + odd) // 2
    else:
        dim = (n * (n + 1) - dual_squares - odd) // 2
    return 2 * dim if fam in ("sl_c", "so_c", "sp_c") else dim


def expected_compact_dim(a: AlgebraSpec, datum: Datum) -> int:
    """Real dimension of the maximal compact subgroup K, in closed form."""
    part = datum_partition(datum)
    fam = a.family
    if fam == "sl_c":
        return sum(t * t for _, t in part.pairs) - 1
    if fam == "sl_r":
        return sum(t * (t - 1) // 2 for _, t in part.pairs)
    if fam == "sl_h":
        return sum(t * (2 * t + 1) for _, t in part.pairs)
    odd = [(d, t) for d, t in part.pairs if d % 2 == 1]
    even = [(d, t) for d, t in part.pairs if d % 2 == 0]
    if fam == "so_c":
        return (sum((t // 2) * (t + 1) for _, t in even)
                + sum(t * (t - 1) // 2 for _, t in odd))
    if fam == "so_pq":
        total = sum((t // 2) ** 2 for _, t in even)
        for d, _ in odd:
            p, q = datum.p_of(d), datum.q_of(d)
            total += (p * (p - 1) + q * (q - 1)) // 2
        return total
    if fam == "sp_c":
        return (sum(t * (t - 1) // 2 for _, t in even)
                + sum((t // 2) * (t + 1) for _, t in odd))
    if fam == "sp_pq":
        total = sum(t * t for _, t in even)
        for d, _ in odd:
            p, q = datum.p_of(d), datum.q_of(d)
            total += p * (2 * p + 1) + q * (2 * q + 1)
        return total
    raise ValueError(f"no compact closed form for {fam}")


# ---------------------------------------------------------------------------
# Kernel solver
# ---------------------------------------------------------------------------

def _nullity(rows: List[Dict[int, Fraction]], num_unknowns: int) -> int:
    """Kernel dimension of a sparse rational system via incremental echelon."""
    pivots: Dict[int, Dict[int, Fraction]] = {}
    rank = 0
    for row in rows:
        r = dict(row)
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


def _scatter(scalar: Scalar, comps: int) -> List[Tuple[int, Fraction]]:
    out = []
    for c, v in enumerate(scalar.components):
        if v:
            if c >= comps:
                raise AssertionError("constraint coefficient outside the scalar ring")
            out.append((c, v))
    return out


#: Per-row (or per-column) lists of ``(column (or row), value)`` pairs.
_Lines = List[List[Tuple[int, Any]]]


def _nonzeros(m: ExactMatrix, value: Callable[[Scalar], Any]) -> Tuple[_Lines, _Lines]:
    """Row and column lists of ``(index, value(entry))`` over the nonzeros of ``m``.

    Row lists ascend by column and column lists by row, the order of a
    dense scan.
    """
    by_row: _Lines = [[(c, value(x)) for c, x in row] for row in m.nonzeros()]
    by_col: _Lines = [[] for _ in range(m.ncols)]
    for r, row in enumerate(by_row):
        for c, v in row:
            by_col[c].append((r, v))
    return by_row, by_col


class AlgebraConstraint:
    """The real linear conditions that cut the algebra out of gl_n over its ring.

    They are ``Z^sigma G + G Z = 0`` for a form family with Gram matrix
    ``G``, and trace zero otherwise.  Unknowns are the real components of
    the entries of ``Z``.  Every condition of a complex family is
    complex-linear, so its solves run on one real component and double the
    nullity.  The scattered Gram products of an unknown depend on its row
    and component but not on its column; they are built for a row on first
    use and kept, so every solve over one Gram matrix shares them.
    """

    def __init__(self, a: AlgebraSpec, gram: Optional[ExactMatrix]):
        ring = SCALAR_RING[a.family]
        self.family = a.family
        self.gram = gram
        self._ring_dim = RING_DIM[ring]
        self.comps, self.doubling = (1, 2) if ring == "complex" else (self._ring_dim, 1)
        self._terms: Dict[Tuple[int, int], Tuple[list, list]] = {}
        if gram is not None:
            _, sigma = FORM_KIND[a.family]
            self._left_units = [u.conjugate() if sigma == "conj" else u
                                for u in _UNITS[:self.comps]]
            self._by_row, self._by_col = _nonzeros(gram, lambda x: x)

    def form_terms(self, ra: int, c: int) -> Tuple[list, list]:
        """Scattered ``Z^sigma G`` and ``G Z`` terms of component ``c`` of row ``ra``.

        Each is a list of ``(row or column of the condition, [(component,
        coefficient), ...])``.
        """
        terms = self._terms.get((ra, c))
        if terms is None:
            left, unit = self._left_units[c], _UNITS[c]
            terms = self._terms[ra, c] = (
                [(s, _scatter(left * sv, self._ring_dim)) for s, sv in self._by_row[ra]],
                [(r, _scatter(sv * unit, self._ring_dim)) for r, sv in self._by_col[ra]])
        return terms


def _centralizer_nullity(constraint: AlgebraConstraint,
                         commute_with: List[ExactMatrix],
                         positions: List[Tuple[int, int]]) -> int:
    """Real dimension of {Z in the algebra : [Z, M] = 0 for every listed M},
    over the Z whose nonzero entries lie in ``positions``."""
    comps = constraint.comps
    index: Dict[Tuple[int, int, int], int] = {}
    for (r, s) in positions:
        for c in range(comps):
            index[(r, s, c)] = len(index)

    rows: Dict[Tuple, Dict[int, Fraction]] = {}

    def add(key: Tuple, unknown: Tuple[int, int, int], coeff: Fraction) -> None:
        if coeff:
            row = rows.setdefault(key, {})
            idx = index[unknown]
            val = row.get(idx)
            val = coeff if val is None else val + coeff
            if val:
                row[idx] = val
            else:
                row.pop(idx, None)

    # Commutation rows stay inside one real component because the fixed
    # matrices are rational.
    for mi, m in enumerate(commute_with):
        by_row, by_col = _nonzeros(m, Scalar.rational_value)
        for (ra, rb) in positions:
            for s, q in by_row[rb]:
                for c in range(comps):
                    add(("c", mi, ra, s, c), (ra, rb, c), q)
            for r, q in by_col[ra]:
                for c in range(comps):
                    add(("c", mi, r, rb, c), (ra, rb, c), -q)

    if constraint.gram is not None:
        for (ra, rb) in positions:
            for c in range(comps):
                left_terms, right_terms = constraint.form_terms(ra, c)
                for s, terms in left_terms:
                    for cc, coeff in terms:
                        add(("m", rb, s, cc), (ra, rb, c), coeff)
                for r, terms in right_terms:
                    for cc, coeff in terms:
                        add(("m", r, rb, cc), (ra, rb, c), coeff)
    elif constraint.family in ("sl_r", "sl_c"):
        for c in range(comps):
            row_key = ("t", c)
            for (ra, rb) in positions:
                if ra == rb:
                    add(row_key, (ra, rb, c), Fraction(1))
    elif constraint.family == "sl_h":
        for (ra, rb) in positions:
            if ra == rb:
                add(("t", 0), (ra, rb, 0), Fraction(2))

    return constraint.doubling * _nullity(list(rows.values()), len(index))


def _grade_positions(t: Triple, k: int) -> List[Tuple[int, int]]:
    """The entries of ad(H)-eigenvalue ``k``: ``weights[r] - weights[s] == k``."""
    weights = layout_for(t.partition).weights()
    n = len(weights)
    return [(r, s) for r in range(n) for s in range(n)
            if weights[r] - weights[s] == k]


def graded_dims(t: Triple, a: AlgebraSpec,
                constraint: Optional[AlgebraConstraint] = None) -> Tuple[int, int, int]:
    """Real dimensions of g_0, g_1 and g_2, the ad(H)-eigenspaces of the algebra.

    By sl2-theory (Collingwood–McGovern, ch. 3) the centralizer of X has
    dimension dim g_0 + dim g_1 and that of the triple dim g_0 - dim g_2.
    The form and trace conditions never mix grades, so each grade is its
    own solve, with no commutation rows.  ``constraint`` is the algebra's
    constraint over ``t.gram``, built here when not given.
    """
    if constraint is None:
        constraint = AlgebraConstraint(a, t.gram)
    g0, g1, g2 = (_centralizer_nullity(constraint, [], _grade_positions(t, k))
                  for k in (0, 1, 2))
    return g0, g1, g2


def centralizer_dim_triple(t: Triple, a: AlgebraSpec,
                           datum: Optional[Datum] = None,
                           constraint: Optional[AlgebraConstraint] = None) -> int:
    """Real dimension of the simultaneous centralizer of X, H, Y in the algebra.

    This is the direct solve: commutation with X and Y over the entries
    that commute with H.  ``constraint`` is as in :func:`graded_dims`.
    """
    if constraint is None:
        constraint = AlgebraConstraint(a, t.gram)
    return _centralizer_nullity(constraint, [t.X, t.Y], _grade_positions(t, 0))


def centralizer_dim_nilpotent(x: ExactMatrix, a: AlgebraSpec,
                              datum: Optional[Datum] = None) -> int:
    """Real dimension of the centralizer of the nilpotent element alone.

    This is the direct solve over all n² entries.  ``x`` must be given in
    the triple basis of ``datum`` for the form families, where the
    invariant form's Gram matrix is needed.
    """
    gram = None
    if a.family in FORM_KIND:
        if datum is None:
            raise ValueError("form families need the datum to pin the Gram matrix")
        gram = gram_matrix(a, datum)
    n = x.nrows
    positions = [(r, s) for r in range(n) for s in range(n)]
    return _centralizer_nullity(AlgebraConstraint(a, gram), [x], positions)


def orbit_dim(a: AlgebraSpec, datum: Datum) -> int:
    """Real dimension of the adjoint orbit through the datum's representative."""
    part = datum_partition(datum)
    if part.is_zero_type():
        return 0
    g0, g1, _ = graded_dims(build_triple(a, datum), a)
    return dim_g(a) - g0 - g1


@dataclass(frozen=True)
class CentralizerReport:
    """Solved and closed-form centralizer dimensions for one orbit."""

    dim_z_triple: int
    dim_z_X: int
    dim_g: int
    dim_orbit: int
    expected_reductive: int
    expected_compact: Optional[int]
    match: bool

    def to_json(self) -> dict:
        return {
            "dim_z_triple": self.dim_z_triple,
            "dim_z_X": self.dim_z_X,
            "dim_g": self.dim_g,
            "dim_orbit": self.dim_orbit,
            "expected_reductive": self.expected_reductive,
            "expected_compact": self.expected_compact,
            "match": self.match,
        }


def centralizer_report(a: AlgebraSpec, datum: Datum,
                       triple: Optional[Triple] = None) -> CentralizerReport:
    """Solved and closed-form centralizer dimensions of the datum's orbit.

    ``triple`` is the datum's standard triple, built here when not given
    (the zero orbit has none).
    """
    if triple is None and not datum_partition(datum).is_zero_type():
        triple = build_triple(a, datum)
    ambient = dim_g(a)
    expected = expected_reductive_dim(a, datum)
    try:
        compact = expected_compact_dim(a, datum)
    except ValueError:
        compact = None
    if triple is None:
        return CentralizerReport(
            dim_z_triple=ambient, dim_z_X=ambient, dim_g=ambient, dim_orbit=0,
            expected_reductive=expected, expected_compact=compact,
            match=ambient == expected)
    g0, g1, g2 = graded_dims(triple, a)
    dz_triple, dz_x = g0 - g2, g0 + g1
    return CentralizerReport(
        dim_z_triple=dz_triple, dim_z_X=dz_x, dim_g=ambient,
        dim_orbit=ambient - dz_x, expected_reductive=expected,
        expected_compact=compact, match=dz_triple == expected)
