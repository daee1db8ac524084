"""Construction of standard triples, invariant forms, and adapted bases.

For a nonzero orbit datum this module builds exact matrices ``X, H, Y``
with ``[H,X] = 2X``, ``[H,Y] = -2Y``, ``[X,Y] = H``, the Gram matrix of the
family's invariant form in the same ordered basis, and the change of basis
``T`` whose columns express the family's compact-adapted basis vectors.

Basis layout: part sizes descend; within one part of size ``d`` and
multiplicity ``t``, the basis lists ``X^l v_j`` with ``l`` descending from
``d-1`` to ``0`` and ``j`` running 1..t inside each level, so the highest
weight vectors come first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .catalog import AlgebraSpec, Datum, datum_partition
from .matrices import ExactMatrix, conj_transpose, rank
from .partitions import Partition
from .scalars import (HALF_SQRT2, I_HALF_SQRT2, I_UNIT, J_HALF_SQRT2, J_UNIT,
                      MINUS_ONE, ONE, Scalar)

#: (epsilon, sigma) of the invariant form; sigma "conj" negates i, j, k.
FORM_KIND = {
    "so_c": (1, "id"),
    "so_pq": (1, "id"),
    "sp_c": (-1, "id"),
    "sp_pq": (1, "conj"),
    "so_star": (-1, "conj"),
}

#: Scalar ring of each family's matrices.
SCALAR_RING = {
    "sl_r": "real",
    "sl_c": "complex",
    "sl_h": "quaternion",
    "so_c": "complex",
    "so_pq": "real",
    "sp_c": "complex",
    "sp_pq": "quaternion",
    "so_star": "quaternion",
}

#: Real dimension of the scalar ring.
RING_DIM = {"real": 1, "complex": 2, "quaternion": 4}


class ZeroOrbitError(ValueError):
    """Raised when a construction needs a nonzero nilpotent representative."""


@dataclass(frozen=True)
class BasisLayout:
    """Slot bookkeeping for the ordered basis of one partition."""

    pairs: Tuple[Tuple[int, int], ...]  # (d, t) descending
    dim: int
    offsets: Tuple[Tuple[int, int], ...]  # (d, offset of the part block)

    def slot(self, d: int, l: int, j: int) -> int:
        """Row index of ``X^l v_j`` inside the part of size ``d`` (j is 1-based)."""
        for dd, off in self.offsets:
            if dd == d:
                t = self.multiplicity(d)
                if not (0 <= l < d and 1 <= j <= t):
                    raise IndexError("slot out of range")
                return off + (d - 1 - l) * t + (j - 1)
        raise KeyError(d)

    def multiplicity(self, d: int) -> int:
        for dd, t in self.pairs:
            if dd == d:
                return t
        raise KeyError(d)

    def labels(self) -> List[str]:
        out = []
        for d, t in self.pairs:
            for l in range(d - 1, -1, -1):
                for j in range(1, t + 1):
                    out.append(f"X^{l}.v[{d}][{j}]")
        return out

    def weights(self) -> List[int]:
        """The H-eigenvalue of each slot (``1 - d + 2l`` at ``X^l v_j``)."""
        out = []
        for d, t in self.pairs:
            for l in range(d - 1, -1, -1):
                out.extend([1 - d + 2 * l] * t)
        return out


def layout_for(partition: Partition) -> BasisLayout:
    offs = []
    off = 0
    for d, t in partition.pairs:
        offs.append((d, off))
        off += d * t
    return BasisLayout(pairs=partition.pairs, dim=off, offsets=tuple(offs))


@dataclass(frozen=True)
class Triple:
    """A standard triple with its invariant form data."""

    family: str
    partition: Partition
    X: ExactMatrix
    H: ExactMatrix
    Y: ExactMatrix
    gram: Optional[ExactMatrix]
    epsilon: Optional[int]
    sigma: Optional[str]
    layout: BasisLayout

    def basis_layout(self) -> List[str]:
        return self.layout.labels()

    def to_json(self) -> dict:
        data = {
            "family": self.family,
            "partition": self.partition.to_json(),
            "X": self.X.to_json(),
            "H": self.H.to_json(),
            "Y": self.Y.to_json(),
            "basis_layout": self.basis_layout(),
        }
        if self.gram is not None:
            data["gram"] = self.gram.to_json()
            data["form"] = {"epsilon": self.epsilon, "sigma": self.sigma}
        return data


def triple_partition(a: AlgebraSpec, datum: Datum) -> Partition:
    """The partition of a datum whose standard triple lives in ``a``.

    Raises :class:`ZeroOrbitError` for the zero orbit and ``ValueError``
    when the datum's size is not the algebra's.
    """
    part = datum_partition(datum)
    if part.is_zero_type():
        raise ZeroOrbitError("the zero orbit has no standard triple")
    if part.size() != a.size:
        raise ValueError(f"datum size {part.size()} does not match {a}")
    return part


def sigma_transpose(m: ExactMatrix, sigma: str) -> ExactMatrix:
    return conj_transpose(m) if sigma == "conj" else m.transpose()


def nilpotent_matrix(partition: Partition) -> ExactMatrix:
    """The block matrix sending ``X^l v_j`` to ``X^{l+1} v_j``."""
    lay = layout_for(partition)
    return ExactMatrix.from_entries(lay.dim, lay.dim, {
        (lay.slot(d, l + 1, j), lay.slot(d, l, j)): ONE
        for d, t in partition.pairs for l in range(d - 1) for j in range(1, t + 1)})


def semisimple_matrix(partition: Partition) -> ExactMatrix:
    lay = layout_for(partition)
    return ExactMatrix.diagonal([Scalar.rational(w) for w in lay.weights()])


def lowering_matrix(partition: Partition) -> ExactMatrix:
    """The block matrix sending ``X^l v_j`` to ``l(d-l) X^{l-1} v_j``."""
    lay = layout_for(partition)
    return ExactMatrix.from_entries(lay.dim, lay.dim, {
        (lay.slot(d, l - 1, j), lay.slot(d, l, j)): l * (d - l)
        for d, t in partition.pairs for l in range(1, d) for j in range(1, t + 1)})


def _split_alternating(size: int) -> ExactMatrix:
    """The alternating block ``[[0, I], [-I, 0]]`` of even ``size``."""
    if size % 2:
        raise ValueError("alternating block needs even multiplicity")
    half = size // 2
    entries = {}
    for i in range(half):
        entries[i, half + i] = ONE
        entries[half + i, i] = MINUS_ONE
    return ExactMatrix.from_entries(size, size, entries)


def lowest_weight_form(a: AlgebraSpec, datum: Datum, d: int) -> ExactMatrix:
    """Form values on the lowest-weight generators of the size-``d`` part.

    The symmetry type is forced by the family and the parity of ``d``:
    identity or ``diag(+-1)`` blocks for the self-adjoint case, a split
    alternating block for the skew case, and ``j``-diagonal for the
    quaternionic skew-adjoint case.
    """
    part = datum_partition(datum)
    t = part.multiplicity(d)
    fam = a.family
    odd = d % 2 == 1

    def signed_diag(size: int, plus: int) -> ExactMatrix:
        return ExactMatrix.diagonal([ONE] * plus + [MINUS_ONE] * (size - plus))

    if fam == "so_c":
        return ExactMatrix.identity(t) if odd else _split_alternating(t)
    if fam == "so_pq":
        if odd:
            return signed_diag(t, datum.p_of(d))
        return _split_alternating(t)
    if fam == "sp_c":
        return _split_alternating(t) if odd else ExactMatrix.identity(t)
    if fam == "sp_pq":
        if odd:
            return signed_diag(t, datum.p_of(d))
        return ExactMatrix.diagonal([J_UNIT] * t)
    if fam == "so_star":
        if odd:
            return ExactMatrix.diagonal([J_UNIT] * t)
        return signed_diag(t, datum.p_of(d))
    raise ValueError(f"{fam} carries no invariant form")


def gram_matrix(a: AlgebraSpec, datum: Datum) -> ExactMatrix:
    """Gram matrix of the invariant form in the triple's ordered basis.

    Within one part, ``<X^l v_i, X^m v_j>`` vanishes unless ``l + m = d-1``
    and otherwise equals ``(-1)^l`` times the lowest-weight form value;
    distinct parts are orthogonal.
    """
    if a.family not in FORM_KIND:
        raise ValueError(f"{a.family} carries no invariant form")
    part = datum_partition(datum)
    lay = layout_for(part)
    entries = {}
    for d, _ in part.pairs:
        base = lowest_weight_form(a, datum, d).nonzeros()
        for l in range(d):
            for i, row in enumerate(base, 1):
                for j, val in row:
                    entries[lay.slot(d, l, i), lay.slot(d, d - 1 - l, j + 1)] = (
                        val if l % 2 == 0 else -val)
    return ExactMatrix.from_entries(lay.dim, lay.dim, entries)


def build_triple(a: AlgebraSpec, datum: Datum) -> Triple:
    part = triple_partition(a, datum)
    gram = epsilon = sigma = None
    if a.family in FORM_KIND:
        epsilon, sigma = FORM_KIND[a.family]
        gram = gram_matrix(a, datum)
    return Triple(
        family=a.family,
        partition=part,
        X=nilpotent_matrix(part),
        H=semisimple_matrix(part),
        Y=lowering_matrix(part),
        gram=gram,
        epsilon=epsilon,
        sigma=sigma,
        layout=layout_for(part),
    )


def jordan_type(x: ExactMatrix) -> Partition:
    """Jordan block sizes of a nilpotent matrix with rational entries."""
    n = x.nrows
    ranks = [n]
    power = ExactMatrix.identity(n)
    k = 0
    while ranks[-1] > 0:
        power = power @ x
        ranks.append(rank(power))
        k += 1
        if k > n:
            raise ValueError("matrix is not nilpotent")
    parts: List[int] = []
    blocks_ge = [ranks[k - 1] - ranks[k] for k in range(1, len(ranks))]
    blocks_ge.append(0)
    for d in range(1, len(blocks_ge)):
        count = blocks_ge[d - 1] - blocks_ge[d]
        parts.extend([d] * count)
    return Partition(parts)


# ---------------------------------------------------------------------------
# Adapted bases
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BlockSpec:
    """One diagonal block of the compact group in the adapted basis.

    ``factor`` names which group factor acts there: ("even", d),
    ("odd", d), ("odd_p", d), ("odd_q", d), or ("part", d) for the
    form-free families.  ``size`` counts basis columns of the block.
    """

    factor: Tuple[str, int]
    size: int


@dataclass(frozen=True)
class AdaptedBasis:
    """Change of basis to the compact-adapted ordering.

    ``matrix`` holds the adapted vectors as columns over the triple basis.
    ``plus_blocks``/``minus_blocks`` describe the diagonal block structure
    of embedded compact elements on the two halves (families without a
    two-sided split keep everything in ``plus_blocks``).
    """

    matrix: ExactMatrix
    plus_blocks: Tuple[BlockSpec, ...]
    minus_blocks: Tuple[BlockSpec, ...]
    has_sides: bool


def _odd_level_takes_plus_rows(d: int, l: int) -> bool:
    """Whether level ``l`` of an odd part carries the +1-row factor.

    Levels below the middle take it at even ``l``, the middle level takes
    it when the middle index is even, and levels above the middle take it
    at odd ``l``.
    """
    mid = (d - 1) // 2
    if l < mid:
        return l % 2 == 0
    if l == mid:
        return mid % 2 == 0
    return l % 2 == 1


def _odd_real_column(lay: BasisLayout, d: int, l: int, j: int) -> Dict[int, Scalar]:
    """Real two-term column used by the odd parts of the signed families."""
    mid = (d - 1) // 2
    if l < mid:
        return {lay.slot(d, l, j): HALF_SQRT2, lay.slot(d, d - 1 - l, j): HALF_SQRT2}
    if l == mid:
        return {lay.slot(d, mid, j): ONE}
    return {lay.slot(d, d - 1 - l, j): HALF_SQRT2, lay.slot(d, l, j): -HALF_SQRT2}


def _add_signed_odd_parts(datum: Datum, lay: BasisLayout, odds: Sequence[int],
                          plus: Tuple[list, list], minus: Tuple[list, list]) -> None:
    """Append the odd parts' columns and blocks of so_pq or sp_pq to each half.

    ``plus`` and ``minus`` are the (columns, blocks) lists of the two halves.
    Parts ``1 mod 4`` come before parts ``3 mod 4``.  At each level the
    columns of the ``p_d`` rows starting with +1 form an ``odd_p`` block and
    the rest an ``odd_q`` block; :func:`_odd_level_takes_plus_rows` says
    whether the ``odd_p`` block goes to the plus half.
    """
    for d in [x for x in odds if x % 4 == 1] + [x for x in odds if x % 4 == 3]:
        t = lay.multiplicity(d)
        p = datum.p_of(d)
        for l in range(d):
            cols = [_odd_real_column(lay, d, l, j) for j in range(1, t + 1)]
            p_side, q_side = ((plus, minus) if _odd_level_takes_plus_rows(d, l)
                              else (minus, plus))
            p_side[0].extend(cols[:p])
            p_side[1].append(BlockSpec(("odd_p", d), p))
            q_side[0].extend(cols[p:])
            q_side[1].append(BlockSpec(("odd_q", d), t - p))


def _even_quarter_column(lay: BasisLayout, d: int, l: int, j: int, t: int,
                         complex_quarters: bool) -> Dict[int, Scalar]:
    """Column ``j`` (1..2t) of the paired-level block of an even part.

    Used by the complex and real orthogonal families, whose even parts mix
    levels ``l`` and ``d-1-l`` through the split alternating form.  With
    ``complex_quarters`` the second half of the columns carries ``i``
    coefficients.
    """
    t2 = t // 2
    s = ONE if l % 2 == 0 else MINUS_ONE
    lo, hi = l, d - 1 - l
    if complex_quarters:
        first, second = HALF_SQRT2, I_HALF_SQRT2
    else:
        first, second = HALF_SQRT2, HALF_SQRT2
    if j <= t2:
        return {lay.slot(d, lo, j): first,
                lay.slot(d, hi, t2 + j): s * first}
    if j <= t:
        return {lay.slot(d, lo, j): first,
                lay.slot(d, hi, j - t2): -(s * first)}
    if j <= t + t2:
        return {lay.slot(d, lo, j - t): second,
                lay.slot(d, hi, j - t2): -(s * second)}
    return {lay.slot(d, lo, j - t): second,
            lay.slot(d, hi, j - 3 * t2): s * second}


def adapted_basis(a: AlgebraSpec, datum: Datum) -> AdaptedBasis:
    """Adapted basis and block structure for a form family.

    Defined for every datum including the zero orbit, where the adapted
    basis is a signed permutation of the original one.
    """
    fam = a.family
    if fam not in ("so_c", "so_pq", "sp_c", "sp_pq"):
        raise ValueError(f"no adapted basis construction for {fam}")
    part = datum_partition(datum)
    lay = layout_for(part)
    evens = sorted(d for d, _ in part.pairs if d % 2 == 0)
    odds = sorted(d for d, _ in part.pairs if d % 2 == 1)

    columns: List[Dict[int, Scalar]] = []
    plus_blocks: List[BlockSpec] = []
    minus_blocks: List[BlockSpec] = []

    if fam == "so_c":
        for d in evens:
            t = part.multiplicity(d)
            for l in range(d // 2):
                for j in range(1, 2 * t + 1):
                    columns.append(_even_quarter_column(lay, d, l, j, t, True))
                plus_blocks.append(BlockSpec(("even", d), 2 * t))
        for d in odds:
            t = part.multiplicity(d)
            mid = (d - 1) // 2
            for l in range(d):
                for j in range(1, t + 1):
                    if l < mid:
                        coeff = HALF_SQRT2 if l % 2 == 0 else I_HALF_SQRT2
                        columns.append({lay.slot(d, l, j): coeff,
                                        lay.slot(d, d - 1 - l, j): coeff})
                    elif l == mid:
                        coeff = ONE if mid % 2 == 0 else I_UNIT
                        columns.append({lay.slot(d, mid, j): coeff})
                    else:
                        coeff = I_HALF_SQRT2 if l % 2 == 0 else HALF_SQRT2
                        columns.append({lay.slot(d, d - 1 - l, j): coeff,
                                        lay.slot(d, l, j): -coeff})
                plus_blocks.append(BlockSpec(("odd", d), t))
        matrix = _columns_to_matrix(columns, lay.dim)
        return AdaptedBasis(matrix, tuple(plus_blocks), (), has_sides=False)

    if fam == "so_pq":
        plus_cols: List[Dict[int, Scalar]] = []
        minus_cols: List[Dict[int, Scalar]] = []
        for d in evens:
            t = part.multiplicity(d)
            for l in range(d // 2):
                for j in range(1, t + 1):
                    plus_cols.append(_even_quarter_column(lay, d, l, j, t, False))
                for j in range(t + 1, 2 * t + 1):
                    minus_cols.append(_even_quarter_column(lay, d, l, j, t, False))
                plus_blocks.append(BlockSpec(("even", d), t))
                minus_blocks.append(BlockSpec(("even", d), t))
        _add_signed_odd_parts(datum, lay, odds, (plus_cols, plus_blocks),
                              (minus_cols, minus_blocks))
        matrix = _columns_to_matrix(plus_cols + minus_cols, lay.dim)
        return AdaptedBasis(matrix, tuple(plus_blocks), tuple(minus_blocks),
                            has_sides=True)

    if fam == "sp_c":
        plus_cols = []
        minus_cols = []
        for d in evens:
            t = part.multiplicity(d)
            for l in range(d // 2):
                lo, hi = l, d - 1 - l
                first, second = (lo, hi) if l % 2 == 0 else (hi, lo)
                for j in range(1, t + 1):
                    plus_cols.append({lay.slot(d, first, j): ONE})
                for j in range(1, t + 1):
                    minus_cols.append({lay.slot(d, second, j): ONE})
                plus_blocks.append(BlockSpec(("even", d), t))
                minus_blocks.append(BlockSpec(("even", d), t))
        for d in odds:
            t = part.multiplicity(d)
            mid = (d - 1) // 2
            for l in range(d):
                cols = []
                for j in range(1, t + 1):
                    if l < mid:
                        coeff = HALF_SQRT2 if l % 2 == 0 else -I_HALF_SQRT2
                        cols.append({lay.slot(d, l, j): coeff,
                                     lay.slot(d, d - 1 - l, j): coeff})
                    elif l == mid:
                        coeff = ONE if d % 4 == 1 else I_UNIT
                        cols.append({lay.slot(d, mid, j): coeff})
                    else:
                        coeff = -I_HALF_SQRT2 if l % 2 == 0 else HALF_SQRT2
                        cols.append({lay.slot(d, d - 1 - l, j): coeff,
                                     lay.slot(d, l, j): -coeff})
                half = t // 2
                plus_cols.extend(cols[:half])
                minus_cols.extend(cols[half:])
                plus_blocks.append(BlockSpec(("odd", d), half))
                minus_blocks.append(BlockSpec(("odd", d), half))
        matrix = _columns_to_matrix(plus_cols + minus_cols, lay.dim)
        return AdaptedBasis(matrix, tuple(plus_blocks), tuple(minus_blocks),
                            has_sides=True)

    # sp_pq
    plus_cols = []
    minus_cols = []
    for d in evens:
        t = part.multiplicity(d)
        plus_levels = [l for l in range(d) if l % 2 == 1]
        minus_levels = [l for l in range(d) if l % 2 == 0]
        for l in plus_levels:
            for j in range(1, t + 1):
                plus_cols.append(_sp_pq_even_column(lay, d, l, j))
            plus_blocks.append(BlockSpec(("even", d), t))
        for l in minus_levels:
            for j in range(1, t + 1):
                minus_cols.append(_sp_pq_even_column(lay, d, l, j))
            minus_blocks.append(BlockSpec(("even", d), t))
    _add_signed_odd_parts(datum, lay, odds, (plus_cols, plus_blocks),
                          (minus_cols, minus_blocks))
    matrix = _columns_to_matrix(plus_cols + minus_cols, lay.dim)
    return AdaptedBasis(matrix, tuple(plus_blocks), tuple(minus_blocks),
                        has_sides=True)


def _sp_pq_even_column(lay: BasisLayout, d: int, l: int, j: int) -> Dict[int, Scalar]:
    if l < d // 2:
        return {lay.slot(d, l, j): HALF_SQRT2,
                lay.slot(d, d - 1 - l, j): J_HALF_SQRT2}
    return {lay.slot(d, d - 1 - l, j): HALF_SQRT2,
            lay.slot(d, l, j): -J_HALF_SQRT2}


def _columns_to_matrix(columns: Sequence[Dict[int, Scalar]], dim: int) -> ExactMatrix:
    if len(columns) != dim:
        raise AssertionError(f"expected {dim} adapted columns, built {len(columns)}")
    return ExactMatrix.from_entries(dim, dim, {
        (r, c): val for c, col in enumerate(columns) for r, val in col.items()})


def adapted_change_of_basis(a: AlgebraSpec, datum: Datum) -> ExactMatrix:
    """The matrix whose columns are the adapted basis vectors."""
    return adapted_basis(a, datum).matrix


def standard_adapted_gram(a: AlgebraSpec, datum: Datum) -> ExactMatrix:
    """What the Gram matrix must become in the adapted basis."""
    part = datum_partition(datum)
    n = part.size()
    if a.family == "so_c":
        return ExactMatrix.identity(n)
    if a.family in ("so_pq", "sp_pq"):
        return ExactMatrix.diagonal([ONE] * a.p + [MINUS_ONE] * a.q)
    if a.family == "sp_c":
        return _split_alternating(n)
    raise ValueError(f"no adapted basis construction for {a.family}")
