"""Construction of standard triples, invariant forms, and adapted bases.

For a nonzero orbit datum this module builds exact matrices ``X, H, Y``
with ``[H,X] = 2X``, ``[H,Y] = -2Y``, ``[X,Y] = H``, the Gram matrix of the
family's invariant form in the same ordered basis, and the change of basis
``T`` whose columns express the family's compact-adapted basis vectors.

Basis layout: part sizes descend; within one part of size ``d`` and
multiplicity ``t``, the basis lists ``X^l v_j`` with ``l`` descending from
``d-1`` to ``0`` and ``j`` running 1..t inside each level, so the highest
weight vectors come first.  Writing ``i = d-1-l`` for the level, the slot
of ``X^l v_j`` is ``offset + i*t + (j-1)``, so each matrix built here is a
block sum over the parts, and a part's block is the Kronecker product of a
``d x d`` level matrix with a ``t x t`` block: ``X``, ``H`` and ``Y`` take
the identity on the right, the Gram matrix the lowest-weight form.  The
part blocks are int-native and kept per ``(d, t)`` (and form), up to 1024
of each kind, so building a triple or a Gram matrix only joins blocks
already built.  The adapted basis is kept whole, per algebra and datum.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .catalog import AlgebraSpec, Datum, datum_partition
from .families import QUATERNION, FamilySpec
from .matrices import ExactMatrix, block_oplus, conj_transpose, kron, rank
from .partitions import Partition
from .scalars import (HALF_SQRT2, I_HALF_SQRT2, I_UNIT, J_HALF_SQRT2, J_UNIT,
                      ONE, Scalar)

class ZeroOrbitError(ValueError):
    """Raised when a construction needs a nonzero nilpotent representative."""


@dataclass(frozen=True)
class BasisLayout:
    """Slot bookkeeping for the ordered basis of one partition."""

    pairs: Tuple[Tuple[int, int], ...]  # (d, t) descending
    dim: int
    # d -> (offset of the part block, t); it follows from ``pairs``.
    parts: Mapping[int, Tuple[int, int]] = field(compare=False)

    def slot(self, d: int, l: int, j: int) -> int:
        """Row index of ``X^l v_j`` inside the part of size ``d`` (j is 1-based)."""
        off, t = self.parts[d]
        if not (0 <= l < d and 1 <= j <= t):
            raise IndexError("slot out of range")
        return off + (d - 1 - l) * t + (j - 1)

    def labels(self) -> List[str]:
        out = []
        for d, t in self.pairs:
            for l in range(d - 1, -1, -1):
                for j in range(1, t + 1):
                    out.append(f"X^{l}.v[{d}][{j}]")
        return out

    def weights(self) -> List[int]:
        """The H-eigenvalue of each slot, the parts' :func:`part_weights` joined."""
        return [w for d, t in self.pairs for w in part_weights(d, t)]


def part_weights(d: int, t: int) -> List[int]:
    """The H-eigenvalue of each slot of one part: ``1 - d + 2l`` at ``X^l v_j``."""
    return [1 - d + 2 * l for l in range(d - 1, -1, -1) for _ in range(t)]


def layout_for(partition: Partition) -> BasisLayout:
    parts = {}
    off = 0
    for d, t in partition.pairs:
        parts[d] = (off, t)
        off += d * t
    return BasisLayout(pairs=partition.pairs, dim=off, parts=parts)


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


@lru_cache(maxsize=1024)
def _triple_block(builder: str, d: int, t: int) -> ExactMatrix:
    """One part's block of ``X``, ``H`` or ``Y``: its level matrix ⊗ ``I_t``.

    On level ``i`` (``X^{d-1-i} v``), ``X`` steps up from level ``i`` to
    ``i-1``, ``H`` has weight ``d-1-2i`` and ``Y`` steps down to ``i+1``
    with coefficient ``(d-1-i)(i+1)``.
    """
    if builder == "X":
        level = {(i - 1, i): 1 for i in range(1, d)}
    elif builder == "H":
        level = {(i, i): d - 1 - 2 * i for i in range(d)}
    else:
        level = {(i + 1, i): (d - 1 - i) * (i + 1) for i in range(d - 1)}
    return kron(ExactMatrix.from_entries(d, d, level), ExactMatrix.identity(t))


def nilpotent_matrix(partition: Partition) -> ExactMatrix:
    """The block matrix sending ``X^l v_j`` to ``X^{l+1} v_j``."""
    return block_oplus([_triple_block("X", d, t) for d, t in partition.pairs])


def semisimple_matrix(partition: Partition) -> ExactMatrix:
    """The diagonal matrix of the slot weights ``1 - d + 2l``."""
    return block_oplus([_triple_block("H", d, t) for d, t in partition.pairs])


def lowering_matrix(partition: Partition) -> ExactMatrix:
    """The block matrix sending ``X^l v_j`` to ``l(d-l) X^{l-1} v_j``."""
    return block_oplus([_triple_block("Y", d, t) for d, t in partition.pairs])


def _split_alternating(size: int) -> ExactMatrix:
    """The alternating block ``[[0, I], [-I, 0]]`` of even ``size``."""
    if size % 2:
        raise ValueError("alternating block needs even multiplicity")
    half = size // 2
    entries = {}
    for i in range(half):
        entries[i, half + i] = 1
        entries[half + i, i] = -1
    return ExactMatrix.from_entries(size, size, entries)


def _form_block(spec: FamilySpec, d: int) -> str:
    """Which form the family puts on the lowest-weight space of a part of length ``d``.

    ``"alternating"`` on the parts that need even multiplicity,
    ``"signed"`` on the rows with a free sign, and otherwise the identity,
    or ``j`` times it over the quaternions.
    """
    if d % 2 == spec.paired:
        return "alternating"
    if d % 2 == spec.free_sign:
        return "signed"
    return "j" if spec.ring is QUATERNION else "identity"


@lru_cache(maxsize=1024)
def _gram_block(block: str, d: int, t: int, plus: Optional[int]) -> ExactMatrix:
    """One part's Gram block: the ``(-1)^l`` antidiagonal ⊗ the lowest-weight form.

    The lowest-weight form is named by :func:`_form_block`: a split
    alternating block, ``diag(1_plus, -1_{t-plus})`` for a signed row,
    ``j`` times the identity, or the identity.  Built from ints and
    int-native operations only, so a cold block makes no Scalar either and
    a process counts the same scalar work whether the memo is warm or not.
    """
    if block == "alternating":
        base = _split_alternating(t)
    elif block == "signed":
        base = ExactMatrix.diagonal([1] * plus + [-1] * (t - plus))
    elif block == "j":
        base = ExactMatrix.identity(t).scale_left(J_UNIT)
    else:
        base = ExactMatrix.identity(t)
    # Level d-1-l pairs with level l, with sign (-1)^l.
    level = ExactMatrix.from_entries(d, d, {(d - 1 - l, l): (-1) ** l for l in range(d)})
    return kron(level, base)


def gram_block_keys(a: AlgebraSpec, datum: Datum
                    ) -> List[Tuple[str, int, int, Optional[int]]]:
    """The Gram block key of each part, in the triple's part order.

    A key is the arguments of :func:`_gram_block`: the lowest-weight form
    (:func:`_form_block`), ``d``, ``t`` and, on a signed row, the number of
    rows starting with +1.  The Gram matrix is the block sum of the parts'
    ``_gram_block(*key)``, and each part's slot weights are
    ``part_weights(d, t)``.
    """
    spec = a.family_spec
    if spec.form is None:
        raise ValueError(f"{a.family} carries no invariant form")
    keys = []
    for d, t in datum_partition(datum).pairs:
        block = _form_block(spec, d)
        keys.append((block, d, t, datum.p_of(d) if block == "signed" else None))
    return keys


def gram_matrix(a: AlgebraSpec, datum: Datum) -> ExactMatrix:
    """Gram matrix of the invariant form in the triple's ordered basis.

    Within one part, ``<X^l v_i, X^m v_j>`` vanishes unless ``l + m = d-1``
    and otherwise equals ``(-1)^l`` times the lowest-weight form value;
    distinct parts are orthogonal.  The form is symmetric or skew as the
    family and the parity of ``d`` force: identity or ``diag(+-1)``
    lowest-weight blocks in the self-adjoint case, a split alternating
    block in the skew case, and ``j``-diagonal in the quaternionic
    skew-adjoint case.
    """
    return block_oplus([_gram_block(*key) for key in gram_block_keys(a, datum)])


def build_triple(a: AlgebraSpec, datum: Datum) -> Triple:
    part = triple_partition(a, datum)
    gram = epsilon = sigma = None
    if a.family_spec.form is not None:
        epsilon, sigma = a.family_spec.form
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


def _odd_column(lay: BasisLayout, d: int, l: int, j: int,
                low: Scalar, middle: Scalar, high: Scalar) -> Dict[int, Scalar]:
    """Column of row ``j`` at level ``l`` of an odd part.

    Below the middle it is ``low`` on levels ``l`` and ``d-1-l``, above it
    ``high`` and ``-high`` on levels ``d-1-l`` and ``l``, and the middle
    level alone scaled by ``middle``.
    """
    mid = (d - 1) // 2
    if l < mid:
        return {lay.slot(d, l, j): low, lay.slot(d, d - 1 - l, j): low}
    if l == mid:
        return {lay.slot(d, mid, j): middle}
    return {lay.slot(d, d - 1 - l, j): high, lay.slot(d, l, j): -high}


def _complex_odd_levels(lay: BasisLayout, d: int, t: int, i_half: Scalar) -> List[list]:
    """The columns of each level of an odd part of a complex family.

    The coefficients alternate between 1/sqrt2 and ``i_half`` level by
    level, and the middle level takes 1 or i as ``d`` is 1 or 3 mod 4.
    """
    middle = ONE if d % 4 == 1 else I_UNIT
    out = []
    for l in range(d):
        low, high = (HALF_SQRT2, i_half) if l % 2 == 0 else (i_half, HALF_SQRT2)
        out.append([_odd_column(lay, d, l, j, low, middle, high) for j in range(1, t + 1)])
    return out


def _even_quarter_column(lay: BasisLayout, d: int, l: int, j: int, t: int,
                         complex_quarters: bool) -> Dict[int, Scalar]:
    """Column ``j`` (1..2t) of the paired-level block of an even part.

    Used by the complex and real orthogonal families, whose even parts mix
    levels ``l`` and ``d-1-l`` through the split alternating form.  With
    ``complex_quarters`` the second half of the columns carries ``i``
    coefficients.
    """
    t2 = t // 2
    lo, hi = l, d - 1 - l
    if complex_quarters:
        first, second = HALF_SQRT2, I_HALF_SQRT2
    else:
        first, second = HALF_SQRT2, HALF_SQRT2
    # The sign (-1)^l is picked, not multiplied in, so a cold basis makes no
    # Scalar product.
    even = l % 2 == 0
    if j <= t2:
        return {lay.slot(d, lo, j): first,
                lay.slot(d, hi, t2 + j): first if even else -first}
    if j <= t:
        return {lay.slot(d, lo, j): first,
                lay.slot(d, hi, j - t2): -first if even else first}
    if j <= t + t2:
        return {lay.slot(d, lo, j - t): second,
                lay.slot(d, hi, j - t2): -second if even else second}
    return {lay.slot(d, lo, j - t): second,
            lay.slot(d, hi, j - 3 * t2): second if even else -second}


#: The (columns, blocks) lists of one half of an adapted basis.
_Side = Tuple[List[Dict[int, Scalar]], List[BlockSpec]]


def _extend(side: _Side, columns: list, factor: Tuple[str, int]) -> None:
    """Append ``columns`` to one half as one block of the named factor."""
    side[0].extend(columns)
    side[1].append(BlockSpec(factor, len(columns)))


def _alternating_even_part(spec: FamilySpec, datum: Datum, lay: BasisLayout, d: int,
                           t: int, plus: _Side, minus: _Side) -> None:
    """An even part under the split alternating form: 2t quarter columns per
    level pair, all on one side with i coefficients when the basis has one
    side, else real and split between the halves."""
    for l in range(d // 2):
        cols = [_even_quarter_column(lay, d, l, j, t, not spec.two_sided)
                for j in range(1, 2 * t + 1)]
        if spec.two_sided:
            _extend(plus, cols[:t], ("even", d))
            _extend(minus, cols[t:], ("even", d))
        else:
            _extend(plus, cols, ("even", d))


def _identity_even_part(spec: FamilySpec, datum: Datum, lay: BasisLayout, d: int,
                        t: int, plus: _Side, minus: _Side) -> None:
    """An even part under the identity form: each level pair sends one level
    to each half, the lower level to the plus half at even ``l``."""
    for l in range(d // 2):
        first, second = (l, d - 1 - l) if l % 2 == 0 else (d - 1 - l, l)
        _extend(plus, [{lay.slot(d, first, j): ONE} for j in range(1, t + 1)], ("even", d))
        _extend(minus, [{lay.slot(d, second, j): ONE} for j in range(1, t + 1)], ("even", d))


def _j_column(lay: BasisLayout, d: int, l: int, j: int) -> Dict[int, Scalar]:
    if l < d // 2:
        return {lay.slot(d, l, j): HALF_SQRT2,
                lay.slot(d, d - 1 - l, j): J_HALF_SQRT2}
    return {lay.slot(d, d - 1 - l, j): HALF_SQRT2,
            lay.slot(d, l, j): -J_HALF_SQRT2}


def _j_even_part(spec: FamilySpec, datum: Datum, lay: BasisLayout, d: int,
                 t: int, plus: _Side, minus: _Side) -> None:
    """An even part under the j-diagonal form: odd levels on the plus half,
    even levels on the minus half."""
    for side, first in ((plus, 1), (minus, 0)):
        for l in range(first, d, 2):
            _extend(side, [_j_column(lay, d, l, j) for j in range(1, t + 1)], ("even", d))


def _identity_odd_part(spec: FamilySpec, datum: Datum, lay: BasisLayout, d: int,
                       t: int, plus: _Side, minus: _Side) -> None:
    """An odd part under the identity form of a complex family: one block per level."""
    for cols in _complex_odd_levels(lay, d, t, I_HALF_SQRT2):
        _extend(plus, cols, ("odd", d))


def _alternating_odd_part(spec: FamilySpec, datum: Datum, lay: BasisLayout, d: int,
                          t: int, plus: _Side, minus: _Side) -> None:
    """An odd part under the split alternating form: half of each level's
    columns on each side."""
    half = t // 2
    for cols in _complex_odd_levels(lay, d, t, -I_HALF_SQRT2):
        _extend(plus, cols[:half], ("odd", d))
        _extend(minus, cols[half:], ("odd", d))


def _signed_odd_part(spec: FamilySpec, datum: Datum, lay: BasisLayout, d: int,
                     t: int, plus: _Side, minus: _Side) -> None:
    """An odd part with free signs: at each level the real columns of the
    ``p_d`` rows starting with +1 form an ``odd_p`` block and the rest an
    ``odd_q`` block; :func:`_odd_level_takes_plus_rows` says whether the
    ``odd_p`` block goes to the plus half."""
    p = datum.p_of(d)
    for l in range(d):
        cols = [_odd_column(lay, d, l, j, HALF_SQRT2, ONE, HALF_SQRT2)
                for j in range(1, t + 1)]
        p_side, q_side = ((plus, minus) if _odd_level_takes_plus_rows(d, l)
                          else (minus, plus))
        _extend(p_side, cols[:p], ("odd_p", d))
        _extend(q_side, cols[p:], ("odd_q", d))


#: The adapted columns of a part, by the parity of its length and the form
#: on its lowest-weight space (:func:`_form_block`).
_PART_COLUMNS = {
    (0, "alternating"): _alternating_even_part,
    (0, "identity"): _identity_even_part,
    (0, "j"): _j_even_part,
    (1, "identity"): _identity_odd_part,
    (1, "alternating"): _alternating_odd_part,
    (1, "signed"): _signed_odd_part,
}


@lru_cache(maxsize=1024)
def adapted_basis(a: AlgebraSpec, datum: Datum) -> AdaptedBasis:
    """Adapted basis and block structure for a form family.

    Defined for every datum including the zero orbit, where the adapted
    basis is a signed permutation of the original one.  Even parts come
    first, then odd parts, each ascending, except that signed odd parts
    list those 1 mod 4 before those 3 mod 4.  The columns are the plus
    half's followed by the minus half's.  Kept per ``(a, datum)``, up to
    1024 of them.  A cold build multiplies no Scalars and asks no
    ``is_zero``, so a process counts the same scalar work whether the memo
    is warm or not.
    """
    spec = a.family_spec
    if not spec.has_adapted_basis:
        raise ValueError(f"no adapted basis construction for {a.family}")
    part = datum_partition(datum)
    lay = layout_for(part)
    evens = sorted(pair for pair in part.pairs if pair[0] % 2 == 0)
    odds = sorted(pair for pair in part.pairs if pair[0] % 2 == 1)
    if spec.free_sign == 1:
        odds.sort(key=lambda pair: pair[0] % 4)
    plus: _Side = ([], [])
    minus: _Side = ([], [])
    for d, t in evens + odds:
        _PART_COLUMNS[d % 2, _form_block(spec, d)](spec, datum, lay, d, t, plus, minus)
    matrix = _columns_to_matrix(plus[0] + minus[0], lay.dim)
    return AdaptedBasis(matrix, tuple(plus[1]), tuple(minus[1]))


def _columns_to_matrix(columns: Sequence[Dict[int, Scalar]], dim: int) -> ExactMatrix:
    if len(columns) != dim:
        raise AssertionError(f"expected {dim} adapted columns, built {len(columns)}")
    return ExactMatrix.from_entries(dim, dim, {
        (r, c): val for c, col in enumerate(columns) for r, val in col.items()})


def adapted_change_of_basis(a: AlgebraSpec, datum: Datum) -> ExactMatrix:
    """The matrix whose columns are the adapted basis vectors."""
    return adapted_basis(a, datum).matrix


def standard_adapted_gram(a: AlgebraSpec, datum: Datum) -> ExactMatrix:
    """What the Gram matrix must become in the adapted basis: diag(1_p, -1_q)
    for a signature, else the identity or the split alternating matrix as
    the form is symmetric or skew."""
    if not a.family_spec.has_adapted_basis:
        raise ValueError(f"no adapted basis construction for {a.family}")
    n = datum_partition(datum).size()
    if a.family_spec.signed:
        return ExactMatrix.diagonal([1] * a.p + [-1] * a.q)
    if a.family_spec.form[0] == 1:
        return ExactMatrix.identity(n)
    return _split_alternating(n)
