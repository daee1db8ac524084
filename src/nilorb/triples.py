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
already built.  No column of ``T`` crosses a part either: ``T`` is the
block sum of each part's level matrix ⊗ ``I_{t/t0}``, built from int
numerators, with its columns reordered once into the plus and minus
halves, and is kept per algebra and datum.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import groupby
from operator import itemgetter
from typing import Dict, List, NamedTuple, Optional, Tuple

from .catalog import AlgebraSpec, Datum
from .families import QUATERNION, FamilySpec
from .matrices import (ExactMatrix, block_oplus, conj_transpose, kron,
                       permute_columns, rank)
from .partitions import Partition
from .scalars import J_UNIT

class ZeroOrbitError(ValueError):
    """Raised when a construction needs a nonzero nilpotent representative."""


def part_weights(d: int, t: int) -> List[int]:
    """The H-eigenvalue of each slot of one part: ``1 - d + 2l`` at ``X^l v_j``."""
    return [1 - d + 2 * l for l in range(d - 1, -1, -1) for _ in range(t)]


def slot_weights(partition: Partition) -> List[int]:
    """The H-eigenvalue of each slot, the parts' :func:`part_weights` joined."""
    return [w for d, t in partition.pairs for w in part_weights(d, t)]


class Triple(NamedTuple):
    """A standard triple with its invariant form data."""

    family: str
    partition: Partition
    X: ExactMatrix
    H: ExactMatrix
    Y: ExactMatrix
    gram: Optional[ExactMatrix]
    epsilon: Optional[int]
    sigma: Optional[str]

    def basis_layout(self) -> List[str]:
        return [f"X^{l}.v[{d}][{j}]" for d, t in self.partition.pairs
                for l in range(d - 1, -1, -1) for j in range(1, t + 1)]

    def to_json(self) -> dict:
        """The triple's document; X, H, Y and the Gram matrix are held as
        :class:`ExactMatrix` leaves, which the CLI's JSON encoder renders
        as ``ExactMatrix.to_json`` would."""
        data = {
            "family": self.family,
            "partition": self.partition.to_json(),
            "X": self.X,
            "H": self.H,
            "Y": self.Y,
            "basis_layout": self.basis_layout(),
        }
        if self.gram is not None:
            data["gram"] = self.gram
            data["form"] = {"epsilon": self.epsilon, "sigma": self.sigma}
        return data


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
    for d, t in datum.partition.pairs:
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
    """The datum's standard triple, each of X, H and Y the block sum of its
    parts' :func:`_triple_block`, with the family's Gram matrix.

    Raises :class:`ZeroOrbitError` for the zero orbit and ``ValueError``
    when the datum's size is not the algebra's.
    """
    part = datum.partition
    if part.is_zero_type():
        raise ZeroOrbitError("the zero orbit has no standard triple")
    if part.size() != a.size:
        raise ValueError(f"datum size {part.size()} does not match {a}")
    gram = epsilon = sigma = None
    if a.family_spec.form is not None:
        epsilon, sigma = a.family_spec.form
        gram = gram_matrix(a, datum)
    x, h, y = [block_oplus([_triple_block(m, d, t) for d, t in part.pairs])
               for m in "XHY"]
    return Triple(a.family, part, x, h, y, gram, epsilon, sigma)


def jordan_type(x: ExactMatrix) -> Partition:
    """Jordan block sizes of a nilpotent matrix with rational entries."""
    n = x.nrows
    ranks = [n]
    power = None
    k = 0
    while ranks[-1] > 0:
        power = x if power is None else power @ x
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

class BlockSpec(NamedTuple):
    """One diagonal block of the compact group in the adapted basis.

    ``factor`` names which group factor acts there: ("even", d),
    ("odd", d), ("odd_p", d), ("odd_q", d), or ("part", d) for the
    form-free families.  ``size`` counts basis columns of the block.
    """

    factor: Tuple[str, int]
    size: int


class AdaptedBasis(NamedTuple):
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


#: Numerators over 2, in the component order of
#: :data:`~nilorb.scalars.BASIS_NAMES`, of the adapted basis entries.
_UNIT = (2, 0, 0, 0, 0, 0, 0, 0)            # 1
_I = (0, 2, 0, 0, 0, 0, 0, 0)               # i
_HALF_SQRT2 = (0, 0, 0, 0, 1, 0, 0, 0)      # 1/sqrt2
_I_HALF_SQRT2 = (0, 0, 0, 0, 0, 1, 0, 0)    # i/sqrt2
_J_HALF_SQRT2 = (0, 0, 0, 0, 0, 0, 1, 0)    # j/sqrt2

#: The label of a level matrix column: (side, role, level), side 0 for the
#: plus half and 1 for the minus half.
_Label = Tuple[int, str, int]


def _times(k: int, x: tuple) -> tuple:
    return tuple([k * v for v in x])


def _level_matrix(spec: FamilySpec, block: str, d: int
                  ) -> Tuple[ExactMatrix, List[_Label]]:
    """The level matrix ``L`` of a part of length ``d`` under the
    lowest-weight form ``block`` (:func:`_form_block`), and its column labels.

    A part of multiplicity ``t`` has the block ``L ⊗ I_{t/t0}`` in the
    adapted basis, where ``t0`` is 2 on a part that needs even
    multiplicity and 1 otherwise: row ``(d-1-l)*t0 + a`` of ``L`` stands
    for level ``l`` and, when ``t0`` is 2, half ``a`` of the level's rows.
    The entries are int numerators over 2, so no Scalar is made.

    A column's label names its side, its role and its level (its level
    pair on an even part); neighbouring columns with equal labels form one
    block of the compact group.  The role is the factor's, ``"even"`` or
    ``"odd"``, except on a part with free signs: a ``"signed"`` column
    sends its first ``p`` copies, the rows starting with +1, to the side
    it names as the ``odd_p`` factor and the rest to the other side as the
    ``odd_q`` factor.
    """
    t0 = 2 if d % 2 == spec.paired else 1
    columns: List[Tuple[_Label, Dict[int, tuple]]] = []

    def at(l: int, a: int = 0) -> int:
        return (d - 1 - l) * t0 + a

    if d % 2 == 1:
        # Below the middle a column is ``low`` on levels l and d-1-l, above
        # it ``high`` and ``-high`` on levels d-1-l and l, and the middle
        # level stands alone.  On a complex family the coefficients
        # alternate between 1/sqrt2 and (-)i/sqrt2 level by level and the
        # middle takes 1 or i as d is 1 or 3 mod 4.
        mid = (d - 1) // 2
        other = {"identity": _I_HALF_SQRT2, "alternating": _times(-1, _I_HALF_SQRT2),
                 "signed": _HALF_SQRT2}[block]
        middle = _UNIT if block == "signed" or d % 4 == 1 else _I
        for l in range(d):
            low, high = (_HALF_SQRT2, other) if l % 2 == 0 else (other, _HALF_SQRT2)
            for a in range(t0):
                if l < mid:
                    col = {at(l, a): low, at(d - 1 - l, a): low}
                elif l == mid:
                    col = {at(l, a): middle}
                else:
                    col = {at(d - 1 - l, a): high, at(l, a): _times(-1, high)}
                label = ((0 if _odd_level_takes_plus_rows(d, l) else 1, "signed", l)
                         if block == "signed" else (a, "odd", l))
                columns.append((label, col))
    elif block == "alternating":
        # Four quarter columns per level pair mix levels l and d-1-l through
        # the split alternating form; when the basis has two sides the last
        # two go to the minus half, else they carry i.
        second, side = ((_HALF_SQRT2, 1) if spec.two_sided else (_I_HALF_SQRT2, 0))
        for l in range(d // 2):
            s = (-1) ** l
            for label, x, a, sign in (((0, "even", l), _HALF_SQRT2, 0, s),
                                      ((0, "even", l), _HALF_SQRT2, 1, -s),
                                      ((side, "even", l), second, 0, -s),
                                      ((side, "even", l), second, 1, s)):
                columns.append((label, {at(l, a): x, at(d - 1 - l, 1 - a): _times(sign, x)}))
    elif block == "identity":
        # Each level pair sends one level to each half, the lower level to
        # the plus half at even l.
        for l in range(d // 2):
            first, second = (l, d - 1 - l) if l % 2 == 0 else (d - 1 - l, l)
            columns.append(((0, "even", l), {at(first): _UNIT}))
            columns.append(((1, "even", l), {at(second): _UNIT}))
    else:
        # The j-diagonal form: odd levels on the plus half, even levels on
        # the minus half.
        for l in range(d):
            low, high = (l, d - 1 - l) if l < d // 2 else (d - 1 - l, l)
            sign = 1 if l < d // 2 else -1
            columns.append(((1 - l % 2, "even", l),
                            {at(low): _HALF_SQRT2, at(high): _times(sign, _J_HALF_SQRT2)}))
    rows: List[list] = [[] for _ in range(d * t0)]
    for c, (_, col) in enumerate(columns):
        for r, x in col.items():
            rows[r].append((c, x))
    level = ExactMatrix.from_numerators(d * t0, d * t0, 2, rows)
    return level, [label for label, _ in columns]


@lru_cache(maxsize=1024)
def adapted_basis(a: AlgebraSpec, datum: Datum) -> AdaptedBasis:
    """Adapted basis and block structure for a form family.

    Defined for every datum including the zero orbit, where the adapted
    basis is a signed permutation of the original one.  No column crosses
    a part, so ``T`` is the block sum, in the triple's part order, of each
    part's ``L ⊗ I_{t/t0}`` (:func:`_level_matrix`; ``L`` itself when
    ``t = t0``) with its columns then reordered: the plus half's, then the
    minus half's.  Within a half, even parts come first, then odd parts,
    each ascending, except that signed odd parts list those 1 mod 4 before
    those 3 mod 4; the block specs are read off the column labels in that
    order.  Kept per ``(a, datum)``, up to 1024 of them.  A cold build
    makes no Scalar and runs on ints alone, so a process counts the same
    scalar work whether the memo is warm or not.
    """
    spec = a.family_spec
    if not spec.has_adapted_basis:
        raise ValueError(f"no adapted basis construction for {a.family}")
    blocks, parts = [], []
    off = 0
    for block, d, t, p in gram_block_keys(a, datum):
        level, labels = _level_matrix(spec, block, d)
        copies = t * d // level.nrows
        blocks.append(level if copies == 1 else kron(level, ExactMatrix.identity(copies)))
        parts.append((d, off, copies, p, labels))
        off += d * t

    def adapted_order(part: tuple) -> tuple:
        d = part[0]
        return d % 2, d % 4 if d % 2 and spec.free_sign == 1 else 0, d

    columns: Tuple[List[int], List[int]] = ([], [])
    halves: Tuple[List[BlockSpec], List[BlockSpec]] = ([], [])
    for d, off, copies, p, labels in sorted(parts, key=adapted_order):
        for (side, role, _), run in groupby(enumerate(labels), key=itemgetter(1)):
            cols = [off + c * copies + b for c, _ in run for b in range(copies)]
            if role == "signed":
                pieces = ((side, ("odd_p", d), cols[:p]), (1 - side, ("odd_q", d), cols[p:]))
            else:
                pieces = ((side, (role, d), cols),)
            for s, factor, cs in pieces:
                columns[s].extend(cs)
                halves[s].append(BlockSpec(factor, len(cs)))
    matrix = permute_columns(block_oplus(blocks), columns[0] + columns[1])
    return AdaptedBasis(matrix, tuple(halves[0]), tuple(halves[1]))


def standard_adapted_gram(a: AlgebraSpec, datum: Datum) -> ExactMatrix:
    """What the Gram matrix must become in the adapted basis: diag(1_p, -1_q)
    for a signature, else the identity or the split alternating matrix as
    the form is symmetric or skew."""
    if not a.family_spec.has_adapted_basis:
        raise ValueError(f"no adapted basis construction for {a.family}")
    n = datum.partition.size()
    if a.family_spec.signed:
        return ExactMatrix.diagonal([1] * a.p + [-1] * a.q)
    if a.family_spec.form[0] == 1:
        return ExactMatrix.identity(n)
    return _split_alternating(n)
