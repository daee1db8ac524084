"""The eight algebra families, one record each.

The paper, like BCM, works family by family.  For each family it fixes a
scalar ring, an invariant form, parity rules on the orbit data, the
ambient compact group M and the compact factors of K.  Each family is one
immutable :class:`FamilySpec` in :data:`FAMILY_SPECS`, built by
:func:`_family` from six declared inputs: ``ring``, ``form``, ``min_n``,
``low_rank``, ``boxes_per_n`` and ``fibers``.  The other seven fields,
``signed``, ``free_sign``, ``paired``, ``cartan``, ``ambient``,
``k_kinds`` and ``even_embed``, follow from the ring and the form (CM
§9.3): the parts of length d carry a multiplicity space whose induced
form has sign eps' = eps * (-1)^(d-1), and the compact isometry group of
that form is K's factor on those parts.  Every other module reads these
facts from the record and never names a family; the fiber counts are the
one closed form kept as a per-family function.
"""

from __future__ import annotations

from typing import Callable, Dict, NamedTuple, Optional, Tuple

from .diagrams import SignedDiagram, in_sign_balance_class


class Ring(NamedTuple):
    """A scalar ring: its real dimension and the kind of its unitary group."""

    dim: int
    unitary: str  # "O" | "U" | "Sp"


REAL = Ring(1, "O")
COMPLEX = Ring(2, "U")
QUATERNION = Ring(4, "Sp")


def ring_of_kind(kind: str) -> Ring:
    """The ring whose unitary group has this kind."""
    return next(r for r in (REAL, COMPLEX, QUATERNION) if r.unitary == kind)


def compact_dim(kind: str, n: int) -> int:
    """Real dimension of the compact group ``kind(n)``: O, SO, U, SU or Sp."""
    if kind in ("O", "SO"):
        return n * (n - 1) // 2
    if kind == "U":
        return n * n
    if kind == "SU":
        return n * n - 1
    return n * (2 * n + 1)


def _one_fiber(datum) -> int:
    return 1


def _two_if_even(datum) -> int:
    return 2 if all(d % 2 == 0 for d, _ in datum.partition.pairs) else 1


def _very_even(datum) -> bool:
    """Every part even and every multiplicity even."""
    return all(d % 2 == 0 and t % 2 == 0 for d, t in datum.partition.pairs)


def _two_if_very_even(datum) -> int:
    return 2 if _very_even(datum) else 1


def _indefinite_orthogonal_fibers(datum) -> int:
    if not isinstance(datum, SignedDiagram):
        raise ValueError("so_pq data carry signs")
    if _very_even(datum):
        return 4
    if (all(t % 2 == 0 for d, t in datum.partition.pairs if d % 2 == 0)
            and in_sign_balance_class(datum)):
        return 2
    return 1


class FamilySpec(NamedTuple):
    """Everything nilorb knows about one family, as an immutable record.

    Declared in each :data:`FAMILY_SPECS` row:

    * ``ring``: the scalar ring of the algebra's matrices.
    * ``form``: (epsilon, sigma) of the invariant form, sigma ``"conj"``
      negating i, j and k; ``None`` for the trace-zero families.
    * ``min_n``: the smallest n; ``low_rank``: sizes below it get the
      low-rank warning; ``boxes_per_n``: boxes of a datum per unit of n.
    * ``fibers``: the number of orbits sharing a datum, read from the
      datum alone: its ``.partition``'s (d, t) pairs and, for so_pq, its
      signs.

    Derived by :func:`_family`.  The parts of length d carry the form
    sign eps' = eps * (-1)^(d-1), so the even parts get -eps and the odd
    parts eps.  The kind of a part's factor is the compact isometry group
    of a form of sign eps' over the ring (CM §9.3): O or U over R, O or
    Sp over C, Sp or U over H, for eps' = +1 or -1.  A trace-zero family
    takes its ring's unitary kind on every part.

    * ``free_sign``: parity of the part lengths whose rows carry a free
      sign (the rows of the other parity start with +1), the parts whose
      form is hermitian, eps' = +1 over R or H; ``None`` for plain
      partitions.
    * ``paired``: parity of the part lengths that need even multiplicity,
      the parts whose form is alternating, eps' = -1 over R or C; or
      ``None``.
    * ``signed``: the algebra takes p and q, the form's signature: the
      odd parts, d = 1 among them, carry the free sign.
    * ``ambient``: the kind of M, of size n or of sizes p and q: the kind
      at d = 1, with O read as SO and U as SU on a trace-zero family;
      ``None`` where there is no homotopy descriptor, a form family with U
      at d = 1 (M is not semisimple, the BCM case).
    * ``cartan``: the type of the complexified algebra: ``"A"`` without a
      form, ``"C"`` when the kind at d = 1 is Sp, else ``"BD"``.
    * ``k_kinds``: the kinds of K's factors on the (even, odd) parts of a
      form family with a descriptor, else ``None``.
    * ``even_embed``: how the factor of an even part enters the adapted
      basis, by (its kind, the ring): ``"H-to-R"`` for (Sp, C),
      ``"C-to-R"`` for (U, R), ``"i-to-j"`` for (U, H), else ``None``;
      also ``None`` where ``k_kinds`` is.
    """

    ring: Ring
    form: Optional[Tuple[int, str]]
    signed: bool
    free_sign: Optional[int]
    paired: Optional[int]
    min_n: int
    low_rank: int
    boxes_per_n: int
    cartan: str
    ambient: Optional[str]
    k_kinds: Optional[Tuple[str, str]]
    even_embed: Optional[str]
    fibers: Callable[[object], int]

    @property
    def has_descriptor(self) -> bool:
        """Whether the family has a homotopy descriptor M/K."""
        return self.ambient is not None

    @property
    def constraint(self) -> Optional[str]:
        """The character condition cutting K out of the factor product:
        ``"none"`` under an Sp ambient, ``"chi_p=chi_q=1"`` on a signed
        family, else ``"chi=1"``; ``None`` where there is no descriptor."""
        if self.ambient is None:
            return None
        if self.ambient == "Sp":
            return "none"
        return "chi_p=chi_q=1" if self.signed else "chi=1"

    @property
    def has_adapted_basis(self) -> bool:
        """Whether the family has a form and a descriptor, hence a compact-adapted basis."""
        return self.form is not None and self.has_descriptor

    @property
    def two_sided(self) -> bool:
        """Whether the adapted basis splits into two halves: the form's
        adapted Gram matrix is diag(1_p, -1_q) or the split alternating one,
        not the identity."""
        return self.signed or self.form[0] == -1

    @property
    def quaternionic_k(self) -> bool:
        """Whether M = Sp(n) sits in a complex family: K is then assembled as
        an n x n quaternion matrix and enters through its complex image."""
        return self.ambient == "Sp" and self.ring is COMPLEX

    def k_kind(self, d: int) -> str:
        """The kind of K's factor on the parts of length ``d``."""
        return self.ring.unitary if self.form is None else self.k_kinds[d % 2]


#: The kind of the compact isometry group of a multiplicity space over
#: each ring whose induced form has sign eps' (CM §9.3).
_KINDS: Dict[Tuple[Ring, int], str] = {
    (REAL, 1): "O", (REAL, -1): "U",
    (COMPLEX, 1): "O", (COMPLEX, -1): "Sp",
    (QUATERNION, 1): "Sp", (QUATERNION, -1): "U",
}

#: How the factor of an even part enters the adapted basis, by (its kind, the ring).
_EVEN_EMBEDS = {("Sp", COMPLEX): "H-to-R", ("U", REAL): "C-to-R", ("U", QUATERNION): "i-to-j"}


def _family(ring: Ring, form: Optional[Tuple[int, str]], min_n: int, low_rank: int,
            boxes_per_n: int, fibers: Callable[[object], int]) -> FamilySpec:
    """The record of the family with this ring and form, its seven other
    fields derived as the :class:`FamilySpec` docstring states."""
    if form is None:
        kinds, free_sign, paired = (ring.unitary, ring.unitary), None, None
    else:
        eps = form[0]
        kinds = (_KINDS[ring, -eps], _KINDS[ring, eps])  # eps' on the (even, odd) parts
        hermitian = (1 + eps) // 2  # the parity whose eps' is +1
        free_sign = None if ring is COMPLEX else hermitian
        paired = None if ring is QUATERNION else 1 - hermitian
    ambient = {"O": "SO", "Sp": "Sp", "U": "SU" if form is None else None}[kinds[1]]
    described = form is not None and ambient is not None
    return FamilySpec(
        ring=ring, form=form, signed=free_sign == 1, free_sign=free_sign, paired=paired,
        min_n=min_n, low_rank=low_rank, boxes_per_n=boxes_per_n,
        cartan="A" if form is None else "C" if kinds[1] == "Sp" else "BD",
        ambient=ambient, k_kinds=kinds if described else None,
        even_embed=_EVEN_EMBEDS.get((kinds[0], ring)) if described else None,
        fibers=fibers)


#: One record per family, in the order the command line lists them:
#: ring, form, min_n, low_rank, boxes_per_n, fibers.
FAMILY_SPECS: Dict[str, FamilySpec] = {
    "sl_r": _family(REAL, None, 1, 2, 1, _two_if_even),
    "sl_c": _family(COMPLEX, None, 1, 2, 1, _one_fiber),
    "sl_h": _family(QUATERNION, None, 1, 2, 1, _one_fiber),
    "so_c": _family(COMPLEX, (1, "id"), 3, 5, 1, _two_if_very_even),
    "so_pq": _family(REAL, (1, "id"), 1, 5, 1, _indefinite_orthogonal_fibers),
    "sp_c": _family(COMPLEX, (-1, "id"), 1, 0, 2, _one_fiber),
    "sp_pq": _family(QUATERNION, (1, "conj"), 1, 0, 1, _one_fiber),
    "so_star": _family(QUATERNION, (-1, "conj"), 1, 3, 1, _one_fiber),
}

FAMILIES = tuple(FAMILY_SPECS)

#: Families whose invariant form carries a signature (p, q).
SIGNED_FAMILIES = tuple(name for name, spec in FAMILY_SPECS.items() if spec.signed)
