"""The eight algebra families, one record each.

The paper, like BCM, works family by family.  For each family it fixes a
scalar ring, an invariant form, parity rules on the orbit data, the
ambient compact group M and the compact factors of K.  Each family is one
immutable :class:`FamilySpec` in :data:`FAMILY_SPECS`.  Every other module
reads these facts from the record and never names a family; the fiber
counts are the one closed form kept as a per-family function.
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

    * ``ring``: the scalar ring of the algebra's matrices.
    * ``form``: (epsilon, sigma) of the invariant form, sigma ``"conj"``
      negating i, j and k; ``None`` for the trace-zero families.
    * ``signed``: the algebra takes p and q, the form's signature.
    * ``free_sign``: parity of the part lengths whose rows carry a free
      sign (the rows of the other parity start with +1); ``None`` for
      plain partitions.
    * ``paired``: parity of the part lengths that need even multiplicity,
      or ``None``.
    * ``min_n``: the smallest n; ``low_rank``: sizes below it get the
      low-rank warning; ``boxes_per_n``: boxes of a datum per unit of n.
    * ``cartan``: ``"A"``, ``"BD"`` or ``"C"``, the type of the
      complexified algebra.
    * ``ambient``: the kind of M, ``"SO"``, ``"SU"`` or ``"Sp"``, of size n
      or of sizes p and q; ``None`` where there is no homotopy descriptor.
    * ``k_kinds``: the kinds of K's factors on the (even, odd) parts of a
      form family; the trace-zero families use their ring's unitary group.
    * ``even_embed``: how the factor of an even part enters the adapted
      basis: ``"H-to-R"``, ``"C-to-R"``, ``"i-to-j"`` or ``None``.
    * ``fibers``: the number of orbits sharing a datum, read from the
      datum alone: its ``.partition``'s (d, t) pairs and, for so_pq, its
      signs.
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


def _sl(ring: Ring, ambient: str, fibers: Callable[[object], int] = _one_fiber) -> FamilySpec:
    return FamilySpec(
        ring=ring, form=None, signed=False, free_sign=None, paired=None,
        min_n=1, low_rank=2, boxes_per_n=1, cartan="A", ambient=ambient,
        k_kinds=None, even_embed=None, fibers=fibers)


#: One record per family, in the order the command line lists them.
FAMILY_SPECS: Dict[str, FamilySpec] = {
    "sl_r": _sl(REAL, "SO", _two_if_even),
    "sl_c": _sl(COMPLEX, "SU"),
    "sl_h": _sl(QUATERNION, "Sp"),
    "so_c": FamilySpec(
        ring=COMPLEX, form=(1, "id"), signed=False, free_sign=None, paired=0,
        min_n=3, low_rank=5, boxes_per_n=1, cartan="BD", ambient="SO",
        k_kinds=("Sp", "O"), even_embed="H-to-R", fibers=_two_if_very_even),
    "so_pq": FamilySpec(
        ring=REAL, form=(1, "id"), signed=True, free_sign=1, paired=0,
        min_n=1, low_rank=5, boxes_per_n=1, cartan="BD", ambient="SO",
        k_kinds=("U", "O"), even_embed="C-to-R",
        fibers=_indefinite_orthogonal_fibers),
    "sp_c": FamilySpec(
        ring=COMPLEX, form=(-1, "id"), signed=False, free_sign=None, paired=1,
        min_n=1, low_rank=0, boxes_per_n=2, cartan="C", ambient="Sp",
        k_kinds=("O", "Sp"), even_embed=None, fibers=_one_fiber),
    "sp_pq": FamilySpec(
        ring=QUATERNION, form=(1, "conj"), signed=True, free_sign=1, paired=None,
        min_n=1, low_rank=0, boxes_per_n=1, cartan="C", ambient="Sp",
        k_kinds=("U", "Sp"), even_embed="i-to-j", fibers=_one_fiber),
    "so_star": FamilySpec(
        ring=QUATERNION, form=(-1, "conj"), signed=False, free_sign=0, paired=None,
        min_n=1, low_rank=3, boxes_per_n=1, cartan="BD", ambient=None,
        k_kinds=None, even_embed=None, fibers=_one_fiber),
}

FAMILIES = tuple(FAMILY_SPECS)

#: Families whose invariant form carries a signature (p, q).
SIGNED_FAMILIES = tuple(name for name, spec in FAMILY_SPECS.items() if spec.signed)
