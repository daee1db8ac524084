"""Enumeration of nilpotent adjoint orbits for the eight supported algebras.

Each algebra family parametrizes its orbits by partitions or signed Young
diagrams; a datum may correspond to more than one orbit (the fiber count),
which this module reports alongside the enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import List, NamedTuple, Optional, Tuple, Union

from .diagrams import SignedDiagram, enumerate_signed_diagrams
from .families import (COMPLEX, FAMILIES, FAMILY_SPECS, QUATERNION, SIGNED_FAMILIES,
                       FamilySpec, compact_dim)
from .partitions import Partition, enumerate_partitions

# FAMILIES and SIGNED_FAMILIES are re-exported from the family table.
__all__ = ["FAMILIES", "SIGNED_FAMILIES", "AlgebraSpec", "Datum", "OrbitRecord",
           "datum_membership_error", "enumerate_orbits",
           "fiber_count", "orbit_record_bound"]

Datum = Union[Partition, SignedDiagram]


@dataclass(frozen=True)
class AlgebraSpec:
    """One concrete algebra: a family name plus its size parameters.

    ``n`` is the matrix size (half-rank for ``sp_c``); signed families use
    ``p`` and ``q`` instead, with ``n = p + q``.

    The facts that belong to the algebra and not to one orbit (its family
    record, M's name and sizes, dim M, dim g and the constraint facts of
    the descriptor) are computed on first use and kept on the instance,
    so every record of one command reads them from its algebra.  Nothing
    outlives the instance: each command builds its own, and reads the
    family record as it is then.
    """

    family: str
    n: Optional[int] = None
    p: Optional[int] = None
    q: Optional[int] = None

    def __post_init__(self):
        spec = FAMILY_SPECS.get(self.family)
        if spec is None:
            raise ValueError(f"unknown family {self.family!r}")
        if spec.signed:
            if self.p is None or self.q is None or self.n is not None:
                raise ValueError(f"{self.family} takes p and q, not n")
            if self.p < 1 or self.q < 1:
                raise ValueError(f"{self.family} needs p >= 1 and q >= 1")
        else:
            if self.n is None or self.p is not None or self.q is not None:
                raise ValueError(f"{self.family} takes n only")
            if self.n < 1:
                raise ValueError("n must be positive")
            if self.n < spec.min_n:
                raise ValueError(f"{self.family} needs n >= {spec.min_n}")

    @cached_property
    def family_spec(self) -> FamilySpec:
        """The family's record in :data:`~nilorb.families.FAMILY_SPECS`."""
        return FAMILY_SPECS[self.family]

    @cached_property
    def ambient_sizes(self) -> Tuple[int, ...]:
        """M is one group of size n, or a product of two of sizes p and q.

        Raises ``ValueError`` for a family without a homotopy descriptor.
        """
        if not self.family_spec.has_descriptor:
            raise ValueError(f"no homotopy descriptor for {self.family}")
        return (self.p, self.q) if self.family_spec.signed else (self.n,)

    @cached_property
    def ambient_name(self) -> str:
        """M's name: ``SO(n)``, ``SU(n)``, ``Sp(n)`` or, for p and q, ``SO(p)×SO(q)``."""
        kind = self.family_spec.ambient
        return "×".join(f"{kind}({n})" for n in self.ambient_sizes)

    @cached_property
    def dim_M(self) -> int:
        """Real dimension of M."""
        kind = self.family_spec.ambient
        return sum(compact_dim(kind, n) for n in self.ambient_sizes)

    @cached_property
    def dim_g(self) -> int:
        """Real dimension of the algebra, from its complexification's N x N
        matrices, N doubled for the quaternionic families: N^2 - 1 in type A,
        N(N - 1)/2 in type BD and N(N + 1)/2 in type C, doubled for a
        complex family."""
        spec = self.family_spec
        n = self.size * (2 if spec.ring is QUATERNION else 1)
        if spec.cartan == "A":
            complex_dim = n * n - 1
        else:
            complex_dim = n * (n - 1 if spec.cartan == "BD" else n + 1) // 2
        return 2 * complex_dim if spec.ring is COMPLEX else complex_dim

    @cached_property
    def constraint_facts(self) -> Tuple[Optional[str], bool, Optional[dict]]:
        """The descriptor's constraint, its circle flag and its auxiliary group.

        The constraint is ``FamilySpec.constraint``.  The flag is true when
        chi = 1 is on a character of U factors, a circle, which dim K
        loses; a character of O factors takes only the values +-1.  Under
        chi_p = chi_q = 1 the auxiliary group is S(O(p) × O(q)) with
        chi_p chi_q = 1, else ``None``; its dict is shared by every
        descriptor of the algebra and read only.
        """
        spec = self.family_spec
        constraint = spec.constraint
        circle = constraint == "chi=1" and spec.k_kind(1) == "U"
        aux = None
        if constraint == "chi_p=chi_q=1":
            aux = {"ambient": f"S(O({self.p}) × O({self.q}))", "constraint": "chi_p*chi_q=1"}
        return constraint, circle, aux

    @property
    def size(self) -> int:
        """Number of boxes in a parametrizing datum."""
        if self.family_spec.signed:
            return self.p + self.q
        return self.family_spec.boxes_per_n * self.n

    @property
    def low_rank_warning(self) -> bool:
        """True below the simplicity threshold of the family."""
        return self.size < self.family_spec.low_rank

    def params_json(self) -> dict:
        if self.family_spec.signed:
            return {"p": self.p, "q": self.q}
        return {"n": self.n}

    def __str__(self) -> str:
        if self.family_spec.signed:
            return f"{self.family}({self.p},{self.q})"
        return f"{self.family}(n={self.n})"


class OrbitRecord(NamedTuple):
    """One datum of the enumeration and how many orbits share it."""

    datum: Datum
    fiber_count: int

    @property
    def is_zero_orbit(self) -> bool:
        return self.datum.partition.is_zero_type()

    def to_json(self) -> dict:
        if isinstance(self.datum, SignedDiagram):
            datum = self.datum.to_json()
        else:
            datum = {"partition": self.datum.to_json()}
        return {
            "datum": datum,
            "fiber_count": self.fiber_count,
            "is_zero_orbit": self.is_zero_orbit,
        }


def fiber_count(a: AlgebraSpec, datum: Datum) -> int:
    """How many orbits share this datum under the family's parametrization."""
    return a.family_spec.fibers(datum)


def _pairs_ok(spec: FamilySpec, part: Partition) -> bool:
    """Whether every part of the family's paired parity has even multiplicity."""
    return all(t % 2 == 0 for d, t in part.pairs if d % 2 == spec.paired)


def enumerate_orbits(a: AlgebraSpec) -> List[OrbitRecord]:
    """All orbit records of the algebra, deterministically ordered.

    Partitions ascend lexicographically; sign tuples ascend within one
    partition.  The zero orbit (partition all ones) is always present.
    """
    spec = a.family_spec
    signature = (a.p, a.q) if spec.signed else None
    data: List[Datum] = []
    for part in enumerate_partitions(a.size):
        if not _pairs_ok(spec, part):
            continue
        if spec.free_sign is None:
            data.append(part)
        else:
            data.extend(enumerate_signed_diagrams(part, spec.free_sign, signature))
    return [OrbitRecord(d, fiber_count(a, d)) for d in data]


def orbit_record_bound(a: AlgebraSpec) -> int:
    """An upper bound on ``len(enumerate_orbits(a))``, counted without enumerating.

    The coefficient of x^size in a product over part lengths d of partition
    generating functions: 1/(1 - x^d)^2 where the rows of length d carry a
    free sign (t rows have t + 1 sign choices), 1/(1 - x^(2d)) where parts
    d need even multiplicity, 1/(1 - x^d) otherwise.  Exact for the
    families without a signature; so_pq and sp_pq count every signature of
    size p + q.  Without parity rules the count is p(size).
    """
    spec = a.family_spec
    free, paired = spec.free_sign, spec.paired
    n = a.size
    series = [1] + [0] * n
    for d in range(1, n + 1):
        steps = (d, d) if d % 2 == free else (2 * d,) if d % 2 == paired else (d,)
        for k in steps:
            # Multiplying by 1/(1 - x^k) adds x^k times the series to itself.
            for m in range(k, n + 1):
                series[m] += series[m - k]
    return series[n]


def datum_membership_error(a: AlgebraSpec, datum: Datum) -> Optional[str]:
    """Explain why a datum is not in the family's parametrizing set.

    Returns ``None`` when the datum is valid.
    """
    spec = a.family_spec
    part = datum.partition
    expected = a.size
    if part.size() != expected:
        return f"partition has {part.size()} boxes, expected {expected}"
    signed = isinstance(datum, SignedDiagram)
    if spec.free_sign is None and signed:
        return "this family takes plain partitions, not signed diagrams"
    if spec.free_sign is not None and not signed:
        return "this family takes signed diagrams (use d:p sign pairs)"
    if not _pairs_ok(spec, part):
        parity = ("even", "odd")[spec.paired]
        bad = [d for d, t in part.pairs if d % 2 == spec.paired and t % 2]
        return (f"{parity} part {bad[0]} has odd multiplicity; every {parity} part "
                f"needs even multiplicity in this family")
    if spec.free_sign is None:
        return None
    for d, t in part.pairs:
        if d % 2 != spec.free_sign and datum.p_of(d) != t:
            return f"rows of {('even', 'odd')[d % 2]} length {d} must all start with +1"
    if spec.signed and datum.sgn_counts() != (a.p, a.q):
        got = datum.sgn_counts()
        return f"sign counts {got} do not match the form signature ({a.p},{a.q})"
    return None
