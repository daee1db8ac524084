"""Enumeration of nilpotent adjoint orbits for the eight supported algebras.

Each algebra family parametrizes its orbits by partitions or signed Young
diagrams; a datum may correspond to more than one orbit (the fiber count),
which this module reports alongside the enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Union

from .diagrams import (SignedDiagram, enumerate_signed_diagrams,
                       in_sign_balance_class)
from .partitions import (Partition, classify, enumerate_partitions,
                         partition_counts)

FAMILIES = ("sl_r", "sl_c", "sl_h", "so_c", "so_pq", "sp_c", "sp_pq", "so_star")

#: Families whose invariant form carries a signature (p, q).
SIGNED_FAMILIES = ("so_pq", "sp_pq")

Datum = Union[Partition, SignedDiagram]


def datum_partition(datum: Datum) -> Partition:
    """The partition underlying a datum (a signed diagram's, or the datum itself)."""
    return datum.partition if isinstance(datum, SignedDiagram) else datum


@dataclass(frozen=True)
class AlgebraSpec:
    """One concrete algebra: a family name plus its size parameters.

    ``n`` is the matrix size (half-rank for ``sp_c``); signed families use
    ``p`` and ``q`` instead, with ``n = p + q``.
    """

    family: str
    n: Optional[int] = None
    p: Optional[int] = None
    q: Optional[int] = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.family in SIGNED_FAMILIES:
            if self.p is None or self.q is None or self.n is not None:
                raise ValueError(f"{self.family} takes p and q, not n")
            if self.p < 1 or self.q < 1:
                raise ValueError(f"{self.family} needs p >= 1 and q >= 1")
        else:
            if self.n is None or self.p is not None or self.q is not None:
                raise ValueError(f"{self.family} takes n only")
            if self.n < 1:
                raise ValueError("n must be positive")
            if self.family == "so_c" and self.n < 3:
                raise ValueError("so_c needs n >= 3")

    @property
    def size(self) -> int:
        """Number of boxes in a parametrizing datum."""
        if self.family in SIGNED_FAMILIES:
            return self.p + self.q
        if self.family == "sp_c":
            return 2 * self.n
        return self.n

    @property
    def low_rank_warning(self) -> bool:
        """True below the simplicity threshold of the family."""
        if self.family == "so_c":
            return self.n < 5
        if self.family == "so_pq":
            return self.p + self.q < 5
        if self.family == "so_star":
            return self.n < 3
        if self.family in ("sl_r", "sl_c", "sl_h"):
            return self.n < 2
        return False

    def params_json(self) -> dict:
        if self.family in SIGNED_FAMILIES:
            return {"p": self.p, "q": self.q}
        return {"n": self.n}

    def __str__(self) -> str:
        if self.family in SIGNED_FAMILIES:
            return f"{self.family}({self.p},{self.q})"
        return f"{self.family}(n={self.n})"


@dataclass(frozen=True)
class OrbitRecord:
    datum: Datum
    fiber_count: int
    is_zero_orbit: bool

    def partition(self) -> Partition:
        return datum_partition(self.datum)

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
    part = datum_partition(datum)
    cls = classify(part)
    if a.family == "sl_r":
        return 2 if cls.is_even else 1
    if a.family == "so_c":
        return 2 if cls.is_very_even else 1
    if a.family == "so_pq":
        if not isinstance(datum, SignedDiagram):
            raise ValueError("so_pq data carry signs")
        if cls.is_very_even:
            return 4
        if cls.in_even_mult_class and in_sign_balance_class(datum):
            return 2
        return 1
    # sl_c, sl_h, sp_c, sp_pq, so_star: the parametrization is a bijection.
    return 1


def enumerate_orbits(a: AlgebraSpec) -> List[OrbitRecord]:
    """All orbit records of the algebra, deterministically ordered.

    Partitions ascend lexicographically; sign tuples ascend within one
    partition.  The zero orbit (partition all ones) is always present.
    """
    data: List[Datum] = []
    if a.family in ("sl_r", "sl_c", "sl_h"):
        data = list(enumerate_partitions(a.n))
    elif a.family == "so_c":
        data = [p for p in enumerate_partitions(a.n)
                if classify(p).in_even_mult_class]
    elif a.family == "sp_c":
        data = [p for p in enumerate_partitions(2 * a.n)
                if classify(p).in_odd_mult_class]
    elif a.family == "so_pq":
        for part in enumerate_partitions(a.p + a.q):
            data.extend(enumerate_signed_diagrams(part, "even1", (a.p, a.q)))
    elif a.family == "sp_pq":
        for part in enumerate_partitions(a.p + a.q):
            data.extend(enumerate_signed_diagrams(part, "even", (a.p, a.q)))
    elif a.family == "so_star":
        for part in enumerate_partitions(a.n):
            data.extend(enumerate_signed_diagrams(part, "odd"))
    return [
        OrbitRecord(
            datum=d,
            fiber_count=fiber_count(a, d),
            is_zero_orbit=datum_partition(d).is_zero_type(),
        )
        for d in data
    ]


#: The parity rules of each family's data: (parity of the part lengths whose
#: rows carry a free sign, parity of the part lengths that need even
#: multiplicity), ``None`` for no such parts.  The sl families have neither.
_PARITY_RULES = {
    "so_c": (None, 0),
    "sp_c": (None, 1),
    "so_pq": (1, 0),
    "sp_pq": (1, None),
    "so_star": (0, None),
}


def orbit_record_bound(a: AlgebraSpec) -> int:
    """An upper bound on ``len(enumerate_orbits(a))``, counted without enumerating.

    The coefficient of x^size in a product over part lengths d of partition
    generating functions: 1/(1 - x^d)^2 where the rows of length d carry a
    free sign (t rows have t + 1 sign choices), 1/(1 - x^(2d)) where parts
    d need even multiplicity, 1/(1 - x^d) otherwise.  Exact for the
    families without a signature; so_pq and sp_pq count every signature of
    size p + q.  The sl families take p(size) from :func:`partition_counts`.
    """
    rules = _PARITY_RULES.get(a.family)
    if rules is None:
        return partition_counts(a.size)[-1]
    free, paired = rules
    n = a.size
    series = [1] + [0] * n
    for d in range(1, n + 1):
        steps = (d, d) if d % 2 == free else (2 * d,) if d % 2 == paired else (d,)
        for k in steps:
            # Multiplying by 1/(1 - x^k) adds x^k times the series to itself.
            for m in range(k, n + 1):
                series[m] += series[m - k]
    return series[n]


def total_orbit_count(a: AlgebraSpec) -> int:
    """Number of orbits: fiber counts summed over all records."""
    return sum(rec.fiber_count for rec in enumerate_orbits(a))


def datum_membership_error(a: AlgebraSpec, datum: Datum) -> Optional[str]:
    """Explain why a datum is not in the family's parametrizing set.

    Returns ``None`` when the datum is valid.
    """
    part = datum_partition(datum)
    cls = classify(part)
    expected = a.size
    if part.size() != expected:
        return f"partition has {part.size()} boxes, expected {expected}"
    if a.family in ("sl_r", "sl_c", "sl_h"):
        if isinstance(datum, SignedDiagram):
            return "this family takes plain partitions, not signed diagrams"
        return None
    if a.family == "so_c":
        if isinstance(datum, SignedDiagram):
            return "this family takes plain partitions, not signed diagrams"
        if not cls.in_even_mult_class:
            bad = [d for d, t in part.pairs if d % 2 == 0 and t % 2]
            return (f"even part {bad[0]} has odd multiplicity; every even part "
                    f"needs even multiplicity in this family")
        return None
    if a.family == "sp_c":
        if isinstance(datum, SignedDiagram):
            return "this family takes plain partitions, not signed diagrams"
        if not cls.in_odd_mult_class:
            bad = [d for d, t in part.pairs if d % 2 == 1 and t % 2]
            return (f"odd part {bad[0]} has odd multiplicity; every odd part "
                    f"needs even multiplicity in this family")
        return None
    if not isinstance(datum, SignedDiagram):
        return "this family takes signed diagrams (use d:p sign pairs)"
    if a.family == "so_pq":
        if not cls.in_even_mult_class:
            bad = [d for d, t in part.pairs if d % 2 == 0 and t % 2]
            return (f"even part {bad[0]} has odd multiplicity; every even part "
                    f"needs even multiplicity in this family")
        for d, t in part.pairs:
            if d % 2 == 0 and datum.p_of(d) != t:
                return f"rows of even length {d} must all start with +1"
        if datum.sgn_counts() != (a.p, a.q):
            got = datum.sgn_counts()
            return f"sign counts {got} do not match the form signature ({a.p},{a.q})"
        return None
    if a.family == "sp_pq":
        for d, t in part.pairs:
            if d % 2 == 0 and datum.p_of(d) != t:
                return f"rows of even length {d} must all start with +1"
        if datum.sgn_counts() != (a.p, a.q):
            got = datum.sgn_counts()
            return f"sign counts {got} do not match the form signature ({a.p},{a.q})"
        return None
    if a.family == "so_star":
        for d, t in part.pairs:
            if d % 2 == 1 and datum.p_of(d) != t:
                return f"rows of odd length {d} must all start with +1"
        return None
    raise AssertionError("unreachable")
