"""Signed Young diagrams: sign matrices, box counts, and enumeration.

A signed diagram is a partition together with one sign choice per part
size: for a part of size ``d`` with multiplicity ``t``, the integer ``p_d``
(0 <= p_d <= t) says how many of the ``t`` rows start with ``+1``.  Rows
are canonically sorted so the ``+``-starting rows come first, and the signs
along a row follow the alternation rules below, so ``(d, t, p_d)`` data
determines the whole diagram.

This module is the one place that states the row sign rule.  Other modules
take a row's sign counts from :func:`row_plus_minus` and a diagram's from
:meth:`SignedDiagram.sgn_counts`.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from typing import Dict, List, Optional, Tuple

from .partitions import Partition


def sign_row(d: int, start: int) -> Tuple[int, ...]:
    """Signs along one row of length ``d`` starting with ``start`` (+1/-1).

    Signs alternate along the row, except that a row whose length is
    congruent to 3 mod 4 flips its final box so the row ends opposite to
    its start.
    """
    if start not in (1, -1):
        raise ValueError("row start sign must be +1 or -1")
    row = [start * (-1) ** j for j in range(d)]
    if d % 4 == 3:
        row[-1] = -start
    return tuple(row)


def sign_matrix(d: int, t: int, p: int) -> Tuple[Tuple[int, ...], ...]:
    """The ``t x d`` sign matrix with ``p`` rows starting ``+`` listed first."""
    if not 0 <= p <= t:
        raise ValueError(f"need 0 <= p <= {t}, got {p}")
    rows = [sign_row(d, 1)] * p + [sign_row(d, -1)] * (t - p)
    return tuple(rows)


@lru_cache(maxsize=1024)
def row_plus_minus(d: int, start: int) -> Tuple[int, int]:
    """Counts of +1 and -1 boxes in one row, kept per (d, start)."""
    row = sign_row(d, start)
    plus = sum(1 for s in row if s == 1)
    return plus, d - plus


class SignedDiagram:
    """A partition with per-part-size sign data ``p_d``."""

    __slots__ = ("partition", "_p")

    def __init__(self, partition: Partition, p_by_part: Dict[int, int]):
        self.partition = partition
        stray = sorted(set(p_by_part) - {d for d, _ in partition.pairs})
        if stray:
            raise ValueError(f"sign data names part {stray[0]}, "
                             "which is not in the partition")
        cleaned = {}
        for d, t in partition.pairs:
            if d not in p_by_part:
                raise ValueError(f"missing sign count for part {d}")
            p = p_by_part[d]
            if not 0 <= p <= t:
                raise ValueError(f"sign count for part {d} out of range")
            cleaned[d] = p
        self._p = tuple(sorted(cleaned.items(), reverse=True))

    @property
    def p_pairs(self) -> tuple:
        """((d, p_d), ...) with d descending."""
        return self._p

    def p_of(self, d: int) -> int:
        for dd, p in self._p:
            if dd == d:
                return p
        raise KeyError(d)

    def q_of(self, d: int) -> int:
        return self.partition.multiplicity(d) - self.p_of(d)

    def sgn_counts(self) -> Tuple[int, int]:
        """Total (+1 boxes, -1 boxes) across the whole diagram."""
        plus = minus = 0
        for d, t in self.partition.pairs:
            p = self.p_of(d)
            pp, pm = row_plus_minus(d, 1)
            mp, mm = row_plus_minus(d, -1)
            plus += p * pp + (t - p) * mp
            minus += p * pm + (t - p) * mm
        return plus, minus

    def to_json(self) -> dict:
        return {
            "partition": self.partition.to_json(),
            "p": [[d, p] for d, p in self._p],
        }

    def __eq__(self, other) -> bool:
        if not isinstance(other, SignedDiagram):
            return NotImplemented
        return self.partition == other.partition and self._p == other._p

    def __hash__(self) -> int:
        return hash((self.partition, self._p))

    def __repr__(self) -> str:
        return f"SignedDiagram({self.partition.parts()}, {dict(self._p)})"

    def __str__(self) -> str:
        signs = ",".join(f"{d}:{p}" for d, p in self._p)
        return f"{self.partition}({signs})"


def in_sign_balance_class(diagram: SignedDiagram) -> bool:
    """The refinement that doubles orbit fibers in the indefinite orthogonal case.

    True when every odd row of the diagram has an even number of ``+1``
    boxes, or every odd row has an even number of ``-1`` boxes (vacuously
    true when no odd parts exist).
    """
    plus_ok = True
    minus_ok = True
    for d, t in diagram.partition.pairs:
        if d % 2 == 0:
            continue
        p = diagram.p_of(d)
        for start, count in ((1, p), (-1, t - p)):
            if count == 0:
                continue
            l_plus, l_minus = row_plus_minus(d, start)
            if l_plus % 2:
                plus_ok = False
            if l_minus % 2:
                minus_ok = False
    return plus_ok or minus_ok


def enumerate_signed_diagrams(
    partition: Partition,
    free_sign: int,
    signature: Optional[Tuple[int, int]] = None,
) -> List[SignedDiagram]:
    """All sign choices on one partition, filtered by signature.

    The rows whose length has parity ``free_sign`` (0 even, 1 odd) carry a
    free sign; the rows of the other parity start with ``+``.  A family's
    rule that some parts need even multiplicity is not applied here; the
    catalog filters partitions by it first.

    ``signature=(p, q)`` keeps only diagrams whose box counts are exactly
    (p, q).  A choice's +1 boxes are summed from each part's row counts
    (:func:`row_plus_minus`) before any diagram is built, so only the
    diagrams kept are built.  Output order: sign tuples ascending
    lexicographically in the (d descending) part order.
    """
    if free_sign not in (0, 1):
        raise ValueError(f"free_sign must be 0 or 1, got {free_sign!r}")
    sizes = [d for d, _ in partition.pairs]
    # Each part's choices of p_d, with the +1 boxes that its t rows then hold:
    # ``up`` in a row starting +1, ``down`` in one starting -1.
    choices = []
    for d, t in partition.pairs:
        up, down = row_plus_minus(d, 1)[0], row_plus_minus(d, -1)[0]
        ps = range(t + 1) if d % 2 == free_sign else (t,)
        choices.append([(p, p * up + (t - p) * down) for p in ps])
    boxes = partition.size()
    out = []
    for combo in product(*choices):
        if signature is not None:
            plus = sum(count for _, count in combo)
            if (plus, boxes - plus) != signature:
                continue
        out.append(SignedDiagram(partition, {d: p for d, (p, _) in zip(sizes, combo)}))
    return out
