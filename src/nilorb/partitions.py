"""Integer partitions: the (d, t) pairs every orbit datum is read from."""

from __future__ import annotations

from typing import Dict, Iterator, List, Sequence, Tuple

MAX_PARTITION_SIZE = 64


class Partition:
    """A partition stored as ``((d1, t1), (d2, t2), ...)`` with parts descending.

    ``d`` is a part size, ``t`` its multiplicity.
    """

    __slots__ = ("_pairs",)

    def __init__(self, parts: Sequence[int]):
        counts: Dict[int, int] = {}
        for d in parts:
            if d < 1:
                raise ValueError("parts must be positive")
            counts[d] = counts.get(d, 0) + 1
        self._pairs = tuple(sorted(counts.items(), reverse=True))

    @classmethod
    def _of_pairs(cls, pairs: Tuple[Tuple[int, int], ...]) -> "Partition":
        """The partition of ``pairs``, trusted to hold positive ``(d, t)`` with
        ``d`` strictly descending, so nothing is checked or sorted."""
        partition = cls.__new__(cls)
        partition._pairs = pairs
        return partition

    @property
    def pairs(self) -> tuple:
        return self._pairs

    @property
    def partition(self) -> "Partition":
        """The partition itself, so every datum answers ``.partition``."""
        return self

    def parts(self) -> List[int]:
        out: List[int] = []
        for d, t in self._pairs:
            out.extend([d] * t)
        return out

    def size(self) -> int:
        return sum(d * t for d, t in self._pairs)

    def multiplicity(self, d: int) -> int:
        for dd, t in self._pairs:
            if dd == d:
                return t
        return 0

    def is_zero_type(self) -> bool:
        """True for the partition [1, 1, ..., 1] (and for the empty one)."""
        return all(d == 1 for d, _ in self._pairs)

    def to_json(self) -> list:
        return [[d, t] for d, t in self._pairs]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Partition):
            return NotImplemented
        return self._pairs == other._pairs

    def __hash__(self) -> int:
        return hash(self._pairs)

    def __repr__(self) -> str:
        return f"Partition({self.parts()})"

    def __str__(self) -> str:
        return "[" + ",".join(str(d) for d in self.parts()) + "]"


def enumerate_partitions(n: int) -> List[Partition]:
    """All partitions of ``n`` in ascending lexicographic order.

    The order on the descending part lists is lexicographic, e.g. for n=4:
    [1,1,1,1] < [2,1,1] < [2,2] < [3,1] < [4].  ``n = 0`` yields the single
    empty partition.

    The ``(d, t)`` pairs are generated directly, with no parts list: the
    lists whose largest part is ``d`` ascend as ``d`` does, and among them
    ``d`` repeated ``t`` times, followed by a partition of ``n - d * t`` into
    parts below ``d``, ascends first in ``t`` and then in that rest.
    """
    if n < 0:
        raise ValueError("partition size must be non-negative")
    if n > MAX_PARTITION_SIZE:
        raise ValueError(f"partition size capped at {MAX_PARTITION_SIZE}")

    def gen(total: int, cap: int) -> Iterator[Tuple[Tuple[int, int], ...]]:
        """The pairs of the partitions of ``total`` into parts <= ``cap``, ascending."""
        if total == 0 or cap == 1:
            # Nothing, or only ones, is left.
            yield ((1, total),) if total else ()
            return
        for d in range(1, min(total, cap) + 1):
            for t in range(1, total // d + 1):
                head = ((d, t),)
                for rest in gen(total - d * t, d - 1):
                    yield head + rest

    return [Partition._of_pairs(pairs) for pairs in gen(n, n)]
