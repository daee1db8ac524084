"""Partition container and enumeration against classical counting oracles."""

from __future__ import annotations

import pytest

from nilorb.partitions import MAX_PARTITION_SIZE, Partition, enumerate_partitions

# Number of partitions of n = 0..9; standard table.
PARTITION_COUNTS = (1, 1, 2, 3, 5, 7, 11, 15, 22, 30)


@pytest.mark.parametrize("n,count", list(enumerate(PARTITION_COUNTS)))
def test_partition_counts(n, count):
    assert len(enumerate_partitions(n)) == count


def test_enumeration_is_exhaustive_and_duplicate_free():
    for n in range(1, 9):
        parts = enumerate_partitions(n)
        assert len({p for p in parts}) == len(parts)
        assert all(p.size() == n for p in parts)


def list_generator_partitions(n):
    """The partitions of n built from descending part lists, each list
    ascending lexicographically: the reference for the pairs-first order."""
    def gen(total, cap):
        if total == 0:
            yield []
            return
        for first in range(1, min(total, cap) + 1):
            for rest in gen(total - first, first):
                yield [first] + rest

    return [Partition(parts) for parts in gen(n, n)]


def test_pairs_first_enumeration_equals_the_list_generator():
    """Same partitions in the same order, with equal pairs and hashes, for
    every n <= 20 (2,714 partitions)."""
    total = 0
    for n in range(21):
        got, want = enumerate_partitions(n), list_generator_partitions(n)
        assert got == want
        assert [p.pairs for p in got] == [p.pairs for p in want]
        assert [hash(p) for p in got] == [hash(p) for p in want]
        total += len(got)
    assert total == 2714


def test_parts_are_stored_descending():
    p = Partition([1, 3, 2, 3])
    assert p.parts() == [3, 3, 2, 1]
    assert p == Partition([3, 3, 2, 1])


def test_multiplicity():
    p = Partition([3, 2, 2, 1])
    assert p.multiplicity(2) == 2
    assert p.multiplicity(3) == 1
    assert p.multiplicity(7) == 0
    assert dict(p.pairs) == {3: 1, 2: 2, 1: 1}


def test_json_lists_the_pairs():
    assert Partition([2, 3, 2]).to_json() == [[3, 1], [2, 2]]


def test_a_partition_is_its_own_partition():
    p = Partition([2, 1])
    assert p.partition is p


def test_str_form():
    assert str(Partition([3, 2, 2, 1])) == "[3,2,2,1]"


def test_rejects_bad_parts():
    with pytest.raises(ValueError):
        Partition([0, 1])
    with pytest.raises(ValueError):
        Partition([-2])


def test_size_guard():
    with pytest.raises(ValueError):
        enumerate_partitions(MAX_PARTITION_SIZE + 1)


def test_is_zero_type():
    assert Partition([1, 1, 1]).is_zero_type()
    assert not Partition([2, 1]).is_zero_type()


def test_ordering_is_total_on_fixed_size():
    """Sorted by their part lists, the partitions of n come in the order
    they are enumerated, and no two share a part list."""
    for n in range(1, 8):
        parts = enumerate_partitions(n)
        ordered = sorted(parts, key=Partition.parts)
        assert ordered == parts
        for a, b in zip(ordered, ordered[1:]):
            assert a.parts() < b.parts()
