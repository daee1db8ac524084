"""Signed diagrams: row sign rules, box counting, and enumeration."""

from __future__ import annotations

import itertools

import pytest

from nilorb.diagrams import (SignedDiagram, enumerate_signed_diagrams,
                             in_sign_balance_class, row_plus_minus, sign_matrix,
                             sign_row)
from nilorb.partitions import Partition, enumerate_partitions


def test_sign_row_frozen_values():
    """Alternation with the end flip on rows of length 3 mod 4.

    The rows below were written out by hand from the two rules: signs
    alternate, and a row of length d = 3 mod 4 ends on its starting sign's
    opposite.
    """
    assert sign_row(1, 1) == (1,)
    assert sign_row(2, 1) == (1, -1)
    assert sign_row(3, 1) == (1, -1, -1)
    assert sign_row(3, -1) == (-1, 1, 1)
    assert sign_row(4, 1) == (1, -1, 1, -1)
    assert sign_row(5, 1) == (1, -1, 1, -1, 1)
    assert sign_row(7, 1) == (1, -1, 1, -1, 1, -1, -1)
    assert sign_row(7, -1) == (-1, 1, -1, 1, -1, 1, 1)


def test_sign_row_rejects_bad_start():
    with pytest.raises(ValueError):
        sign_row(3, 0)


@pytest.mark.parametrize("d", range(1, 12))
def test_row_plus_minus_totals(d):
    for start in (1, -1):
        plus, minus = row_plus_minus(d, start)
        assert plus + minus == d
        assert (plus, minus) == (
            sum(1 for s in sign_row(d, start) if s == 1),
            sum(1 for s in sign_row(d, start) if s == -1),
        )


def test_sign_matrix_orders_plus_rows_first():
    m = sign_matrix(3, 3, 1)
    assert m[0] == sign_row(3, 1)
    assert m[1] == m[2] == sign_row(3, -1)
    with pytest.raises(ValueError):
        sign_matrix(3, 2, 3)


def test_signed_diagram_requires_every_part():
    part = Partition([3, 2, 2])
    with pytest.raises(ValueError):
        SignedDiagram(part, {3: 1})
    with pytest.raises(ValueError):
        SignedDiagram(part, {3: 1, 2: 2, 5: 0})
    with pytest.raises(ValueError):
        SignedDiagram(part, {3: 2, 2: 2})


def test_sgn_counts_hand_example():
    # [3](p=0): row (-,+,+) gives 2 plus, 1 minus.
    d = SignedDiagram(Partition([3]), {3: 0})
    assert d.sgn_counts() == (2, 1)
    # [2,2](p=2): rows (+,-) twice.
    d = SignedDiagram(Partition([2, 2]), {2: 2})
    assert d.sgn_counts() == (2, 2)
    # [3,1](3:1, 1:0): (+,-,-) and (-).
    d = SignedDiagram(Partition([3, 1]), {3: 1, 1: 0})
    assert d.sgn_counts() == (1, 3)


def test_sign_balance_class_examples():
    # Row (+,-,-): one plus (odd), two minus (even) -> the minus side works.
    assert in_sign_balance_class(SignedDiagram(Partition([3]), {3: 1}))
    # [5](p=1): row (+,-,+,-,+) has 3 plus / 2 minus; minus side even -> in.
    assert in_sign_balance_class(SignedDiagram(Partition([5]), {5: 1}))
    # [5,3](5:1, 3:1): rows (+,-,+,-,+) and (+,-,-); plus counts 3 and 1
    # (both odd), minus counts 2 and 2 (both even) -> in via the minus side.
    assert in_sign_balance_class(SignedDiagram(Partition([5, 3]), {5: 1, 3: 1}))
    # [5,3](5:1, 3:0): rows (+,-,+,-,+) and (-,+,+); plus counts 3, 2;
    # minus counts 2, 1. Neither side is all-even -> out.
    assert not in_sign_balance_class(
        SignedDiagram(Partition([5, 3]), {5: 1, 3: 0}))
    # No odd parts: vacuously in.
    assert in_sign_balance_class(SignedDiagram(Partition([2, 2]), {2: 2}))


def brute_force_diagrams(partition, free_sign, signature):
    """Re-derive the enumeration by filtering the full product of sign counts."""
    sizes = [d for d, _ in partition.pairs]
    mults = [t for _, t in partition.pairs]
    out = []
    for combo in itertools.product(*(range(t + 1) for t in mults)):
        data = dict(zip(sizes, combo))
        if any(d % 2 != free_sign and data[d] != partition.multiplicity(d)
               for d in sizes):
            continue
        diag = SignedDiagram(partition, data)
        if signature is not None and diag.sgn_counts() != signature:
            continue
        out.append(diag)
    return out


# Each id names the parity of the rows that must start with +.
@pytest.mark.parametrize("free_sign", [1, 0], ids=["even", "odd"])
def test_enumeration_matches_brute_force(free_sign):
    for n in range(1, 7):
        for part in enumerate_partitions(n):
            got = enumerate_signed_diagrams(part, free_sign)
            want = brute_force_diagrams(part, free_sign, None)
            assert set(got) == set(want), (part, free_sign)
            assert len(got) == len(want)


@pytest.mark.parametrize("free_sign", [1, 0], ids=["even", "odd"])
def test_early_signature_filter_equals_build_then_filter(free_sign):
    """Counting each choice's boxes before building its diagram keeps the
    same diagrams, in the same order, as building every choice and then
    filtering by ``sgn_counts``: every partition of size n at most 10,
    every signature (p, q) with p + q <= n + 1, which is no diagram's when
    p + q != n, and no signature."""
    for n in range(11):
        sigs = [None] + [(p, q) for p in range(n + 2) for q in range(n + 2 - p)]
        for part in enumerate_partitions(n):
            for sig in sigs:
                assert (enumerate_signed_diagrams(part, free_sign, sig)
                        == brute_force_diagrams(part, free_sign, sig)), (part, sig)


def test_enumeration_rejects_a_parity_other_than_0_or_1():
    with pytest.raises(ValueError, match="free_sign must be 0 or 1"):
        enumerate_signed_diagrams(Partition([2, 1]), 2)


def test_enumeration_signature_filter():
    for n in range(1, 7):
        for p in range(n + 1):
            sig = (p, n - p)
            got = [d for part in enumerate_partitions(n)
                   for d in enumerate_signed_diagrams(part, 1, sig)]
            assert all(d.sgn_counts() == sig for d in got)
            want = sum(
                len(brute_force_diagrams(part, 1, sig))
                for part in enumerate_partitions(n))
            assert len(got) == want


def test_json_lists_each_parts_plus_rows():
    d = SignedDiagram(Partition([3, 2, 2, 1]), {3: 1, 2: 2, 1: 0})
    assert d.to_json() == {"partition": [[3, 1], [2, 2], [1, 1]],
                           "p": [[3, 1], [2, 2], [1, 0]]}


def test_str_form():
    d = SignedDiagram(Partition([3]), {3: 0})
    assert str(d) == "[3](3:0)"
