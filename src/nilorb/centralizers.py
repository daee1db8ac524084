"""Exact centralizer dimensions and their closed-form cross-checks.

The solver realifies the linear conditions cutting a subspace out of the
ambient algebra and computes its dimension over the rationals.  Unknowns
are the real components of the matrix entries.  Assembly visits only the
nonzero entries of X, Y and the Gram matrix, and each solve builds the
scattered Gram products of a row once.

The solver runs on Python ints from end to end.  It reads each matrix
through :meth:`~nilorb.matrices.ExactMatrix.integer_nonzeros`, the matrix
times the least positive integer that clears its denominators, and
eliminates fraction-free (:func:`~nilorb.matrices.integer_nullity`, the
eliminator ``rank`` uses too).  This is exact because each condition row
draws on exactly one matrix: a form row on the Gram matrix,
a commutation row on one commuting matrix, the trace row on the identity
(coefficient 1 on the real component of each diagonal entry).  Dropping that
matrix's denominator scales the whole row by a positive integer, which
leaves the kernel unchanged.

The reported dimensions come from the ad(H)-grading g = ⊕ g_k: by
sl2-theory dim z(X) = dim g_0 + dim g_1 and dim z(X,H,Y) = dim g_0 -
dim g_2, where g_k holds the entries of weight difference k.  The form
and trace conditions never mix grades, and no commutation rows are
needed.  For a trace-zero family each dim g_k is one small solve.  A form
family's grade is counted by the Gram pairing.  In the triple basis,
row a of the Gram matrix has its one nonzero at column pi(a), pi is an
involution, and w(pi(a)) = -w(a): <X^l v_i, X^m v_j> vanishes unless
l + m = d - 1, and each lowest-weight form is diagonal, j-diagonal or
split-alternating.  Condition entry (pi(a), b) of Z^sigma G + G Z = 0 then
involves only Z[a][b] and its mate Z[pi(b)][pi(a)], which has the same
weight difference, and entry (b, pi(a)) repeats it up to sigma, since
(Z^sigma G + G Z)^sigma = epsilon (Z^sigma G + G Z).  The Gram entries
are units of R, C or H, so the condition fixes one entry of a two-entry
block from the other, and the block keeps one entry's real dimension.
Only the self-paired entries (a, pi(a)), of weight difference 2 w(a), are
solved: none in g_1 and at most n per orbit.

Distinct parts are orthogonal, so the Gram matrix is the block sum of the
parts' own blocks, and a form family's count splits over the parts:

    g_k(datum) = sum over parts i of g_k(part i)
                 + (e/2) sum over i < j of t_i t_j (N_k(d_i, d_j) + N_k(d_j, d_i)),

where part i is the t_i rows of length d_i and e is the real dimension
of one entry.  An entry (a, b) between two different parts is never
self-paired, and its mate (pi(b), pi(a)) joins the same two parts, so
those entries form two-entry blocks of e each.  How many there are is
plain sl2 weight combinatorics (Collingwood–McGovern, ch. 3): level l of
a row of length d has weight 1 - d + 2l, so N_k(d, d') counts the level
pairs (l, m), 0 <= l < d and 0 <= m < d', with
(1 - d + 2l) - (1 - d' + 2m) = k.  That is l = m + s for
s = (k + d - d') / 2, so N_k is 0 when s is not an integer and otherwise
max(0, min(d', d - s) - max(0, -s)), the m with both levels in range
(:func:`_cross_sizes`).  ``centralizer_report`` counts each part once per
family and Gram block key (:func:`~nilorb.triples.gram_block_keys`) and
keeps the count; the part's block is checked by the pairing rules when
it is counted.  So the report reads only the datum's (d, t) pairs: it
builds neither the datum's Gram matrix nor X, H or Y nor its slot
weights, only the blocks of parts it has not met.  The trace-zero families
solve each grade of the datum whole.  The direct solves
``centralizer_dim_triple`` and ``centralizer_dim_nilpotent`` assemble the
full system over the whole Gram matrix and stay as independent
references; ``verify`` reads the grading from :func:`centralizer_report`,
the one place that turns it into reported dimensions, and checks it
against the direct triple solve and the closed forms.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

from .catalog import AlgebraSpec, Datum
from .families import COMPLEX, QUATERNION, FamilySpec
from .homotopy import HomotopyType, compact_pair
from .matrices import ExactMatrix, _columns, integer_nullity
from .scalars import _PROD
from .triples import (Triple, _gram_block, gram_block_keys, gram_matrix,
                      part_weights, slot_weights)


# The closed forms below work over the complexification: a type A, BD or C
# algebra of N x N matrices, N doubled for the quaternionic families, whose
# data have their multiplicities doubled too.  A complex family's real
# dimensions are twice the complex ones.

def _real(spec: FamilySpec, complex_dim: int) -> int:
    return 2 * complex_dim if spec.ring is COMPLEX else complex_dim


def _complex_pairs(spec: FamilySpec, datum: Datum) -> Tuple[Tuple[int, int], ...]:
    """The datum's (part, multiplicity) pairs over the complexification."""
    k = 2 if spec.ring is QUATERNION else 1
    return tuple((d, k * t) for d, t in datum.partition.pairs)


def _orthogonal_sign(spec: FamilySpec) -> int:
    """1 for type BD, -1 for type C: the symmetry of the complexified form."""
    return 1 if spec.cartan == "BD" else -1


def expected_reductive_dim(a: AlgebraSpec, datum: Datum) -> int:
    """Real dimension of the reductive centralizer, in closed form.

    Over the complexification it is S(prod GL(t)) in type A.  In type BD a
    part of odd length carries O(t) and one of even length Sp(t); type C
    swaps them.  A quaternionic family's multiplicities double over the
    complexification (:func:`_complex_pairs`); the sums read the datum's
    pairs and double each t as they go.
    """
    spec = a.family_spec
    k = 2 if spec.ring is QUATERNION else 1
    pairs = datum.partition.pairs
    if spec.cartan == "A":
        return _real(spec, k * k * sum([t * t for _, t in pairs]) - 1)
    s = _orthogonal_sign(spec)
    return _real(spec, sum([k * t * (k * t - s if d % 2 else k * t + s) // 2
                            for d, t in pairs]))


def expected_orbit_dim(a: AlgebraSpec, datum: Datum) -> int:
    """Real dimension of the orbit, in closed form over the dual partition.

    Uses Collingwood–McGovern, Cor. 6.1.4, on the complexified orbit: a
    real form's orbit has that complex dimension, and the complex families
    double it.  ``sl_h``, ``sp_pq`` and ``so_star`` complexify to a
    partition with every part repeated twice.
    """
    spec = a.family_spec
    pairs = _complex_pairs(spec, datum)
    n = sum(d * t for d, t in pairs)
    largest = max((d for d, _ in pairs), default=0)
    dual_squares = sum(sum(t for d, t in pairs if d >= i) ** 2
                       for i in range(1, largest + 1))
    if spec.cartan == "A":
        return _real(spec, n * n - dual_squares)
    s = _orthogonal_sign(spec)
    odd = sum(t for d, t in pairs if d % 2 == 1)
    return _real(spec, (n * (n - s) - dual_squares + s * odd) // 2)


# ---------------------------------------------------------------------------
# Kernel solver
# ---------------------------------------------------------------------------

#: Per-row (or per-column) lists of ``(column (or row), value)`` pairs.
_Lines = Sequence[Sequence[Tuple[int, Any]]]


def _rational_lines(m: ExactMatrix) -> _Lines:
    """The row lists of ``D * m`` with the int value of each entry.

    Raises ``ValueError`` when an entry is not rational.
    """
    out = []
    for row in m.integer_nonzeros():
        if any(any(x[1:]) for _, x in row):
            raise ValueError("a commuting matrix must have rational entries")
        out.append([(c, x[0]) for c, x in row])
    return out


class AlgebraConstraint:
    """The real linear conditions that cut the algebra out of gl_n over its ring.

    They are ``Z^sigma G + G Z = 0`` for a form family with Gram matrix
    ``G``, and otherwise one row: the real part of the trace is zero (for
    a complex family, which solves on one component, that row stands for
    the whole trace).  Unknowns are the real components of the entries of
    ``Z``.  Every condition of a complex family is
    complex-linear, so its solves run on one real component and double the
    nullity.  The scattered Gram products of an unknown depend on its row
    and component but not on its column; they are built for a row on first
    use and kept, so the positions of one solve that share a row share
    them.  They are products of a unit with the int numerators of ``D * G``.
    Raises ``ValueError`` naming the first Gram entry outside the ring.
    """

    def __init__(self, spec: FamilySpec, gram: Optional[ExactMatrix]):
        ring = spec.ring
        self.gram = gram
        self.comps, self.doubling = (1, 2) if ring is COMPLEX else (ring.dim, 1)
        self._terms: Dict[Tuple[int, int], Tuple[list, list]] = {}
        if gram is not None:
            epsilon, sigma = spec.form
            # sigma = conj negates the units i, j and k.
            conj = sigma == "conj"
            self._left_signs = [-1 if conj and c else 1 for c in range(self.comps)]
            # epsilon sigma(x), component by component.
            self._hermitian_signs = [-epsilon if conj and c % 4 else epsilon
                                     for c in range(8)]
            self._by_row = gram.integer_nonzeros()
            for r, row in enumerate(self._by_row):
                for c, x in row:
                    if any(x[ring.dim:]):
                        raise ValueError(f"Gram entry ({r}, {c}) lies outside "
                                         f"the scalar ring")
            self._by_col = _columns(self._by_row, gram.ncols, conj=False)

    def pairing(self, weights: Sequence[int]) -> List[int]:
        """The Gram pairing: ``pi[a]`` is the column of Gram row ``a``'s one nonzero.

        Raises ``ValueError`` naming the broken rule unless every Gram row
        and column holds exactly one nonzero, ``pi`` is an involution, each
        mate has the opposite slot weight, and
        ``G[pi(a)][a] = epsilon sigma(G[a][pi(a)])``.  The constructor has
        checked that each nonzero lies in the ring (R, C and H are division
        rings, so it is a unit).
        """
        n = len(weights)
        if len(self._by_row) != n or len(self._by_col) != n:
            raise ValueError(f"the Gram matrix is not {n} x {n}, "
                             f"the size of the slot weights")
        for kind, lines in (("row", self._by_row), ("column", self._by_col)):
            for a, line in enumerate(lines):
                if len(line) != 1:
                    raise ValueError(f"Gram {kind} {a} has {len(line)} nonzeros, not one")
        pi = [row[0][0] for row in self._by_row]
        for a, b in enumerate(pi):
            if pi[b] != a:
                raise ValueError(f"the Gram pairing is not an involution: "
                                 f"{a} -> {b} -> {pi[b]}")
            if weights[b] != -weights[a]:
                raise ValueError(f"Gram mate {b} of slot {a} lies outside its grade: "
                                 f"weights {weights[a]} and {weights[b]} are not "
                                 f"opposite")
            x = self._by_row[a][0][1]
            mirror = tuple([s * u for s, u in zip(self._hermitian_signs, x)])
            if self._by_row[b][0][1] != mirror:
                raise ValueError(f"Gram entries ({a}, {b}) and ({b}, {a}) break "
                                 f"G^sigma = epsilon G")
        return pi

    def form_terms(self, ra: int, c: int) -> Tuple[list, list]:
        """Scattered ``Z^sigma G`` and ``G Z`` terms of component ``c`` of row ``ra``.

        Each is a list of ``(row or column of the condition, [(component,
        coefficient), ...])``: ``sigma(e_c) G[ra][s]`` and ``G[r][ra] e_c``
        for the unit ``e_c``, with int coefficients read from ``D * G``.
        """
        terms = self._terms.get((ra, c))
        if terms is None:
            sign, left = self._left_signs[c], _PROD[c]
            terms = self._terms[ra, c] = (
                [(s, [(left[ib][0], sign * left[ib][1] * y)
                      for ib, y in enumerate(g) if y])
                 for s, g in self._by_row[ra]],
                [(r, [(_PROD[ib][c][0], _PROD[ib][c][1] * y)
                      for ib, y in enumerate(g) if y])
                 for r, g in self._by_col[ra]])
        return terms


def _centralizer_nullity(constraint: AlgebraConstraint,
                         commute_with: List[ExactMatrix],
                         positions: List[Tuple[int, int]]) -> int:
    """Real dimension of {Z in the algebra : [Z, M] = 0 for every listed M},
    over the Z whose nonzero entries lie in ``positions``."""
    comps = constraint.comps
    # Unknown ``i * comps + c`` is component c of the entry at positions[i].
    rows: Dict[Tuple, Dict[int, int]] = {}

    def add(key: Tuple, idx: int, coeff: int) -> None:
        """Add ``coeff`` (never 0) times unknown ``idx`` to the row ``key``."""
        row = rows.get(key)
        if row is None:
            rows[key] = {idx: coeff}
            return
        val = row.get(idx, 0) + coeff
        if val:
            row[idx] = val
        else:
            del row[idx]

    # Commutation rows stay inside one real component because the fixed
    # matrices are rational.
    for mi, m in enumerate(commute_with):
        by_row = _rational_lines(m)
        by_col = _columns(by_row, m.ncols, conj=False)
        for i, (ra, rb) in enumerate(positions):
            for c in range(comps):
                idx = i * comps + c
                for s, q in by_row[rb]:
                    add(("c", mi, ra, s, c), idx, q)
                for r, q in by_col[ra]:
                    add(("c", mi, r, rb, c), idx, -q)

    if constraint.gram is not None:
        for i, (ra, rb) in enumerate(positions):
            for c in range(comps):
                idx = i * comps + c
                left_terms, right_terms = constraint.form_terms(ra, c)
                for s, terms in left_terms:
                    for cc, coeff in terms:
                        add(("m", rb, s, cc), idx, coeff)
                for r, terms in right_terms:
                    for cc, coeff in terms:
                        add(("m", r, rb, cc), idx, coeff)
    else:
        for i, (ra, rb) in enumerate(positions):
            if ra == rb:
                add(("t",), i * comps, 1)

    return constraint.doubling * integer_nullity(list(rows.values()),
                                                 len(positions) * comps)


def _grade_positions(weights: Sequence[int], k: int) -> List[Tuple[int, int]]:
    """The entries of ad(H)-eigenvalue ``k``: ``weights[r] - weights[s] == k``."""
    slots: Dict[int, List[int]] = {}
    for s, w in enumerate(weights):
        slots.setdefault(w, []).append(s)
    return [(r, s) for r, w in enumerate(weights) for s in slots.get(w - k, ())]


def _grade_sizes(weights: Sequence[int]) -> Tuple[int, int, int]:
    """How many entries have ad(H)-eigenvalue 0, 1 and 2 over the slot weights."""
    counts = Counter(weights)
    s0, s1, s2 = (sum(t * counts[w - k] for w, t in counts.items()) for k in (0, 1, 2))
    return s0, s1, s2


def _grade_nullities(constraint: AlgebraConstraint,
                     weights: Sequence[int]) -> Tuple[int, int, int]:
    """dim g_0, g_1 and g_2 over the slot weights of the triple's basis.

    By sl2-theory (Collingwood–McGovern, ch. 3) the centralizer of X has
    dimension dim g_0 + dim g_1 and that of the triple dim g_0 - dim g_2.
    The form and trace conditions never mix grades, so each grade is
    counted alone, with no commutation rows: for a form family, by the
    Gram pairing of the module docstring, solving only the self-paired
    entries (a, pi(a)); otherwise by one solve over the grade's entries.
    A form family's grade k holds ``size`` entries, of which ``own`` are
    self-paired; the others form two-entry blocks of one entry's real
    dimension each.  Raises ``ValueError`` when the constraint's Gram
    matrix breaks a rule of the pairing (:meth:`AlgebraConstraint.pairing`).
    """
    if constraint.gram is None:
        g0, g1, g2 = (_centralizer_nullity(constraint, [], _grade_positions(weights, k))
                      for k in (0, 1, 2))
        return g0, g1, g2
    pi = constraint.pairing(weights)
    entry = constraint.comps * constraint.doubling
    dims = []
    for k, size in enumerate(_grade_sizes(weights)):
        own = [(a, pi[a]) for a, w in enumerate(weights) if 2 * w == k]
        dims.append(entry * (size - len(own)) // 2
                    + _centralizer_nullity(constraint, [], own))
    g0, g1, g2 = dims
    return g0, g1, g2


@lru_cache(maxsize=1024)
def _part_grading(spec: FamilySpec, block: str, d: int, t: int, plus: Optional[int]
                  ) -> Tuple[int, int, int]:
    """dim g_0, g_1 and g_2 of one part's own grading.

    The part is the family's ``_gram_block(block, d, t, plus)`` over
    ``part_weights(d, t)``; its count is kept per family and block key, up
    to 1024 of them.  Raises ``ValueError`` when the block breaks a rule of
    the pairing, so a bad block is refused when it is first counted.
    """
    constraint = AlgebraConstraint(spec, _gram_block(block, d, t, plus))
    return _grade_nullities(constraint, part_weights(d, t))


@lru_cache(maxsize=1024)
def _cross_sizes(d: int, d2: int) -> Tuple[int, int, int]:
    """N_k(d, d2) + N_k(d2, d) for k = 0, 1 and 2: the entries of weight
    difference k between one row of length ``d`` and one of length ``d2``,
    either way round (the level count of the module docstring)."""
    def count(k: int, d: int, d2: int) -> int:
        if (k + d - d2) % 2:
            return 0
        s = (k + d - d2) // 2
        return max(0, min(d2, d - s) - max(0, -s))

    n0, n1, n2 = (count(k, d, d2) + count(k, d2, d) for k in (0, 1, 2))
    return n0, n1, n2


def centralizer_dim_triple(t: Triple, a: AlgebraSpec) -> int:
    """Real dimension of the simultaneous centralizer of X, H, Y in the algebra.

    This is the direct solve: commutation with X and Y over the entries
    that commute with H, with its own constraint over ``t.gram``, so it
    shares nothing with the graded count of :func:`centralizer_report`.
    Raises ``ValueError`` when a Gram entry lies outside the ring.
    """
    return _centralizer_nullity(AlgebraConstraint(a.family_spec, t.gram), [t.X, t.Y],
                                _grade_positions(slot_weights(t.partition), 0))


def centralizer_dim_nilpotent(x: ExactMatrix, a: AlgebraSpec,
                              datum: Optional[Datum] = None) -> int:
    """Real dimension of the centralizer of the nilpotent element alone.

    This is the direct solve over all n² entries.  ``x`` must be given in
    the triple basis of ``datum`` for the form families, where the
    invariant form's Gram matrix is needed.
    """
    gram = None
    if a.family_spec.form is not None:
        if datum is None:
            raise ValueError("form families need the datum to pin the Gram matrix")
        gram = gram_matrix(a, datum)
    n = x.nrows
    positions = [(r, s) for r in range(n) for s in range(n)]
    return _centralizer_nullity(AlgebraConstraint(a.family_spec, gram), [x], positions)


class CentralizerReport(NamedTuple):
    """Solved and closed-form centralizer dimensions for one orbit.

    ``compact`` is the orbit's homotopy descriptor
    (:func:`~nilorb.homotopy.compact_pair`), or ``None`` for a family
    without one; its ``dim_K`` is reported as ``expected_compact``.
    """

    dim_z_triple: int
    dim_z_X: int
    dim_g: int
    dim_orbit: int
    expected_reductive: int
    compact: Optional[HomotopyType]
    match: bool

    def to_json(self) -> dict:
        return {
            "dim_z_triple": self.dim_z_triple,
            "dim_z_X": self.dim_z_X,
            "dim_g": self.dim_g,
            "dim_orbit": self.dim_orbit,
            "expected_reductive": self.expected_reductive,
            "expected_compact": None if self.compact is None else self.compact.dim_K,
            "match": self.match,
        }


def centralizer_report(a: AlgebraSpec, datum: Datum) -> CentralizerReport:
    """Solved and closed-form centralizer dimensions of the datum's orbit.

    This is the one place that turns dim g_0, g_1 and g_2 into reported
    dimensions and that sets a zero orbit's.  A form family's grades are
    summed from the memoized counts of its parts and the closed-form
    counts between two parts (the cross-part identity of the module
    docstring), read from the datum's (d, t) pairs alone; only the blocks
    of parts not yet counted are built.  A trace-zero family's grades are
    solved whole over the slot weights.  The datum's Gram matrix and X, H
    and Y are never built.  Raises ``ValueError`` when the datum's size is
    not the algebra's, before anything else, the zero orbit included.
    """
    spec = a.family_spec
    part = datum.partition
    if part.size() != a.size:
        raise ValueError(f"datum size {part.size()} does not match {a}")
    ambient = a.dim_g
    expected = expected_reductive_dim(a, datum)
    compact = compact_pair(a, datum) if spec.has_descriptor else None
    if part.is_zero_type():
        return CentralizerReport(ambient, ambient, ambient, 0, expected, compact,
                                 ambient == expected)
    pairs = part.pairs
    if spec.form is None:
        g0, g1, g2 = _grade_nullities(AlgebraConstraint(spec, None), slot_weights(part))
    else:
        g0 = g1 = g2 = 0
        for key in gram_block_keys(a, datum):
            p0, p1, p2 = _part_grading(spec, *key)
            g0, g1, g2 = g0 + p0, g1 + p1, g2 + p2
        # The entries between two parts keep one entry's real dimension per pair.
        c0 = c1 = c2 = 0
        for i, (d, t) in enumerate(pairs):
            for d2, t2 in pairs[i + 1:]:
                n0, n1, n2 = _cross_sizes(d, d2)
                c0, c1, c2 = c0 + t * t2 * n0, c1 + t * t2 * n1, c2 + t * t2 * n2
        e = spec.ring.dim
        g0, g1, g2 = g0 + e * c0 // 2, g1 + e * c1 // 2, g2 + e * c2 // 2
    dz_triple, dz_x = g0 - g2, g0 + g1
    return CentralizerReport(dz_triple, dz_x, ambient, ambient - dz_x, expected, compact,
                             dz_triple == expected)
