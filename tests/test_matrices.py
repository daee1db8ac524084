"""Exact matrix layer: products, block maps, rank, determinants, signatures,
construction from numerators and rendering."""

from __future__ import annotations

import gc
import random
from fractions import Fraction

import pytest

from nilorb.catalog import AlgebraSpec, enumerate_orbits
from nilorb.cli import _json_text, _matrix_lines
from nilorb.homotopy import random_compact_point
from nilorb import matrices
from nilorb.matrices import (DegenerateFormError, ExactMatrix, block_oplus,
                             compare, compare_products,
                             complex_to_real_blocks, congruence_signature,
                             conj_transpose, det, i_to_j, inverse, is_isometry,
                             kron, permute_columns, products_agree,
                             quaternion_to_complex_blocks,
                             rank, reduced_norm, solve)
from nilorb.scalars import (I_UNIT, J_UNIT, MINUS_ONE, ONE, SQRT2,
                            VARIANT_COMPONENTS, ZERO, Scalar)
from nilorb.triples import adapted_basis, build_triple


def dense(rows) -> ExactMatrix:
    """The matrix with the given rows of Scalars (or ints or Fractions)."""
    return ExactMatrix.from_entries(len(rows), len(rows[0]) if rows else 0, {
        (r, c): x for r, row in enumerate(rows) for c, x in enumerate(row)})


def commutator(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """The reference bracket ``[a, b] = a b - b a``, built with ``@`` and ``-``."""
    return a @ b - b @ a


def rational_matrix(rng: random.Random, n: int, m: int | None = None) -> ExactMatrix:
    m = n if m is None else m
    return dense([[Scalar.rational(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
                   for _ in range(m)] for _ in range(n)])


def complex_matrix(rng: random.Random, n: int) -> ExactMatrix:
    return dense([[Scalar.complex_value(rng.randint(-3, 3), rng.randint(-3, 3))
                   for _ in range(n)] for _ in range(n)])


def quaternion_matrix(rng: random.Random, n: int) -> ExactMatrix:
    return dense([[Scalar.quaternion_value(*(rng.randint(-2, 2) for _ in range(4)))
                   for _ in range(n)] for _ in range(n)])


def test_identity_and_product():
    rng = random.Random(1)
    a = rational_matrix(rng, 4)
    i4 = ExactMatrix.identity(4)
    assert a @ i4 == a
    assert i4 @ a == a
    assert (a - a).is_zero()


def test_product_associativity():
    rng = random.Random(2)
    for _ in range(10):
        a = quaternion_matrix(rng, 3)
        b = quaternion_matrix(rng, 3)
        c = quaternion_matrix(rng, 3)
        assert (a @ b) @ c == a @ (b @ c)


def test_transpose_reverses_products_only_with_conjugation():
    """Over the quaternions (A B)^* = B^* A^* needs the conjugate transpose;
    the plain transpose reverses products only for commuting entries."""
    rng = random.Random(3)
    for _ in range(10):
        a = quaternion_matrix(rng, 3)
        b = quaternion_matrix(rng, 3)
        assert conj_transpose(a @ b) == conj_transpose(b) @ conj_transpose(a)
    a = rational_matrix(rng, 3)
    b = rational_matrix(rng, 3)
    assert (a @ b).transpose() == b.transpose() @ a.transpose()


def test_commutator_bilinear_antisymmetric():
    rng = random.Random(4)
    a = rational_matrix(rng, 4)
    b = rational_matrix(rng, 4)
    assert commutator(a, b) == -commutator(b, a)
    assert commutator(a, a).is_zero()


def test_block_oplus_and_repeat():
    a = dense([[ONE, ONE], [ZERO, ONE]])
    b = dense([[Scalar.rational(2)]])
    s = block_oplus([a, b])
    assert s.nrows == s.ncols == 3
    assert s.rows()[0][1] == ONE
    assert s.rows()[2][2] == Scalar.rational(2)
    assert s.rows()[0][2] == ZERO
    r = kron(ExactMatrix.identity(3), b)
    assert r.nrows == r.ncols == 3
    assert all(r.rows()[t][t] == Scalar.rational(2) for t in range(3))


def test_permute_columns_is_a_product_by_a_permutation_matrix():
    """Column k of the result is column order[k]: the product with the
    permutation matrix P, P[order[k]][k] = 1, made without one."""
    rng = random.Random(11)
    a = complex_matrix(rng, 4).scale_left(SQRT2)
    for order in ([0, 1, 2, 3], [3, 1, 0, 2], [2, 3, 0, 1]):
        p = ExactMatrix.from_entries(4, 4, {(c, k): 1 for k, c in enumerate(order)})
        assert permute_columns(a, order) == a @ p
    for bad in ([0, 1, 2], [0, 1, 1, 3], [0, 1, 2, 4]):
        with pytest.raises(ValueError, match="not an order"):
            permute_columns(a, bad)


def test_complex_realification_is_multiplicative():
    rng = random.Random(5)
    for _ in range(15):
        a = complex_matrix(rng, 3)
        b = complex_matrix(rng, 3)
        assert complex_to_real_blocks(a @ b) == (
            complex_to_real_blocks(a) @ complex_to_real_blocks(b))
    assert complex_to_real_blocks(ExactMatrix.identity(3)) == ExactMatrix.identity(6)


def test_quaternion_complexification_is_multiplicative():
    rng = random.Random(6)
    for _ in range(15):
        a = quaternion_matrix(rng, 2)
        b = quaternion_matrix(rng, 2)
        assert quaternion_to_complex_blocks(a @ b) == (
            quaternion_to_complex_blocks(a) @ quaternion_to_complex_blocks(b))
    assert quaternion_to_complex_blocks(ExactMatrix.identity(2)) == ExactMatrix.identity(4)


def test_i_to_j_sends_x_plus_iy_to_x_plus_jy():
    """The entrywise map is the Scalar one, keeps the denominator, is a ring
    homomorphism (C and R + jR are both the field R[u]/(u^2 + 1)), and
    refuses an entry outside the Gaussian rationals."""
    rng = random.Random(8)
    for _ in range(10):
        a = complex_matrix(rng, 3).scale_left(Scalar.rational(Fraction(1, 3)))
        b = complex_matrix(rng, 3)
        assert i_to_j(a) == ExactMatrix.from_entries(3, 3, {
            (r, c): Scalar.quaternion_value(x.components[0], 0, x.components[1], 0)
            for r, row in enumerate(a.nonzeros()) for c, x in row})
        assert i_to_j(a @ b) == i_to_j(a) @ i_to_j(b)
    assert i_to_j(ExactMatrix.zeros(2, 3)) == ExactMatrix.zeros(2, 3)
    for bad in (J_UNIT, SQRT2):
        with pytest.raises(ValueError, match="not a rational complex number"):
            i_to_j(ExactMatrix.from_entries(2, 2, {(0, 0): ONE, (1, 1): bad}))


def test_realify_rank_scaling():
    """Realification multiplies rank by the real dimension of the entry ring."""
    rng = random.Random(7)
    a = complex_matrix(rng, 3)
    assert rank(complex_to_real_blocks(a)) == 2 * rank_over_c(a)
    q = quaternion_matrix(rng, 2)
    r = complex_to_real_blocks(quaternion_to_complex_blocks(q))
    assert r.nrows == 8


def rank_over_c(a: ExactMatrix) -> int:
    # Row-reduce over the complex field using exact scalar division.
    rows = [list(row) for row in a.rows()]
    rank_count = 0
    col = 0
    while rows and col < a.ncols:
        pivot = next((t for t, row in enumerate(rows) if not row[col].is_zero()),
                     None)
        if pivot is None:
            col += 1
            continue
        rows[0], rows[pivot] = rows[pivot], rows[0]
        inv = rows[0][col].inverse()
        lead = [inv * x for x in rows[0]]
        rows = [[row[t] - row[col] * lead[t] for t in range(a.ncols)]
                for row in rows[1:]]
        rank_count += 1
        col += 1
    return rank_count


def test_rank_and_kernel_on_known_matrices():
    n = dense([[ZERO, ONE, ZERO], [ZERO, ZERO, ONE], [ZERO, ZERO, ZERO]])
    assert rank(n) == 2
    assert n.ncols - rank(n) == 1
    assert rank(n @ n) == 1
    assert rank(n @ n @ n) == 0
    assert rank(ExactMatrix.identity(5)) == 5


def test_det_multiplicative_and_inverse():
    rng = random.Random(8)
    done = 0
    while done < 10:
        a = complex_matrix(rng, 3)
        b = complex_matrix(rng, 3)
        assert det(a @ b) == det(a) * det(b)
        if det(a).is_zero():
            continue
        assert a @ inverse(a) == ExactMatrix.identity(3)
        done += 1


def test_det_rejects_quaternion_entries():
    m = dense([[J_UNIT]])
    with pytest.raises(ValueError):
        det(m)


def test_quaternion_inverse():
    rng = random.Random(9)
    done = 0
    while done < 8:
        a = quaternion_matrix(rng, 2)
        if reduced_norm(a).is_zero():
            continue
        assert a @ inverse(a) == ExactMatrix.identity(2)
        assert inverse(a) @ a == ExactMatrix.identity(2)
        done += 1


# Component indices of 1, i, sqrt2 and i*sqrt2 for each commutative variant.
COMMUTATIVE_COMPONENTS = {
    "rational": (0,),
    "complex": (0, 1),
    "sqrt2": (0, 4),
    "complex-sqrt2": (0, 1, 4, 5),
}


def variant_matrix(rng: random.Random, variant: str, n: int,
                   density: float = 1.0) -> ExactMatrix:
    """A random n x n matrix whose entries use the variant's components;
    each entry is nonzero with probability about ``density``."""
    comps = COMMUTATIVE_COMPONENTS[variant]
    entries = {}
    for r in range(n):
        for c in range(n):
            if rng.random() < density:
                x = [Fraction(0)] * 8
                for i in comps:
                    x[i] = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                entries[(r, c)] = Scalar(x)
    return ExactMatrix.from_entries(n, n, entries)


def test_kron_with_an_identity_repeats_the_block():
    """kron(I_s, b) is the block-diagonal sum of s copies of b, in value and
    in storage, for s = 0..3: the route a trace-zero factor is embedded by."""
    rng = random.Random("repeat")
    for n in range(4):
        blocks = [variant_matrix(rng, v, n, density=0.6) for v in COMMUTATIVE_COMPONENTS]
        blocks.append(quaternion_matrix(rng, n))
        for b in blocks:
            for s in range(4):
                out, expected = kron(ExactMatrix.identity(s), b), block_oplus([b] * s)
                assert out == expected
                assert hash(out) == hash(expected)


def unsplit_bareiss(a: ExactMatrix) -> Scalar:
    """Bareiss over the whole matrix with Scalar division: the route
    ``det`` took before it split its input into connected components."""
    n = a.nrows
    m = [list(row) for row in a.rows()]
    sign, prev = ONE, ONE
    for k in range(n):
        pivot = next((r for r in range(k, n) if not m[r][k].is_zero()), None)
        if pivot is None:
            return ZERO
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for r in range(k + 1, n):
            for c in range(k + 1, n):
                m[r][c] = (m[k][k] * m[r][c] - m[r][k] * m[k][c]) / prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1] if n else ONE


def permuted(a: ExactMatrix, perm) -> ExactMatrix:
    """P a P^T for the permutation sending index i to ``perm[i]``."""
    return ExactMatrix.from_entries(a.nrows, a.ncols, {
        (perm[r], perm[c]): x for r, row in enumerate(a.nonzeros()) for c, x in row})


@pytest.mark.parametrize("variant", sorted(COMMUTATIVE_COMPONENTS))
def test_det_by_components_matches_the_unsplit_bareiss(variant):
    """Block-diagonal, permuted-block, connected and singular-block inputs,
    sizes 0 and 1 among them, give the determinant of one elimination over
    the whole matrix."""
    rng = random.Random(f"det:{variant}")
    cases = [ExactMatrix.zeros(0, 0), ExactMatrix.zeros(1, 1),
             variant_matrix(rng, variant, 1), ExactMatrix.identity(4)]
    for _ in range(6):
        sizes = [rng.randint(1, 3) for _ in range(rng.randint(2, 4))]
        blocks = [variant_matrix(rng, variant, s) for s in sizes]
        diag = block_oplus(blocks)
        perm = list(range(diag.nrows))
        rng.shuffle(perm)
        cases += [diag, permuted(diag, perm),
                  variant_matrix(rng, variant, 4),
                  variant_matrix(rng, variant, 5, density=0.4)]
        # A singular block: its last row repeats its first.
        s = blocks[0].nrows + 1
        rows = variant_matrix(rng, variant, s).rows()
        singular = dense(list(rows[:-1]) + [rows[0]])
        assert unsplit_bareiss(singular) == ZERO
        cases.append(permuted(block_oplus([singular] + blocks[1:]),
                              list(reversed(range(s + diag.nrows - blocks[0].nrows)))))
    for a in cases:
        assert det(a) == unsplit_bareiss(a), a
    assert any(not det(a).is_zero() for a in cases if a.nrows > 3)


def test_det_of_a_split_matrix_still_rejects_a_quaternion_block():
    rng = random.Random(11)
    for variant in COMMUTATIVE_COMPONENTS:
        blocks = [variant_matrix(rng, variant, 2), dense([[J_UNIT]])]
        with pytest.raises(ValueError):
            det(block_oplus(blocks))
        with pytest.raises(ValueError):
            det(block_oplus([variant_matrix(rng, variant, 2),
                             dense([[ONE, J_UNIT], [ZERO, ONE]])]))


def test_solve_gives_the_left_inverse_times_b():
    """``a @ solve(a, b) == b`` for rectangular ``b``; over the quaternions
    the left solve differs from ``b`` times the inverse on the right."""
    rng = random.Random(12)
    done = 0
    while done < 8:
        a = quaternion_matrix(rng, 3)
        if reduced_norm(a).is_zero():
            continue
        for width in (1, 2, 3, 5):
            b = dense([[Scalar.quaternion_value(*(rng.randint(-2, 2) for _ in range(4)))
                        for _ in range(width)] for _ in range(3)])
            x = solve(a, b)
            assert (x.nrows, x.ncols) == (3, width)
            assert a @ x == b
            assert x == inverse(a) @ b
        b = quaternion_matrix(rng, 3)
        assert solve(a, b) != b @ inverse(a)
        assert solve(a, ExactMatrix.identity(3)) == inverse(a)
        done += 1
    assert solve(ExactMatrix.zeros(0, 0), ExactMatrix.zeros(0, 2)) == ExactMatrix.zeros(0, 2)


def test_solve_rejects_singular_and_mismatched_input():
    singular = dense([[ONE, I_UNIT], [I_UNIT, MINUS_ONE]])
    with pytest.raises(ZeroDivisionError):
        solve(singular, ExactMatrix.identity(2))
    with pytest.raises(ZeroDivisionError):
        inverse(singular)
    with pytest.raises(ValueError):
        solve(ExactMatrix.identity(2), ExactMatrix.identity(3))
    with pytest.raises(ValueError):
        solve(ExactMatrix.zeros(2, 3), ExactMatrix.zeros(2, 1))
    with pytest.raises(ValueError):
        inverse(ExactMatrix.zeros(2, 3))


def _with_entry(g: ExactMatrix, r: int, c: int, x) -> ExactMatrix:
    entries = {(i, j): y for i, row in enumerate(g.nonzeros()) for j, y in row}
    entries[(r, c)] = x
    return ExactMatrix.from_entries(g.nrows, g.ncols, entries)


def _columns(g: ExactMatrix, k: int) -> ExactMatrix:
    return ExactMatrix.from_entries(g.nrows, k, {
        (i, j): y for i, row in enumerate(g.nonzeros()) for j, y in row if j < k})


@pytest.mark.parametrize("kind", ["O", "U", "Sp"])
def test_is_isometry_agrees_with_the_product(kind):
    """``is_isometry(g, conj)`` reads as ``g* g == I`` (``g^T g`` without
    ``conj``) on Cayley points, on the same points with one entry changed,
    on their leading columns and rows, and at size 0."""
    rng = random.Random(f"isometry:{kind}")

    def agrees(g: ExactMatrix) -> bool:
        ident = ExactMatrix.identity(g.ncols)
        assert is_isometry(g, conj=False) == (g.transpose() @ g == ident)
        assert is_isometry(g, conj=True) == (conj_transpose(g) @ g == ident)
        return is_isometry(g, conj=kind != "O")

    assert agrees(ExactMatrix.zeros(0, 0))
    assert agrees(ExactMatrix.zeros(3, 0))
    assert not agrees(ExactMatrix.zeros(0, 2))
    for size in range(1, 5):
        for _ in range(3):
            g = random_compact_point(rng, kind, size)
            assert agrees(g)
            r, c = rng.randrange(size), rng.randrange(size)
            assert not agrees(_with_entry(g, r, c, g.rows()[r][c] + ONE))
            assert not agrees(g.scale_left(Scalar.rational(2)))
            assert agrees(_columns(g, size - 1))
            if size > 1:
                assert not agrees(_columns(g, size - 1).transpose())
                # Column 1 repeats column 0: unit columns, not orthogonal ones.
                repeat = ExactMatrix.from_entries(size, size, {
                    (0, 0): 1, (0, 1): 1, **{(k, k): 1 for k in range(2, size)}})
                assert not agrees(g @ repeat)


def test_congruence_signature_examples():
    def diag(*entries):
        n = len(entries)
        return dense([[Scalar.rational(entries[r]) if r == c else ZERO
                       for c in range(n)] for r in range(n)])

    assert congruence_signature(diag(1, 1, -1)) == (2, 1)
    assert congruence_signature(diag(-2, -3, -4, 5)) == (1, 3)
    # A hyperbolic plane has one positive and one negative direction.
    hyp = dense([[ZERO, ONE], [ONE, ZERO]])
    assert congruence_signature(hyp) == (1, 1)
    with pytest.raises(DegenerateFormError):
        congruence_signature(diag(1, 0))


def test_congruence_signature_is_congruence_invariant():
    rng = random.Random(10)
    base = dense([[Scalar.rational(x) if r == c else ZERO
                   for c, x in enumerate((1, 1, -1, -1))]
                  for r in range(4)])
    for _ in range(6):
        t = rational_matrix(rng, 4)
        if rank(t) < 4:
            continue
        assert congruence_signature(t.transpose() @ base @ t) == (2, 2)


def test_reduced_norm_is_multiplicative():
    # Nrd(q) = q * conj(q) on 1x1 matrices.
    q = Scalar.quaternion_value(2, 1, -1, 3)
    m = dense([[q]])
    assert reduced_norm(m) == q * q.conjugate()
    rng = random.Random(11)
    for _ in range(8):
        a = quaternion_matrix(rng, 2)
        b = quaternion_matrix(rng, 2)
        assert reduced_norm(a @ b) == reduced_norm(a) * reduced_norm(b)


def _reachable_scalars(root) -> list:
    """Every Scalar reachable from ``root`` through ``gc.get_referents``,
    not walking into classes, whose namespaces hold module constants."""
    seen, stack, found = set(), [root], []
    while stack:
        x = stack.pop()
        if id(x) in seen or isinstance(x, type):
            continue
        seen.add(id(x))
        if isinstance(x, Scalar):
            found.append(x)
        else:
            stack.extend(gc.get_referents(x))
    return found


def test_a_matrix_keeps_no_scalar_after_its_entries_are_read():
    """The int numerators are the only storage: reading the entries as
    Scalars builds them for the caller and leaves none in the matrix,
    whether it was built from Scalars, from ints, from numerators or by
    a product."""
    rng = random.Random(13)
    from_scalars = quaternion_matrix(rng, 3)
    from_ints = ExactMatrix.from_entries(2, 3, {(0, 1): 2, (1, 0): -1})
    from_nums = ExactMatrix.from_numerators(2, 2, 3, [
        [(1, (1, 0, 2, 0, 0, 0, 0, 0))], [(0, (0, 0, 0, 0, 1, 0, 0, 0))]])
    product = from_scalars @ complex_matrix(rng, 3)
    for m in (from_scalars, from_ints, from_nums, product):
        rows, nonzeros = m.rows(), m.nonzeros()
        assert _reachable_scalars(rows) and _reachable_scalars(nonzeros)
        assert _reachable_scalars(m) == []
        assert (m.rows(), m.nonzeros()) == (rows, nonzeros)


def test_from_numerators_reduces_and_checks_its_input():
    half = ExactMatrix.from_numerators(2, 3, 6, [
        [(2, (3, 0, 0, 0, 0, 0, 0, 0)), (0, (0, 3, 0, 0, 0, 0, 0, 0))],
        [(1, (0,) * 8)]])
    assert half == ExactMatrix.from_entries(2, 3, {
        (0, 0): Scalar.complex_value(0, Fraction(1, 2)),
        (0, 2): Scalar.rational(Fraction(1, 2))})
    assert half.integer_nonzeros() == (
        ((0, (0, 1, 0, 0, 0, 0, 0, 0)), (2, (1, 0, 0, 0, 0, 0, 0, 0))), ())
    assert ExactMatrix.from_numerators(0, 0, 1, []) == ExactMatrix.zeros(0, 0)
    one = (1, 0, 0, 0, 0, 0, 0, 0)
    with pytest.raises(IndexError):
        ExactMatrix.from_numerators(1, 2, 1, [[(2, one)]])
    with pytest.raises(IndexError):
        ExactMatrix.from_numerators(1, 2, 1, [[(-1, one)]])
    with pytest.raises(IndexError):
        ExactMatrix.from_numerators(1, 2, 1, [[(0, one), (0, one)]])
    # Every pair is checked before the all-zero ones are dropped.
    zero = (0,) * 8
    with pytest.raises(IndexError):
        ExactMatrix.from_numerators(2, 2, 1, [[(5, zero)], []])
    with pytest.raises(IndexError):
        ExactMatrix.from_numerators(1, 2, 1, [[(0, one), (0, zero)]])
    with pytest.raises(ValueError):
        ExactMatrix.from_numerators(1, 1, 1, [[(0, (0, 0))]])
    with pytest.raises(ValueError):
        ExactMatrix.from_numerators(2, 2, 1, [[(0, one)]])
    with pytest.raises(ValueError):
        ExactMatrix.from_numerators(1, 1, 0, [[(0, one)]])
    with pytest.raises(ValueError):
        ExactMatrix.from_numerators(1, 1, 1, [[(0, (1, 0))]])
    with pytest.raises(ValueError):
        ExactMatrix.from_numerators(1, 1, 1, [[(0, (Fraction(1, 2),) + one[1:])]])


def _rendered_matrices():
    out = [ExactMatrix.identity(5), ExactMatrix.zeros(2, 3),
           ExactMatrix.diagonal([ONE, MINUS_ONE, ONE, Scalar.rational(Fraction(1, 2)),
                                 I_UNIT, Scalar.rational(Fraction(1, 2)), J_UNIT])]
    for a in (AlgebraSpec("so_pq", p=3, q=2), AlgebraSpec("sp_pq", p=2, q=2),
              AlgebraSpec("sl_h", n=3)):
        rec = [r for r in enumerate_orbits(a) if not r.is_zero_orbit][-1]
        t = build_triple(a, rec.datum)
        out += [t.X, t.H, t.Y]
        if t.gram is not None:
            out.append(t.gram)
        if a.family_spec.has_adapted_basis:
            out.append(adapted_basis(a, rec.datum).matrix)
    return out


def test_rendering_renders_each_distinct_value_once(monkeypatch):
    """``to_json``, the CLI's JSON encoder and its matrix tables render each
    distinct value, zero included, once per call through the numerator-level
    renderers of ``scalars``, build no Scalar text, and equal cells are one
    object within a result."""
    from nilorb import cli, matrices, scalars

    rendered = []

    def counting(how, render):
        def counted(nums, den):
            rendered.append((how, Scalar([Fraction(v, den) for v in nums])))
            return render(nums, den)
        return counted

    def scalar_text(self):
        raise AssertionError("a matrix cell was rendered through a Scalar")

    cases = [(m, {x for row in m.nonzeros() for _, x in row}) for m in _rendered_matrices()]
    assert len(cases[0][1]) == 1 and len(cases[2][1]) == 5
    assert any(sum(map(len, m.nonzeros())) > len(values) + 2 for m, values in cases[3:])
    for module in (matrices, cli):
        monkeypatch.setattr(module, "value_json", counting("json", scalars.value_json))
    monkeypatch.setattr(cli, "value_text", counting("str", scalars.value_text))
    monkeypatch.setattr(Scalar, "to_json", scalar_text)
    monkeypatch.setattr(Scalar, "__str__", scalar_text)
    for m, values in cases:
        rendered.clear()
        cells = m.to_json()
        calls = list(rendered)
        nonzero = [x for how, x in calls if how == "json" and any(x.components)]
        assert len(nonzero) == len(values) and set(nonzero) == values
        assert len(calls) == len(values) + 1  # and the one zero cell
        for value in values:
            shared = {id(cells[r][c]) for r, row in enumerate(m.nonzeros())
                      for c, x in row if x == value}
            assert len(shared) == 1
        rendered.clear()
        _json_text({"m": [m]})
        assert rendered == calls  # the encoder renders what to_json renders
        rendered.clear()
        lines = _matrix_lines("m", m)
        calls = list(rendered)
        assert len(lines) == m.nrows + 1
        assert len(calls) == len(values) + 1  # and the one zero cell
        assert set(calls) == {("str", x) for x in values} | {("str", ZERO)}


# -- the fused identity kernel ------------------------------------------------

def tower_matrix(rng: random.Random, variant: str, n: int, m: int) -> ExactMatrix:
    """A random n x m matrix over the named variant's components, about half
    its entries zero, with denominators 1 to 6 mixed across entries."""
    comps = sorted(VARIANT_COMPONENTS[variant])
    entries = {}
    for r in range(n):
        for c in range(m):
            if rng.random() < 0.5:
                x = [Fraction(0)] * 8
                for i in comps:
                    x[i] = Fraction(rng.randint(-3, 3), rng.randint(1, 6))
                entries[(r, c)] = Scalar(x)
    return ExactMatrix.from_entries(n, m, entries)


def built(terms) -> ExactMatrix:
    """The sum the terms describe, built with products, sums and Scalar scaling."""
    total = None
    for k, a, b in terms:
        term = (a if b is None else a @ b).scale_left(Scalar.rational(k))
        total = term if total is None else total + term
    return total


def random_terms(rng: random.Random, variant: str, n: int, p: int) -> list:
    """One to three n x p terms, products through a random inner size or
    plain matrices, with int coefficients of either sign."""
    terms = []
    for _ in range(rng.randint(1, 3)):
        k = rng.choice([-3, -2, -1, 1, 2, 5])
        if rng.random() < 0.3:
            terms.append((k, tower_matrix(rng, variant, n, p), None))
        else:
            inner = rng.randint(0, 4)
            terms.append((k, tower_matrix(rng, variant, n, inner),
                          tower_matrix(rng, variant, inner, p)))
    return terms


def split(rng: random.Random, variant: str, terms) -> list:
    """The same sum spelled differently: each product's right factor split
    into two summands, each plain term into its halves, in reversed order."""
    out = []
    for k, a, b in reversed(terms):
        if b is None:
            out += [(k, a.scale_left(Scalar.rational(Fraction(1, 2))), None)] * 2
        else:
            part = tower_matrix(rng, variant, b.nrows, b.ncols)
            out += [(k, a, b - part), (k, a, part)]
    return out


@pytest.mark.parametrize("variant", ["rational", "gauss", "tower", "quat", "quat_sqrt2"])
def test_products_agree_is_equality_of_the_built_sides(variant):
    """On random sums of products and plain terms, with mixed denominators
    and shapes from 0 x 0 to 4 x 4, ``products_agree`` is ``==`` of the two
    built sums: for the built sum against itself, for a differently spelled
    sum of the same value, for one entry changed, and for unrelated sums."""
    rng = random.Random(f"agree:{variant}")
    seen = {True: 0, False: 0}
    for _ in range(60):
        n, p = rng.randint(0, 4), rng.randint(0, 4)
        lhs = random_terms(rng, variant, n, p)
        total = built(lhs)
        sides = [[(1, total, None)], split(rng, variant, lhs),
                 random_terms(rng, variant, n, p)]
        if n and p:
            r, c = rng.randrange(n), rng.randrange(p)
            bump = ExactMatrix.from_entries(n, p, {(r, c): 1})
            sides.append(lhs + [(rng.choice([-1, 1]), bump, None)])
        for rhs in sides:
            expected = total == built(rhs)
            assert products_agree(lhs, rhs) == expected
            assert products_agree(rhs, lhs) == expected
            seen[expected] += 1
    assert min(seen.values()) >= 60


def test_products_agree_refuses_misshapen_terms():
    """Operands that do not chain, or terms of different shapes, are False,
    where building the sides raises or compares unequal."""
    rng = random.Random("agree:shape")
    a23, a32 = tower_matrix(rng, "gauss", 2, 3), tower_matrix(rng, "gauss", 3, 2)
    a22, a33 = a23 @ a32, a32 @ a23
    assert not products_agree([(1, a23, a23)], [(1, a22, None)])
    with pytest.raises(ValueError, match="shape mismatch"):
        a23 @ a23
    assert not products_agree([(1, a23, a32), (-1, a32, a23)], [(0, a22, None)])
    with pytest.raises(ValueError, match="shape mismatch"):
        commutator(a23, a32)
    assert not products_agree([(1, a23, a32)], [(1, a33, None)])
    assert a23 @ a32 != a33
    assert not products_agree([(1, ExactMatrix.zeros(0, 2), None)],
                              [(1, ExactMatrix.zeros(0, 3), None)])
    # Equal on the rows both have, but one has a further (zero) row.
    taller = ExactMatrix.from_entries(3, 2, {
        (r, c): x for r, row in enumerate(a22.nonzeros()) for c, x in row})
    for lhs, rhs in (([(1, a22, None)], [(1, taller, None)]),
                     ([(1, a23, a32)], [(1, taller, None)])):
        assert not products_agree(lhs, rhs) and not products_agree(rhs, lhs)
    assert a22 != taller
    assert products_agree([(1, a23, a32), (-1, a22, None)], [(0, a22, None)])
    assert products_agree([], [])


def test_compare_products_builds_the_sides_only_on_failure(monkeypatch):
    """An agreeing pair gives ``(True, "")`` without building anything; a
    disagreeing or misshapen one gives what ``compare`` of the sides built
    from its own terms gives, or raises what building them raises."""
    rng = random.Random("compare-products")

    def never(*args):
        raise AssertionError("built an agreeing pair")

    h, x = tower_matrix(rng, "quat", 3, 3), tower_matrix(rng, "quat", 3, 3)
    hx = commutator(h, x)
    with monkeypatch.context() as patched:
        for name in ("__matmul__", "__add__", "scale_left"):
            patched.setattr(ExactMatrix, name, never)
        assert compare_products([(1, h, x), (-1, x, h)], [(1, hx, None)]) == (True, "")
    y = x.scale_left(Scalar.rational(2))
    got = compare_products([(1, h, y), (-1, y, h)], [(2, x, None)])
    assert got == compare(commutator(h, y), x.scale_left(2)) and not got[0]
    z = tower_matrix(rng, "quat", 3, 3)
    got = compare_products([(1, h, x)], [(1, z, None)])
    assert got == compare(h @ x, z) and not got[0] and got[1].startswith("entry (")
    wide = tower_matrix(rng, "quat", 3, 4)
    got = compare_products([(1, h, wide)], [(1, z, None)])
    assert got == compare(h @ wide, z) and not got[0]
    with pytest.raises(ValueError, match="shape mismatch: 3x4 @ 3x3"):
        compare_products([(1, wide, z)], [(1, z, None)])


def test_compare_products_takes_the_kernels_verdict(monkeypatch):
    """A kernel "differ" stands even where the built sides compare equal,
    and its detail says so."""
    rng = random.Random("kernel-verdict")
    h, x = tower_matrix(rng, "gauss", 3, 3), tower_matrix(rng, "gauss", 3, 3)
    monkeypatch.setattr(matrices, "products_agree", lambda lhs, rhs: False)
    for lhs, rhs in (([(1, h, x)], [(1, h @ x, None)]),
                     ([(1, h, x), (-1, x, h)], [(1, commutator(h, x), None)]),
                     ([(1, conj_transpose(h), h)], [(1, conj_transpose(h) @ h, None)])):
        assert compare_products(lhs, rhs) == (False, "kernel and built sides disagree")


@pytest.mark.parametrize("variant", ["rational", "gauss", "tower", "quat", "quat_sqrt2"])
def test_int_scale_left_matches_the_scalar_route(variant):
    rng = random.Random(f"scale:{variant}")
    for _ in range(20):
        a = tower_matrix(rng, variant, rng.randint(0, 4), rng.randint(0, 4))
        for k in (-3, -1, 0, 1, 2, 6):
            got, expected = a.scale_left(k), a.scale_left(Scalar.rational(k))
            assert got == expected and hash(got) == hash(expected)
            assert got.integer_nonzeros() == expected.integer_nonzeros()


@pytest.mark.parametrize("variant", sorted(COMMUTATIVE_COMPONENTS))
def test_det_eliminates_each_distinct_block_once(variant, monkeypatch):
    """Repeated blocks, as an embedded K point has them (``kron(I_d, g)``
    and ``block_oplus`` with a block given more than once), give the
    determinant of one Bareiss run over the whole matrix, permuted or not,
    and unpermuted the split runs Bareiss once per distinct block."""
    rng = random.Random(f"det-repeat:{variant}")
    comps = COMMUTATIVE_COMPONENTS[variant]
    runs = []
    bareiss = matrices._bareiss

    def counting(m):
        runs.append(len(m))
        return bareiss(m)

    def connected(n: int) -> ExactMatrix:
        """An invertible n x n matrix with no zero entry, so one connected
        block whose determinant does not end the split early."""
        while True:
            entries = {}
            for r in range(n):
                for c in range(n):
                    x = [Fraction(0)] * 8
                    for i in comps:
                        x[i] = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                    x[0] = Fraction(rng.randint(1, 3))
                    entries[(r, c)] = Scalar(x)
            m = ExactMatrix.from_entries(n, n, entries)
            if not unsplit_bareiss(m).is_zero():
                return m

    monkeypatch.setattr(matrices, "_bareiss", counting)
    for _ in range(8):
        b, c, d = connected(2), connected(3), rng.randint(1, 4)
        for a, distinct in ((kron(ExactMatrix.identity(d), b), [2]),
                            (block_oplus([b] * d + [c, b]), [2, 3]),
                            (block_oplus([c, b, c]), [3, 2])):
            del runs[:]
            assert det(a) == unsplit_bareiss(a)
            assert runs == distinct
            perm = list(range(a.nrows))
            rng.shuffle(perm)
            assert det(permuted(a, perm)) == unsplit_bareiss(permuted(a, perm))
