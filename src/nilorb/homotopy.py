"""Homotopy-type descriptors and the compact-group block embeddings.

Every orbit deformation-retracts onto a compact homogeneous space M/K
where M is the maximal compact subgroup of the ambient group and K the
embedded image of the orbit's compact factor tuple.  This module produces
the descriptor (ambient M, factor list, character constraint, dimensions),
realizes factor tuples as exact block matrices in the adapted basis, and
checks the embedded elements against the triple and the invariant form.
M's name and dim M belong to the algebra and are read from
:class:`~nilorb.catalog.AlgebraSpec`; only the factors are the orbit's.

A point of K is a plain tuple of exact factor matrices, one per factor,
ordered like :func:`factor_layout`.  Two kinds are built here: an exact
random point by Cayley transforms (:func:`sample_k_element`), and a fixed
one whose O factors are reflections, off their identity component
(:func:`component_representative`, from int numerators).

``verify`` checks one seeded Cayley point g1 per orbit, in two functions
here.  :func:`verify_K_membership` checks g1's factor relations and its
embedding against the triple, the form and the characters.
:func:`verify_K_homomorphism` reuses that embedding, checks only the
relations of g2 = :func:`component_representative`, through
:func:`embed_K`, and assembles g1 g2 and 1 unchecked: both lie in the
group K once g1 and g2 do.  Membership checks commutation and the form
through :func:`~nilorb.matrices.compare_products`, whose kernel alone
decides: a point that passes builds neither side of either identity,
and a failing one builds both only to name the first bad entry.

A Cayley point is built from its draws (:func:`random_compact_point`):
the drawn entries stay int numerators over 6, the anti-self-adjoint
``N = 6A`` is formed from them entry by entry, and the point is one
:func:`~nilorb.matrices.solve` of ``6I + N`` against ``6I - N``, two
matrices made from those numerators; no raw, anti-self-adjoint or
identity matrix is made.  A 1 x 1 factor, the most common one, is the
closed form ``(6 - v)^2 / (36 + |v|^2)`` and runs no solve.

Every public function takes the algebra and the datum and reads the
datum's factor layout and adapted basis (:func:`~nilorb.triples.adapted_basis`)
itself; both are memoized per datum, so no caller passes them down.  The
factor relations are checked in :func:`k_element_defect` alone, and the
characters, one per factor of M, computed in :func:`characters` alone.
"""

from __future__ import annotations

import random
from functools import lru_cache
from typing import List, NamedTuple, Optional, Tuple

from .catalog import AlgebraSpec, Datum
from .diagrams import row_plus_minus
from .families import FAMILY_SPECS, compact_dim, ring_of_kind
from .matrices import (_ONE_NUM, ExactMatrix, _conj_nums, _det_nums, _mul_nums,
                       _reduced_norm_nums, _to_scalar, block_oplus, compare,
                       compare_products, complex_to_real_blocks, conj_transpose,
                       det, diagonal_block, i_to_j, is_isometry, kron,
                       quaternion_to_complex_blocks, solve)
from .scalars import COMPLEX_LIKE_VARIANTS, Scalar
from .triples import Triple, adapted_basis, sigma_transpose

class FactorSpec(NamedTuple):
    """One compact factor: its kind, size, and where it sits in the datum."""

    kind: str  # "U" | "O" | "Sp"
    size: int
    role: str  # "part" | "even" | "odd" | "odd_p" | "odd_q"
    part: int

    def dim(self) -> int:
        return compact_dim(self.kind, self.size)

    def multiplicity_pattern(self, family: str) -> str:
        return _multiplicity_pattern(family, self.role, self.part)


@lru_cache(maxsize=1024)
def _multiplicity_pattern(family: str, role: str, d: int) -> str:
    """:meth:`FactorSpec.multiplicity_pattern`, built once per (family, role, part)."""
    spec = FAMILY_SPECS[family]
    if role == "part":
        return f"repeat:{d}"
    if role == "even":
        out = f"levels:{d // 2}"
        if spec.two_sided:
            out += ";sides:2"
        if spec.even_embed is not None:
            out += f";embed:{spec.even_embed}"
        return out
    if role == "odd":
        return f"levels:{d};quaternionic" if spec.quaternionic_k else f"levels:{d}"
    plus, minus = row_plus_minus(d, 1 if role == "odd_p" else -1)
    return f"plus-levels:{plus};minus-levels:{minus}"


@lru_cache(maxsize=1024)
def factor_layout(a: AlgebraSpec, datum: Datum) -> Tuple[FactorSpec, ...]:
    """The datum's compact factor tuple, in embedding order.

    A trace-zero family has one factor per part.  A form family lists its
    even parts, then its odd parts 1 mod 4, then those 3 mod 4, each
    ascending.  A part with free signs has one factor for its +1 rows and
    one for the others; a part that needs even multiplicity t has a factor
    of size t/2.  Kept per ``(a, datum)``, up to 1024 of them, so every K
    function asks for it instead of being handed it.
    """
    spec = a.family_spec
    if not spec.has_descriptor:
        raise ValueError(f"no homotopy descriptor for {a.family}")
    part = datum.partition
    if spec.form is None:
        return tuple(FactorSpec(spec.k_kind(d), t, "part", d) for d, t in part.pairs)
    out: List[FactorSpec] = []
    for d, t in sorted(part.pairs, key=lambda x: (x[0] % 2 and x[0] % 4, x[0])):
        kind, role = spec.k_kind(d), ("even", "odd")[d % 2]
        if d % 2 == spec.free_sign:
            out.append(FactorSpec(kind, datum.p_of(d), role + "_p", d))
            out.append(FactorSpec(kind, datum.q_of(d), role + "_q", d))
        else:
            out.append(FactorSpec(kind, t // 2 if d % 2 == spec.paired else t, role, d))
    return tuple(out)


#: The isometry relation of each factor kind; only O is read without conjugation.
_RELATION = {"O": "orthogonal", "U": "unitary", "Sp": "quaternion-unitary"}


def k_element_defect(a: AlgebraSpec, datum: Datum,
                     e: Tuple[ExactMatrix, ...]) -> Optional[str]:
    """Name the first violated factor relation of the factor tuple ``e``, or
    None when all hold."""
    layout = factor_layout(a, datum)
    if len(layout) != len(e):
        return f"expected {len(layout)} factors, got {len(e)}"
    for spec, g in zip(layout, e):
        factor = f"{spec.kind}({spec.size}) factor"
        if g.nrows != spec.size or g.ncols != spec.size:
            return f"{factor} has shape {g.nrows}x{g.ncols}"
        if not spec.size:
            continue  # the 0 x 0 matrix is in every group
        if not is_isometry(g, conj=spec.kind != "O"):
            return f"{factor} is not {_RELATION[spec.kind]}"
        if spec.kind == "O" and g.variant() != "rational":
            return f"{factor} has non-real entries"
        if spec.kind == "U" and g.variant() not in COMPLEX_LIKE_VARIANTS:
            return f"{factor} has j/k entries"
    return None


# ---------------------------------------------------------------------------
# Descriptor
# ---------------------------------------------------------------------------

class HomotopyType(NamedTuple):
    """The compact pair: orbit ≃ M / Λ(K)."""

    ambient: str
    factors: Tuple[FactorSpec, ...]
    constraint: str
    dim_M: int
    dim_K: int
    dim_quotient: int
    family: str
    auxiliary: Optional[dict] = None

    def to_json(self) -> dict:
        data = {
            "ambient": self.ambient,
            "factors": [
                {"kind": f.kind, "size": f.size,
                 "multiplicity_pattern": f.multiplicity_pattern(self.family)}
                for f in self.factors
            ],
            "constraint": self.constraint,
            "dim_M": self.dim_M,
            "dim_K": self.dim_K,
            "dim_quotient": self.dim_quotient,
        }
        if self.auxiliary is not None:
            data["auxiliary"] = self.auxiliary
        return data

    def rendered(self) -> str:
        names = [f"{f.kind}({f.size})" for f in self.factors]
        if self.constraint == "none":
            return f"{self.ambient} / ({' × '.join(names)})"
        if self.constraint == "chi=1" and FAMILY_SPECS[self.family].k_kind(1) == "O":
            # A character of O factors is +-1, trivial on the even parts.
            parts = [name for f, name in zip(self.factors, names) if f.part % 2 == 0]
            grouped = [name for f, name in zip(self.factors, names) if f.part % 2 == 1]
            if grouped:
                parts.append(f"S({' × '.join(grouped)})")
            return f"{self.ambient} / ({' × '.join(parts)})"
        if self.constraint == "chi=1":
            return f"{self.ambient} / {{{' × '.join(names)} : chi = 1}}"
        return f"{self.ambient} / {{{' × '.join(names)} : chi_p = chi_q = 1}}"


def compact_pair(a: AlgebraSpec, datum: Datum) -> HomotopyType:
    """Descriptor of the orbit's homotopy type M/Λ(K).

    dim K adds up the factors' dimensions, less one where the constraint
    chi = 1 is on a character of U factors, a circle; a character of O
    factors takes only the values +-1.  M's name, dim M and the constraint
    facts are the algebra's (:attr:`AlgebraSpec.constraint_facts`); only
    the factors and dim K are the orbit's.
    """
    factors = factor_layout(a, datum)
    constraint, circle, aux = a.constraint_facts
    m = a.dim_M
    k = sum([f.dim() for f in factors]) - circle
    return HomotopyType(a.ambient_name, factors, constraint, m, k, m - k, a.family, aux)


# ---------------------------------------------------------------------------
# Embedding
# ---------------------------------------------------------------------------

def _factor_block(a: AlgebraSpec, spec: FactorSpec, g: ExactMatrix) -> ExactMatrix:
    """A factor as it enters the adapted basis (``FamilySpec.even_embed``)."""
    embed = a.family_spec.even_embed if spec.role == "even" else None
    if embed == "H-to-R":
        return complex_to_real_blocks(quaternion_to_complex_blocks(g))
    if embed == "C-to-R":
        return complex_to_real_blocks(g)
    if embed == "i-to-j":
        return i_to_j(g)
    return g


def embed_K(a: AlgebraSpec, datum: Datum, e: Tuple[ExactMatrix, ...]) -> ExactMatrix:
    """Assemble the factor tuple into the ambient compact group.

    The output lives in adapted-basis coordinates for the form families
    (for the complex symplectic family that means the quaternion-to-complex
    image of the quaternionic block matrix) and in triple coordinates for
    the trace-zero families.  Raises ``ValueError`` naming the first
    violated factor relation (:func:`k_element_defect`).
    """
    defect = k_element_defect(a, datum, e)
    if defect is not None:
        raise ValueError(defect)
    return _assemble_K(a, datum, e)


def _assemble_K(a: AlgebraSpec, datum: Datum,
                e: Tuple[ExactMatrix, ...]) -> ExactMatrix:
    """The block assembly of :func:`embed_K` for a tuple with no factor defect."""
    layout = factor_layout(a, datum)
    if not a.family_spec.has_adapted_basis:
        # A trace-zero family has one factor per part, in the triple's part order.
        return block_oplus([kron(ExactMatrix.identity(f.part), g)
                            for f, g in zip(layout, e)])
    adapted = adapted_basis(a, datum)
    # Each factor as it enters the adapted basis, realized once, by (role, part).
    realized = {(f.role, f.part): _factor_block(a, f, g) for f, g in zip(layout, e)}

    def side_blocks(specs) -> List[ExactMatrix]:
        out = []
        for bs in specs:
            block = realized[bs.factor]
            if block.nrows != bs.size:
                raise ValueError(
                    f"factor block for part {bs.factor[1]} has size "
                    f"{block.nrows}, adapted basis expects {bs.size}")
            out.append(block)
        return out

    if a.family_spec.quaternionic_k:
        return quaternion_to_complex_blocks(block_oplus(side_blocks(adapted.plus_blocks)))
    return block_oplus(side_blocks(adapted.plus_blocks) + side_blocks(adapted.minus_blocks))


def characters(a: AlgebraSpec, datum: Datum,
               e: Tuple[ExactMatrix, ...]) -> Tuple[Scalar, ...]:
    """The determinant characters of the factor tuple, one per factor of M.

    Each factor of a whole part or of an odd part contributes its
    determinant (its reduced norm for Sp) to the power of the part: to the
    second value for an ``odd_q`` factor, to the first otherwise.  An even
    part's factor contributes nothing, since a realified U block and an Sp
    block have determinant 1.  Under ``chi_p = chi_q = 1`` every
    contributing factor is O, of determinant +-1, so only the parity of the
    power matters: an ``odd_p`` or ``odd_q`` row of length d puts an odd
    number of its levels on its own side of M and an even number on the
    other, so the factor gives its own side's block its determinant to the
    power d, equal to the power 1, and the other block the power 0.

    The products run on int numerators over one denominator per character
    (``matrices._det_nums``, ``_reduced_norm_nums`` and ``_mul_nums``), and
    each character becomes a Scalar once, at the end.
    """
    values = [(_ONE_NUM, 1)] * len(a.ambient_sizes)
    for f, g in zip(factor_layout(a, datum), e):
        if f.role == "part" or f.role.startswith("odd"):
            base, den = _reduced_norm_nums(g) if f.kind == "Sp" else _det_nums(g)
            side = 1 if f.role == "odd_q" else 0
            nums, d = values[side]
            for _ in range(f.part):
                nums = _mul_nums(nums, base)
            values[side] = nums, d * den ** f.part
    return tuple([_to_scalar(nums, d) for nums, d in values])


def signed_block_totals(a: AlgebraSpec, datum: Datum) -> Tuple[int, int]:
    """Row totals of the two embedded halves, counted from the adapted basis."""
    adapted = adapted_basis(a, datum)
    return (sum(b.size for b in adapted.plus_blocks),
            sum(b.size for b in adapted.minus_blocks))


# ---------------------------------------------------------------------------
# Membership verification
# ---------------------------------------------------------------------------

class MembershipResult(NamedTuple):
    failures: Tuple[str, ...]
    # The embedded element that was checked; None after a factor defect.
    embedded: Optional[ExactMatrix] = None

    @property
    def ok(self) -> bool:
        """Whether every check passed: there is no failure."""
        return not self.failures


def verify_K_membership(a: AlgebraSpec, datum: Datum, e: Tuple[ExactMatrix, ...],
                        t: Triple) -> MembershipResult:
    """Check an embedded element against the triple, form, and character.

    The element is moved back to triple coordinates through the matrix
    ``T`` of the datum's adapted basis (a trace-zero family embeds in
    triple coordinates already), then tested for exact commutation with
    X, H, Y, preservation of the Gram matrix, and, under a character
    constraint, equality of the determinants of the embedded element's
    diagonal blocks, one per factor of M, with :func:`characters`.  A
    failed commutation or preservation names its first bad entry
    (:func:`~nilorb.matrices.compare`): ``commutes[X]: entry (r,c) is x,
    expected y`` compares ``g X`` with ``X g``, and ``preserves[S]: ...``
    compares ``sigma(g)^T S g`` with ``S``.  ``T`` must be unitary
    (``T* T = I``), so that ``T*`` is its inverse; otherwise the result is
    the single failure ``unitary[T]``.

    The factor relations are checked first: a defect is the single failure
    ``factor relation: ...`` and the result carries no element.  Otherwise
    ``embedded`` is the element as :func:`embed_K` would return it, which
    :func:`verify_K_homomorphism` reuses instead of checking ``e`` again.
    """
    failures: List[str] = []
    defect = k_element_defect(a, datum, e)
    if defect is not None:
        return MembershipResult((f"factor relation: {defect}",))
    g = emb = _assemble_K(a, datum, e)
    if a.family_spec.has_adapted_basis:
        T = adapted_basis(a, datum).matrix
        if not is_isometry(T, conj=True):
            return MembershipResult(("unitary[T]",), emb)
        g = T @ emb @ conj_transpose(T)
    for name, m in (("X", t.X), ("H", t.H), ("Y", t.Y)):
        ok, detail = compare_products([(1, g, m)], [(1, m, g)])
        if not ok:
            failures.append(f"commutes[{name}]: {detail}")
    if t.gram is not None:
        gs = sigma_transpose(g, t.sigma) @ t.gram
        ok, detail = compare_products([(1, gs, g)], [(1, t.gram, None)])
        if not ok:
            failures.append(f"preserves[S]: {detail}")
    if a.family_spec.constraint != "none":
        dets, lo = [], 0
        for size in a.ambient_sizes:
            dets.append(det(diagonal_block(emb, lo, lo + size)))
            lo += size
        chars = characters(a, datum, e)
        if tuple(dets) != chars:
            failures.append(f"det-vs-chi: det {', '.join(map(str, dets))} "
                            f"!= chi {', '.join(map(str, chars))}")
    return MembershipResult(tuple(failures), emb)


def verify_K_homomorphism(a: AlgebraSpec, datum: Datum, e: Tuple[ExactMatrix, ...],
                          member: MembershipResult) -> Tuple[bool, str]:
    """``verify``'s ``embedding-homomorphism`` line: emb(g1) emb(g2) =
    emb(g1 g2) and emb(1) = 1, as ``(ok, detail)``.

    ``member`` is :func:`verify_K_membership`'s result for g1 = ``e``; its
    embedding is reused, or its factor defect is the detail.  Only g2 =
    :func:`component_representative` is checked here, by :func:`embed_K`;
    g1 g2 and 1 are assembled unchecked, as K is a group.  A failure names
    ``product: `` or ``identity: `` and the first bad entry.
    """
    emb1 = member.embedded
    if emb1 is None:
        return False, member.failures[0]
    e2 = component_representative(a, datum)
    emb2 = embed_K(a, datum, e2)
    emb_prod = _assemble_K(a, datum, tuple([g1 @ g2 for g1, g2 in zip(e, e2)]))
    emb_ident = _assemble_K(a, datum, tuple([ExactMatrix.identity(g.nrows) for g in e]))
    ok, detail = compare_products([(1, emb1, emb2)], [(1, emb_prod, None)])
    if not ok:
        return False, f"product: {detail}"
    ok, detail = compare(emb_ident, ExactMatrix.identity(emb1.nrows))
    return ok, detail and f"identity: {detail}"


# ---------------------------------------------------------------------------
# Exact random points via Cayley transforms
# ---------------------------------------------------------------------------

def random_compact_point(rng: random.Random, kind: str, size: int) -> ExactMatrix:
    """An exact random point of O/U/Sp(size) via the Cayley transform.

    Each of the ``dim`` (1, 2 or 4) components of each raw entry is
    ``rng.randint(-2, 2) / rng.randint(1, 3)``, drawn in that order and in
    row-major order, so that a seed keeps giving the same point.  The
    draws are kept as int numerators over 6, and so is the
    anti-self-adjoint ``A = raw - raw*`` (``raw - raw^T`` for O): ``N =
    6A``.  The transform is ``(I + A)^-1 (I - A) = (6I + N)^-1 (6I - N)``,
    which equals ``(I - A) (I + A)^-1`` since the two factors commute; it
    is one solve on the numerators of ``6I + N`` and ``6I - N``.  At size
    1, ``N`` is one pure imaginary ``v``, which commutes with ``6 - v``
    and has ``v^2 = -|v|^2``, so the point is the closed form ``(6 - v)^2
    / (36 + |v|^2)`` and no solve runs.  The transform always lands in the
    identity component; for the orthogonal groups a reflection, composed
    with probability 1/2, reaches the other component.
    """
    if size == 0:
        return ExactMatrix.zeros(0, 0)
    dim = ring_of_kind(kind).dim
    pad = (0,) * (8 - dim)
    # The numerator over 6 of randint(-2, 2) / randint(1, 3), drawn left to right.
    raw = [[tuple([rng.randint(-2, 2) * (6 // rng.randint(1, 3)) for _ in range(dim)]) + pad
            for _ in range(size)] for _ in range(size)]
    anti = [[tuple([u - v for u, v in zip(x, _conj_nums(raw[c][r]))])
             for c, x in enumerate(row)] for r, row in enumerate(raw)]
    if size == 1:
        v = anti[0][0]
        norm = sum([x * x for x in v])
        g = ExactMatrix.from_numerators(1, 1, 36 + norm, [[(0, (36 - norm,) + tuple(
            [-12 * x for x in v[1:]]))]])
    else:
        def shifted(sign: int) -> list:
            """The numerator rows of ``6I + sign N``; ``N``'s diagonal is imaginary."""
            out = []
            for r, row in enumerate(anti):
                cells = [(c, tuple([sign * u for u in x])) for c, x in enumerate(row)]
                cells[r] = (r, (6,) + cells[r][1][1:])
                out.append(cells)
            return out
        g = solve(ExactMatrix.from_numerators(size, size, 1, shifted(1)),
                  ExactMatrix.from_numerators(size, size, 1, shifted(-1)))
    if kind == "O" and rng.random() < 0.5:
        g = g @ ExactMatrix.diagonal([-1] + [1] * (size - 1))
    return g


def sample_k_element(a: AlgebraSpec, datum: Datum,
                     rng: random.Random) -> Tuple[ExactMatrix, ...]:
    """A random exact point of the datum's factor group."""
    return tuple([random_compact_point(rng, spec.kind, spec.size)
                  for spec in factor_layout(a, datum)])


# The (0, 0) entry of each kind's component representative, as numerators
# over 5: -1, (3 + 4i)/5 and j, each of norm 1.
_REPRESENTATIVE_UNIT = {
    "O": (-5, 0, 0, 0, 0, 0, 0, 0),
    "U": (3, 4, 0, 0, 0, 0, 0, 0),
    "Sp": (0, 0, 5, 0, 0, 0, 0, 0),
}
_FIVE = (5, 0, 0, 0, 0, 0, 0, 0)


def component_representative(a: AlgebraSpec, datum: Datum
                             ) -> Tuple[ExactMatrix, ...]:
    """A fixed point of the datum's factor group: diag(u, 1, ..., 1) per factor.

    u is -1 for an O factor, a reflection into its other component,
    (3 + 4i)/5 for a U factor and j for an Sp factor.  A size-0 factor is
    the 0 x 0 matrix.  Built from int numerators, so it makes no Scalar,
    and kept in no memo.
    """
    return tuple([ExactMatrix.from_numerators(spec.size, spec.size, 5, [
        [(r, _FIVE if r else _REPRESENTATIVE_UNIT[spec.kind])] for r in range(spec.size)])
        for spec in factor_layout(a, datum)])
