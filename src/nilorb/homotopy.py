"""Homotopy-type descriptors and the compact-group block embeddings.

Every orbit deformation-retracts onto a compact homogeneous space M/K
where M is the maximal compact subgroup of the ambient group and K the
embedded image of the orbit's compact factor tuple.  This module produces
the descriptor (ambient M, factor list, character constraint, dimensions),
realizes factor tuples as exact block matrices in the adapted basis, and
checks the embedded elements against the triple and the invariant form.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

from .catalog import AlgebraSpec, Datum, datum_partition
from .centralizers import expected_compact_dim
from .diagrams import SignedDiagram
from .matrices import (ExactMatrix, block_oplus, complex_to_real_blocks,
                       conj_transpose, det, inverse,
                       quaternion_to_complex_blocks, reduced_norm,
                       repeat_blocks)
from .scalars import COMPLEX_LIKE_VARIANTS, ONE, Scalar
from .triples import AdaptedBasis, Triple, adapted_basis, sigma_transpose

_FORM_FAMILIES = ("so_c", "so_pq", "sp_c", "sp_pq")


@dataclass(frozen=True)
class FactorSpec:
    """One compact factor: its kind, size, and where it sits in the datum."""

    kind: str  # "U" | "O" | "Sp"
    size: int
    role: str  # "part" | "even" | "odd" | "odd_p" | "odd_q"
    part: int

    def dim(self) -> int:
        if self.kind == "U":
            return self.size * self.size
        if self.kind == "O":
            return self.size * (self.size - 1) // 2
        return self.size * (2 * self.size + 1)

    def multiplicity_pattern(self, family: str) -> str:
        d = self.part
        if self.role == "part":
            return f"repeat:{d}"
        if self.role == "even":
            reps = d // 2
            if family == "so_c":
                return f"levels:{reps};embed:H-to-R"
            if family == "so_pq":
                return f"levels:{reps};sides:2;embed:C-to-R"
            if family == "sp_pq":
                return f"levels:{reps};sides:2;embed:i-to-j"
            return f"levels:{reps};sides:2"
        if self.role == "odd":
            if family == "sp_c":
                return f"levels:{d};quaternionic"
            return f"levels:{d}"
        plus = (d + 1) // 2 if d % 4 == 1 else d // 2
        if self.role == "odd_q":
            plus = d - plus
        return f"plus-levels:{plus};minus-levels:{d - plus}"


def factor_layout(a: AlgebraSpec, datum: Datum) -> List[FactorSpec]:
    """The datum's compact factor tuple, in embedding order."""
    part = datum_partition(datum)
    fam = a.family
    if fam in ("sl_r", "sl_c", "sl_h"):
        kind = {"sl_r": "O", "sl_c": "U", "sl_h": "Sp"}[fam]
        return [FactorSpec(kind, t, "part", d) for d, t in part.pairs]
    if fam not in _FORM_FAMILIES:
        raise ValueError(f"no homotopy descriptor for {fam}")
    evens = sorted((d, t) for d, t in part.pairs if d % 2 == 0)
    odds = sorted((d, t) for d, t in part.pairs if d % 2 == 1)
    odds = ([x for x in odds if x[0] % 4 == 1] + [x for x in odds if x[0] % 4 == 3])
    out: List[FactorSpec] = []
    if fam == "so_c":
        out += [FactorSpec("Sp", t // 2, "even", d) for d, t in evens]
        out += [FactorSpec("O", t, "odd", d) for d, t in odds]
    elif fam == "so_pq":
        out += [FactorSpec("U", t // 2, "even", d) for d, t in evens]
        for d, _ in odds:
            out.append(FactorSpec("O", datum.p_of(d), "odd_p", d))
            out.append(FactorSpec("O", datum.q_of(d), "odd_q", d))
    elif fam == "sp_c":
        out += [FactorSpec("O", t, "even", d) for d, t in evens]
        out += [FactorSpec("Sp", t // 2, "odd", d) for d, t in odds]
    else:  # sp_pq
        out += [FactorSpec("U", t, "even", d) for d, t in evens]
        for d, _ in odds:
            out.append(FactorSpec("Sp", datum.p_of(d), "odd_p", d))
            out.append(FactorSpec("Sp", datum.q_of(d), "odd_q", d))
    return out


@dataclass(frozen=True)
class KElement:
    """A tuple of exact factor matrices, ordered like :func:`factor_layout`."""

    factors: Tuple[ExactMatrix, ...]


def k_element_defect(a: AlgebraSpec, datum: Datum, e: KElement) -> Optional[str]:
    """Name the first violated factor relation, or None when all hold."""
    layout = factor_layout(a, datum)
    if len(layout) != len(e.factors):
        return f"expected {len(layout)} factors, got {len(e.factors)}"
    for spec, g in zip(layout, e.factors):
        if g.nrows != spec.size or g.ncols != spec.size:
            return f"{spec.kind}({spec.size}) factor has shape {g.nrows}x{g.ncols}"
        ident = ExactMatrix.identity(spec.size)
        if spec.kind == "O":
            if g.transpose() @ g != ident:
                return f"O({spec.size}) factor is not orthogonal"
            if g.variant() != "rational":
                return f"O({spec.size}) factor has non-real entries"
        elif spec.kind == "U":
            if conj_transpose(g) @ g != ident:
                return f"U({spec.size}) factor is not unitary"
            if g.variant() not in COMPLEX_LIKE_VARIANTS:
                return f"U({spec.size}) factor has j/k entries"
        else:
            if conj_transpose(g) @ g != ident:
                return f"Sp({spec.size}) factor is not quaternion-unitary"
    return None


# ---------------------------------------------------------------------------
# Descriptor
# ---------------------------------------------------------------------------

def ambient_name(a: AlgebraSpec) -> str:
    fam = a.family
    if fam == "sl_c":
        return f"SU({a.n})"
    if fam == "sl_r":
        return f"SO({a.n})"
    if fam == "sl_h":
        return f"Sp({a.n})"
    if fam == "so_c":
        return f"SO({a.n})"
    if fam == "so_pq":
        return f"SO({a.p})×SO({a.q})"
    if fam == "sp_c":
        return f"Sp({a.n})"
    if fam == "sp_pq":
        return f"Sp({a.p})×Sp({a.q})"
    raise ValueError(f"no homotopy descriptor for {fam}")


def dim_M(a: AlgebraSpec) -> int:
    fam = a.family
    if fam in ("sl_c",):
        return a.n * a.n - 1
    if fam in ("sl_r", "so_c"):
        return a.n * (a.n - 1) // 2
    if fam in ("sl_h", "sp_c"):
        return a.n * (2 * a.n + 1)
    if fam == "so_pq":
        return a.p * (a.p - 1) // 2 + a.q * (a.q - 1) // 2
    if fam == "sp_pq":
        return a.p * (2 * a.p + 1) + a.q * (2 * a.q + 1)
    raise ValueError(f"no homotopy descriptor for {fam}")


_CONSTRAINT = {
    "sl_c": "chi=1",
    "sl_r": "chi=1",
    "sl_h": "none",
    "so_c": "chi=1",
    "so_pq": "chi_p=chi_q=1",
    "sp_c": "none",
    "sp_pq": "none",
}


@dataclass(frozen=True)
class HomotopyType:
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
        if self.family in ("so_c", "sl_r"):
            plain, grouped = [], []
            for f, name in zip(self.factors, names):
                if f.part % 2 == 1:
                    grouped.append(name)
                else:
                    plain.append(name)
            if not grouped:
                return f"{self.ambient} / ({' × '.join(plain)})"
            parts = plain + [f"S({' × '.join(grouped)})"]
            return f"{self.ambient} / ({' × '.join(parts)})"
        if self.constraint == "chi=1":
            return f"{self.ambient} / {{{' × '.join(names)} : chi = 1}}"
        return f"{self.ambient} / {{{' × '.join(names)} : chi_p = chi_q = 1}}"


def compact_pair(a: AlgebraSpec, datum: Datum) -> HomotopyType:
    """Descriptor of the orbit's homotopy type M/Λ(K)."""
    factors = tuple(factor_layout(a, datum))
    m = dim_M(a)
    k = expected_compact_dim(a, datum)
    aux = None
    if a.family == "so_pq":
        aux = {"ambient": f"S(O({a.p}) × O({a.q}))", "constraint": "chi_p*chi_q=1"}
    return HomotopyType(
        ambient=ambient_name(a), factors=factors,
        constraint=_CONSTRAINT[a.family], dim_M=m, dim_K=k,
        dim_quotient=m - k, family=a.family, auxiliary=aux)


def quotient_dim(a: AlgebraSpec, datum: Datum) -> int:
    return dim_M(a) - expected_compact_dim(a, datum)


# ---------------------------------------------------------------------------
# Embedding
# ---------------------------------------------------------------------------

def _i_to_j(m: ExactMatrix) -> ExactMatrix:
    """Send complex entries x + iy to the quaternions x + jy."""
    if m.variant() not in ("rational", "gauss"):
        raise ValueError("entry is not a rational complex number")
    return ExactMatrix.from_entries(m.nrows, m.ncols, {
        (r, c): Scalar.quaternion_value(x.components[0], 0, x.components[1], 0)
        for r, row in enumerate(m.nonzeros()) for c, x in row})


def _factor_block(a: AlgebraSpec, spec: FactorSpec, g: ExactMatrix) -> ExactMatrix:
    fam = a.family
    if spec.role == "even":
        if fam == "so_c":
            return complex_to_real_blocks(quaternion_to_complex_blocks(g))
        if fam == "so_pq":
            return complex_to_real_blocks(g)
        if fam == "sp_pq":
            return _i_to_j(g)
    return g


def embed_K(a: AlgebraSpec, datum: Datum, e: KElement,
            adapted: Optional[AdaptedBasis] = None) -> ExactMatrix:
    """Assemble the factor tuple into the ambient compact group.

    The output lives in adapted-basis coordinates for the form families
    (for the complex symplectic family that means the quaternion-to-complex
    image of the quaternionic block matrix) and in triple coordinates for
    the trace-zero families.  ``adapted`` is the datum's adapted basis,
    built here when not given.
    """
    defect = k_element_defect(a, datum, e)
    if defect is not None:
        raise ValueError(defect)
    if adapted is None:
        adapted = _form_basis(a, datum)
    return _assemble_K(a, datum, e, adapted)


def _form_basis(a: AlgebraSpec, datum: Datum) -> Optional[AdaptedBasis]:
    """The adapted basis of a form family; None for the trace-zero families."""
    return adapted_basis(a, datum) if a.family in _FORM_FAMILIES else None


def _assemble_K(a: AlgebraSpec, datum: Datum, e: KElement,
                adapted: Optional[AdaptedBasis]) -> ExactMatrix:
    """The block assembly of :func:`embed_K` for a tuple with no factor defect."""
    layout = factor_layout(a, datum)
    by_key = {(spec.role, spec.part): g for spec, g in zip(layout, e.factors)}
    fam = a.family

    if adapted is None:
        part = datum_partition(datum)
        blocks = [repeat_blocks(by_key[("part", d)], d) for d, _ in part.pairs]
        return block_oplus(blocks)

    def side_blocks(specs) -> List[ExactMatrix]:
        out = []
        for bs in specs:
            role = bs.factor[0]
            g = by_key[(role, bs.factor[1])]
            spec = next(s for s in layout
                        if (s.role, s.part) == (role, bs.factor[1]))
            block = _factor_block(a, spec, g)
            if block.nrows != bs.size:
                raise ValueError(
                    f"factor block for part {bs.factor[1]} has size "
                    f"{block.nrows}, adapted basis expects {bs.size}")
            out.append(block)
        return out

    if fam == "sp_c":
        quat = block_oplus(side_blocks(adapted.plus_blocks))
        return quaternion_to_complex_blocks(quat)
    blocks = side_blocks(adapted.plus_blocks) + side_blocks(adapted.minus_blocks)
    return block_oplus(blocks)


def chi(a: AlgebraSpec, datum: Datum, e: KElement) -> Scalar:
    """The determinant character attached to the factor tuple."""
    layout = factor_layout(a, datum)
    fam = a.family
    if fam in ("sl_r", "sl_c", "sl_h"):
        total = ONE
        for spec, g in zip(layout, e.factors):
            base = reduced_norm(g) if fam == "sl_h" else det(g)
            for _ in range(spec.part):
                total = total * base
        return total
    if fam == "so_c":
        total = ONE
        for spec, g in zip(layout, e.factors):
            if spec.part % 2 == 1:
                base = det(g)
                for _ in range(spec.part):
                    total = total * base
        return total
    raise ValueError(f"no single character for {fam}; see chi_pair")


def chi_pair(a: AlgebraSpec, datum: Datum, e: KElement) -> Tuple[Scalar, Scalar]:
    """The two characters of the split orthogonal family."""
    if a.family != "so_pq":
        raise ValueError("chi_pair applies to the split orthogonal family")
    layout = factor_layout(a, datum)
    chi_p = ONE
    chi_q = ONE
    for spec, g in zip(layout, e.factors):
        if spec.role == "even":
            base = det(complex_to_real_blocks(g))
            for _ in range(spec.part // 2):
                chi_p = chi_p * base
                chi_q = chi_q * base
        elif spec.role == "odd_p":
            chi_p = chi_p * det(g)
        elif spec.role == "odd_q":
            chi_q = chi_q * det(g)
    return chi_p, chi_q


def signed_block_totals(a: AlgebraSpec, datum: Datum) -> Tuple[int, int]:
    """Row totals of the two embedded halves, counted from the adapted basis."""
    return _half_totals(adapted_basis(a, datum))


def _half_totals(adapted: AdaptedBasis) -> Tuple[int, int]:
    return (sum(b.size for b in adapted.plus_blocks),
            sum(b.size for b in adapted.minus_blocks))


def signed_block_relation(datum: SignedDiagram) -> Tuple[int, int]:
    """Closed-form totals of the two embedded halves from the sign data.

    Even parts contribute d/2 rows per row of the diagram to both halves;
    an odd part contributes (d+1)/2 rows of its own sign class and (d-1)/2
    of the opposite one when d = 1 mod 4, and the reverse when d = 3 mod 4.
    """
    plus_total = minus_total = 0
    for d, t in datum.partition.pairs:
        if d % 2 == 0:
            plus_total += (d // 2) * t
            minus_total += (d // 2) * t
            continue
        p, q = datum.p_of(d), datum.q_of(d)
        own, other = ((d + 1) // 2, (d - 1) // 2)
        if d % 4 == 3:
            own, other = other, own
        plus_total += own * p + other * q
        minus_total += other * p + own * q
    return plus_total, minus_total


# ---------------------------------------------------------------------------
# Membership verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MembershipResult:
    ok: bool
    failures: Tuple[str, ...]

    def __bool__(self) -> bool:
        return self.ok


def verify_K_membership(a: AlgebraSpec, datum: Datum, e: KElement,
                        t: Triple, T: Optional[ExactMatrix] = None,
                        adapted: Optional[AdaptedBasis] = None) -> MembershipResult:
    """Check an embedded element against the triple, form, and character.

    The element is moved back to triple coordinates through ``T`` (identity
    for the trace-zero families), then tested for exact commutation with
    X, H, Y, preservation of the Gram matrix, and agreement between the
    ambient determinant condition and the character constraint.
    ``adapted`` is the datum's adapted basis, built here when not given;
    ``T`` defaults to its matrix.  ``T`` must be unitary (``T* T = I``),
    so that ``T*`` is its inverse; otherwise the result is the single
    failure ``unitary[T]``.
    """
    if adapted is None:
        adapted = _form_basis(a, datum)
    if T is None and adapted is not None:
        T = adapted.matrix
    failures: List[str] = []
    defect = k_element_defect(a, datum, e)
    if defect is not None:
        return MembershipResult(False, (f"factor relation: {defect}",))
    emb = _assemble_K(a, datum, e, adapted)
    g = emb
    if adapted is not None:
        t_star = conj_transpose(T)
        if t_star @ T != ExactMatrix.identity(T.ncols):
            return MembershipResult(False, ("unitary[T]",))
        g = T @ emb @ t_star
    for name, m in (("X", t.X), ("H", t.H), ("Y", t.Y)):
        if g @ m != m @ g:
            failures.append(f"commutes[{name}]")
    if t.gram is not None:
        if sigma_transpose(g, t.sigma) @ t.gram @ g != t.gram:
            failures.append("preserves[S]")
    one = ONE
    if a.family in ("sl_c", "sl_r", "so_c"):
        char = chi(a, datum, e)
        if (det(emb) == one) != (char == one):
            failures.append("det-vs-chi")
    elif a.family == "so_pq":
        cp, cq = chi_pair(a, datum, e)
        det_p = det(_corner(emb, 0, a.p))
        det_q = det(_corner(emb, a.p, a.p + a.q))
        if (det_p == one and det_q == one) != (cp == one and cq == one):
            failures.append("det-vs-chi")
    return MembershipResult(not failures, tuple(failures))


def _corner(m: ExactMatrix, lo: int, hi: int) -> ExactMatrix:
    """The diagonal block of rows and columns ``lo..hi-1``."""
    return ExactMatrix.from_entries(hi - lo, hi - lo, {
        (r - lo, c - lo): x for r, row in enumerate(m.nonzeros()[lo:hi], lo)
        for c, x in row if lo <= c < hi})


# ---------------------------------------------------------------------------
# Exact random points via Cayley transforms
# ---------------------------------------------------------------------------

def _random_scalar(rng: random.Random, kind: str) -> Scalar:
    def q() -> Fraction:
        return Fraction(rng.randint(-2, 2), rng.randint(1, 3))

    if kind == "O":
        return Scalar.rational(q())
    if kind == "U":
        return Scalar.complex_value(q(), q())
    return Scalar.quaternion_value(q(), q(), q(), q())


def random_compact_point(rng: random.Random, kind: str, size: int,
                         reflect: Optional[bool] = None) -> ExactMatrix:
    """An exact random point of O/U/Sp(size) via the Cayley transform.

    The transform of an anti-self-adjoint matrix always lands in the
    identity component; for the orthogonal groups ``reflect`` (default:
    random) composes with a reflection to reach the other component.
    """
    if size == 0:
        return ExactMatrix.zeros(0, 0)
    raw = ExactMatrix.build(size, size, lambda r, c: _random_scalar(rng, kind))
    anti = raw - (raw.transpose() if kind == "O" else conj_transpose(raw))
    ident = ExactMatrix.identity(size)
    g = (ident - anti) @ inverse(ident + anti)
    if kind == "O":
        if reflect is None:
            reflect = rng.random() < 0.5
        if reflect:
            g = g @ ExactMatrix.diagonal([-1] + [1] * (size - 1))
    return g


def sample_k_element(a: AlgebraSpec, datum: Datum,
                     rng: random.Random) -> KElement:
    """A random exact point of the datum's factor group."""
    return KElement(tuple(
        random_compact_point(rng, spec.kind, spec.size)
        for spec in factor_layout(a, datum)))
