"""Exact arithmetic in the scalar tower used throughout the package.

Every coefficient the library needs lives in the eight-dimensional rational
space spanned by ``{1, i, j, k}`` and their multiples by ``sqrt(2)``: plain
rationals, Gaussian rationals, the tower ``Q(i, sqrt2)``, rational
quaternions, and quaternions over ``Q(sqrt2)``.  Arithmetic is exact and
nothing here ever rounds.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import List, Sequence, Tuple, Union

RationalLike = Union[int, Fraction]

#: Component labels, in serialization order.  Index ``q + 4*s`` holds the
#: coefficient of quaternion unit ``q`` (0=1, 1=i, 2=j, 3=k) times
#: ``sqrt(2)**s``.
BASIS_NAMES = ("1", "i", "j", "k", "sqrt2", "i*sqrt2", "j*sqrt2", "k*sqrt2")

# Quaternion unit products: _QMUL[a][b] = (sign, unit of e_a * e_b).
_QMUL = (
    ((1, 0), (1, 1), (1, 2), (1, 3)),
    ((1, 1), (-1, 0), (1, 3), (-1, 2)),
    ((1, 2), (-1, 3), (-1, 0), (1, 1)),
    ((1, 3), (1, 2), (-1, 1), (-1, 0)),
)

# _PROD[a][b] = (index, factor): component a times component b lands on
# ``index`` scaled by ``factor`` (the unit sign, doubled for sqrt(2)**2).
_PROD = tuple(
    tuple((_QMUL[ia & 3][ib & 3][1] + 4 * ((ia >> 2) ^ (ib >> 2)),
           _QMUL[ia & 3][ib & 3][0] * (2 if ia >> 2 and ib >> 2 else 1))
          for ib in range(8))
    for ia in range(8))

_F0 = Fraction(0)
_F1 = Fraction(1)

#: Which components each named variant allows.
VARIANT_COMPONENTS = {
    "rational": frozenset({0}),
    "gauss": frozenset({0, 1}),
    "tower": frozenset({0, 1, 4, 5}),
    "quat": frozenset({0, 1, 2, 3}),
    "quat_sqrt2": frozenset(range(8)),
}


#: The variants without j or k parts, whose values commute.
COMPLEX_LIKE_VARIANTS = ("rational", "gauss", "tower")


def variant_of(support) -> str:
    """Smallest named variant whose components include the set ``support``."""
    for name in ("rational", "gauss", "tower", "quat", "quat_sqrt2"):
        if support <= VARIANT_COMPONENTS[name]:
            return name
    return "quat_sqrt2"


def real_sign(a: RationalLike, b: RationalLike) -> int:
    """Exact sign of ``a + b*sqrt2`` for rationals (or ints) ``a`` and ``b``."""
    if not a and not b:
        return 0
    if a >= 0 and b >= 0:
        return 1
    if a <= 0 and b <= 0:
        return -1
    # Opposite signs: the larger of a^2 and 2 b^2 decides.
    return (1 if a > 0 else -1) if a * a > 2 * b * b else (1 if b > 0 else -1)


# -- rendering ------------------------------------------------------------
#
# A value is rendered from its int numerators over one positive int
# denominator: ``value_text`` and ``value_json`` reduce each component by
# ``gcd(v, den)``, and ``Scalar.__str__`` and ``Scalar.to_json`` feed them
# their components over the least common denominator.

def _nonzero_terms(nums: Sequence[int], den: int) -> List[Tuple[int, int, int]]:
    """``(index, n, d)`` for each nonzero component ``nums[index] / den``,
    with ``n / d`` its lowest terms (``d`` is ``den // gcd``)."""
    out = []
    for i, v in enumerate(nums):
        if v:
            g = gcd(v, den)
            out.append((i, v // g, den // g))
    return out


def value_text(nums: Sequence[int], den: int) -> str:
    """The value ``nums / den`` as nonzero terms joined by signs, e.g.
    ``1/2-i*sqrt2``; ``0`` for zero.  ``nums`` holds eight ints in the
    order of :data:`BASIS_NAMES` and ``den`` is a positive int."""
    terms = []
    for i, n, d in _nonzero_terms(nums, den):
        c = str(n) if d == 1 else f"{n}/{d}"
        if not i:
            terms.append(c)
        elif d == 1 and (n == 1 or n == -1):
            terms.append(BASIS_NAMES[i] if n == 1 else f"-{BASIS_NAMES[i]}")
        else:
            terms.append(f"{c}*{BASIS_NAMES[i]}")
    return "+".join(terms).replace("+-", "-") if terms else "0"


def value_json(nums: Sequence[int], den: int) -> List[str]:
    """The value ``nums / den`` as its "num/den" component strings, in
    lowest terms: the components 1, i, sqrt2 and i*sqrt2 when no j or k
    part is nonzero, else all eight; arguments as in :func:`value_text`."""
    parts = ["0/1"] * 8
    for i, n, d in _nonzero_terms(nums, den):
        parts[i] = f"{n}/{d}"
    if nums[2] or nums[3] or nums[6] or nums[7]:
        return parts
    return [parts[0], parts[1], parts[4], parts[5]]


def _coerce_fraction(x: RationalLike) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


class Scalar:
    """An element of the quaternion algebra over Q(sqrt2), stored exactly.

    Instances are immutable.  The eight components sit in the order of
    :data:`BASIS_NAMES`.
    """

    __slots__ = ("_c",)

    def __init__(self, components: Sequence[RationalLike]):
        if len(components) != 8:
            raise ValueError("Scalar needs exactly 8 components")
        self._c = tuple(_coerce_fraction(x) for x in components)

    @staticmethod
    def _of(components: tuple) -> "Scalar":
        """Wrap a tuple of eight ``Fraction`` objects without checking them."""
        s = object.__new__(Scalar)
        s._c = components
        return s

    # -- constructors ------------------------------------------------

    @staticmethod
    def rational(x: RationalLike) -> "Scalar":
        return Scalar((_coerce_fraction(x), _F0, _F0, _F0, _F0, _F0, _F0, _F0))

    @staticmethod
    def unit(name: str) -> "Scalar":
        """The basis element named by one of :data:`BASIS_NAMES`."""
        idx = BASIS_NAMES.index(name)
        comps = [_F0] * 8
        comps[idx] = _F1
        return Scalar(comps)

    @staticmethod
    def complex_value(re: RationalLike, im: RationalLike) -> "Scalar":
        return Scalar((_coerce_fraction(re), _coerce_fraction(im),
                       _F0, _F0, _F0, _F0, _F0, _F0))

    @staticmethod
    def quaternion_value(x1: RationalLike, x2: RationalLike,
                         x3: RationalLike, x4: RationalLike) -> "Scalar":
        return Scalar((_coerce_fraction(x1), _coerce_fraction(x2),
                       _coerce_fraction(x3), _coerce_fraction(x4),
                       _F0, _F0, _F0, _F0))

    @property
    def components(self) -> tuple:
        return self._c

    def _ints(self) -> Tuple[tuple, int]:
        """``(numerators, d)`` with ``self == numerators / d`` and ``d`` the least such."""
        c = self._c
        den = lcm(*[f.denominator for f in c])
        return tuple([f.numerator * (den // f.denominator) for f in c]), den

    # -- classification ----------------------------------------------

    def variant(self) -> str:
        """Smallest named variant containing this value."""
        return variant_of({idx for idx, c in enumerate(self._c) if c})

    def is_zero(self) -> bool:
        return not any(self._c)

    def is_real(self) -> bool:
        """True when the value lies in Q(sqrt2)."""
        c = self._c
        return not (c[1] or c[2] or c[3] or c[5] or c[6] or c[7])

    # -- arithmetic ---------------------------------------------------

    # Sums, products and the rebuilds below touch only the nonzero components
    # of their operands, and build results through the unchecked ``_of``.

    def __add__(self, other: "Scalar") -> "Scalar":
        if not isinstance(other, Scalar):
            return NotImplemented
        return Scalar._of(tuple([(x + y if x else y) if y else x
                                 for x, y in zip(self._c, other._c)]))

    def __sub__(self, other: "Scalar") -> "Scalar":
        if not isinstance(other, Scalar):
            return NotImplemented
        return Scalar._of(tuple([(x - y if x else -y) if y else x
                                 for x, y in zip(self._c, other._c)]))

    def __neg__(self) -> "Scalar":
        return Scalar._of(tuple([-x if x else x for x in self._c]))

    def __mul__(self, other: "Scalar") -> "Scalar":
        if not isinstance(other, Scalar):
            return NotImplemented
        nz_b = [(ib, cb) for ib, cb in enumerate(other._c) if cb]
        out = [None] * 8
        for ia, ca in enumerate(self._c):
            if not ca:
                continue
            prod = _PROD[ia]
            for ib, cb in nz_b:
                idx, factor = prod[ib]
                coeff = ca * cb
                if factor != 1:
                    coeff = -coeff if factor == -1 else coeff * factor
                prev = out[idx]
                out[idx] = coeff if prev is None else prev + coeff
        return Scalar._of(tuple([_F0 if x is None else x for x in out]))

    def scale(self, x: RationalLike) -> "Scalar":
        f = _coerce_fraction(x)
        return Scalar._of(tuple([c * f if c else c for c in self._c]))

    def conjugate(self) -> "Scalar":
        """Standard conjugation: fixes rationals and sqrt(2), negates i, j, k."""
        c0, c1, c2, c3, c4, c5, c6, c7 = self._c
        return Scalar._of((c0, -c1 if c1 else c1, -c2 if c2 else c2,
                           -c3 if c3 else c3, c4, -c5 if c5 else c5,
                           -c6 if c6 else c6, -c7 if c7 else c7))

    def inverse(self) -> "Scalar":
        if self.is_zero():
            raise ZeroDivisionError("scalar inverse of zero")
        conj = self.conjugate()
        n = (self * conj)._c
        a, b = n[0], n[4]
        # (a + b*sqrt2)^-1 = (a - b*sqrt2) / (a^2 - 2 b^2)
        denom = a * a - 2 * b * b
        return conj * Scalar._of((a / denom, _F0, _F0, _F0, -b / denom,
                                  _F0, _F0, _F0))

    def __truediv__(self, other: "Scalar") -> "Scalar":
        if not isinstance(other, Scalar):
            return NotImplemented
        return self * other.inverse()

    # -- order (real values only) -------------------------------------

    def sign(self) -> int:
        """Exact sign of a value in Q(sqrt2); raises for non-real values."""
        if not self.is_real():
            raise ValueError("sign is defined only for values in Q(sqrt2)")
        return real_sign(self._c[0], self._c[4])

    # -- serialization ------------------------------------------------

    def to_json(self) -> list:
        """Component array of "num/den" strings (4 entries when no j/k parts)."""
        return value_json(*self._ints())

    # -- plumbing ------------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, Scalar):
            return self._c == other._c
        if isinstance(other, (int, Fraction)):
            return self == Scalar.rational(other)
        return NotImplemented

    def __hash__(self) -> int:
        # A rational value hashes as its Fraction, so it agrees with __eq__.
        c = self._c
        return hash(c if any(c[1:]) else c[0])

    def __str__(self) -> str:
        """Nonzero terms joined by signs, e.g. ``1/2-i*sqrt2``; ``0`` for zero."""
        return value_text(*self._ints())

    def __repr__(self) -> str:
        return f"Scalar({self})"


ZERO = Scalar.rational(0)
ONE = Scalar.rational(1)
MINUS_ONE = Scalar.rational(-1)
I_UNIT = Scalar.unit("i")
J_UNIT = Scalar.unit("j")
K_UNIT = Scalar.unit("k")
SQRT2 = Scalar.unit("sqrt2")


def as_scalar(x) -> Scalar:
    """Coerce an int, Fraction, or Scalar to a Scalar."""
    if isinstance(x, Scalar):
        return x
    if isinstance(x, (int, Fraction)):
        return Scalar.rational(x)
    raise TypeError(f"cannot interpret {type(x).__name__} as a Scalar")
