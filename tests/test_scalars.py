"""Exact scalar tower: rationals, complex, quaternions, and sqrt(2) factors."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from nilorb.scalars import (BASIS_NAMES, I_UNIT, J_UNIT, K_UNIT, MINUS_ONE,
                            ONE, SQRT2, ZERO, Scalar)


def rand_scalar(rng: random.Random) -> Scalar:
    return Scalar([Fraction(rng.randint(-4, 4), rng.randint(1, 4))
                   for _ in range(8)])


def test_quaternion_unit_table():
    assert I_UNIT * I_UNIT == MINUS_ONE
    assert J_UNIT * J_UNIT == MINUS_ONE
    assert K_UNIT * K_UNIT == MINUS_ONE
    assert I_UNIT * J_UNIT == K_UNIT
    assert J_UNIT * K_UNIT == I_UNIT
    assert K_UNIT * I_UNIT == J_UNIT
    assert J_UNIT * I_UNIT == -K_UNIT
    assert I_UNIT * J_UNIT * K_UNIT == MINUS_ONE


def test_sqrt2_squares_to_two():
    assert SQRT2 * SQRT2 == Scalar.rational(2)
    half = Scalar.rational(Fraction(1, 2)) * SQRT2
    assert half * half == Scalar.rational(Fraction(1, 2))


def test_sqrt2_commutes_with_units():
    for u in (I_UNIT, J_UNIT, K_UNIT):
        assert SQRT2 * u == u * SQRT2


def test_ring_axioms_randomized():
    """Associativity and distributivity over random 8-component scalars."""
    rng = random.Random(101)
    for _ in range(60):
        a, b, c = (rand_scalar(rng) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c
        assert a - a == ZERO


def test_conjugation_is_an_antiautomorphism():
    rng = random.Random(102)
    for _ in range(40):
        a, b = rand_scalar(rng), rand_scalar(rng)
        assert (a * b).conjugate() == b.conjugate() * a.conjugate()
        assert a.conjugate().conjugate() == a


def test_conjugate_fixes_reals_and_negates_imaginaries():
    assert SQRT2.conjugate() == SQRT2
    assert I_UNIT.conjugate() == -I_UNIT
    assert J_UNIT.conjugate() == -J_UNIT
    assert K_UNIT.conjugate() == -K_UNIT


def norm(x: Scalar) -> Scalar:
    """The norm x * conj(x), an element of Q(sqrt2)."""
    return x * x.conjugate()


def test_norm_is_multiplicative():
    rng = random.Random(103)
    for _ in range(30):
        a, b = rand_scalar(rng), rand_scalar(rng)
        # x * conj(x) is real, so norms multiply whenever it is central.
        assert norm(a * a.conjugate()) == norm(a) * norm(a)
        assert norm(a * b) == norm(a) * norm(b)


def test_inverse_and_division():
    rng = random.Random(104)
    checked = 0
    while checked < 25:
        a = rand_scalar(rng)
        if a.is_zero():
            continue
        assert a * a.inverse() == ONE
        assert a.inverse() * a == ONE
        b = rand_scalar(rng)
        assert (b / a) * a == b
        checked += 1
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


def test_sign_in_real_quadratic_field():
    """Exact sign of p + q*sqrt(2) without floating point.

    The oracle: 1 + sqrt2 > 0, 1 - sqrt2 < 0, 3 - 2*sqrt2 > 0 because
    9 > 8, and 7 - 5*sqrt2 < 0 because 49 < 50.
    """
    def real_scalar(p, q):
        return Scalar.rational(p) + Scalar.rational(q) * SQRT2

    assert real_scalar(1, 1).sign() == 1
    assert real_scalar(1, -1).sign() == -1
    assert real_scalar(3, -2).sign() == 1
    assert real_scalar(7, -5).sign() == -1
    assert real_scalar(-3, 2).sign() == -1
    assert real_scalar(0, 0).sign() == 0
    assert Scalar.rational(Fraction(-2, 7)).sign() == -1


def test_sign_rejects_nonreal():
    with pytest.raises(ValueError):
        I_UNIT.sign()


def test_variant_classification():
    assert Scalar.rational(5).variant() == "rational"
    assert Scalar.complex_value(1, 2).variant() == "gauss"
    assert (ONE + SQRT2).variant() == "tower"
    assert J_UNIT.variant() == "quat"
    assert Scalar.quaternion_value(1, 0, 2, 0).variant() == "quat"
    assert (J_UNIT * SQRT2).variant() == "quat_sqrt2"


def test_json_shape_depends_on_variant():
    assert len(Scalar.rational(3).to_json()) == 4
    assert len(Scalar.complex_value(1, 1).to_json()) == 4
    assert len(J_UNIT.to_json()) == 8
    assert Scalar.rational(Fraction(1, 2)).to_json()[0] == "1/2"


def test_unit_names_cover_basis():
    for name in BASIS_NAMES:
        u = Scalar.unit(name)
        assert [x != 0 for x in u.components].count(True) == 1
    with pytest.raises(ValueError):
        Scalar.unit("q")


@pytest.mark.parametrize("value", [0, 1, -3, Fraction(1, 2), Fraction(-7, 3)])
def test_a_rational_scalar_hashes_like_the_number_it_equals(value):
    s = Scalar.rational(value)
    assert s == value and hash(s) == hash(value)
    assert len({s, value}) == 1
    assert len({s, Fraction(value), Scalar(
        [value, 0, 0, 0, 0, 0, 0, 0])}) == 1


def test_scalars_with_other_parts_keep_distinct_hashes():
    rational = Scalar.rational(1)
    others = [I_UNIT, J_UNIT, K_UNIT, SQRT2, ONE + I_UNIT, ONE + SQRT2,
              Scalar.complex_value(1, 2), Scalar.quaternion_value(1, 0, 1, 0)]
    assert len({hash(x) for x in others} | {hash(rational)}) == len(others) + 1
    assert len(set(others) | {rational, 1}) == len(others) + 1
