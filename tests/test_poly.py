from fractions import Fraction

import pytest
from oracles import Poly

from kraitchik.poly import DensePoly, format_poly


def test_normalization():
    assert DensePoly([1, 2, 0, 0]).coeffs == (1, 2)
    assert DensePoly([0, 0]).is_zero()


def test_ring_operations():
    p = Poly([1, 1])  # 1 + x
    q = Poly([-1, 1])  # -1 + x
    assert p * q == DensePoly([-1, 0, 1])
    assert p + q == DensePoly([0, 2])
    assert p - p == DensePoly.zero()
    assert p * p * p == DensePoly([1, 3, 3, 1])
    assert 2 * p == DensePoly([2, 2])


def test_divmod_exact():
    num = DensePoly([-1, 0, 0, 0, 0, 0, 1])  # x^6 - 1
    den = DensePoly([-1, 0, 0, 1])  # x^3 - 1
    quo, rem = divmod(num, den)
    assert quo == DensePoly([1, 0, 0, 1])
    assert rem.is_zero()


def test_divmod_with_remainder():
    quo, rem = divmod(Poly([1, 0, 1]), DensePoly([1, 1]))
    assert quo * DensePoly([1, 1]) + rem == DensePoly([1, 0, 1])


def test_divmod_rejects_inexact_integer_division():
    with pytest.raises(ArithmeticError):
        divmod(DensePoly([0, 0, 1]), DensePoly([0, 2]))


def test_evaluate():
    p = DensePoly([2, 1, 2])
    assert p.evaluate(0) == 2
    assert p.evaluate(Fraction(1, 2)) == Fraction(3)
    assert DensePoly.zero().evaluate(7) == 0


def test_format_poly():
    assert format_poly((2, 1, 2)) == "2X^2+X+2"
    assert format_poly((-2, -1, 1, 2)) == "2X^3+X^2-X-2"
    assert format_poly((0, 1)) == "X"
    assert format_poly(()) == "0"
    assert format_poly((0, Fraction(-1), Fraction(1))) == "X^2-X"
    assert format_poly((1,)) == "1"
    assert format_poly((-1, 1)) == "X-1"
    # Fraction coefficients, integral ones printed as integers
    assert format_poly((Fraction(1, 2), Fraction(-3), Fraction(2))) == "2X^2-3X+1/2"
    assert format_poly((Fraction(-3, 4), 0, Fraction(-1, 2), Fraction(1))) == "X^3-1/2X^2-3/4"
