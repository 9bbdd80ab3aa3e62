import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, strategies as st

from oracles import Quad

from kraitchik.qfield import QuadElem, RadicandMismatch, abs_real, cmp_real, cmp_surd

F = Fraction


def q(a, b, r):
    return Quad(F(a), F(b), r)


rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)


def elements(r):
    return st.builds(lambda a, b: Quad(a, b, r), rationals, rationals)


def test_arithmetic_examples():
    assert q(1, 1, 5) * q(1, -1, 5) == -4
    assert q(F(1, 2), F(-1, 2), -7) * q(F(1, 2), F(1, 2), -7) == 2
    assert q(0, 0, 5) + q(3, 0, 5) == 3


def test_conj_examples():
    assert q(F(1, 2), F(-1, 2), -7).conj() == q(F(1, 2), F(1, 2), -7)
    assert q(3, 0, 5).conj() == 3
    assert q(F(-1, 2), F(1, 2), 5).conj() == q(F(-1, 2), F(-1, 2), 5)


def test_cmp_surd_examples():
    assert cmp_surd(F(1, 2), F(1, 2), 5, 2) == -1  # golden ratio < 2
    assert cmp_surd(2, 0, 5, 2) == 0
    assert cmp_surd(0, 1, 5, 2) == 1  # sqrt(5) > 2


def test_cmp_surd_rejects_squares():
    with pytest.raises(ValueError):
        cmp_surd(1, 1, 4, 0)
    with pytest.raises(ValueError):
        cmp_surd(1, 1, 1, 0)


def test_radicand_validation():
    for bad in (0, 1, 4, 12, -12):
        with pytest.raises(ValueError):
            QuadElem(F(1), F(1), bad)


def test_mixing_rules():
    golden = q(F(1, 2), F(1, 2), 5)
    other = q(0, 1, 7)
    with pytest.raises(RadicandMismatch):
        golden + other
    # rationals embed into any field
    assert q(3, 0, -7) + golden == q(F(7, 2), F(1, 2), 5)
    assert golden * q(2, 0, 13) == q(1, 1, 5)


def test_division():
    golden = q(F(1, 2), F(1, 2), 5)
    assert golden / golden == 1
    assert golden.inverse() == golden - 1  # 1/phi = phi - 1
    with pytest.raises(ZeroDivisionError):
        golden / q(0, 0, 5)


@pytest.mark.parametrize("r", [5, 13, -7, -3])
def test_field_axioms(r):
    @given(elements(r), elements(r), elements(r))
    def run(x, y, z):
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        if not (x.a == 0 and x.b == 0):
            assert x * x.inverse() == 1

    run()


@pytest.mark.parametrize("r", [5, -7])
def test_conj_is_ring_involution(r):
    @given(elements(r), elements(r))
    def run(x, y):
        assert x.conj().conj() == x
        assert (x * y).conj() == x.conj() * y.conj()
        assert (x + y).conj() == x.conj() + y.conj()
        assert (x * x.conj()).b == 0

    run()


def test_cmp_surd_against_highprec_decimal():
    # 10^3 random instances against 100-digit evaluation
    rng = random.Random(1093)
    with mpmath.workdps(100):
        nonsquares = [2, 3, 5, 6, 7, 10, 13, 15, 21, 105, 255]
        for _ in range(1000):
            x = F(rng.randint(-50, 50), rng.randint(1, 20))
            y = F(rng.randint(-50, 50), rng.randint(1, 20))
            d = rng.choice(nonsquares)
            qq = F(rng.randint(-200, 200), rng.randint(1, 20))
            got = cmp_surd(x, y, d, qq)
            lhs = mpmath.mpf(x.numerator) / x.denominator + (
                mpmath.mpf(y.numerator) / y.denominator
            ) * mpmath.sqrt(d)
            rhs = mpmath.mpf(qq.numerator) / qq.denominator
            want = 0 if mpmath.almosteq(lhs, rhs, abs_eps=mpmath.mpf(10) ** -90) else (1 if lhs > rhs else -1)
            assert got == want, (x, y, d, qq)


def test_sign_helpers():
    assert cmp_real(q(F(1, 2), F(1, 2), 5), 0) == 1
    assert cmp_real(q(1, -1, 5), 0) == -1  # 1 - sqrt(5) < 0
    assert cmp_real(q(0, 0, 5), 0) == 0
    assert abs_real(q(1, -1, 5)) == q(-1, 1, 5)
    assert cmp_real(q(0, 1, 5), q(2, 0, 5)) == 1
    with pytest.raises(ValueError):
        cmp_real(q(1, 1, -7), 0)


def lift(v):
    """A record as the oracle's ``Quad``; a plain rational as it is."""
    return Quad(v.a, v.b, v.r) if isinstance(v, QuadElem) else v


nonzero = rationals.filter(lambda v: v != 0)


@pytest.mark.parametrize("shape", ["same field", "rational y", "rational x", "two fields"])
def test_cmp_real_and_abs_real_match_the_quad_difference(shape):
    # cmp_real and abs_real read the record's fields; the oracle subtracts and negates in the field
    @given(rationals, nonzero, rationals, nonzero, st.sampled_from([2, 3, 5, 13, 105]), st.sampled_from([7, 11, 17]))
    def run(xa, xb, ya, yb, r, s):
        x = QuadElem(xa, 0 if shape == "rational x" else xb, r)
        y = ya if shape == "rational y" else QuadElem(ya, yb, r if shape == "same field" else s)
        if shape == "two fields":
            with pytest.raises(RadicandMismatch):
                cmp_real(x, y)
            with pytest.raises(RadicandMismatch):
                lift(x) - lift(y)
            return
        want = cmp_real(lift(x) - lift(y), 0)
        assert cmp_real(x, y) == want
        if isinstance(y, QuadElem):
            assert cmp_real(y, x) == -want
        for v in (x, y):
            if isinstance(v, QuadElem):
                assert abs_real(v) == (lift(v) if cmp_real(v, 0) >= 0 else -lift(v))
                assert abs_real(v).r == v.r

    run()
