import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, strategies as st

from kraitchik.qfield import (
    QuadElem,
    RadicandMismatch,
    abs_real,
    cmp_real,
    cmp_surd,
    conj,
    sign_real,
)

F = Fraction


def q(a, b, r):
    return QuadElem(F(a), F(b), r)


rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)


def elements(r):
    return st.builds(lambda a, b: QuadElem(a, b, r), rationals, rationals)


def test_arithmetic_examples():
    assert q(1, 1, 5) * q(1, -1, 5) == -4
    assert q(F(1, 2), F(-1, 2), -7) * q(F(1, 2), F(1, 2), -7) == 2
    assert q(0, 0, 5) + q(3, 0, 5) == 3


def test_conj_examples():
    assert conj(q(F(1, 2), F(-1, 2), -7)) == q(F(1, 2), F(1, 2), -7)
    assert conj(q(3, 0, 5)) == 3
    assert conj(q(F(-1, 2), F(1, 2), 5)) == q(F(-1, 2), F(-1, 2), 5)


def l1_norm_parts(x: QuadElem) -> tuple[Fraction, Fraction]:
    """The pair (|a|, |b|); the norm value |a| + |b|*sqrt(|r|) stays symbolic."""
    return abs(x.a), abs(x.b)


def abs_square(x: QuadElem) -> Fraction | QuadElem:
    """|x|^2, exact in both signatures of the radicand.

    For r < 0 the modulus squared is the rational a^2 + |r| b^2; for r > 0 the
    element is real and |x|^2 = x^2 stays in the field, to be compared with
    ``cmp_surd``.
    """
    if x.r < 0:
        return x.a * x.a + x.b * x.b * (-x.r)
    return x * x


def test_l1_norm_parts_examples():
    assert l1_norm_parts(q(F(1, 2), F(-1, 2), 5)) == (F(1, 2), F(1, 2))
    assert l1_norm_parts(q(2, 0, 5)) == (2, 0)
    assert l1_norm_parts(q(-3, 2, -7)) == (3, 2)


def test_abs_square_shapes():
    assert abs_square(q(F(1, 2), F(-1, 2), -7)) == F(2)  # rational for r < 0
    assert abs_square(q(F(1, 2), F(-1, 2), 5)) == q(F(3, 2), F(-1, 2), 5)
    assert abs_square(q(2, 0, 5)) == q(4, 0, 5)


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
    assert 1 / golden == golden - 1  # 1/phi = phi - 1
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
        prod = x * x.conj()
        assert prod.is_rational

    run()


def test_pow_matches_repeated_multiplication():
    x = q(F(1, 2), F(-3, 2), 13)
    acc = QuadElem.rational(1, 13)
    for n in range(8):
        assert x**n == acc
        acc = acc * x
    assert x**-2 == (x**2).inverse()


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
    assert sign_real(q(F(1, 2), F(1, 2), 5)) == 1
    assert sign_real(q(1, -1, 5)) == -1  # 1 - sqrt(5) < 0
    assert sign_real(q(0, 0, 5)) == 0
    assert abs_real(q(1, -1, 5)) == q(-1, 1, 5)
    assert cmp_real(q(0, 1, 5), q(2, 0, 5)) == 1
    with pytest.raises(ValueError):
        sign_real(q(1, 1, -7))
