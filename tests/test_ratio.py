import dataclasses
from fractions import Fraction

import mpmath
import pytest

from kraitchik import ratio
from kraitchik.bounds import ceil_multiple
from kraitchik.construct import psi_xi
from kraitchik.numtheory import mobius
from kraitchik.poly import DensePoly
from kraitchik.qfield import QuadElem
from kraitchik.ratio import (
    GateError,
    check_ratio_approx,
    default_sample_points,
    gate_value,
    ratio_table,
)

F = Fraction


def test_gate_examples():
    p5 = psi_xi(5)
    assert gate_value(p5) == QuadElem(F(1, 2), F(1, 2), 5)
    assert ceil_multiple(gate_value(p5), 2) == 4  # 2G = 1 + sqrt(5) ~ 3.236
    assert ceil_multiple(gate_value(p5), 1) == 2
    assert default_sample_points(p5) == [F(5), F(9), F(100)]


def test_gate_equality_is_rejected():
    # d = 77: phi(11)/2 = 5 beats the surd floor, so 2G = 10 is an integer and
    # x = 10 sits exactly on the gate, which x must strictly exceed
    p77 = psi_xi(77)
    assert gate_value(p77) == 5 and gate_value(p77).b == 0
    assert ceil_multiple(gate_value(p77), 2) == 10
    with pytest.raises(GateError):
        check_ratio_approx(p77, 10)
    assert check_ratio_approx(p77, 11).verdict == "verified"


def test_spot_value_d5_x4():
    rep = check_ratio_approx(psi_xi(5), 4)
    assert rep.verdict == "verified"
    assert rep.lhs_exact == F(1, 171)
    assert rep.rhs_enclosure.lo > F(37, 1000)
    # the right side sits near 0.0374, checked at 50 digits before trusting
    with mpmath.workdps(50):
        G = (1 + mpmath.sqrt(5)) / 2
        ref = (mpmath.mpf(4) / (9 * mpmath.sqrt(5))) * ((1 - mpmath.mpf(1) / 4) ** -G - 1 - G / 4)
        lo, hi = rep.rhs_enclosure.lo, rep.rhs_enclosure.hi
        assert mpmath.mpf(lo.numerator) / lo.denominator <= ref <= mpmath.mpf(hi.numerator) / hi.denominator


def test_gate_rejection():
    with pytest.raises(GateError):
        check_ratio_approx(psi_xi(5), 3)  # 3 < 2G ~ 3.236


def test_ratio_table_marks_rejections():
    verdicts = [r.verdict for r in ratio_table(psi_xi(5), [3, 4, 8])]
    assert verdicts == ["rejected", "verified", "verified"]
    assert ratio_table(psi_xi(5), []) == []


def test_d7_small_points_verified():
    p7 = psi_xi(7)
    assert check_ratio_approx(p7, 4).verdict == "verified"
    assert check_ratio_approx(p7, 9).verdict == "verified"


def test_d7_x100_falsified_exactly():
    # The printed envelope fails at d = 7 for large x: the deviation decays
    # like 1/(2x^2) while the envelope's asymptotic constant is
    # G(G+1)/(4 sqrt(7)) ~ 0.4862 < 1/2.  The checker must PROVE the failure
    # (strict interval separation), not merely fail to verify.
    rep = check_ratio_approx(psi_xi(7), 100)
    assert rep.verdict == "falsified"
    assert rep.lhs_exact == F(3367, 67331583)
    assert rep.lhs_exact > rep.rhs_enclosure.hi


def test_large_x_sanity():
    rep = check_ratio_approx(psi_xi(5), 10**6)
    assert rep.verdict == "verified"
    assert rep.lhs_exact < F(1, 10**12)


def test_decay_trend():
    # soft 1/x^2 trend: quadrupling the deviation at 2x stays under ~1.5x of it
    p = psi_xi(13)
    for x in (100, 200, 400):
        lhs_x = check_ratio_approx(p, x).lhs_exact
        lhs_2x = check_ratio_approx(p, 2 * x).lhs_exact
        assert 4 * lhs_2x <= lhs_x * F(3, 2)


def slow_lhs(pair, x: Fraction) -> Fraction:
    """|Xi_d(x)/Psi_d(x) - 1/(2x - mu(d))| by Fraction Horner on DensePoly."""
    psi_x = DensePoly(pair.a[::-1]).evaluate(x)
    xi_x = DensePoly(pair.b[::-1]).evaluate(x)
    return abs(F(xi_x) / psi_x - F(1, 2 * x - mobius(pair.d)))


def test_psi_positive_at_admissible_points(pairs_149):
    for d in (5, 21, 105, 149):
        pair = pairs_149[d]
        for x in default_sample_points(pair):
            assert DensePoly(pair.a[::-1]).evaluate(x) > 0


def test_integer_left_side_matches_the_fraction_horner_path(pairs_149):
    # every default grid point, and off-grid x = u/v with v > 1 past the gate
    for d, pair in pairs_149.items():
        first = default_sample_points(pair)[0]
        off_grid = [first + F(1, 2), first + F(2, 7), F(10**6 + 1, 10**4)]
        for x in default_sample_points(pair) + off_grid:
            assert check_ratio_approx(pair, x).lhs_exact == slow_lhs(pair, x), (d, x)


def test_nonpositive_psi_is_refused():
    # Psi_5 = 2X^2 + X + 2 negated: P = v^2 * Psi(x) < 0 at x = 4 and x = 9/2
    p5 = psi_xi(5)
    negated = dataclasses.replace(p5, a=tuple(-c for c in p5.a))
    with pytest.raises(ArithmeticError, match="Psi_5\\(4\\) = -38 is not positive"):
        check_ratio_approx(negated, 4)
    with pytest.raises(ArithmeticError, match="Psi_5\\(9/2\\) = -47 is not positive"):
        check_ratio_approx(negated, F(9, 2))


def test_rejects_small_modulus():
    with pytest.raises(ValueError):
        check_ratio_approx(psi_xi(3), 100)


def test_ceiling_above_the_cap_is_refused_before_interval_work(monkeypatch):
    def refuse(*args):
        raise AssertionError("interval work ran")

    for name in dir(ratio):
        if name.startswith("iv_"):
            monkeypatch.setattr(ratio, name, refuse)
    p5 = psi_xi(5)
    with pytest.raises(ValueError, match="max_precision"):
        check_ratio_approx(p5, 4, max_precision=10**9)
    with pytest.raises(ValueError, match="max_precision"):
        ratio_table(p5, default_sample_points(p5), max_precision=10**9)
