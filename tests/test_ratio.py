import dataclasses
from fractions import Fraction

import interval_oracle
import mpmath
import pytest

from kraitchik import interval, ratio
from kraitchik.bounds import _ceil_half_surd, doubled_parts
from kraitchik.construct import psi_xi
from kraitchik.interval import precision_ladder
from kraitchik.numtheory import mobius
from kraitchik.poly import DensePoly
from kraitchik.qfield import QuadElem, RadicandMismatch
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
    assert doubled_parts(gate_value(p5)) == (1, 1, 5)
    assert _ceil_half_surd(2, 2, 5) == 4  # 2G = 1 + sqrt(5) ~ 3.236
    assert _ceil_half_surd(1, 1, 5) == 2  # G ~ 1.618
    assert default_sample_points(p5) == [F(5), F(9), F(100)]  # ceil(2G) + 1, 2*ceil(G) + 5, 100


def test_gate_equality_is_rejected():
    # d = 77: phi(11)/2 = 5 beats the surd floor, so 2G = 10 is an integer and
    # x = 10 sits exactly on the gate, which x must strictly exceed
    p77 = psi_xi(77)
    assert gate_value(p77) == QuadElem(5, 0, 77)
    assert doubled_parts(gate_value(p77)) == (10, 0, 77)
    assert _ceil_half_surd(20, 0, 77) == 10
    assert default_sample_points(p77) == [F(11), F(15), F(100)]  # the grid starts one past the gate
    with pytest.raises(GateError):
        check_ratio_approx(p77, 10)
    assert check_ratio_approx(p77, 11).verdict == "verified"


def deciding_sides(monkeypatch, pair, x):
    """The report at x and the ``Decision`` behind it, with both log sides at the deciding rung."""
    decisions = []

    def recording_decide(cases, rungs):
        decisions.append(interval.decide(cases, rungs))
        return decisions[-1]

    monkeypatch.setattr(ratio, "decide", recording_decide)
    report = check_ratio_approx(pair, x)
    assert len(decisions) == 1 and len(decisions[0]) == 1
    return report, decisions[0][0]


def as_mpf(q: Fraction) -> mpmath.mpf:
    return mpmath.mpf(q.numerator) / q.denominator


def test_spot_value_d5_x4(monkeypatch):
    rep, decision = deciding_sides(monkeypatch, psi_xi(5), 4)
    assert rep.verdict == "verified"
    assert rep.lhs_exact == F(1, 171)
    # c = (1/171)*(2*4 + 1)/4 = 1/76: ln(1 + G/4 + sqrt(5)/76) ~ 0.3604 < G ln(4/3) ~ 0.4655,
    # each side's enclosure checked against its value at 50 digits
    with mpmath.workdps(50):
        G = (1 + mpmath.sqrt(5)) / 2
        refs = (mpmath.log(1 + G / 4 + mpmath.sqrt(5) / 76), G * mpmath.log(mpmath.mpf(4) / 3))
        for side, ref in zip(map(interval_oracle.as_fractions, (decision.lhs, decision.rhs)), refs):
            assert as_mpf(side.lo) <= ref <= as_mpf(side.hi)


def test_gate_rejection():
    with pytest.raises(GateError):
        check_ratio_approx(psi_xi(5), 3)  # 3 < 2G ~ 3.236


def test_ratio_table_marks_rejections():
    # one point below the gate refuses the whole table, wherever it stands
    p5 = psi_xi(5)
    for xs in ([3, 4, 8], [4, 8, 3]):
        with pytest.raises(GateError, match="x = 3 does not exceed"):
            ratio_table(p5, xs)
    assert [r.verdict for r in ratio_table(p5, [4, 8])] == ["verified", "verified"]
    assert ratio_table(p5, []) == []


def test_gate_failure_is_raised_before_any_decide(monkeypatch):
    calls = []
    monkeypatch.setattr(ratio, "decide", lambda cases, rungs: calls.append(cases) or interval.decide(cases, rungs))
    p7 = psi_xi(7)
    with pytest.raises(GateError):
        ratio_table(p7, default_sample_points(p7) + [3])  # 3 < 2G = 1 + sqrt(7) ~ 3.65
    assert calls == []
    assert [r.verdict for r in ratio_table(p7, default_sample_points(p7))] == ["verified"] * 2 + ["falsified"]
    assert len(calls) == 1 and len(calls[0]) == 3


def test_d7_small_points_verified():
    p7 = psi_xi(7)
    assert check_ratio_approx(p7, 4).verdict == "verified"
    assert check_ratio_approx(p7, 9).verdict == "verified"


def test_d7_x100_falsified_exactly(monkeypatch):
    # The printed envelope fails at d = 7 for large x: the deviation decays
    # like 1/(2x^2) while the envelope's asymptotic constant is
    # G(G+1)/(4 sqrt(7)) ~ 0.4862 < 1/2.  The checker must PROVE the failure
    # (strict interval separation), not merely fail to verify.
    rep, decision = deciding_sides(monkeypatch, psi_xi(7), 100)
    assert rep.verdict == "falsified"
    assert rep.lhs_exact == F(3367, 67331583)
    assert decision.lhs.lo_m >= decision.rhs.hi_m


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


def grid_and_off_grid(pair) -> list[Fraction]:
    """The default grid, and off-grid x = u/v with v > 1 past the gate."""
    points = default_sample_points(pair)
    return points + [points[0] + F(1, 2), points[0] + F(2, 7), F(10**6 + 1, 10**4)]


def test_integer_left_side_matches_the_fraction_horner_path(pairs_149):
    for d, pair in pairs_149.items():
        for x in grid_and_off_grid(pair):
            assert check_ratio_approx(pair, x).lhs_exact == slow_lhs(pair, x), (d, x)


def exp_form_verdict(pair, x: Fraction, max_precision: int = 4096) -> str:
    """The verdict of slow_lhs < the envelope in its direct form (``interval_oracle.ratio_envelope``,
    the power as an exponential), the exact left side against the Fraction endpoints, on the same ladder."""
    lhs, g, mu = slow_lhs(pair, x), gate_value(pair), mobius(pair.ctx.d)
    for prec in precision_ladder(max_precision):
        envelope = interval_oracle.ratio_envelope(g, x, mu, pair.ctx.d, prec)
        if lhs < envelope.lo:
            return "verified"
        if lhs >= envelope.hi:
            return "falsified"
    return "unresolved"


def test_log_form_verdicts_match_the_exp_form(pairs_149):
    checked = 0
    for d, pair in pairs_149.items():
        for x in grid_and_off_grid(pair):
            assert check_ratio_approx(pair, x).verdict == exp_form_verdict(pair, x), (d, x)
            checked += 1
    assert checked == 177 + 3 * 59


def test_default_points_lie_past_the_gate():
    # 2G = 100 exactly at d = 707, the first modulus whose gate reaches x = 100
    p707 = psi_xi(707)
    assert gate_value(p707) == QuadElem(50, 0, 707)
    assert default_sample_points(p707) == [F(101), F(105)]
    assert [r.verdict for r in ratio_table(p707, default_sample_points(p707))] == ["verified", "verified"]
    with pytest.raises(GateError, match="x = 100 does not exceed"):
        ratio_table(p707, [100] + default_sample_points(p707))
    assert ratio_table(p707, []) == []


def test_gate_value_outside_the_field_is_refused(monkeypatch):
    # the left log side is one surd in Q(sqrt(d)), so an irrational G must share d's radicand
    monkeypatch.setattr(ratio, "gate_value", lambda pair: QuadElem(F(1, 2), F(1, 2), 5))
    with pytest.raises(RadicandMismatch):
        check_ratio_approx(psi_xi(7), 100)


def test_ratio_table_builds_the_gate_once(monkeypatch):
    # one gate value per modulus, however many points; each point's verdict as check_ratio_approx's
    pair, calls = psi_xi(7), []
    xs = default_sample_points(pair) + [F(9, 2), 4]  # past the gate 2G = 1 + sqrt(7) ~ 3.65
    monkeypatch.setattr(ratio, "gate_value", lambda p: calls.append(p.ctx.d) or gate_value(p))
    rows = ratio_table(pair, xs)
    assert calls == [7]
    assert [r.verdict for r in rows] == [check_ratio_approx(pair, x).verdict for x in xs]
    assert calls == [7] * (1 + len(xs))


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
