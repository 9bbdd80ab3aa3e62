"""The rational-point approximation Xi_d(x)/Psi_d(x) ~ 1/(2x - mu(d)).

The left side of the error bound is pure integer arithmetic: for x = u/v in
lowest terms, Horner on the pair's integer coefficients gives
P = v^d' * Psi_d(x) and X = v^(d'-1) * Xi_d(x), and with w = 2u - mu(d)*v
the left side is the single Fraction v*|X*w - P| / (P*w).  The envelope's
irrationals (sqrt(d), and the gate value G_d as an exponent) are met in log
space: ``_log_lhs`` and ``_log_rhs`` turn the bound into an equivalent
comparison of two logarithms, each enclosed with validated intervals, so a
``verified`` verdict is a machine-checked strict inequality and ``falsified``
a proven violation.

The gate value G_d is a growth base (p + q*sqrt(r))/2 from ``bounds``, read once
per table as the integers (p, q, r).  ``ratio_table`` is the one deciding path,
``check_ratio_approx`` the table over one point: the modulus, the gate and the
ladder are checked once per table, each gate x > 2*G_d is one integer
``cmp_surd``, a point failing it raises ``GateError`` before any enclosure is
built, and every point is one case of a single ``decide``.  The integer sample
points are exact ceilings of G_d and 2*G_d (``bounds._ceil_half_surd``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Sequence

from .bounds import _ceil_half_surd, _require_minimum_modulus, _same_field, doubled_parts, l1_bound_base
from .construct import KraitchikPair
from .interval import (
    DEFAULT_MAX_PRECISION,
    DyadicInterval,
    decide,
    iv_from_rat,
    iv_from_surd,
    iv_ln,
    iv_mul,
    precision_ladder,
)
from .numtheory import mobius
from .qfield import QuadElem, cmp_surd


class GateError(ValueError):
    """x does not exceed twice the gate value, so the bound does not apply."""


@dataclass(frozen=True)
class RatioReport:
    d: int
    x: Fraction
    lhs_exact: Fraction
    verdict: str


def gate_value(pair: KraitchikPair) -> QuadElem:
    """G_d: the L1 growth base at n = floor(phi(d)/4)."""
    ctx = pair.ctx
    return l1_bound_base(ctx, (2 * ctx.dprime) // 4)


def _past_gate(gate: tuple[int, int, int], x: Fraction) -> bool:
    """x > 2*G for G = (p + q*sqrt(r))/2 given as (p, q, r), decided for x = u/v as u > v*(p + q*sqrt(r))."""
    p, q, r = gate
    return cmp_surd(x.denominator * p, x.denominator * q, r, x.numerator) < 0


def default_sample_points(pair: KraitchikPair) -> list[Fraction]:
    """The standard grid {ceil(2G)+1, 2*ceil(G)+5, 100}, without x = 100 where
    2G >= 100 (d = 707 is the first such modulus): the envelope claims nothing there."""
    p, q, r = gate = doubled_parts(gate_value(pair))
    grid = [Fraction(_ceil_half_surd(2 * p, 2 * q, r) + 1), Fraction(2 * _ceil_half_surd(p, q, r) + 5), Fraction(100)]
    return [x for x in grid if _past_gate(gate, x)]


def _homogeneous(coeffs: Sequence[int], u: int, v: int) -> int:
    """sum_i c_i * u^(n-i) * v^i with n = len(coeffs) - 1: v^n times the
    polynomial with descending coefficients ``coeffs`` at u/v, by Horner."""
    acc, vp = 0, 1
    for c in coeffs:
        acc = acc * u + c * vp
        vp *= v
    return acc


def _log_lhs(gate: tuple[int, int, int], x: Fraction, c: Fraction, d: int, prec: int) -> DyadicInterval:
    """Enclosure of ln(1 + G/x + c*sqrt(d)), the left side of the bound in log space.

    The bound is L < x/((2x - mu) sqrt(d)) * ((1 - 1/x)^(-G) - 1 - G/x).  Past
    the gate x > 2G > 1 and 2x - mu > 0, so the prefactor is positive; divided
    by it, the left side L becomes c*sqrt(d) with the exact c = L*(2x - mu)/x,
    and adding 1 + G/x gives 1 + G/x + c*sqrt(d) < (x/(x - 1))^G.  Both sides
    are positive and ln is strictly increasing, so taking logarithms keeps the
    inequality exactly, in both directions.  ``gate`` = (p, q, r) gives G = (p + q*sqrt(d))/2
    (q = 0 when G is rational), so the left argument is the surd (1 + p/(2x)) + (q/(2x) + c)*sqrt(d).
    """
    p, q, _ = gate
    return iv_ln(iv_from_surd(1 + Fraction(p, 2) / x, Fraction(q, 2) / x + c, d, prec), prec)


def _log_rhs(gate: tuple[int, int, int], x: Fraction, prec: int) -> DyadicInterval:
    """Enclosure of G*ln(x/(x - 1)), the right side of ``_log_lhs``'s inequality."""
    p, q, r = gate
    g = iv_from_surd(Fraction(p, 2), Fraction(q, 2), r, prec)
    return iv_mul(g, iv_ln(iv_from_rat(x / (x - 1), prec), prec), prec)


def _point_case(pair: KraitchikPair, gate: tuple[int, int, int], x: Fraction) -> tuple[Fraction, tuple]:
    """The exact left side at x and the ``decide`` case of the bound there in log space;
    GateError unless x is past the gate G_d, given as ``gate`` = (p, q, r)."""
    ctx = pair.ctx
    if not _past_gate(gate, x):
        raise GateError(f"x = {x} does not exceed twice the gate value for d = {ctx.d}")

    mu = mobius(ctx.d)
    u, v = x.numerator, x.denominator
    P, X = _homogeneous(pair.a, u, v), _homogeneous(pair.b, u, v)
    if P <= 0:
        psi_x = Fraction(P, v**ctx.dprime)
        raise ArithmeticError(f"Psi_{ctx.d}({x}) = {psi_x} is not positive at an admissible x")
    w = 2 * u - mu * v  # v * (2x - mu), positive past the gate
    lhs = Fraction(v * abs(X * w - P), P * w)
    c = lhs * w / u  # lhs over the prefactor u/(w*sqrt(d)), per sqrt(d)
    return lhs, (partial(_log_lhs, gate, x, c, ctx.d), partial(_log_rhs, gate, x))


def check_ratio_approx(
    pair: KraitchikPair, x: Fraction | int, max_precision: int = DEFAULT_MAX_PRECISION
) -> RatioReport:
    """Verify |Xi(x)/Psi(x) - 1/(2x - mu(d))| < the closed-form envelope at one x: the table over x alone."""
    return ratio_table(pair, [x], max_precision)[0]


def ratio_table(
    pair: KraitchikPair, xs: Sequence[Fraction | int], max_precision: int = DEFAULT_MAX_PRECISION
) -> list[RatioReport]:
    """One report per sample point, all against one gate value, each point one case of a single
    ``decide``.  ValueError for d < 5, RadicandMismatch for a gate outside Q(sqrt(d)) and
    GateError for any point not past the gate, each before any enclosure is built."""
    d = pair.ctx.d
    _require_minimum_modulus(d)
    _, q, r = gate = doubled_parts(gate_value(pair))
    _same_field(q, r, d)
    rungs = precision_ladder(max_precision)  # the ceiling is checked here, before any enclosure is built
    xs = [Fraction(x) for x in xs]
    points = [_point_case(pair, gate, x) for x in xs]
    decisions = decide([case for _, case in points], rungs)
    return [RatioReport(d, x, lhs, decision.verdict) for x, (lhs, _), decision in zip(xs, points, decisions)]
