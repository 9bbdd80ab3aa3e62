"""The rational-point approximation Xi_d(x)/Psi_d(x) ~ 1/(2x - mu(d)).

The left side of the error bound is pure integer arithmetic: for x = u/v in
lowest terms, Horner on the pair's integer coefficients gives
P = v^d' * Psi_d(x) and X = v^(d'-1) * Xi_d(x), and with w = 2u - mu(d)*v
the left side is the single Fraction v*|X*w - P| / (P*w).  Only the right
side touches irrationals (sqrt(d) and the gate value G_d as an exponent), so
it is enclosed with validated intervals; a ``verified`` verdict is therefore
a machine-checked strict inequality.

The gate value G_d is a growth base (p + q*sqrt(r))/2 from ``bounds``.  The
gate x > 2*G_d is decided exactly, by one ``cmp_surd``, before anything else;
points failing it are typed rejections (``GateError``), not verdicts.  The
integer sample points come from the exact ceiling ``bounds.ceil_multiple``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .bounds import ceil_multiple, l1_bound_base
from .construct import KraitchikPair
from .interval import (
    DEFAULT_MAX_PRECISION,
    DyadicInterval,
    decide,
    iv_div,
    iv_exp,
    iv_from_rat,
    iv_from_surd,
    iv_ln,
    iv_mul,
    iv_neg,
    iv_sub,
    precision_ladder,
)
from .numtheory import mobius
from .qfield import QuadElem, cmp_surd

REJECTED = "rejected"


class GateError(ValueError):
    """x does not exceed twice the gate value, so the bound does not apply."""


@dataclass(frozen=True)
class RatioReport:
    d: int
    x: Fraction
    lhs_exact: Optional[Fraction]
    rhs_enclosure: Optional[DyadicInterval]
    verdict: str


def gate_value(pair: KraitchikPair) -> QuadElem:
    """G_d: the L1 growth base at n = floor(phi(d)/4)."""
    ctx = pair.ctx
    return l1_bound_base(ctx, (2 * ctx.dprime) // 4)


def default_sample_points(pair: KraitchikPair) -> list[Fraction]:
    """The standard grid: {ceil(2G)+1, 2*ceil(G)+5, 100}."""
    g = gate_value(pair)
    return [
        Fraction(ceil_multiple(g, 2) + 1),
        Fraction(2 * ceil_multiple(g, 1) + 5),
        Fraction(100),
    ]


def _homogeneous(coeffs: Sequence[int], u: int, v: int) -> int:
    """sum_i c_i * u^(n-i) * v^i with n = len(coeffs) - 1: v^n times the
    polynomial with descending coefficients ``coeffs`` at u/v, by Horner."""
    acc, vp = 0, 1
    for c in coeffs:
        acc = acc * u + c * vp
        vp *= v
    return acc


def check_ratio_approx(
    pair: KraitchikPair, x: Fraction | int, max_precision: int = DEFAULT_MAX_PRECISION
) -> RatioReport:
    """Verify |Xi(x)/Psi(x) - 1/(2x - mu(d))| < the closed-form envelope."""
    ctx = pair.ctx
    if ctx.d < 5:
        raise ValueError(f"ratio check needs d >= 5, got {ctx.d}")
    x = Fraction(x)
    g = gate_value(pair)
    if cmp_surd(2 * g.a, 2 * g.b, g.r, x) >= 0:  # x > 2*G fails, exactly
        raise GateError(f"x = {x} does not exceed twice the gate value for d = {ctx.d}")

    mu = mobius(ctx.d)
    u, v = x.numerator, x.denominator
    P, X = _homogeneous(pair.a, u, v), _homogeneous(pair.b, u, v)
    if P <= 0:
        psi_x = Fraction(P, v**ctx.dprime)
        raise ArithmeticError(f"Psi_{ctx.d}({x}) = {psi_x} is not positive at an admissible x")
    w = 2 * u - mu * v  # v * (2x - mu), positive past the gate
    lhs = Fraction(v * abs(X * w - P), P * w)

    def rhs_fn(prec: int) -> DyadicInterval:
        sqrt_d = iv_from_surd(0, 1, ctx.d, prec)
        pref = iv_div(
            iv_from_rat(x, prec),
            iv_mul(iv_from_rat(2 * x - mu, prec), sqrt_d, prec),
            prec,
        )
        g_iv = iv_from_surd(g.a, g.b, g.r, prec)
        # (1 - 1/x)^(-G) = exp(-G ln(1 - 1/x))
        pow_term = iv_exp(iv_mul(iv_neg(g_iv, prec), iv_ln(iv_from_rat(1 - 1 / x, prec), prec), prec), prec)
        inner = iv_sub(
            iv_sub(pow_term, 1, prec), iv_div(g_iv, iv_from_rat(x, prec), prec), prec
        )
        return iv_mul(pref, inner, prec)

    # the exact left side is never rounded: decide compares it against the mantissas exactly
    decision = decide(lhs, rhs_fn, precision_ladder(max_precision))
    return RatioReport(ctx.d, x, lhs, decision.rhs, decision.verdict)


def ratio_table(
    pair: KraitchikPair, xs: Sequence[Fraction | int], max_precision: int = DEFAULT_MAX_PRECISION
) -> list[RatioReport]:
    """One report per sample point; gate failures become 'rejected' rows."""
    out = []
    for x in xs:
        try:
            out.append(check_ratio_approx(pair, x, max_precision))
        except GateError:
            out.append(RatioReport(pair.ctx.d, Fraction(x), None, None, REJECTED))
    return out
