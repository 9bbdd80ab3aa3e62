"""Coefficient growth bounds for the decomposition pair.

For a modulus d and coefficient index n, the growth base is the maximum of
phi(f)/2 over the divisors 1 < f <= n of d together with a surd floor:
|1 + sqrt(D)|/2 for the absolute-value bound and (1 + sqrt(d))/2 for the
L1 bound.  The rising-factorial expression 2*B(B+1)...(B+n-1)/n! built on
that base dominates the coefficients.

That maximum is taken once, on doubled integers: the floor's square part is
pulled out, the largest phi(f) is compared with twice the floor by one
integer ``cmp_surd``, and the winner becomes the one ``QuadElem``
(p + q*sqrt(r))/2 with integers p, q.  A rational base (q = 0, a winning
phi(f)/2 or a floor whose radicand is a square, as 1 + 1155 = 34^2) keeps
the radicand of the floor's field.
``rising_factorial_bound`` returns the bound as integers (P, Q, K) meaning
(P + Q*sqrt(r))/K, and ``check_coefficient_bounds`` decides each inequality
by one integer ``cmp_surd`` (no intervals, no Fractions), which is what lets
the tight n = 0 equality pass without an equality-resolution dance.

``check_explicit_bound`` checks the strict three-way closed-form bound in log
space, ln|a + b*sqrt(d)| < min(ln t1, ln t2, ln t3), so ln is the one interval
kernel it needs (ln pi, ln n and ln(F - 1) are cached per rung).  It runs on a
doubling precision ladder and reports ``unresolved`` if the ceiling is hit; a
zero left side is decided exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .construct import KraitchikPair
from .interval import (  # verdict constants re-exported: cli and perfbench read bounds.VERIFIED
    DEFAULT_MAX_PRECISION,
    FALSIFIED,
    UNRESOLVED,
    VERIFIED,
    DyadicInterval,
    checked_precision,
    decide,
    iv_add,
    iv_const_pi,
    iv_div,
    iv_from_rat,
    iv_from_surd,
    iv_ln,
    iv_mul,
    iv_sub,
    precision_ladder,
)
from .numtheory import divisors, euler_phi, squarefree_decompose
from .powersums import DiscriminantContext
from .qfield import QuadElem, RadicandMismatch, cmp_surd


def _growth_base(ctx: DiscriminantContext, n: int, p: int, q: int, radicand: int) -> QuadElem:
    """The larger of the floor (p + q*sqrt(radicand))/2 and phi(f)/2 over the divisors
    1 < f <= n of d, compared doubled, in integers; a rational base stays in Q(sqrt(d))."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    s, r = squarefree_decompose(radicand)
    p, q, r = (p + q * s, 0, ctx.d) if r == 1 else (p, q * s, r)
    top = max((euler_phi(f) for f in divisors(ctx.d) if 1 < f <= n), default=None)
    if top is not None and cmp_surd(p, q, r, top) < 0:
        p, q = top, 0
    return QuadElem(Fraction(p, 2), Fraction(q, 2), r)


def abs_bound_base(ctx: DiscriminantContext, n: int) -> QuadElem:
    """Base for the |a + b*sqrt(D)| bound; the surd floor is |1 + sqrt(D)|/2, which
    is sqrt(1 + d)/2 when D < 0.

    The divisor candidates are those 1 < f <= n, so the base is defined for
    any n >= 0 even though the inequality checks only use n <= d'.
    """
    return _growth_base(ctx, n, 1, 1, ctx.d) if ctx.D > 0 else _growth_base(ctx, n, 0, 1, 1 + ctx.d)


def l1_bound_base(ctx: DiscriminantContext, n: int) -> QuadElem:
    """Base for the L1-norm bound; the surd floor is (1 + sqrt(d))/2."""
    return _growth_base(ctx, n, 1, 1, ctx.d)


def doubled_parts(base: QuadElem) -> tuple[int, int]:
    """The integers (p, q) of a growth base (p + q*sqrt(r))/2."""
    p, q = 2 * base.a, 2 * base.b
    if p.denominator != 1 or q.denominator != 1:
        raise ValueError(f"growth base must be (p + q*sqrt(r))/2 with integer p, q, got {base}")
    return p.numerator, q.numerator


def rising_factorial_bound(base: QuadElem, n: int) -> tuple[int, int, int]:
    """2 * B(B+1)...(B+n-1) / n! as integers (P, Q, K) meaning (P + Q*sqrt(r))/K.

    With B = (p + q*sqrt(r))/2, each factor B + i is the pair (p + 2i, q)
    over 2, so K = 2^n * n!; n = 0 gives (2, 0, 1).
    """
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    p, q = doubled_parts(base)
    r = base.r
    P, Q = 2, 0
    for i in range(n):
        u = p + 2 * i
        P, Q = P * u + Q * q * r, P * q + Q * u
    return P, Q, math.factorial(n) << n


def _ceil_half_surd(p: int, q: int, r: int) -> int:
    """Smallest integer >= (p + q*sqrt(r))/2, for integers p and q, r >= 0; no floats, no search."""
    if q < 0:
        raise ValueError(f"need a nonnegative surd part, got q = {q}")
    s = math.isqrt(q * q * r)
    if s * s == q * q * r:
        return -((-(p + s)) // 2)
    # s < q*sqrt(r) < s + 1, so the value lies strictly inside ((p+s)/2, (p+s+1)/2)
    return (p + s) // 2 + 1


def ceil_multiple(base: QuadElem, k: int) -> int:
    """Smallest integer >= k*B for a growth base B and an integer k >= 0, decided exactly."""
    p, q = doubled_parts(base)
    return _ceil_half_surd(k * p, k * q, base.r)


@dataclass(frozen=True)
class CoefficientBoundsReport:
    d: int
    n: int
    abs_ok: bool
    l1_ok: bool

    @property
    def verdict(self) -> str:
        return VERIFIED if (self.abs_ok and self.l1_ok) else FALSIFIED


def _require_minimum_modulus(d: int) -> None:
    if d < 5:
        raise ValueError(f"bound checks need d >= 5, got {d}")


def _same_field(Q: int, r: int, d: int) -> None:
    if Q != 0 and r != d:
        raise RadicandMismatch(f"bound in Q(sqrt({r})) cannot be compared in Q(sqrt({d}))")


def check_coefficient_bounds(pair: KraitchikPair, n: int) -> CoefficientBoundsReport:
    """Both coefficient inequalities for one (d, n), each one integer surd comparison.

    With the bound (P + Q*sqrt(r))/K, the inequalities are cleared of K (and,
    for D < 0, squared) so that ``cmp_surd`` sees integers only.
    """
    ctx = pair.ctx
    _require_minimum_modulus(ctx.d)
    if not 0 <= n <= ctx.dprime:
        raise ValueError(f"n out of range: {n}")
    a_n, b_n = pair.a[n], pair.b_coeff(n)
    d = ctx.d

    abs_base = abs_bound_base(ctx, n)
    P, Q, K = rising_factorial_bound(abs_base, n)
    if ctx.D > 0:
        # K*|a + b*sqrt(d)| <= P + Q*sqrt(d)
        _same_field(Q, abs_base.r, d)
        s = 1 if cmp_surd(a_n, b_n, d, 0) >= 0 else -1
        abs_ok = cmp_surd(P - K * s * a_n, Q - K * s * b_n, d, 0) >= 0
    else:
        # K^2*(a^2 + d*b^2) <= (P + Q*sqrt(r))^2
        r = abs_base.r
        abs_ok = cmp_surd(P * P + Q * Q * r - K * K * (a_n * a_n + d * b_n * b_n), 2 * P * Q, r, 0) >= 0

    l1_base = l1_bound_base(ctx, n)
    P, Q, K = rising_factorial_bound(l1_base, n)
    _same_field(Q, l1_base.r, d)
    l1_ok = cmp_surd(P - K * abs(a_n), Q - K * abs(b_n), d, 0) >= 0
    return CoefficientBoundsReport(ctx.d, n, abs_ok, l1_ok)


@dataclass(frozen=True)
class ExplicitBoundReport:
    d: int
    n: int
    verdict: str
    # Same strict bound with the left side measured against sqrt(D) instead of
    # sqrt(d); identical when D > 0, reported for the record when D < 0.
    verdict_disc_radicand: str


@lru_cache(maxsize=64)
def _ln_pi(prec: int) -> DyadicInterval:
    return iv_ln(iv_const_pi(prec), prec)


@lru_cache(maxsize=4096)
def _ln_int(n: int, prec: int) -> DyadicInterval:
    return iv_ln(iv_from_rat(n, prec), prec)


@lru_cache(maxsize=1024)
def _ln_base_minus_one(base: QuadElem, prec: int) -> DyadicInterval:
    # equal bases are the same real number, whatever radicand a rational one carries
    return iv_ln(iv_sub(iv_from_surd(base.a, base.b, base.r, prec), 1, prec), prec)


def _log_bounds(base: QuadElem, n: int, prec: int) -> tuple[DyadicInterval, ...]:
    """ln t1, ln t2, ln t3 at growth base F and index n, each a short sum of logarithms.

    t1 and t2 are sqrt(stir2/(e*pi*x)) * (e*(F+n-1)/y)^(y + 1/2) with (x, y) = (n, F - 1)
    and (F - 1, n), where ln stir2 = ln 2 + 1/(6(F+n)) exactly; t3 = 2^(F+n).
    """
    F = iv_from_surd(base.a, base.b, base.r, prec)
    Fn = iv_add(F, n, prec)
    ln2, ln_n, ln_Fm1 = _ln_int(2, prec), _ln_int(n, prec), _ln_base_minus_one(base, prec)
    lift = iv_add(iv_ln(iv_sub(Fn, 1, prec), prec), 1, prec)  # ln(e*(F+n-1))
    ln_stir2 = iv_add(ln2, iv_div(1, iv_mul(6, Fn, prec), prec), prec)
    c = iv_sub(ln_stir2, iv_add(_ln_pi(prec), 1, prec), prec)  # ln(stir2/(e*pi))

    def ln_t(ln_x: DyadicInterval, y_plus_half, ln_y: DyadicInterval) -> DyadicInterval:
        root = iv_div(iv_sub(c, ln_x, prec), 2, prec)
        return iv_add(root, iv_mul(y_plus_half, iv_sub(lift, ln_y, prec), prec), prec)

    lt1 = ln_t(ln_n, iv_sub(F, Fraction(1, 2), prec), ln_Fm1)
    return lt1, ln_t(ln_Fm1, Fraction(2 * n + 1, 2), ln_n), iv_mul(Fn, ln2, prec)


def check_explicit_bound(
    pair: KraitchikPair, n: int, max_precision: int = DEFAULT_MAX_PRECISION
) -> ExplicitBoundReport:
    """Strict three-way bound on |a_{d,n} + b_{d,n} sqrt(d)| for 1 <= n <= d'."""
    ctx = pair.ctx
    _require_minimum_modulus(ctx.d)
    if not 1 <= n <= ctx.dprime:
        raise ValueError(f"n out of range for the strict bound: {n}")
    base = abs_bound_base(ctx, n)
    if cmp_surd(base.a, base.b, base.r, 1) <= 0:
        raise ArithmeticError(f"growth base must exceed 1, got {base} at d={ctx.d}, n={n}")
    a_n, b_n = pair.a[n], pair.b_coeff(n)
    d = ctx.d
    if a_n == b_n == 0:
        # every t_i is a positive product, so 0 < min(t1, t2, t3) holds exactly; ln 0 has no enclosure
        checked_precision(max_precision, "max_precision")
        return ExplicitBoundReport(ctx.d, n, VERIFIED, VERIFIED)

    @lru_cache(maxsize=None)
    def min_log_bound(prec: int) -> DyadicInterval:
        # min is monotone in each argument, so the endpoint minima enclose it
        ts = _log_bounds(base, n, prec)
        return DyadicInterval(min(t.lo_m for t in ts), min(t.hi_m for t in ts), prec)

    sign = cmp_surd(a_n, b_n, d, 0)
    aa, bb = (a_n, b_n) if sign >= 0 else (-a_n, -b_n)
    verdict = decide(
        lambda p: iv_ln(iv_from_surd(aa, bb, d, p), p), min_log_bound, precision_ladder(max_precision)
    ).verdict

    if ctx.D > 0:
        verdict_disc = verdict
    else:
        mod_sq = a_n * a_n + d * b_n * b_n
        verdict_disc = decide(
            lambda p: iv_div(iv_ln(iv_from_rat(mod_sq, p), p), 2, p), min_log_bound, precision_ladder(max_precision)
        ).verdict
    return ExplicitBoundReport(ctx.d, n, verdict, verdict_disc)
