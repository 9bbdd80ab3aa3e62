"""Coefficient growth bounds for the decomposition pair.

For a modulus d and coefficient index n, the growth base is the maximum of
phi(f)/2 over the divisors 1 < f <= n of d together with a surd floor:
|1 + sqrt(D)|/2 for the absolute-value bound and (1 + sqrt(d))/2 for the
L1 bound.  The rising-factorial expression 2*B(B+1)...(B+n-1)/n! built on
that base dominates the coefficients.

That maximum is taken on doubled integers, once per modulus and floor, by
the growth plan ``_growth_plan(d, p, q, radicand)``: it pulls the floor's
square part out, walks the divisors of d with one integer ``cmp_surd`` of
phi(f) against the doubled base so far, and returns the base as steps
(first n, p, q, r).  ``_growth_base`` reads the step that holds at n into
the one ``QuadElem`` (p + q*sqrt(r))/2.  A rational base (q = 0, a winning
phi(f)/2 or a floor whose radicand is a square, as 1 + 1155 = 34^2) keeps
the radicand of the floor's field.  The passes read each base they build
once, as the integers (p, q, r) of ``doubled_parts``: no Fraction reaches a
``cmp_surd``.  ``rising_factorial_bound`` returns the bound as integers
(P, Q, K) meaning (P + Q*sqrt(r))/K, from the prefix ``_rising_prefix(p, q, r)``
of (P, Q, K) at n = 0, 1, ..., extended in place only as far as a caller
asks.  Each inequality is decided by one integer ``cmp_surd`` (no intervals,
no Fractions), which is what lets the tight n = 0 equality pass without an
equality-resolution dance.

The plan (last 8 keys) and the prefix (last 4 bases) are module-level
``lru_cache``s keyed on integers only, so a per-n entry point pays for one n,
not for the whole modulus; they clear with the module's other caches, and
nothing is stored on a pair or a ``DiscriminantContext``.

Each check runs as one pass over the indices n of a modulus.  The base can
change only at a step of its plan, so it is built at the first n and at each
step; ``coefficient_bounds_pass`` seeds (P, Q, K) from
``rising_factorial_bound`` where the base changes and carries it along n
between, by the factor (p + 2(n-1), q) and K by 2n, so a pass asks the
prefix for its seeds only.
``explicit_bound_pass`` checks the strict three-way closed-form bound in log
space, ln|a + b*sqrt(d)| < min(ln t1, ln t2, ln t3), so ln is the one
interval kernel it needs.  The right side comes from bare integer mantissas,
rounded outward exactly as the ``iv_*`` operations round them: ln 2, ln(e*pi)
and each base's ln(F - 1) are computed once per rung, ln n is cached, and one
assembly of t1, t2, t3 takes an enclosure of ln(e*(F + n - 1)).  A zero left
side is decided exactly.  Every other n first meets a coarse stage on the
first rung's grid that takes no new logarithm: the left side is below
L*ln 2, with L the bit length of an integer above |a + b*sqrt(d)| that one
isqrt gives (for the sqrt(D) variant, half the bit length of a^2 + d*b^2,
rounded up), and ln(F + n - 1) is enclosed by the cached logarithms of
floor(F) + n - 1 and floor(F) + n.  The stage can only verify, and an n is
settled only when all its variants are: it may turn what the ladder alone
would leave unresolved into verified, nothing else.  Each n it leaves open is
one case of a single ``decide`` (for D < 0 with a second case, the left side
against sqrt(D), with the same right side), with ln(F + n - 1) from F's
enclosure (``_min_log_t``).  The per-n entry points
``check_coefficient_bounds`` and ``check_explicit_bound`` run the pass over
their one n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from typing import Iterator, Optional

from .construct import KraitchikPair
from .interval import (  # verdict constants re-exported: cli and perfbench read bounds.VERIFIED
    DEFAULT_MAX_PRECISION,
    FALSIFIED,
    FIRST_RUNG,
    GUARD_BITS,
    UNRESOLVED,
    VERIFIED,
    DyadicInterval,
    decide,
    iv_add,
    iv_const_pi,
    iv_from_rat,
    iv_from_surd,
    iv_ln,
    iv_sub,
    ln_mantissas,
    mul_mantissas,
    precision_ladder,
)
from .numtheory import divisors, euler_phi, squarefree_decompose
from .powersums import DiscriminantContext
from .qfield import QuadElem, RadicandMismatch, cmp_surd

Triple = tuple[int, int, int]  # (p, q, r) of a doubled growth base or floor p + q*sqrt(r)


@lru_cache(maxsize=8)
def _growth_plan(d: int, p: int, q: int, radicand: int) -> tuple[tuple[int, int, int, int], ...]:
    """The growth base on the floor (p + q*sqrt(radicand))/2 as a step function of n: steps
    (first n, p, q, r), each base (p + q*sqrt(r))/2 holding from its first n to the next step's.

    The floor's square part is pulled out once; each divisor 1 < f of d is then one integer
    ``cmp_surd`` of phi(f) against the doubled base so far, and a winner starts a step at n = f.
    A rational base stays in Q(sqrt(d))."""
    s, r = squarefree_decompose(radicand)
    steps = [(0, p + q * s, 0, d) if r == 1 else (0, p, q * s, r)]
    for f in divisors(d)[1:]:
        phi = euler_phi(f)
        if cmp_surd(*steps[-1][1:], phi) < 0:
            steps.append((f, phi, 0, steps[-1][3]))
    return tuple(steps)


def _growth_base(ctx: DiscriminantContext, n: int, floor: Triple) -> QuadElem:
    """The larger of the floor (p + q*sqrt(radicand))/2, given as (p, q, radicand), and phi(f)/2
    over the divisors 1 < f <= n of d: the step of the cached plan that holds at n."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    for first, p, q, r in reversed(_growth_plan(ctx.d, *floor)):
        if first <= n:  # the first step starts at n = 0
            return QuadElem(Fraction(p, 2), Fraction(q, 2), r)


def _abs_floor(ctx: DiscriminantContext) -> Triple:
    """The doubled surd floor |1 + sqrt(D)| of the |a + b*sqrt(D)| bound, which is sqrt(1 + d) when D < 0."""
    return (1, 1, ctx.d) if ctx.D > 0 else (0, 1, 1 + ctx.d)


def _l1_floor(ctx: DiscriminantContext) -> Triple:
    """The doubled surd floor 1 + sqrt(d) of the L1 bound."""
    return 1, 1, ctx.d


def abs_bound_base(ctx: DiscriminantContext, n: int) -> QuadElem:
    """Base for the |a + b*sqrt(D)| bound; the surd floor is |1 + sqrt(D)|/2, which
    is sqrt(1 + d)/2 when D < 0.

    The divisor candidates are those 1 < f <= n, so the base is defined for
    any n >= 0 even though the inequality checks only use n <= d'.
    """
    return _growth_base(ctx, n, _abs_floor(ctx))


def l1_bound_base(ctx: DiscriminantContext, n: int) -> QuadElem:
    """Base for the L1-norm bound; the surd floor is (1 + sqrt(d))/2."""
    return _growth_base(ctx, n, _l1_floor(ctx))


def doubled_parts(base: QuadElem) -> tuple[int, int, int]:
    """The integers (p, q, r) of a growth base (p + q*sqrt(r))/2."""
    a, b = base.a, base.b
    if 2 % a.denominator or 2 % b.denominator:
        raise ValueError(f"growth base must be (p + q*sqrt(r))/2 with integer p, q, got {base}")
    return a.numerator * (2 // a.denominator), b.numerator * (2 // b.denominator), base.r


@lru_cache(maxsize=4)
def _rising_prefix(p: int, q: int, r: int) -> list[tuple[int, int, int]]:
    """(P, Q, K) of ``rising_factorial_bound`` at n = 0, 1, ... for the base (p + q*sqrt(r))/2,
    extended in place only as far as a caller has asked.  Only ``rising_factorial_bound``
    reads or extends the list, with no lock: kraitchik runs its checks on one thread per process."""
    return [(2, 0, 1)]


def rising_factorial_bound(base: QuadElem, n: int) -> tuple[int, int, int]:
    """2 * B(B+1)...(B+n-1) / n! as integers (P, Q, K) meaning (P + Q*sqrt(r))/K.

    With B = (p + q*sqrt(r))/2, each factor B + i is the pair (p + 2i, q)
    over 2, so K = 2^n * n!; n = 0 gives (2, 0, 1).
    """
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    p, q, r = doubled_parts(base)
    prefix = _rising_prefix(p, q, r)
    for i in range(len(prefix) - 1, n):
        P, Q, K = prefix[i]
        u = p + 2 * i
        prefix.append((P * u + Q * q * r, P * q + Q * u, K * 2 * (i + 1)))
    return prefix[n]


def _ceil_half_surd(p: int, q: int, r: int) -> int:
    """Smallest integer >= (p + q*sqrt(r))/2, for integers p and q, r >= 0; no floats, no search."""
    if q < 0:
        raise ValueError(f"need a nonnegative surd part, got q = {q}")
    s = math.isqrt(q * q * r)
    if s * s == q * q * r:
        return -((-(p + s)) // 2)
    # s < q*sqrt(r) < s + 1, so the value lies strictly inside ((p+s)/2, (p+s+1)/2)
    return (p + s) // 2 + 1


def _floor_half_surd(p: int, q: int, r: int) -> int:
    """Largest integer <= (p + q*sqrt(r))/2, for integers p and q, r >= 0."""
    # s <= q*sqrt(r) < s + 1 puts the value in [(p+s)/2, (p+s+1)/2), whose floor is (p+s)//2
    return (p + math.isqrt(q * q * r)) // 2


def _require_minimum_modulus(d: int) -> None:
    if d < 5:
        raise ValueError(f"bound checks need d >= 5, got {d}")


def _indices(pair: KraitchikPair, ns: Optional[range], lo: int) -> range:
    """``ns``, or lo..d' when None; ValueError unless it is a step-1 range inside lo..d'."""
    ctx = pair.ctx
    _require_minimum_modulus(ctx.d)
    if ns is None:
        return range(lo, ctx.dprime + 1)
    if ns.step != 1 or ns.start < lo or ns.stop > ctx.dprime + 1:
        raise ValueError(f"n out of range: {ns.start}..{ns.stop - 1} (need {lo}..{ctx.dprime})")
    return ns


def _bases(ctx: DiscriminantContext, ns: range, base_at, floor: Triple) -> Iterator[tuple[int, QuadElem, Triple, bool]]:
    """(n, base, (p, q, r), fresh) for each n of ``ns``: ``base_at(ctx, n)`` is built at the
    first n and at each step of the growth plan on ``floor``, the only places it can change,
    and read there once as the integers of (p + q*sqrt(r))/2; ``fresh`` marks where that
    triple changed."""
    stops = {step[0] for step in _growth_plan(ctx.d, *floor)} if len(ns) > 1 else ()
    base = key = None
    for n in ns:
        fresh = False
        if key is None or n in stops:
            base, old = base_at(ctx, n), key
            key = doubled_parts(base)
            fresh = key != old
        yield n, base, key, fresh


def _carried_bounds(ctx: DiscriminantContext, ns: range, base_at, floor: Triple) -> Iterator[tuple[int, int, int, int]]:
    """(r, P, Q, K) of ``rising_factorial_bound(base_at(ctx, n), n)`` for each n of ``ns``:
    seeded where the base changes, then carried along n by the factor (p + 2(n-1), q)
    and K by 2n."""
    for n, base, (p, q, r), fresh in _bases(ctx, ns, base_at, floor):
        if fresh:
            P, Q, K = rising_factorial_bound(base, n)
        else:
            u = p + 2 * (n - 1)
            P, Q, K = P * u + Q * q * r, P * q + Q * u, K * 2 * n
        yield r, P, Q, K


@dataclass(frozen=True)
class CoefficientBoundsReport:
    d: int
    n: int
    abs_ok: bool
    l1_ok: bool

    @property
    def verdict(self) -> str:
        return VERIFIED if (self.abs_ok and self.l1_ok) else FALSIFIED


def _same_field(Q: int, r: int, d: int) -> None:
    if Q != 0 and r != d:
        raise RadicandMismatch(f"bound in Q(sqrt({r})) cannot be compared in Q(sqrt({d}))")


def coefficient_bounds_pass(pair: KraitchikPair, ns: Optional[range] = None) -> list[CoefficientBoundsReport]:
    """Both coefficient inequalities at each n of ``ns`` (default 0..d'), each one integer
    surd comparison.

    With the bound (P + Q*sqrt(r))/K, the inequalities are cleared of K (and,
    for D < 0, squared) so that ``cmp_surd`` sees integers only.
    """
    ns = _indices(pair, ns, 0)
    ctx = pair.ctx
    d = ctx.d
    reports = []
    abs_bounds = _carried_bounds(ctx, ns, abs_bound_base, _abs_floor(ctx))
    l1_bounds = _carried_bounds(ctx, ns, l1_bound_base, _l1_floor(ctx))
    for n, (r, P, Q, K), (r1, P1, Q1, K1) in zip(ns, abs_bounds, l1_bounds):
        a_n, b_n = pair.a[n], pair.b_coeff(n)
        if ctx.D > 0:
            # K*|a + b*sqrt(d)| <= P + Q*sqrt(d)
            _same_field(Q, r, d)
            s = 1 if cmp_surd(a_n, b_n, d, 0) >= 0 else -1
            abs_ok = cmp_surd(P - K * s * a_n, Q - K * s * b_n, d, 0) >= 0
        else:
            # K^2*(a^2 + d*b^2) <= (P + Q*sqrt(r))^2
            abs_ok = cmp_surd(P * P + Q * Q * r - K * K * (a_n * a_n + d * b_n * b_n), 2 * P * Q, r, 0) >= 0
        _same_field(Q1, r1, d)
        l1_ok = cmp_surd(P1 - K1 * abs(a_n), Q1 - K1 * abs(b_n), d, 0) >= 0
        reports.append(CoefficientBoundsReport(d, n, abs_ok, l1_ok))
    return reports


def check_coefficient_bounds(pair: KraitchikPair, n: int) -> CoefficientBoundsReport:
    """Both coefficient inequalities for one (d, n): the pass over n alone."""
    return coefficient_bounds_pass(pair, range(n, n + 1))[0]


@dataclass(frozen=True)
class ExplicitBoundReport:
    d: int
    n: int
    verdict: str
    # Same strict bound with the left side measured against sqrt(D) instead of
    # sqrt(d); identical when D > 0, reported for the record when D < 0.
    verdict_disc_radicand: str


# Each enclosure below is a mantissa pair (lo_m, hi_m) over 2^(prec + GUARD_BITS),
# rounded outward exactly as the interval module's iv_* operations round it.

Mantissas = tuple[int, int]


@lru_cache(maxsize=64)
def _rung_logs(prec: int) -> tuple[int, int, int, int]:
    """ln 2 and ln(e*pi) = ln pi + 1."""
    ln_epi = iv_add(iv_ln(iv_const_pi(prec), prec), 1, prec)
    return (*_ln_int(2, prec), ln_epi.lo_m, ln_epi.hi_m)


@lru_cache(maxsize=4096)
def _ln_int(n: int, prec: int) -> Mantissas:
    ln_n = iv_ln(iv_from_rat(n, prec), prec)
    return ln_n.lo_m, ln_n.hi_m


@lru_cache(maxsize=1024)
def _base_logs(base: tuple[int, int, int], prec: int) -> tuple[int, int, int, int]:
    """F and ln(F - 1) for a growth base F = (p + q*sqrt(r))/2 given as (p, q, r)."""
    p, q, r = base
    f = iv_from_surd(Fraction(p, 2), Fraction(q, 2), r, prec)
    ln_fm1 = iv_ln(iv_sub(f, 1, prec), prec)
    return f.lo_m, f.hi_m, ln_fm1.lo_m, ln_fm1.hi_m


def _ln_t(c: Mantissas, ln_x: Mantissas, y: Mantissas, w: Mantissas, prec: int) -> Mantissas:
    """(c - ln x)/2 + y*w."""
    m_lo, m_hi = mul_mantissas(*y, *w, prec)
    return ((c[0] - ln_x[1]) >> 1) + m_lo, -((ln_x[0] - c[1]) >> 1) + m_hi


def _assemble_min_log_t(base: tuple[int, int, int], n: int, lift: Mantissas, prec: int) -> DyadicInterval:
    """min(ln t1, ln t2, ln t3) at growth base F and index n, each a short sum of logarithms,
    given an enclosure ``lift`` of ln(e*(F + n - 1)).

    t1 and t2 are sqrt(stir2/(e*pi*x)) * (e*(F+n-1)/y)^(y + 1/2) with (x, y) = (n, F - 1)
    and (F - 1, n), where ln stir2 = ln 2 + 1/(6(F+n)) exactly; t3 = 2^(F+n).  min is
    monotone in each argument, so the endpoint minima enclose it.  The base F is given
    as the integers (p, q, r) of (p + q*sqrt(r))/2.
    """
    g = prec + GUARD_BITS
    one, half = 1 << g, 1 << (g - 1)
    ln2_lo, ln2_hi, epi_lo, epi_hi = _rung_logs(prec)
    f_lo, f_hi, lf_lo, lf_hi = _base_logs(base, prec)
    ln_n = _ln_int(n, prec)
    fn_lo, fn_hi = f_lo + (n << g), f_hi + (n << g)  # F + n > 1
    lift_lo, lift_hi = lift
    # ln(stir2/(e*pi)), with 1/(6(F+n)) rounded outward
    c = ln2_lo + (one << g) // (6 * fn_hi) - epi_hi, ln2_hi - (-(one << g) // (6 * fn_lo)) - epi_lo
    t1 = _ln_t(c, ln_n, (f_lo - half, f_hi - half), (lift_lo - lf_hi, lift_hi - lf_lo), prec)
    t2 = _ln_t(c, (lf_lo, lf_hi), ((2 * n + 1) * half,) * 2, (lift_lo - ln_n[1], lift_hi - ln_n[0]), prec)
    t3 = mul_mantissas(fn_lo, fn_hi, ln2_lo, ln2_hi, prec)
    return DyadicInterval(min(t1[0], t2[0], t3[0]), min(t1[1], t2[1], t3[1]), prec)


def _min_log_t(base: tuple[int, int, int], n: int, prec: int) -> DyadicInterval:
    """The fine right side: ln(F + n - 1) by one logarithm of F's enclosure."""
    g = prec + GUARD_BITS
    one = 1 << g
    f_lo, f_hi = _base_logs(base, prec)[:2]
    lift_lo, lift_hi = ln_mantissas(f_lo + ((n - 1) << g), f_hi + ((n - 1) << g), prec)
    return _assemble_min_log_t(base, n, (lift_lo + one, lift_hi + one), prec)


def _coarse_min_log_t(base: tuple[int, int, int], floor_f: int, n: int, prec: int) -> DyadicInterval:
    """The coarse right side: floor(F) + n - 1 <= F + n - 1 < floor(F) + n, so ln(F + n - 1)
    lies between two cached integer logarithms; ``floor_f`` is floor(F), at least 1."""
    one = 1 << (prec + GUARD_BITS)
    lift = _ln_int(floor_f + n - 1, prec)[0] + one, _ln_int(floor_f + n, prec)[1] + one
    return _assemble_min_log_t(base, n, lift, prec)


def _ln_surd_above(a: int, b: int, d: int, prec: int) -> int:
    """An upper mantissa of ln(a + b*sqrt(d)) for a positive surd: L*ln 2, where L is the bit
    length of an integer U >= a + b*sqrt(d) that one isqrt gives."""
    s = math.isqrt(b * b * d)  # s <= |b|*sqrt(d) < s + 1
    return (a + s + 1 if b >= 0 else a - s).bit_length() * _rung_logs(prec)[1]


def _half_ln_int_above(m: int, prec: int) -> int:
    """An upper mantissa of ln(m)/2 for an integer m >= 1: m < 2^L with L its bit length,
    so ln sqrt(m) < ceil(L/2)*ln 2."""
    return (m.bit_length() + 1) // 2 * _rung_logs(prec)[1]


def _ln_surd(a: int, b: int, d: int, prec: int) -> DyadicInterval:
    """ln(a + b*sqrt(d)) for a positive surd."""
    box = iv_from_surd(a, b, d, prec)
    return DyadicInterval(*ln_mantissas(box.lo_m, box.hi_m, prec), prec)


def _half_ln_int(m: int, prec: int) -> DyadicInterval:
    """ln(m)/2 = ln sqrt(m) for an integer m >= 1."""
    g = prec + GUARD_BITS
    lo, hi = ln_mantissas(m << g, m << g, prec)
    return DyadicInterval(lo >> 1, -(-hi >> 1), prec)


def explicit_bound_pass(
    pair: KraitchikPair, max_precision: int = DEFAULT_MAX_PRECISION, ns: Optional[range] = None
) -> list[ExplicitBoundReport]:
    """Strict three-way bound on |a_{d,n} + b_{d,n} sqrt(d)| at each n of ``ns`` (default 1..d'):
    each n the coarse stage leaves open is one case of a single ``decide``.

    The coarse stage can only verify: it may settle an n that the ladder alone would leave
    unresolved, never one that it falsifies.
    """
    ns = _indices(pair, ns, 1)
    ctx = pair.ctx
    d = ctx.d
    rungs = precision_ladder(max_precision)  # the ceiling is checked here, before any enclosure is built
    coarse = max_precision >= FIRST_RUNG  # the ladder has a rung
    cases, rows = [], []  # rows: (n, index of its first case, or None for an n verified before decide)
    for n, base, key, fresh in _bases(ctx, ns, abs_bound_base, _abs_floor(ctx)):
        if fresh:
            if cmp_surd(*key, 2) <= 0:  # F = (p + q*sqrt(r))/2 > 1
                raise ArithmeticError(f"growth base must exceed 1, got {base} at d={d}, n={n}")
            floor_f = _floor_half_surd(*key)
        a_n, b_n = pair.a[n], pair.b_coeff(n)
        if a_n == b_n == 0:
            # every t_i is a positive product, so 0 < min(t1, t2, t3) holds exactly; ln 0 has no enclosure
            rows.append((n, None))
            continue
        aa, bb = (a_n, b_n) if cmp_surd(a_n, b_n, d, 0) >= 0 else (-a_n, -b_n)
        mod_sq = a_n * a_n + d * b_n * b_n
        if coarse:
            # first-rung mantissas from cached logarithms only, each side rounded outward: the n is
            # verified when every variant's left side lies below the right side's lower end
            rhs_lo = _coarse_min_log_t(key, floor_f, n, FIRST_RUNG).lo_m
            if _ln_surd_above(aa, bb, d, FIRST_RUNG) < rhs_lo and (
                ctx.D > 0 or _half_ln_int_above(mod_sq, FIRST_RUNG) < rhs_lo
            ):
                rows.append((n, None))
                continue
        rows.append((n, len(cases)))
        rhs = partial(_min_log_t, key, n)
        cases.append((partial(_ln_surd, aa, bb, d), rhs))
        if ctx.D < 0:
            cases.append((partial(_half_ln_int, mod_sq), rhs))
    verdicts = [decision.verdict for decision in decide(cases, rungs)]
    disc = 1 if ctx.D < 0 else 0  # the sqrt(D) variant's case follows its n's first case
    return [
        ExplicitBoundReport(d, n, *((VERIFIED, VERIFIED) if i is None else (verdicts[i], verdicts[i + disc])))
        for n, i in rows
    ]


def check_explicit_bound(
    pair: KraitchikPair, n: int, max_precision: int = DEFAULT_MAX_PRECISION
) -> ExplicitBoundReport:
    """Strict three-way bound on |a_{d,n} + b_{d,n} sqrt(d)| for one 1 <= n <= d': the pass over n alone."""
    return explicit_bound_pass(pair, max_precision, range(n, n + 1))[0]
