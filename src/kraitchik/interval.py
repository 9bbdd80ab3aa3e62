"""Validated real arithmetic on dyadic intervals.

An interval at precision ``prec`` holds two integer mantissas ``lo_m`` and
``hi_m`` over the fixed scale 2^(prec+32).  Every operation rounds outward to
that grid (floor for the lower end, ceiling for the upper), so the exact image
of the inputs is always contained in the output, and every operation runs on
Python ints: add and sub are integer adds, mul is an integer product
followed by one directed shift.  The kernels are ln, pi, and cos and sin of
2*pi/d (``root_of_unity_mantissas``): ln takes an exact rational as
(numerator, denominator) integers, and all return directed integer bounds
with explicit tail bounds; ``mul_mantissas`` and ``ln_mantissas`` are mul and
ln on bare mantissa pairs, for callers that keep no interval objects.  ln
reduces its argument before its atanh series: by a power of two to a
mantissa in [1, 2), then above 128 bits by square roots, and otherwise by
the point 1 + t/64 at or below it, whose ln bounds come from a cached
64-entry table, so that the series runs on z < 1/129.  The same series gives
the table and ln 2 = 2 atanh(1/3).  Square roots are integer ones (``isqrt``)
-- no floating point, and no Fraction in any operation.  There is no exp:
each caller states its inequality in log space, where powers become sums and
multiples of logarithms.

``decide`` is the one precision-ladder driver: it settles a family of strict
inequalities together, re-evaluating the cases still open at each rung of a
doubling precision ladder until their enclosures separate.  Each rung's
enclosures are valid by themselves, so a verdict rests on a single rung.
Both sides are enclosures at the rung's precision, compared by their integer
mantissas.  Inequalities that fail to separate by the precision ceiling come
back ``unresolved`` -- callers treat that as failure-to-verify, never as
verification.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import isqrt
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

GUARD_BITS = 32
# ln's table step divides its mantissa by the nearest point 1 + t/2^TABLE_BITS
# below it, leaving a series argument z under 1/(2^(TABLE_BITS+1) + 1)
TABLE_BITS = 6
DEFAULT_MAX_PRECISION = 4096
# The precision of the ladder's first rung; a ceiling below it leaves the ladder empty
FIRST_RUNG = 64
# Fixed cap on any precision ceiling: a case that never separates climbs the
# doubling ladder to the ceiling, so the ceiling bounds the work per case.
MAX_PRECISION_CEILING = 1 << 16


class IntervalDomainError(ValueError):
    """Operand outside an operation's domain (division by a zero-straddling
    interval, log of a nonpositive interval, and so on)."""


def checked_precision(value: int, name: str) -> int:
    """``value`` as a precision ceiling; ValueError naming its source ``name``
    outside 16..MAX_PRECISION_CEILING bits."""
    if not 16 <= value <= MAX_PRECISION_CEILING:
        raise ValueError(f"{name} must be between 16 and {MAX_PRECISION_CEILING} bits, got {value}")
    return value


class DyadicInterval:
    """[lo_m, hi_m] / 2^(prec + GUARD_BITS) with integer mantissas; never mutated."""

    __slots__ = ("lo_m", "hi_m", "prec")

    def __init__(self, lo_m: int, hi_m: int, prec: int) -> None:
        if lo_m > hi_m:
            # hex: a decimal str() of a mantissa past 4300 digits raises in place of this message
            raise ValueError(f"inverted interval [{lo_m:#x}, {hi_m:#x}] / 2^{prec + GUARD_BITS}")
        self.lo_m = lo_m
        self.hi_m = hi_m
        self.prec = prec


def _num_den(q: Fraction | int) -> tuple[int, int]:
    if isinstance(q, int):
        return q, 1
    if not isinstance(q, Fraction):
        q = Fraction(q)
    return q.numerator, q.denominator


def _ceil_shift(n: int, bits: int) -> int:
    """ceil(n / 2^bits)."""
    return -(-n >> bits)


def _isqrt_ceil(n: int) -> int:
    if n <= 0:
        return 0
    s = isqrt(n)
    return s if s * s == n else s + 1


def _ilog2_floor(n: int, d: int) -> int:
    """floor(log2(n/d)) for n, d > 0, exact."""
    if n <= 0:
        raise ValueError("log2 of a nonpositive value")
    e = n.bit_length() - d.bit_length()
    # 2^(e-1) < n/d < 2^(e+1); settle whether n/d >= 2^e by exact comparison
    if e >= 0:
        ok = n >= (d << e)
    else:
        ok = (n << -e) >= d
    return e if ok else e - 1


# ---------------------------------------------------------------------------
# scaled-integer kernels for ln and pi; each bound is a mantissa
# over 2^bits, rounded down (roundup=False) or up (roundup=True)

def _atanh_series_scaled(zn: int, zd: int, ws: int, roundup: bool) -> int:
    """Directed bound of atanh(zn/zd) * 2^ws for 0 <= zn/zd <= 1/2."""
    if zn <= 0:
        return 0
    zn2, zd2 = zn * zn, zd * zd
    if roundup:
        cur = -((-(zn << ws)) // zd)
    else:
        cur = (zn << ws) // zd
    total = cur
    i = 1
    while True:
        if roundup:
            cur = -((-cur * zn2) // zd2)
            if cur <= 1:
                total += cur + 2  # tail: z^(2i+1)/((2i+1)(1-z^2)) under one ulp
                break
            total += -((-cur) // (2 * i + 1))
        else:
            cur = cur * zn2 // zd2
            if cur == 0:
                break
            total += cur // (2 * i + 1)
        i += 1
    return total


@lru_cache(maxsize=None)
def _ln2_bound(ws: int, roundup: bool) -> int:
    """ln 2 = 2 atanh(1/3) * 2^ws, rounded down or up."""
    return 2 * _atanh_series_scaled(1, 3, ws, roundup)


@lru_cache(maxsize=None)
def _ln_table(ws: int, roundup: bool) -> tuple[int, ...]:
    """ln(1 + t/2^TABLE_BITS) = 2 atanh(t/(2^(TABLE_BITS+1) + t)) * 2^ws for each t, rounded down or up."""
    return tuple(2 * _atanh_series_scaled(t, (2 << TABLE_BITS) + t, ws, roundup) for t in range(1 << TABLE_BITS))


def _ln_bound(num: int, den: int, bits: int, roundup: bool) -> int:
    """Directed bound of ln(num/den), den > 0.

    ln(num/den) = k ln 2 + 2^j (ln(c/2^TABLE_BITS) + ln m') for any c > 0,
    where 2^k puts the mantissa m in [1, 2), 2^j is the root taken of m, and
    m' = m^(1/2^j) * 2^TABLE_BITS/c.  c is 2^TABLE_BITS plus the top
    TABLE_BITS bits of the computed m^(1/2^j) - 1, capped at
    2^(TABLE_BITS+1) - 1, so the computed m' lies in [1, 1 + 1/c] to within a
    unit.  For the lower bound (upper: swap every floor for a ceiling and
    every lower bound for an upper one) each of the three parts is a lower
    bound of its exact term: ln m' is the atanh series, truncated to a lower
    bound, of m' rounded down at every step (the mantissa, each root, the
    quotient by c), and ln is increasing;
    ln(c/2^TABLE_BITS) is the table's lower entry; and k ln 2 takes ln 2's
    lower bound for k > 0, its upper one for k < 0.
    """
    if num <= 0:
        raise IntervalDomainError(f"log of nonpositive value {num:#x}/{den:#x}")
    k = _ilog2_floor(num, den)
    ws = bits + 48
    # the mantissa m = num/(den * 2^k) in [1, 2), scaled by 2^ws
    shift = ws - k
    if shift >= 0:
        num <<= shift
    else:
        den <<= -shift
    m, rem = divmod(num, den)
    if not 1 << ws <= m < 2 << ws:
        raise ArithmeticError(f"mantissa {Fraction(num, den << ws)} outside [1, 2)")
    if roundup and rem:
        m += 1
    # square-root reduction: ln m = 2^j ln(m^(1/2^j)); keeps the series short
    j = 0 if bits <= 128 else (8 if bits <= 512 else (16 if bits <= 2048 else 32))
    for _ in range(j):
        m = _isqrt_ceil(m << ws) if roundup else isqrt(m << ws)
    one = 1 << ws
    # table step; after a root m < 1 + 2^-TABLE_BITS, so t = 0.  The ceiling
    # can lift m to 2 exactly; that m stays with the last entry, as m' = 128/127
    t = min((m - one) >> (ws - TABLE_BITS), (1 << TABLE_BITS) - 1)
    total = 0
    if t:
        c = (1 << TABLE_BITS) + t
        m = -(-(m << TABLE_BITS) // c) if roundup else (m << TABLE_BITS) // c
        total = _ln_table(ws, roundup)[t]
    total = (total + (_atanh_series_scaled(m - one, m + one, ws, roundup) << 1)) << j
    if k != 0:
        # the bound of ln 2 matching k's sign and the rounding
        total += k * _ln2_bound(ws, (k > 0) == roundup)
    return _ceil_shift(total, 48) if roundup else total >> 48


def _atan_inv_scaled(q: int, ws: int) -> tuple[int, int]:
    """Bounds of atan(1/q) * 2^ws by the alternating Gregory series."""
    lo = hi = 0
    qpow = q
    q2 = q * q
    i = 0
    positive = True
    while True:
        t = (1 << ws) // (qpow * (2 * i + 1))
        if positive:
            lo += t
            hi += t + 1
        else:
            lo -= t + 1
            hi -= t
        if t == 0:
            break
        i += 1
        qpow *= q2
        positive = not positive
    return lo, hi


@lru_cache(maxsize=None)
def _pi_bounds(bits: int) -> tuple[int, int]:
    """Machin's formula pi = 16 atan(1/5) - 4 atan(1/239)."""
    ws = bits + 24
    a5_lo, a5_hi = _atan_inv_scaled(5, ws)
    a239_lo, a239_hi = _atan_inv_scaled(239, ws)
    lo = 16 * a5_lo - 4 * a239_hi
    hi = 16 * a5_hi - 4 * a239_lo
    return lo >> 24, _ceil_shift(hi, 24)


# ---------------------------------------------------------------------------
# public constructors and arithmetic

def iv_from_rat(q: Fraction | int, prec: int) -> DyadicInterval:
    g = prec + GUARD_BITS
    n, d = _num_den(q)
    return DyadicInterval((n << g) // d, -((-n << g) // d), prec)


def iv_from_surd(x: Fraction | int, y: Fraction | int, d: int, prec: int) -> DyadicInterval:
    """Enclosure of x + y*sqrt(d) for d >= 0, robust against cancellation."""
    if d < 0:
        raise IntervalDomainError(f"surd radicand must be nonnegative, got {d}")
    yn, yd = _num_den(y)
    if yn == 0 or d == 0:
        return iv_from_rat(x, prec)
    xn, xd = _num_den(x)
    extra = max(0, abs(yn).bit_length() - yd.bit_length() + 1)
    bits = prec + GUARD_BITS + extra
    # sqrt(d) * 2^bits lies in [isqrt(d * 4^bits), ceil(sqrt(d * 4^bits + 1))]
    scaled = d << (2 * bits)
    s_lo, s_hi = isqrt(scaled), _isqrt_ceil(scaled + 1)
    if yn < 0:
        s_lo, s_hi = s_hi, s_lo
    # x + y*s/2^bits on the 2^-(prec+GUARD_BITS) grid: (xn*yd*2^bits + yn*xd*s) / (xd*yd*2^extra)
    base = (xn * yd) << bits
    den = (xd * yd) << extra
    return DyadicInterval((base + yn * xd * s_lo) // den, -(-(base + yn * xd * s_hi) // den), prec)


def iv_const_pi(prec: int) -> DyadicInterval:
    return DyadicInterval(*_pi_bounds(prec + GUARD_BITS), prec)


def _coerce(x, prec: int) -> DyadicInterval:
    if isinstance(x, DyadicInterval):
        if x.prec != prec:
            raise ValueError(f"interval at precision {x.prec} used at precision {prec}")
        return x
    return iv_from_rat(x, prec)


def iv_add(x, y, prec: int) -> DyadicInterval:
    x, y = _coerce(x, prec), _coerce(y, prec)
    return DyadicInterval(x.lo_m + y.lo_m, x.hi_m + y.hi_m, prec)


def iv_sub(x, y, prec: int) -> DyadicInterval:
    x, y = _coerce(x, prec), _coerce(y, prec)
    return DyadicInterval(x.lo_m - y.hi_m, x.hi_m - y.lo_m, prec)


def mul_mantissas(xl: int, xh: int, yl: int, yh: int, prec: int) -> tuple[int, int]:
    """The mantissas of ``iv_mul``'s enclosure of [xl, xh] * [yl, yh], all over
    2^(prec + GUARD_BITS), for callers that keep enclosures as bare mantissa pairs;
    at prec = -GUARD_BITS, the least and greatest corner products themselves.  When both
    lower ends are nonnegative those are xl*yl and xh*yh."""
    if xl >= 0 and yl >= 0:
        lo, hi = xl * yl, xh * yh
    else:
        cands = (xl * yl, xl * yh, xh * yl, xh * yh)
        lo, hi = min(cands), max(cands)
    g = prec + GUARD_BITS
    return lo >> g, _ceil_shift(hi, g)


def iv_mul(x, y, prec: int) -> DyadicInterval:
    x, y = _coerce(x, prec), _coerce(y, prec)
    return DyadicInterval(*mul_mantissas(x.lo_m, x.hi_m, y.lo_m, y.hi_m, prec), prec)


def root_of_unity_mantissas(d: int, prec: int) -> tuple[int, int, int, int]:
    """cos(2*pi/d) and sin(2*pi/d), d >= 3, as mantissas (cos_lo, cos_hi, sin_lo, sin_hi) over 2^(prec + GUARD_BITS).

    Both Taylor series run 24 bits finer than the grid, at the lower end x_lo of
    the angle's enclosure from Machin's pi; each term's bounds are the last
    one's times x^2/((n+1)(n+2)), floored and ceiled.  For x <= 2*pi/3 the
    alternating terms shrink from the second on, so the next term's bound, once
    under a grid unit, widens the side of its sign.  |cos'| and |sin'| are at
    most 1, so the angle's width x_hi - x_lo widens each end on the grid."""
    if d < 3:
        raise ValueError(f"need d >= 3, got {d}")
    g = prec + GUARD_BITS
    p_lo, p_hi = _pi_bounds(g)
    x_lo, x_hi = 2 * p_lo // d, -(-2 * p_hi // d)
    x2, shift = (x_lo << 24) ** 2, 2 * (g + 24)
    ends = []
    for n in (0, 1):  # the power of the first term: cos, then sin
        lo, hi, sign = 0, 0, 1
        t_lo = t_hi = x_lo << 24 if n else 1 << (g + 24)
        while t_hi > 1 << 24:
            lo, hi = (lo + t_lo, hi + t_hi) if sign > 0 else (lo - t_hi, hi - t_lo)
            den = (n + 1) * (n + 2) << shift
            t_lo, t_hi, n, sign = t_lo * x2 // den, -(-t_hi * x2 // den), n + 2, -sign
        lo, hi = (lo, hi + t_hi) if sign > 0 else (lo - t_hi, hi)
        ends += [(lo >> 24) - (x_hi - x_lo), _ceil_shift(hi, 24) + x_hi - x_lo]
    return tuple(ends)


def ln_mantissas(lo_m: int, hi_m: int, prec: int) -> tuple[int, int]:
    """The mantissas of ``iv_ln``'s enclosure of ln over [lo_m, hi_m] / 2^(prec + GUARD_BITS)."""
    if lo_m <= 0:
        raise IntervalDomainError(f"log needs a strictly positive interval, lo_m={lo_m:#x}")
    g = prec + GUARD_BITS
    return _ln_bound(lo_m, 1 << g, g, False), _ln_bound(hi_m, 1 << g, g, True)


def iv_ln(x, prec: int) -> DyadicInterval:
    x = _coerce(x, prec)
    return DyadicInterval(*ln_mantissas(x.lo_m, x.hi_m, prec), prec)


# ---------------------------------------------------------------------------
# the precision ladder and validated comparison

VERIFIED = "verified"
FALSIFIED = "falsified"
UNRESOLVED = "unresolved"


def precision_ladder(max_precision: int = DEFAULT_MAX_PRECISION) -> tuple[int, ...]:
    """The rungs FIRST_RUNG = 64, 128, ... up to ``max_precision`` (none below 64); ValueError,
    before any rung is handed out, for a ceiling outside 16..MAX_PRECISION_CEILING."""
    checked_precision(max_precision, "max_precision")
    return tuple(FIRST_RUNG << k for k in range((max_precision // FIRST_RUNG).bit_length()))


class Decision(NamedTuple):
    """A verdict with each side's enclosure at the last rung that enclosed both, or None if none did."""

    verdict: str
    lhs: Optional[DyadicInterval]
    rhs: Optional[DyadicInterval]


Side = Callable[[int], DyadicInterval]


def decide(cases: Sequence[tuple[Side, Side]], rungs: Iterable[int]) -> list[Decision]:
    """Decide each strict inequality lhs < rhs of ``cases``, in case order.

    Each side maps a precision to an enclosure at it, so a case's two sides
    share one grid and compare by their mantissas: ``verified`` once
    lhs.hi < rhs.lo, ``falsified`` once lhs.lo >= rhs.hi, ``unresolved`` when
    the rungs run out.  A rung is taken only while some case is open, and on
    it each open case calls its lhs, then its rhs.  A case whose side raises
    IntervalDomainError on a rung (an enclosure still too wide for some
    operation's domain) stays open; its rhs is not called when its lhs raised.
    """
    decisions = [Decision(UNRESOLVED, None, None)] * len(cases)
    open_cases = range(len(cases))
    for prec in rungs if cases else ():  # an empty family takes no rung
        for i in open_cases:
            lhs, rhs = cases[i]
            try:
                li, ri = lhs(prec), rhs(prec)  # rhs only once lhs gave an enclosure
            except IntervalDomainError:
                continue  # no enclosure on this rung: the case stays open
            if li.prec != ri.prec:
                raise ValueError(f"sides at precisions {li.prec} and {ri.prec} compared at rung {prec}")
            verdict = VERIFIED if li.hi_m < ri.lo_m else FALSIFIED if li.lo_m >= ri.hi_m else UNRESOLVED
            decisions[i] = Decision(verdict, li, ri)
        open_cases = [i for i in open_cases if decisions[i].verdict == UNRESOLVED]
        if not open_cases:
            break
    return decisions
