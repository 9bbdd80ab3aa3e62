"""Validated real arithmetic on dyadic intervals.

An interval at precision ``prec`` holds two integer mantissas ``lo_m`` and
``hi_m`` over the fixed scale 2^(prec+32).  Every operation rounds outward to
that grid (floor for the lower end, ceiling for the upper), so the exact image
of the inputs is always contained in the output, and every operation runs on
Python ints: add and sub are integer adds, mul and div are integer products
or floor/ceiling quotients followed by one directed shift.  The
transcendental kernels take exact rationals as (numerator, denominator)
integers (exp, ln) or a scaled integer radicand (sqrt) and return directed
integer bounds with explicit tail bounds (exp, ln, pi, e) -- no floating
point, and no Fraction in any operation.  ``lo`` and ``hi`` read the
endpoints back as Fractions.

``decide`` is the one precision-ladder driver: it re-evaluates both sides of
a strict inequality at each rung of a doubling precision ladder until the
enclosures separate.  Each rung's enclosures are valid by themselves, so a
verdict rests on a single rung.  A side may also be an exact rational, which
is compared against the other side's mantissas by cross-multiplication and
never rounded.  Inequalities that fail to separate by the precision ceiling
come back ``unresolved`` -- callers treat that as failure-to-verify, never
as verification.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import isqrt
from typing import Callable, Iterable, NamedTuple, Optional, Union

GUARD_BITS = 32
DEFAULT_MAX_PRECISION = 4096
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
            raise ValueError(f"inverted interval [{lo_m}, {hi_m}] / 2^{prec + GUARD_BITS}")
        self.lo_m = lo_m
        self.hi_m = hi_m
        self.prec = prec

    @property
    def lo(self) -> Fraction:
        return Fraction(self.lo_m, 1 << (self.prec + GUARD_BITS))

    @property
    def hi(self) -> Fraction:
        return Fraction(self.hi_m, 1 << (self.prec + GUARD_BITS))

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def contains(self, q: Fraction | int) -> bool:
        q = Fraction(q)
        scaled = q.numerator << (self.prec + GUARD_BITS)
        return self.lo_m * q.denominator <= scaled <= self.hi_m * q.denominator

    def is_positive(self) -> bool:
        return self.lo_m > 0

    def __repr__(self) -> str:
        return f"DyadicInterval({float(self.lo)!r}, {float(self.hi)!r}, prec={self.prec})"


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
# scaled-integer kernels for sqrt, exp, ln, pi, e; each bound is a mantissa
# over 2^bits, rounded down (roundup=False) or up (roundup=True)

def _sqrt_bounds(scaled: int) -> tuple[int, int]:
    """Bounds of sqrt(q * 4^bits) from scaled = floor(q * 4^bits); callers have q = 0 iff scaled = 0."""
    if scaled == 0:
        return 0, 0
    # scaled+1 > q*4^bits, so its ceiling square root is an upper bound
    return isqrt(scaled), _isqrt_ceil(scaled + 1)


def _exp_bound(num: int, den: int, bits: int, roundup: bool) -> int:
    """Directed bound of exp(num/den), den > 0."""
    if num == 0:
        return 1 << bits
    u = abs(num)
    halvings = 0
    while 2 * u > den << halvings:  # halve until u/den <= 1/2
        halvings += 1
    den <<= halvings
    ws = bits + 2 * halvings + 24
    # exp(-u) = 1/exp(u) takes the opposite bound of exp(u)
    up = roundup != (num < 0)
    acc = term = 1 << ws
    k = 0
    while True:
        k += 1
        if up:
            term = -((-term * u) // (den * k))
            acc += term
            if term <= 1:
                acc += 2 * term + 2  # geometric tail, u/den <= 1/2
                break
        else:
            term = term * u // (den * k)
            if term == 0:
                break
            acc += term
    for _ in range(halvings):
        acc = _ceil_shift(acc * acc, ws) if up else (acc * acc) >> ws
    if num < 0:
        one_sq = 1 << (2 * ws)
        acc = -(-one_sq // acc) if roundup else one_sq // acc
    return _ceil_shift(acc, ws - bits) if roundup else acc >> (ws - bits)


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
def _ln2_bounds(bits: int) -> tuple[int, int]:
    """ln 2 = 2 atanh(1/3) as mantissas over 2^(bits+16), exact powers of 3."""
    ws = bits + 16
    lo = hi = 0
    qpow = 3
    i = 0
    while True:
        t = (1 << ws) // (qpow * (2 * i + 1))
        lo += t
        hi += t + 1
        if t == 0:
            hi += 2
            break
        i += 1
        qpow *= 9
    return 2 * lo, 2 * hi


def _ln_bound(num: int, den: int, bits: int, roundup: bool) -> int:
    """Directed bound of ln(num/den), den > 0."""
    if num <= 0:
        raise IntervalDomainError(f"log of nonpositive value {Fraction(num, den)}")
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
    total = _atanh_series_scaled(m - one, m + one, ws, roundup) << (j + 1)
    if k != 0:
        # ln 2 over 2^(bits+24); the bound matching k's sign and the rounding
        l2lo, l2hi = _ln2_bounds(bits + 8)
        total += k * ((l2hi if (k > 0) == roundup else l2lo) << 24)
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


@lru_cache(maxsize=None)
def _e_bounds(bits: int) -> tuple[int, int]:
    return _exp_bound(1, 1, bits, False), _exp_bound(1, 1, bits, True)


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
    s_lo, s_hi = _sqrt_bounds(d << (2 * bits))
    if yn < 0:
        s_lo, s_hi = s_hi, s_lo
    # x + y*s/2^bits on the 2^-(prec+GUARD_BITS) grid: (xn*yd*2^bits + yn*xd*s) / (xd*yd*2^extra)
    base = (xn * yd) << bits
    den = (xd * yd) << extra
    return DyadicInterval((base + yn * xd * s_lo) // den, -(-(base + yn * xd * s_hi) // den), prec)


def iv_const_pi(prec: int) -> DyadicInterval:
    return DyadicInterval(*_pi_bounds(prec + GUARD_BITS), prec)


def iv_const_e(prec: int) -> DyadicInterval:
    return DyadicInterval(*_e_bounds(prec + GUARD_BITS), prec)


def _coerce(x, prec: int) -> DyadicInterval:
    if isinstance(x, DyadicInterval):
        if x.prec != prec:
            raise ValueError(f"interval at precision {x.prec} used at precision {prec}")
        return x
    return iv_from_rat(x, prec)


def iv_add(x, y, prec: int) -> DyadicInterval:
    x, y = _coerce(x, prec), _coerce(y, prec)
    return DyadicInterval(x.lo_m + y.lo_m, x.hi_m + y.hi_m, prec)


def iv_neg(x, prec: int) -> DyadicInterval:
    x = _coerce(x, prec)
    return DyadicInterval(-x.hi_m, -x.lo_m, prec)


def iv_sub(x, y, prec: int) -> DyadicInterval:
    x, y = _coerce(x, prec), _coerce(y, prec)
    return DyadicInterval(x.lo_m - y.hi_m, x.hi_m - y.lo_m, prec)


def iv_mul(x, y, prec: int) -> DyadicInterval:
    x, y = _coerce(x, prec), _coerce(y, prec)
    cands = (x.lo_m * y.lo_m, x.lo_m * y.hi_m, x.hi_m * y.lo_m, x.hi_m * y.hi_m)
    g = prec + GUARD_BITS
    return DyadicInterval(min(cands) >> g, _ceil_shift(max(cands), g), prec)


def iv_div(x, y, prec: int) -> DyadicInterval:
    x, y = _coerce(x, prec), _coerce(y, prec)
    if y.lo_m <= 0 <= y.hi_m:
        raise IntervalDomainError("division by an interval containing zero")
    xl, xh, yl, yh = x.lo_m, x.hi_m, y.lo_m, y.hi_m
    if yh < 0:  # x/y = (-x)/(-y)
        xl, xh, yl, yh = -xh, -xl, -yh, -yl
    # y > 0: x/y grows with x, and falls (x >= 0) or grows (x < 0) with y
    g = prec + GUARD_BITS
    lo = (xl << g) // (yh if xl >= 0 else yl)
    hi = -(-(xh << g) // (yl if xh >= 0 else yh))
    return DyadicInterval(lo, hi, prec)


def iv_sqrt(x, prec: int) -> DyadicInterval:
    x = _coerce(x, prec)
    if x.lo_m < 0:
        raise IntervalDomainError(f"sqrt of an interval with negative lower end {x.lo}")
    g = prec + GUARD_BITS
    # sqrt(m / 2^g) * 2^g = sqrt(m * 2^g)
    lo, _ = _sqrt_bounds(x.lo_m << g)
    _, hi = _sqrt_bounds(x.hi_m << g)
    return DyadicInterval(lo, hi, prec)


def iv_exp(x, prec: int) -> DyadicInterval:
    x = _coerce(x, prec)
    g = prec + GUARD_BITS
    return DyadicInterval(_exp_bound(x.lo_m, 1 << g, g, False), _exp_bound(x.hi_m, 1 << g, g, True), prec)


def iv_ln(x, prec: int) -> DyadicInterval:
    x = _coerce(x, prec)
    if x.lo_m <= 0:
        raise IntervalDomainError(f"log needs a strictly positive interval, lo={x.lo}")
    g = prec + GUARD_BITS
    return DyadicInterval(_ln_bound(x.lo_m, 1 << g, g, False), _ln_bound(x.hi_m, 1 << g, g, True), prec)


def iv_pow(x, y, prec: int) -> DyadicInterval:
    """x**y: exact repeated squaring for integer and half-integer exponents,
    exp(y ln x) otherwise (requires x > 0)."""
    x = _coerce(x, prec)
    if isinstance(y, int):
        return _int_pow(x, y, prec)
    if isinstance(y, Fraction):
        if y.denominator == 1:
            return _int_pow(x, y.numerator, prec)
        if y.denominator == 2:
            if x.lo_m < 0:
                raise IntervalDomainError("half-integer power of a negative interval")
            return iv_sqrt(_int_pow(x, y.numerator, prec), prec)
        y = iv_from_rat(y, prec)
    if not x.is_positive():
        raise IntervalDomainError("general power needs a strictly positive base")
    return iv_exp(iv_mul(y, iv_ln(x, prec), prec), prec)


def _int_pow(x: DyadicInterval, n: int, prec: int) -> DyadicInterval:
    if n < 0:
        return iv_div(iv_from_rat(1, prec), _int_pow(x, -n, prec), prec)
    result = iv_from_rat(1, prec)
    base = x
    while n:
        if n & 1:
            result = iv_mul(result, base, prec)
        base = iv_mul(base, base, prec)
        n >>= 1
    return result


# ---------------------------------------------------------------------------
# the precision ladder and validated comparison

VERIFIED = "verified"
FALSIFIED = "falsified"
UNRESOLVED = "unresolved"


def precision_ladder(max_precision: int = DEFAULT_MAX_PRECISION) -> tuple[int, ...]:
    """The rungs 64, 128, ... up to ``max_precision`` (none below 64); ValueError,
    before any rung is handed out, for a ceiling outside 16..MAX_PRECISION_CEILING."""
    checked_precision(max_precision, "max_precision")
    return tuple(64 << k for k in range((max_precision // 64).bit_length()))


Side = Union[Callable[[int], DyadicInterval], Fraction, int]


class Decision(NamedTuple):
    """A verdict with each side at the last rung evaluated: its enclosure, the
    exact rational an exact side was given as, or None if no rung was."""

    verdict: str
    lhs: Optional[DyadicInterval | Fraction | int]
    rhs: Optional[DyadicInterval | Fraction | int]


def _ends(side: DyadicInterval | Fraction | int) -> tuple[int, int, int]:
    """(lo, hi, den) with the side's endpoints lo/den and hi/den."""
    if isinstance(side, DyadicInterval):
        return side.lo_m, side.hi_m, 1 << (side.prec + GUARD_BITS)
    n, d = _num_den(side)
    return n, n, d


def decide(lhs: Side, rhs: Side, rungs: Iterable[int]) -> Decision:
    """Decide the strict inequality lhs < rhs, one precision rung at a time.

    Each side is a function from a precision to an enclosure, or an exact
    rational.  ``verified`` once lhs.hi < rhs.lo, ``falsified`` once
    lhs.lo >= rhs.hi, ``unresolved`` when the rungs run out.  A rung at which
    either side raises IntervalDomainError (an enclosure still too wide for
    some operation's domain) is skipped.
    """
    li = ri = None
    for prec in rungs:
        try:
            li, ri = (lhs(prec) if callable(lhs) else lhs), (rhs(prec) if callable(rhs) else rhs)
        except IntervalDomainError:
            continue
        l_lo, l_hi, l_den = _ends(li)
        r_lo, r_hi, r_den = _ends(ri)
        if l_hi * r_den < r_lo * l_den:
            return Decision(VERIFIED, li, ri)
        if l_lo * r_den >= r_hi * l_den:
            return Decision(FALSIFIED, li, ri)
    return Decision(UNRESOLVED, li, ri)
