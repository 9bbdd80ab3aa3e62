"""Fraction-endpoint dyadic intervals: the slow reference for ``kraitchik.interval``.

This is the arithmetic of the interval module as it was before its endpoints
became integer mantissas, kept unchanged as a test oracle (the precision
ladder and ``decide`` stayed in ``kraitchik.interval``).  Endpoints are
Fractions whose denominators are powers of two; every operation rounds
outward on the same grid of 2^-(prec+32) with the same directed rounding, so
the integer-mantissa module must return bit-identical endpoints
(``tests/test_interval.py``).  Its ``ln`` is the untabled kernel: it runs
the atanh series on the mantissa in [1, 2) itself (after the same square-root
reduction above 128 bits), without ``kraitchik.interval``'s table step, which
is checked against it bit for bit; both take ln 2 from that series at
z = 1/3, on the kernel's own grid.

``iv_sqrt``, ``iv_exp``, ``iv_pow`` and the constant e live only here, for
the two verdict oracles in direct form: ``three_bounds`` is the strict
bound's right side, t1, t2 and t3 as products of powers, and
``ratio_envelope`` is the ratio approximation's envelope with its power
(1 - 1/x)^(-G) written as an exponential.  ``kraitchik.bounds`` and
``kraitchik.ratio`` decide the same inequalities in log space.
``to_mantissas`` turns an enclosure into the integer-mantissa form that
``kraitchik.interval.decide`` reads, and ``as_fractions`` turns one back for
the tests to read its ends, width and containment; ``show`` prints either kind.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import ROUND_CEILING, ROUND_FLOOR, Context
from fractions import Fraction
from functools import lru_cache
from math import isqrt

from kraitchik import interval as mantissa_interval

GUARD_BITS = 32


# the module's own error, so that ``decide`` keeps a case open on the oracle's domain errors too
IntervalDomainError = mantissa_interval.IntervalDomainError


def _hex(q: Fraction) -> str:
    # a decimal str() of a numerator past 4300 digits raises in place of the message
    return f"{q.numerator:#x}/{q.denominator:#x}"


@dataclass(frozen=True)
class DyadicInterval:
    lo: Fraction
    hi: Fraction
    prec: int

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError(f"inverted interval [{_hex(self.lo)}, {_hex(self.hi)}]")

    def __repr__(self) -> str:
        return f"DyadicInterval({_hex(self.lo)}, {_hex(self.hi)}, prec={self.prec})"

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def contains(self, q: Fraction | int) -> bool:
        return self.lo <= q <= self.hi

    def is_positive(self) -> bool:
        return self.lo > 0


# ---------------------------------------------------------------------------
# directed rounding on the dyadic grid

def _floor_scaled(q: Fraction, bits: int) -> int:
    return (q.numerator << bits) // q.denominator


def _ceil_scaled(q: Fraction, bits: int) -> int:
    return -((-q.numerator << bits) // q.denominator)


def _round_down(q: Fraction, bits: int) -> Fraction:
    return Fraction(_floor_scaled(q, bits), 1 << bits)


def _round_up(q: Fraction, bits: int) -> Fraction:
    return Fraction(_ceil_scaled(q, bits), 1 << bits)


def _make(lo: Fraction, hi: Fraction, prec: int) -> DyadicInterval:
    g = prec + GUARD_BITS
    return DyadicInterval(_round_down(lo, g), _round_up(hi, g), prec)


def _isqrt_ceil(n: int) -> int:
    if n <= 0:
        return 0
    s = isqrt(n)
    return s if s * s == n else s + 1


def _ilog2_floor(q: Fraction) -> int:
    """floor(log2(q)) for q > 0, exact."""
    n, d = q.numerator, q.denominator
    if n <= 0:
        raise ValueError("log2 of a nonpositive value")
    e = n.bit_length() - d.bit_length()
    # 2^(e-1) < q < 2^(e+1); settle whether q >= 2^e by exact comparison
    if e >= 0:
        ok = n >= (d << e)
    else:
        ok = (n << -e) >= d
    return e if ok else e - 1


# ---------------------------------------------------------------------------
# scaled-integer kernels for sqrt, exp, ln, pi

def _sqrt_bounds(q: Fraction, bits: int) -> tuple[Fraction, Fraction]:
    """Enclosure of sqrt(q), q >= 0, on the 2^-bits grid."""
    if q < 0:
        raise IntervalDomainError(f"sqrt of negative value {_hex(q)}")
    if q == 0:
        return Fraction(0), Fraction(0)
    scaled = (q.numerator << (2 * bits)) // q.denominator  # floor(q * 4^bits)
    lo = isqrt(scaled)
    hi = _isqrt_ceil(scaled + 1)  # scaled+1 > q*4^bits, so ceil-sqrt is an upper bound
    return Fraction(lo, 1 << bits), Fraction(hi, 1 << bits)


def _exp_point_bounds(t: Fraction, bits: int) -> tuple[Fraction, Fraction]:
    """Enclosure of exp(t) for an exact rational t."""
    if t == 0:
        return Fraction(1), Fraction(1)
    neg = t < 0
    u = abs(t)
    halvings = 0
    while u > Fraction(1, 2):
        u /= 2
        halvings += 1
    ws = bits + 2 * halvings + 24
    num, den = u.numerator, u.denominator
    one = 1 << ws
    lo_acc = hi_acc = one
    term_lo = term_hi = one
    k = 0
    while True:
        k += 1
        term_lo = term_lo * num // (den * k)
        term_hi = -((-term_hi * num) // (den * k))
        lo_acc += term_lo
        hi_acc += term_hi
        if term_hi <= 1:
            hi_acc += 2 * term_hi + 2  # geometric tail, |u| <= 1/2
            break
    for _ in range(halvings):
        lo_acc = (lo_acc * lo_acc) >> ws
        hi_acc = -((-hi_acc * hi_acc) >> ws)
    if neg:
        lo_acc, hi_acc = (one * one) // hi_acc, -((-one * one) // lo_acc)
    return Fraction(lo_acc, one), Fraction(hi_acc, one)


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
def _ln2_bounds(ws: int) -> tuple[Fraction, Fraction]:
    """ln 2 = 2 atanh(1/3) on the 2^-ws grid, by the series that ``ln`` runs on its mantissa."""
    lo, hi = (2 * _atanh_series_scaled(1, 3, ws, roundup) for roundup in (False, True))
    return Fraction(lo, 1 << ws), Fraction(hi, 1 << ws)


def _ln_point_bounds(t: Fraction, bits: int) -> tuple[Fraction, Fraction]:
    """Enclosure of ln(t) for an exact rational t > 0."""
    if t <= 0:
        raise IntervalDomainError(f"log of nonpositive value {_hex(t)}")
    k = _ilog2_floor(t)
    m = t / Fraction(2) ** k  # in [1, 2)
    if not 1 <= m < 2:
        raise ArithmeticError(f"mantissa {m} of {t} outside [1, 2)")
    ws = bits + 48
    # square-root reduction: ln m = 2^j ln(m^(1/2^j)); keeps the series short
    j = 0 if bits <= 128 else (8 if bits <= 512 else (16 if bits <= 2048 else 32))
    mlo = _floor_scaled(m, ws)
    mhi = _ceil_scaled(m, ws)
    for _ in range(j):
        mlo = isqrt(mlo << ws)
        mhi = _isqrt_ceil(mhi << ws)
    one = 1 << ws
    s_lo = _atanh_series_scaled(mlo - one, mlo + one, ws, roundup=False)
    s_hi = _atanh_series_scaled(mhi - one, mhi + one, ws, roundup=True)
    scale = Fraction(1 << (j + 1), 1 << ws)
    lnm_lo, lnm_hi = s_lo * scale, s_hi * scale
    if k == 0:
        return lnm_lo, lnm_hi
    l2lo, l2hi = _ln2_bounds(ws)
    if k > 0:
        return lnm_lo + k * l2lo, lnm_hi + k * l2hi
    return lnm_lo + k * l2hi, lnm_hi + k * l2lo


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
def _pi_bounds(bits: int) -> tuple[Fraction, Fraction]:
    """Machin's formula pi = 16 atan(1/5) - 4 atan(1/239)."""
    ws = bits + 24
    a5_lo, a5_hi = _atan_inv_scaled(5, ws)
    a239_lo, a239_hi = _atan_inv_scaled(239, ws)
    lo = 16 * a5_lo - 4 * a239_hi
    hi = 16 * a5_hi - 4 * a239_lo
    return Fraction(lo, 1 << ws), Fraction(hi, 1 << ws)


@lru_cache(maxsize=None)
def _e_bounds(bits: int) -> tuple[Fraction, Fraction]:
    return _exp_point_bounds(Fraction(1), bits)


# ---------------------------------------------------------------------------
# public constructors and arithmetic

def iv_from_rat(q: Fraction | int, prec: int) -> DyadicInterval:
    q = Fraction(q)
    return _make(q, q, prec)


def iv_from_surd(x: Fraction | int, y: Fraction | int, d: int, prec: int) -> DyadicInterval:
    """Enclosure of x + y*sqrt(d) for d >= 0, robust against cancellation."""
    if d < 0:
        raise IntervalDomainError(f"surd radicand must be nonnegative, got {d}")
    x, y = Fraction(x), Fraction(y)
    if y == 0 or d == 0:
        return iv_from_rat(x, prec)
    extra = max(0, abs(y.numerator).bit_length() - y.denominator.bit_length() + 1)
    bits = prec + GUARD_BITS + extra
    s_lo, s_hi = _sqrt_bounds(Fraction(d), bits)
    if y > 0:
        lo, hi = x + y * s_lo, x + y * s_hi
    else:
        lo, hi = x + y * s_hi, x + y * s_lo
    return _make(lo, hi, prec)


def iv_const_pi(prec: int) -> DyadicInterval:
    lo, hi = _pi_bounds(prec + GUARD_BITS)
    return _make(lo, hi, prec)


def iv_const_e(prec: int) -> DyadicInterval:
    lo, hi = _e_bounds(prec + GUARD_BITS)
    return _make(lo, hi, prec)


def _coerce(x, prec: int) -> DyadicInterval:
    if isinstance(x, DyadicInterval):
        return x
    return iv_from_rat(x, prec)


def iv_add(x, y, prec: int) -> DyadicInterval:
    x, y = _coerce(x, prec), _coerce(y, prec)
    return _make(x.lo + y.lo, x.hi + y.hi, prec)


def iv_neg(x, prec: int) -> DyadicInterval:
    x = _coerce(x, prec)
    return DyadicInterval(-x.hi, -x.lo, prec)


def iv_sub(x, y, prec: int) -> DyadicInterval:
    x, y = _coerce(x, prec), _coerce(y, prec)
    return _make(x.lo - y.hi, x.hi - y.lo, prec)


def iv_mul(x, y, prec: int) -> DyadicInterval:
    x, y = _coerce(x, prec), _coerce(y, prec)
    cands = (x.lo * y.lo, x.lo * y.hi, x.hi * y.lo, x.hi * y.hi)
    return _make(min(cands), max(cands), prec)


def iv_div(x, y, prec: int) -> DyadicInterval:
    x, y = _coerce(x, prec), _coerce(y, prec)
    if y.lo <= 0 <= y.hi:
        raise IntervalDomainError("division by an interval containing zero")
    cands = (x.lo / y.lo, x.lo / y.hi, x.hi / y.lo, x.hi / y.hi)
    return _make(min(cands), max(cands), prec)


def iv_abs(x, prec: int) -> DyadicInterval:
    x = _coerce(x, prec)
    if x.lo >= 0:
        return x
    if x.hi <= 0:
        return iv_neg(x, prec)
    return DyadicInterval(Fraction(0), max(-x.lo, x.hi), prec)


def iv_sqrt(x, prec: int) -> DyadicInterval:
    x = _coerce(x, prec)
    if x.lo < 0:
        raise IntervalDomainError(f"sqrt of an interval with negative lower end {_hex(x.lo)}")
    bits = prec + GUARD_BITS
    lo, _ = _sqrt_bounds(x.lo, bits)
    _, hi = _sqrt_bounds(x.hi, bits)
    return DyadicInterval(lo, hi, prec)


def iv_exp(x, prec: int) -> DyadicInterval:
    x = _coerce(x, prec)
    bits = prec + GUARD_BITS
    lo, _ = _exp_point_bounds(x.lo, bits)
    _, hi = _exp_point_bounds(x.hi, bits)
    return _make(lo, hi, prec)


def iv_ln(x, prec: int) -> DyadicInterval:
    x = _coerce(x, prec)
    if x.lo <= 0:
        raise IntervalDomainError(f"log needs a strictly positive interval, lo={_hex(x.lo)}")
    bits = prec + GUARD_BITS
    lo, _ = _ln_point_bounds(x.lo, bits)
    _, hi = _ln_point_bounds(x.hi, bits)
    return _make(lo, hi, prec)


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
            if x.lo < 0:
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
# the two bounds in direct form, and the way into ``decide``

def three_bounds(base, n: int, prec: int) -> tuple[DyadicInterval, ...]:
    """t1, t2, t3 at growth base F (a ``QuadElem``) and index n, as products of powers."""
    F = iv_from_surd(base.a, base.b, base.r, prec)
    Fm1 = iv_sub(F, 1, prec)
    if not Fm1.is_positive():
        raise IntervalDomainError("F - 1 enclosure not yet positive")
    e_ = iv_const_e(prec)
    pi_ = iv_const_pi(prec)
    Fn = iv_add(F, n, prec)
    Fnm1 = iv_sub(Fn, 1, prec)
    stir2 = iv_mul(2, iv_exp(iv_div(iv_from_rat(1, prec), iv_mul(6, Fn, prec), prec), prec), prec)
    epi = iv_mul(e_, pi_, prec)
    t1 = iv_mul(
        iv_sqrt(iv_div(stir2, iv_mul(epi, n, prec), prec), prec),
        iv_pow(iv_div(iv_mul(e_, Fnm1, prec), Fm1, prec), iv_sub(F, Fraction(1, 2), prec), prec),
        prec,
    )
    t2 = iv_mul(
        iv_sqrt(iv_div(stir2, iv_mul(epi, Fm1, prec), prec), prec),
        iv_pow(iv_div(iv_mul(e_, Fnm1, prec), iv_from_rat(n, prec), prec), Fraction(2 * n + 1, 2), prec),
        prec,
    )
    t3 = iv_pow(iv_from_rat(2, prec), Fn, prec)
    return t1, t2, t3


def ratio_envelope(g, x: Fraction, mu: int, d: int, prec: int) -> DyadicInterval:
    """x/((2x - mu) sqrt(d)) * ((1 - 1/x)^(-G) - 1 - G/x) at the gate value G (a ``QuadElem``)."""
    sqrt_d = iv_from_surd(0, 1, d, prec)
    pref = iv_div(iv_from_rat(x, prec), iv_mul(iv_from_rat(2 * x - mu, prec), sqrt_d, prec), prec)
    g_iv = iv_from_surd(g.a, g.b, g.r, prec)
    # (1 - 1/x)^(-G) = exp(-G ln(1 - 1/x))
    pow_term = iv_exp(iv_mul(iv_neg(g_iv, prec), iv_ln(iv_from_rat(1 - 1 / x, prec), prec), prec), prec)
    inner = iv_sub(iv_sub(pow_term, 1, prec), iv_div(g_iv, iv_from_rat(x, prec), prec), prec)
    return iv_mul(pref, inner, prec)


def to_mantissas(x: DyadicInterval) -> mantissa_interval.DyadicInterval:
    """The same enclosure as integer mantissas over 2^(prec + GUARD_BITS); its ends lie on that grid."""
    g = x.prec + GUARD_BITS
    lo, hi = x.lo * (1 << g), x.hi * (1 << g)
    if lo.denominator != 1 or hi.denominator != 1:
        raise ValueError(f"{x!r} is off the 2^-{g} grid")
    return mantissa_interval.DyadicInterval(int(lo), int(hi), x.prec)


def as_fractions(x) -> DyadicInterval:
    """The enclosure ``x`` with Fraction ends: a mantissa interval exactly, and one of this module as it is."""
    if isinstance(x, DyadicInterval):
        return x
    scale = 1 << (x.prec + GUARD_BITS)
    return DyadicInterval(Fraction(x.lo_m, scale), Fraction(x.hi_m, scale), x.prec)


def show(x) -> str:
    """An enclosure with 17 significant digits rounded outward; float() overflows past 2^1024."""
    x = as_fractions(x)
    lo = Context(prec=17, rounding=ROUND_FLOOR).divide(x.lo.numerator, x.lo.denominator)
    hi = Context(prec=17, rounding=ROUND_CEILING).divide(x.hi.numerator, x.hi.denominator)
    return f"DyadicInterval({lo}, {hi}, prec={x.prec})"
