"""Power sums of quadratic-residue roots of unity, in closed form and as a
validated numeric oracle.

For odd squarefree d with discriminant D = (-1)^((d-1)/2) d, the sum of
zeta_d^{ka} over the residues a with (a/d) = 1 has the closed form

    (mu(d) + (k/d) sqrt(D)) / 2        when gcd(k, d) = 1,
    mu(d/f) phi(f) / 2                 when gcd(k, d) = f > 1,

which the construction consumes exactly, doubled to the integer pair
(p, q) meaning p + q sqrt(D) (``power_sum_doubled``).  The numeric side
computes validated complex enclosures of the same sums (and of the
character-weighted Gauss sums) with mpmath's interval arithmetic; it exists
purely so tests can check the closed forms against something independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from mpmath import iv
from mpmath.libmp import to_rational

from .numtheory import euler_phi, is_squarefree, jacobi, mobius
from .qfield import QuadElem, cmp_surd


@dataclass(frozen=True)
class DiscriminantContext:
    """A valid modulus d (odd, squarefree, >= 3) with D and d' = phi(d)/2."""

    d: int
    D: int
    dprime: int

    @classmethod
    def for_modulus(cls, d: int) -> "DiscriminantContext":
        if d < 3:
            raise ValueError(f"invalid d={d}: too small (need d >= 3)")
        if d % 2 == 0:
            raise ValueError(f"invalid d={d}: even")
        if not is_squarefree(d):
            raise ValueError(f"invalid d={d}: not squarefree")
        D = d if d % 4 == 1 else -d
        return cls(d, D, euler_phi(d) // 2)


def power_sum_doubled(ctx: DiscriminantContext, k: int) -> tuple[int, int]:
    """2*s_{d,k} as the integer pair (p, q) meaning p + q*sqrt(D)."""
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    k %= ctx.d
    f = math.gcd(k, ctx.d) if k else ctx.d
    if f == 1:
        return mobius(ctx.d), jacobi(k, ctx.d)
    return mobius(ctx.d // f) * euler_phi(f), 0


def power_sum_s(ctx: DiscriminantContext, k: int) -> QuadElem:
    """Closed-form s_{d,k}, an element of Q(sqrt(D)) (rational when gcd > 1)."""
    p, q = power_sum_doubled(ctx, k)
    return QuadElem(Fraction(p, 2), Fraction(q, 2), ctx.D)


def ramanujan_h(d: int, k: int) -> int:
    """Sum of k-th powers of the primitive d-th roots of unity.

    Computed as mu(d/f) * phi(d) / phi(d/f) with f = gcd(k, d), which for
    squarefree d reduces to mu(d/f) * phi(f).  Accepts non-squarefree d since
    the multiplicativity tests exercise products.
    """
    if d < 1 or k < 1:
        raise ValueError("need positive d and k")
    f = math.gcd(k, d)
    cofactor = d // f
    mu = mobius(cofactor)
    if mu == 0:
        return 0
    q, r = divmod(euler_phi(d), euler_phi(cofactor))
    if r:
        raise ArithmeticError(f"phi({cofactor}) does not divide phi({d})")
    return mu * q


class ComplexEnclosure(NamedTuple):
    """A rectangle re x im of validated intervals (mpmath iv scalars)."""

    re: object
    im: object

    def width(self) -> float:
        return max(float(self.re.delta), float(self.im.delta))

    def contains_zero(self) -> bool:
        return 0 in self.re and 0 in self.im


@lru_cache(maxsize=256)
def _roots_of_unity(d: int, digits: int):
    old = iv.dps
    iv.dps = digits
    try:
        two_pi = 2 * iv.pi
        return tuple(
            (iv.cos(two_pi * a / d), iv.sin(two_pi * a / d)) for a in range(d)
        )
    finally:
        iv.dps = old


def _character_sum(d: int, k: int, digits: int, weights) -> ComplexEnclosure:
    roots = _roots_of_unity(d, digits)
    old = iv.dps
    iv.dps = digits
    try:
        re = iv.mpf(0)
        im = iv.mpf(0)
        for a in range(1, d + 1):
            w = weights(a)
            if w == 0:
                continue
            c, s = roots[(k * a) % d]
            re += w * c
            im += w * s
        return ComplexEnclosure(re, im)
    finally:
        iv.dps = old


def gauss_sum_enclosure(d: int, k: int, digits: int = 30) -> ComplexEnclosure:
    """Validated enclosure of the quadratic Gauss sum sum_a (a/d) zeta_d^{ka}."""
    if digits > 60:
        raise ValueError("oracle precision capped at 60 digits")
    return _character_sum(d, k, digits, lambda a: jacobi(a, d))


def residue_sum_enclosure(d: int, k: int, digits: int = 30) -> ComplexEnclosure:
    """Validated enclosure of the plain residue sum sum_{(a/d)=1} zeta_d^{ka}."""
    if digits > 60:
        raise ValueError("oracle precision capped at 60 digits")
    return _character_sum(d, k, digits, lambda a: 1 if jacobi(a, d) == 1 else 0)


def _iv_endpoints(x) -> tuple[Fraction, Fraction]:
    lo_t, hi_t = x._mpi_
    lo = Fraction(*to_rational(lo_t))
    hi = Fraction(*to_rational(hi_t))
    return lo, hi


def quad_in_enclosure(value: QuadElem, box: ComplexEnclosure) -> bool:
    """Exact containment of a + b*sqrt(r) in a complex interval rectangle.

    Interval endpoints are dyadic, so each comparison reduces to the exact
    sign of (a - endpoint) + b*sqrt(|r|), no rounding anywhere.
    """
    if value.r > 0 or value.b == 0:
        re_a, re_b, rad = value.a, value.b, abs(value.r)
        im_a, im_b = Fraction(0), Fraction(0)
    else:
        re_a, re_b = value.a, Fraction(0)
        im_a, im_b, rad = Fraction(0), value.b, abs(value.r)

    def inside(a_part: Fraction, b_part: Fraction, interval) -> bool:
        lo, hi = _iv_endpoints(interval)
        if b_part == 0:
            return lo <= a_part <= hi
        return cmp_surd(a_part, b_part, rad, lo) >= 0 and cmp_surd(a_part, b_part, rad, hi) <= 0

    return inside(re_a, re_b, box.re) and inside(im_a, im_b, box.im)


def abs_enclosure(box: ComplexEnclosure) -> tuple[float, float]:
    """Crude float bounds for |z| over a rectangle, for oracle cross-checks."""
    re_lo, re_hi = _iv_endpoints(box.re)
    im_lo, im_hi = _iv_endpoints(box.im)

    def mag_range(lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction]:
        if lo <= 0 <= hi:
            return Fraction(0), max(abs(lo), abs(hi))
        m = min(abs(lo), abs(hi))
        return m, max(abs(lo), abs(hi))

    a_lo, a_hi = mag_range(re_lo, re_hi)
    b_lo, b_hi = mag_range(im_lo, im_hi)
    lo = math.sqrt(float(a_lo * a_lo + b_lo * b_lo))
    hi = math.sqrt(float(a_hi * a_hi + b_hi * b_hi))
    return lo, math.nextafter(hi, math.inf)
