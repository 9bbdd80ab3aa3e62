"""mpmath-accumulating residue sums: the slow reference for ``kraitchik.powersums``.

This is the numeric side of the power-sum module as it was before its sums
became exact integer sums over one mirrored root table per modulus, kept as
a test oracle (without the Gauss sums, which ``kraitchik.powersums`` no
longer encloses).  Each root of unity is enclosed by mpmath's
``iv.cos``/``iv.sin`` for every a = 0..d-1, and each sum is accumulated in
mpmath interval additions at the working precision; containment converts
the interval endpoints to Fractions and decides with ``cmp_surd``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from mpmath import iv
from mpmath.libmp import to_rational

from kraitchik.numtheory import jacobi
from kraitchik.qfield import QuadElem, cmp_surd


class ComplexEnclosure(NamedTuple):
    """A rectangle re x im of validated intervals (mpmath iv scalars)."""

    re: object
    im: object


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


def residue_sum_enclosure(d: int, k: int, digits: int) -> ComplexEnclosure:
    """Validated enclosure of the plain residue sum sum_{(a/d)=1} zeta_d^{ka}."""
    roots = _roots_of_unity(d, digits)
    old = iv.dps
    iv.dps = digits
    try:
        re = im = iv.mpf(0)
        for a in range(1, d + 1):
            if jacobi(a, d) == 1:
                c, s = roots[(k * a) % d]
                re += c
                im += s
        return ComplexEnclosure(re, im)
    finally:
        iv.dps = old


def iv_endpoints(x) -> tuple[Fraction, Fraction]:
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
        lo, hi = iv_endpoints(interval)
        if b_part == 0:
            return lo <= a_part <= hi
        return cmp_surd(a_part, b_part, rad, lo) >= 0 and cmp_surd(a_part, b_part, rad, hi) <= 0

    return inside(re_a, re_b, box.re) and inside(im_a, im_b, box.im)
