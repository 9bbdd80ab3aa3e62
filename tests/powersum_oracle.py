"""Slower references for the numeric side of ``kraitchik.powersums``.

Two earlier forms of it are kept as test oracles:

- ``residue_sum_enclosure`` and ``quad_in_enclosure`` accumulate mpmath
  intervals (without the Gauss sums, which ``kraitchik.powersums`` no longer
  encloses).  Each root of unity is enclosed by mpmath's ``iv.cos``/``iv.sin``
  for every a = 0..d-1, and each sum is accumulated in mpmath interval
  additions at the working precision; containment converts the interval
  endpoints to Fractions and decides with ``cmp_surd``.
- ``gauss_oracle_rows`` is the gauss-oracle suite with one exact integer sum
  per k (``exact_residue_sum_enclosure``) over a mirrored table in which
  mpmath encloses cos and sin of 2*pi*a/d for each a <= d//2
  (``root_table_per_angle``), in place of one sum per orbit over the powers
  of one enclosed root.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from mpmath import iv
from mpmath.libmp import mpf_shift, round_ceiling, round_floor, to_int, to_rational

from kraitchik import cli, powersums
from kraitchik.interval import GUARD_BITS
from kraitchik.numtheory import jacobi
from kraitchik.powersums import DiscriminantContext, RootTable
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


@lru_cache(maxsize=1)
def root_table_per_angle(d: int) -> RootTable:
    """The root table with mpmath enclosing cos and sin for each a <= d//2, and
    cos(2pi(d-a)/d) = cos(2pi a/d), sin(2pi(d-a)/d) = -sin(2pi a/d) giving the
    rest.  Endpoints are floored (lo) and ceiled (hi) onto the grid of
    2^-(prec + GUARD_BITS)."""
    old = iv.prec
    iv.prec = powersums.ROOT_PREC
    try:
        bits = iv.prec + GUARD_BITS
        two_pi = 2 * iv.pi
        half = [(iv.cos(two_pi * a / d), iv.sin(two_pi * a / d)) for a in range(d // 2 + 1)]
    finally:
        iv.prec = old

    def mantissas(xs):
        lo = [to_int(mpf_shift(x._mpi_[0], bits), round_floor) for x in xs]
        hi = [to_int(mpf_shift(x._mpi_[1], bits), round_ceiling) for x in xs]
        return lo, hi

    cos_lo, cos_hi = mantissas([c for c, _ in half])
    sin_lo, sin_hi = mantissas([s for _, s in half])
    m = d // 2  # a = m+1..d-1 mirrors d-a = m..1
    return RootTable(
        bits,
        tuple(cos_lo + cos_lo[m:0:-1]),
        tuple(cos_hi + cos_hi[m:0:-1]),
        tuple(sin_lo + [-h for h in sin_hi[m:0:-1]]),
        tuple(sin_hi + [-lo for lo in sin_lo[m:0:-1]]),
        tuple(a for a in range(d) if jacobi(a, d) == 1),
    )


def exact_residue_sum_enclosure(d: int, k: int) -> powersums.ComplexEnclosure:
    """The exact integer sum of ``root_table_per_angle``'s mantissas over k*a mod d."""
    t = root_table_per_angle(d)
    idx = [k * a % d for a in t.residues]
    sums = (sum(map(side.__getitem__, idx)) for side in (t.cos_lo, t.cos_hi, t.sin_lo, t.sin_hi))
    return powersums.ComplexEnclosure(*sums, t.bits)


def gauss_oracle_rows(d: int) -> list:
    """The gauss-oracle suite's rows for one modulus, from one enclosure per k.

    It reads the closed form through ``cli.power_sum_doubled``, so an error
    planted there reaches this oracle as it reaches the suite."""
    ctx = DiscriminantContext.for_modulus(d)
    verdicts = {}
    for k in range(1, d + 1):
        box = exact_residue_sum_enclosure(d, k)
        wide = box.width_mantissa() * 10**9 > 1 << box.bits  # wider than 1e-9, exactly
        inside = not wide and powersums.quad_in_enclosure(*cli.power_sum_doubled(ctx, k), ctx.D, box)
        verdicts[k] = cli.VERIFIED if inside else cli.FALSIFIED
    return cli._modulus_row(d, verdicts, "k")
