"""Power sums of quadratic-residue roots of unity, in closed form and as a
validated numeric oracle.

For odd squarefree d with discriminant D = (-1)^((d-1)/2) d, the sum of
zeta_d^{ka} over the residues a with (a/d) = 1 has the closed form

    (mu(d) + (k/d) sqrt(D)) / 2        when gcd(k, d) = 1,
    mu(d/f) phi(f) / 2                 when gcd(k, d) = f > 1,

which the construction consumes exactly, doubled to the integer pair
(p, q) meaning p + q sqrt(D) (``power_sum_doubled``).  The numeric side
computes a validated complex enclosure of the same residue sum at one
precision, ``DIGITS``, so that the closed form is checked against something
independent: mpmath's interval arithmetic encloses cos and sin of 2*pi/d
once per modulus, rounded outward to integer mantissas; the other roots are
its powers, outward-rounded integer complex products whose widths grow about
linearly in d (``_root_table``); and each sum over the residues is an exact
integer sum of those mantissas.  The residues R form a subgroup of the units
mod d, so the sum is the same for every k of one orbit k*R and is enclosed
once per orbit (``orbit_representatives``).  The quadratic Gauss sum needs
no enclosure of its own: it is 2*s - p, where p, the rational part of
``power_sum_doubled``, is the Ramanujan sum mu(d/f) phi(f).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from mpmath import iv
from mpmath.libmp import mpf_shift, round_ceiling, round_floor, to_int

from .numtheory import euler_phi, is_squarefree, jacobi, mobius
from .qfield import QuadElem, cmp_surd

DIGITS = 25  # working precision of the root enclosures, in decimal digits
GUARD_BITS = 32  # grid of the root table: 2^-(working precision + GUARD_BITS)


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


class ComplexEnclosure(NamedTuple):
    """The rectangle [re_lo, re_hi] x [im_lo, im_hi] * 2^-bits, on integer mantissas."""

    re_lo: int
    re_hi: int
    im_lo: int
    im_hi: int
    bits: int

    def width_mantissa(self) -> int:
        """The wider side of the rectangle, in units of 2^-bits."""
        return max(self.re_hi - self.re_lo, self.im_hi - self.im_lo)


class RootTable(NamedTuple):
    """cos and sin of 2*pi*a/d for a = 0..d-1 as outward-rounded mantissas over
    2^bits, with the residues (jacobi = 1) of d."""

    bits: int
    cos_lo: tuple[int, ...]
    cos_hi: tuple[int, ...]
    sin_lo: tuple[int, ...]
    sin_hi: tuple[int, ...]
    residues: tuple[int, ...]


@lru_cache(maxsize=1)  # the suite reads one modulus at a time
def _root_table(d: int) -> RootTable:
    """One table per modulus, from one enclosed root.  mpmath encloses cos and
    sin of 2*pi/d; each endpoint is floored (lo) or ceiled (hi) onto the grid of
    2^-(prec + GUARD_BITS), so every later sum is exact.  zeta^a for
    2 <= a <= d//2 is the complex product zeta^(a-1) * zeta on those integer
    mantissas: each real product ranges over its four corner products, and each
    end is again floored or ceiled onto the grid.  cos(2pi(d-a)/d) = cos(2pi a/d)
    and sin(2pi(d-a)/d) = -sin(2pi a/d) give the rest.

    Each product widens zeta^(a-1)'s enclosure by at most a factor
    cos(2pi/d) + sin(2pi/d) <= 1 + 2pi/d and adds about twice zeta's own width
    plus two grid units, so after a <= d/2 products the width is below
    a * e^pi times that increment: it grows about linearly in d.  At
    DIGITS = 25 (86 bits) the widest root is about 2^-75 wide at d = 1001 and
    2^-72 at d = 6997, far inside the gauss-oracle suite's 1e-9 (about 2^-30)."""
    old = iv.dps
    iv.dps = DIGITS
    try:
        bits = iv.prec + GUARD_BITS
        angle = 2 * iv.pi / d
        root = iv.cos(angle), iv.sin(angle)
    finally:
        iv.dps = old
    (c_lo, c_hi), (s_lo, s_hi) = (
        (to_int(mpf_shift(x._mpi_[0], bits), round_floor), to_int(mpf_shift(x._mpi_[1], bits), round_ceiling))
        for x in root
    )
    cos_lo, cos_hi, sin_lo, sin_hi = [1 << bits, c_lo], [1 << bits, c_hi], [0, s_lo], [0, s_hi]
    for _ in range(2, d // 2 + 1):
        # (x + iy)(c + is) = (xc - ys) + i(xs + yc)
        x, y = (cos_lo[-1], cos_hi[-1]), (sin_lo[-1], sin_hi[-1])
        xc, ys = _product_range(*x, c_lo, c_hi), _product_range(*y, s_lo, s_hi)
        xs, yc = _product_range(*x, s_lo, s_hi), _product_range(*y, c_lo, c_hi)
        cos_lo.append((xc[0] - ys[1]) >> bits)
        cos_hi.append(-((ys[0] - xc[1]) >> bits))
        sin_lo.append((xs[0] + yc[0]) >> bits)
        sin_hi.append(-(-(xs[1] + yc[1]) >> bits))
    m = d // 2  # a = m+1..d-1 mirrors d-a = m..1
    return RootTable(
        bits,
        tuple(cos_lo + cos_lo[m:0:-1]),
        tuple(cos_hi + cos_hi[m:0:-1]),
        tuple(sin_lo + [-h for h in sin_hi[m:0:-1]]),
        tuple(sin_hi + [-lo for lo in sin_lo[m:0:-1]]),
        tuple(a for a in range(d) if jacobi(a, d) == 1),
    )


def _product_range(a_lo: int, a_hi: int, b_lo: int, b_hi: int) -> tuple[int, int]:
    """The least and greatest of a*b over a in [a_lo, a_hi], b in [b_lo, b_hi]."""
    corners = (a_lo * b_lo, a_lo * b_hi, a_hi * b_lo, a_hi * b_hi)
    return min(corners), max(corners)


def orbit_representatives(d: int) -> tuple[int, ...]:
    """For each k mod d, the least k' in 1..d of k's orbit k*R, where R is the
    residues of d; k = 0, written d, is its own orbit.

    R is a subgroup of the units mod d: it is the kernel of the character
    a -> (a/d), a homomorphism because the Jacobi symbol is completely
    multiplicative in a.  Multiplying by r in R therefore permutes R, so
    {k*r*a mod d : a in R} = {k*a mod d : a in R} as multisets, and
    s_{k*r} = s_k.  The enclosures agree too: ``residue_sum_enclosure`` sums
    the same table entries for k*r as for k.  There are 3 orbits at prime d
    (0, the residues, the non-residues) and 9 at d = 105, 935 and 1001."""
    residues = _root_table(d).residues
    rep = [0] * d
    for k in range(1, d + 1):
        if not rep[k % d]:
            for r in residues:
                rep[k * r % d] = k
    return tuple(rep)


def residue_sum_enclosure(d: int, k: int) -> ComplexEnclosure:
    """Validated enclosure of the residue sum sum_{(a/d)=1} zeta_d^{ka}: the
    exact integer sum of the root table's mantissas over k*a mod d."""
    t = _root_table(d)
    idx = [k * a % d for a in t.residues]
    sums = (sum(map(side.__getitem__, idx)) for side in (t.cos_lo, t.cos_hi, t.sin_lo, t.sin_hi))
    return ComplexEnclosure(*sums, t.bits)


def quad_in_enclosure(p: int, q: int, D: int, box: ComplexEnclosure) -> bool:
    """Exact containment of (p + q*sqrt(D))/2 in a rectangle, for integers p, q.

    Scaled by 2^(bits+1), each endpoint test is an integer ``cmp_surd`` of
    2^bits*(x + y*sqrt(|D|)) against twice a mantissa; nothing is rounded.
    """
    scale = 1 << box.bits
    rad = abs(D)

    def inside(x: int, y: int, lo: int, hi: int) -> bool:
        x, y = x * scale, y * scale
        return cmp_surd(x, y, rad, 2 * lo) >= 0 and cmp_surd(x, y, rad, 2 * hi) <= 0

    if D > 0 or q == 0:
        return inside(p, q, box.re_lo, box.re_hi) and inside(0, 0, box.im_lo, box.im_hi)
    return inside(p, 0, box.re_lo, box.re_hi) and inside(0, q, box.im_lo, box.im_hi)
