"""Power sums of quadratic-residue roots of unity, in closed form and as a
validated numeric oracle.

For odd squarefree d with discriminant D = (-1)^((d-1)/2) d, the sum of
zeta_d^{ka} over the residues a with (a/d) = 1 has the closed form

    (mu(d) + (k/d) sqrt(D)) / 2        when gcd(k, d) = 1,
    mu(d/f) phi(f) / 2                 when gcd(k, d) = f > 1,

which the construction consumes exactly, doubled to the integer pair
(p, q) meaning p + q sqrt(D) (``power_sum_doubled``).  The numeric side
computes a validated complex enclosure of the same residue sum at one
precision, ``ROOT_PREC``, so that the closed form is checked against something
independent: the interval kernel encloses cos and sin of 2*pi/d once per
modulus from Machin's pi and their Taylor series; the other roots are its
powers, outward-rounded integer complex products whose widths grow about
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

from .interval import GUARD_BITS, mul_mantissas, root_of_unity_mantissas
from .numtheory import euler_phi, is_squarefree, jacobi, mobius
from .qfield import QuadElem, cmp_surd

ROOT_PREC = 86  # working precision of the root table, in bits; its grid is 2^-(ROOT_PREC + GUARD_BITS)


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
    """One table per modulus, from one enclosed root.  The interval kernel
    encloses cos and sin of 2*pi/d on the grid of 2^-(ROOT_PREC + GUARD_BITS),
    3 or 4 grid units wide, so every later sum is exact.  zeta^a for
    2 <= a <= d//2 is the complex product zeta^(a-1) * zeta on those integer
    mantissas: each real product ranges over its four corner products, and each
    end is again floored or ceiled onto the grid.  cos(2pi(d-a)/d) = cos(2pi a/d)
    and sin(2pi(d-a)/d) = -sin(2pi a/d) give the rest.

    Each product widens zeta^(a-1)'s enclosure by at most a factor
    cos(2pi/d) + sin(2pi/d) <= 1 + 2pi/d and adds about twice zeta's own width
    plus two grid units, so after a <= d/2 products the width is below
    a * e^pi times that increment: it grows about linearly in d.  At
    ROOT_PREC = 86 the widest root is about 2^-104 wide at d = 1001 and
    2^-101 at d = 6997, far inside the gauss-oracle suite's 1e-9 (about 2^-30)."""
    bits = ROOT_PREC + GUARD_BITS
    c_lo, c_hi, s_lo, s_hi = root_of_unity_mantissas(d, ROOT_PREC)
    cos_lo, cos_hi, sin_lo, sin_hi = [1 << bits, c_lo], [1 << bits, c_hi], [0, s_lo], [0, s_hi]
    for _ in range(2, d // 2 + 1):
        # (x + iy)(c + is) = (xc - ys) + i(xs + yc), each real product's range exact (grid 2^0)
        x, y = (cos_lo[-1], cos_hi[-1]), (sin_lo[-1], sin_hi[-1])
        xc, ys = mul_mantissas(*x, c_lo, c_hi, -GUARD_BITS), mul_mantissas(*y, s_lo, s_hi, -GUARD_BITS)
        xs, yc = mul_mantissas(*x, s_lo, s_hi, -GUARD_BITS), mul_mantissas(*y, c_lo, c_hi, -GUARD_BITS)
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
