"""Field arithmetic in Q(sqrt(r)) and the Fraction Girard-Newton path: the
slow exact reference for ``kraitchik.construct`` and ``kraitchik.bounds``.

``kraitchik.qfield.QuadElem`` is a plain record with field-wise equality;
``Quad`` adds the field operations the oracles need, and compares a rational
element (b = 0) equal to the plain number and to a rational element of any
radicand.  A rational element combines with any radicand, and combining two
genuinely irrational radicands raises ``RadicandMismatch``.  ``Poly`` adds indexing, +, - and a readable repr to
``kraitchik.poly.DensePoly``, which keeps only what ``src/`` uses.
``u_coefficients`` is the construction as it was before ``psi_xi`` moved onto
integer pairs: the closed-form power sums fed through the generic
``newton_elementary``.  ``falling_factorial_poly`` is
m! * binom(X, m) = X(X-1)...(X-m+1) expanded by ``DensePoly`` products, the
reference for the collapse counts.
``partitions``, ``partition_weights`` and ``pm_polynomial_by_weights`` are the
collapse as ``kraitchik.symfunc`` summed it before it moved onto integer
counts m!/z: every partition of m as a tuple, its weight 1/z as a Fraction,
and one Fraction addition per partition.
``psi_xi_full`` is ``psi_xi`` as it was before it stopped at h = max(d'//2, 1)
and mirrored the rest: the integer recursion run to m = d', with no gate, each
step one ``pair_dot`` of U_0..U_{m-1} with sigma_m..sigma_1 term by term, as
``psi_xi`` summed it before it grouped the terms by the classes of j.
``growth_base`` is ``kraitchik.bounds``'s growth base as it was before it
became one integer maximum: a Fraction floor from ``surd_base``, raised by
each divisor's phi(f)/2 in turn.  ``ramanujan_h`` is the sum of the k-th
powers of the primitive d-th roots of unity for any d >= 1, the reference for
the rational part of ``power_sum_doubled``.  ``log_bounds`` and
``explicit_bound_verdicts`` are the strict bound as ``kraitchik.bounds``
decided it before its per-modulus pass: one (d, n) at a time, ln t1, ln t2
and ln t3 built by the ``iv_*`` operations (``iv_div`` among them, kept here
since ``src/`` stopped dividing intervals), every rung through ``decide``.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from operator import mul
from typing import Iterator, Sequence

from kraitchik.bounds import abs_bound_base
from kraitchik.construct import KraitchikPair, _exact_quotient
from kraitchik.interval import (
    DEFAULT_MAX_PRECISION,
    GUARD_BITS,
    DyadicInterval,
    IntervalDomainError,
    _coerce,
    decide,
    iv_add,
    iv_const_pi,
    iv_from_rat,
    iv_from_surd,
    iv_ln,
    iv_mul,
    iv_sub,
    precision_ladder,
)
from kraitchik.numtheory import divisors, euler_phi, mobius, squarefree_decompose
from kraitchik.cli import format_poly
from kraitchik.poly import DensePoly
from kraitchik.powersums import DiscriminantContext, power_sum_doubled, power_sum_s
from kraitchik.qfield import QuadElem, RadicandMismatch, cmp_surd
from kraitchik.symfunc import newton_elementary


class Quad(QuadElem):
    """A ``QuadElem`` with +, -, *, /, ``inverse`` and ``conj``."""

    def _parts(self, other) -> tuple:
        """(a, b, r) of ``other`` in a field it shares with self."""
        if not isinstance(other, QuadElem):
            return Fraction(other), Fraction(0), self.r
        if self.b and other.b and self.r != other.r:
            raise RadicandMismatch(f"cannot combine sqrt({self.r}) with sqrt({other.r})")
        return other.a, other.b, self.r if self.b else other.r

    def __add__(self, other) -> "Quad":
        a, b, r = self._parts(other)
        return Quad(self.a + a, self.b + b, r)

    def __neg__(self) -> "Quad":
        return Quad(-self.a, -self.b, self.r)

    def __sub__(self, other) -> "Quad":
        a, b, r = self._parts(other)
        return Quad(self.a - a, self.b - b, r)

    def __mul__(self, other) -> "Quad":
        a, b, r = self._parts(other)
        return Quad(self.a * a + self.b * b * r, self.a * b + self.b * a, r)

    __rmul__ = __mul__

    def inverse(self) -> "Quad":
        norm = self.a * self.a - self.b * self.b * self.r
        if norm == 0:
            raise ZeroDivisionError("division by zero in quadratic field")
        return Quad(self.a / norm, -self.b / norm, self.r)

    def __truediv__(self, other) -> "Quad":
        return self * Quad(*self._parts(other)).inverse()

    def conj(self) -> "Quad":
        """Algebraic conjugate a - b*sqrt(r)."""
        return Quad(self.a, -self.b, self.r)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        if isinstance(other, QuadElem):
            if self.b == 0 and other.b == 0:
                return self.a == other.a
            return self.r == other.r and self.a == other.a and self.b == other.b
        return NotImplemented

    def __hash__(self) -> int:
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.r))

    def __repr__(self) -> str:
        if self.b == 0:
            return f"Quad({self.a})"
        return f"Quad({self.a} + {self.b}*sqrt({self.r}))"


class Poly(DensePoly):
    """A ``DensePoly`` with indexing, +, - and a readable repr; its products and
    quotients are ``Poly`` too."""

    __slots__ = ()

    def __getitem__(self, k: int):
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def __add__(self, other: DensePoly) -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Poly(out)

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other: DensePoly) -> "Poly":
        return self + (-Poly(other.coeffs))

    def __mul__(self, other) -> "Poly":
        return Poly(super().__mul__(other).coeffs)

    __rmul__ = __mul__

    def __divmod__(self, other: DensePoly) -> tuple["Poly", "Poly"]:
        quo, rem = super().__divmod__(other)
        return Poly(quo.coeffs), Poly(rem.coeffs)

    def __repr__(self) -> str:
        return f"Poly({format_poly(self.coeffs)})"


def u_coefficients(ctx: DiscriminantContext) -> tuple:
    """u_{d,0..d'}: signed elementary symmetric values of the residue roots,
    by the Girard-Newton recursion over Fraction and ``Quad``."""
    sums = []
    for j in range(1, ctx.dprime + 1):
        s = power_sum_s(ctx, j)
        sums.append(Quad(s.a, s.b, s.r))
    es = newton_elementary(sums)
    zero = Quad(0, 0, ctx.D)  # e_0 is the Fraction 1; adding zero makes every entry a Quad
    return tuple(zero + (e if n % 2 == 0 else -e) for n, e in enumerate(es))


def pair_dot(
    xa: Sequence[int], xb: Sequence[int], ya: Sequence[int], yb: Sequence[int], D: int
) -> tuple[int, int]:
    """sum_i (xa_i + xb_i*sqrt(D)) * (ya_i + yb_i*sqrt(D)) as an integer pair."""
    return (
        sum(map(mul, xa, ya)) + D * sum(map(mul, xb, yb)),
        sum(map(mul, xa, yb)) + sum(map(mul, xb, ya)),
    )


def psi_xi_full(d: int) -> KraitchikPair:
    """Build the verified coefficient record for one odd squarefree d >= 3."""
    ctx = DiscriminantContext.for_modulus(d)
    sig_a, sig_b = zip(*(power_sum_doubled(ctx, j) for j in range(1, ctx.dprime + 1)))
    # U_0..U_m as the parts A and B of A + B*sqrt(D)
    ua, ub = [2], [0]
    for m in range(1, ctx.dprime + 1):
        # U_{m-j} meets sigma_j: pair U_0..U_{m-1} with sigma_m..sigma_1
        total = pair_dot(ua, ub, sig_a[m - 1 :: -1], sig_b[m - 1 :: -1], ctx.D)
        qa, qb = _exact_quotient(total, 2 * m, f"2*u_{m} at d={ctx.d}")
        ua.append(-qa)
        ub.append(-qb)
    return KraitchikPair(ctx, tuple(ua), tuple(-v for v in ub[1:]))


def pair_u(pair: KraitchikPair) -> tuple[Quad, ...]:
    """u_{d,0..d'} = a_{d,n}/2 - (b_{d,n}/2)*sqrt(D), derived from a and b."""
    return tuple(
        Quad(Fraction(a, 2), Fraction(-pair.b_coeff(n), 2), pair.ctx.D) for n, a in enumerate(pair.a)
    )


def half_polys(pair: KraitchikPair) -> tuple[DensePoly, DensePoly]:
    """U+ and U- as polynomials over Q(sqrt(D))."""
    u = pair_u(pair)[::-1]
    return DensePoly(u), DensePoly([c.conj() for c in u])


def falling_factorial_poly(m: int) -> list[int]:
    """The integer coefficients of X(X-1)...(X-m+1), ascending."""
    p = DensePoly([1])
    for i in range(m):
        p = p * DensePoly([-i, 1])
    return list(p.coeffs)


Partition = tuple[int, ...]


def partitions(m: int, _min: int = 1) -> Iterator[Partition]:
    """All partitions of m as nondecreasing tuples; ``partitions(0)`` yields ()."""
    if m == 0:
        yield ()
        return
    for first in range(_min, m + 1):
        for rest in partitions(m - first, first):
            yield (first,) + rest


def partition_weights(m: int) -> dict[Partition, Fraction]:
    """w_e = 1/z_e for every partition e of m."""
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    weights = {}
    for e in partitions(m):
        z = 1
        for j, c in Counter(e).items():
            z *= j**c * math.factorial(c)
        weights[e] = Fraction(1, z)
    return weights


def pm_polynomial_by_weights(m: int) -> DensePoly:
    """The collapse polynomial sum_e (-1)^(m-k) w_e X^k over partitions e of m with
    k parts, one Fraction weight per partition."""
    if m < 0:
        raise ValueError(f"need m >= 0, got {m}")
    if m == 0:
        return DensePoly([Fraction(1)])
    coeffs = [Fraction(0)] * (m + 1)
    for e, w in partition_weights(m).items():
        coeffs[len(e)] += w if (m - len(e)) % 2 == 0 else -w
    return DensePoly(coeffs)


def second_coefficient_closed_form(d: int) -> QuadElem:
    """u_{d,2} at an odd prime d by d mod 8: ((d+3)/4 - sqrt(D))/2 for 1,
    (3-d)/8 for 3, (d+3)/8 for 5 and ((3-d)/4 - sqrt(D))/2 for 7."""
    a = Fraction(d + 3 if d % 8 in (1, 5) else 3 - d, 8)
    return QuadElem(a, Fraction(-1, 2) if d % 8 in (1, 7) else 0, d if d % 4 == 1 else -d)


def surd_base(p: int, q: int, radicand: int, field: int) -> QuadElem:
    """(p + q*sqrt(radicand))/2 with the square part pulled out; a rational one stays in Q(sqrt(field))."""
    s, r = squarefree_decompose(radicand)
    if r == 1:
        return QuadElem(Fraction(p + q * s, 2), 0, field)
    return QuadElem(Fraction(p, 2), Fraction(q * s, 2), r)


def growth_base(ctx: DiscriminantContext, n: int, floor_value: QuadElem) -> QuadElem:
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    best = floor_value
    for f in divisors(ctx.d):
        if 1 < f <= n:
            cand = Fraction(euler_phi(f), 2)
            if cmp_surd(best.a, best.b, best.r, cand) < 0:
                best = QuadElem(cand, 0, best.r)
    return best


def ramanujan_h(d: int, k: int) -> int:
    """Sum of the k-th powers of the primitive d-th roots of unity for any d >= 1 (the tests
    take products): mu(d/f) phi(d)/phi(d/f) with f = gcd(k, d), mu(d/f) phi(f) at squarefree d."""
    cofactor = d // math.gcd(k, d)
    return mobius(cofactor) * euler_phi(d) // euler_phi(cofactor)


def iv_div(x, y, prec: int) -> DyadicInterval:
    """Outward-rounded x/y on integer mantissas, the division ``kraitchik.interval`` had
    before the strict bound's pass inlined its two quotients."""
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


def log_bounds(base: QuadElem, n: int, prec: int) -> tuple[DyadicInterval, ...]:
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


def min_log_bound(base: QuadElem, n: int, prec: int) -> DyadicInterval:
    # min is monotone in each argument, so the endpoint minima enclose it
    ts = log_bounds(base, n, prec)
    return DyadicInterval(min(t.lo_m for t in ts), min(t.hi_m for t in ts), prec)


def explicit_bound_sides(pair: KraitchikPair, n: int) -> tuple:
    """(lhs, lhs_disc, rhs) of the strict bound at (d, n) in log space, each a function of the
    precision; lhs_disc, the left side against sqrt(D), is None when D > 0."""
    ctx = pair.ctx
    a_n, b_n, d = pair.a[n], pair.b_coeff(n), ctx.d
    base = abs_bound_base(ctx, n)
    aa, bb = (a_n, b_n) if cmp_surd(a_n, b_n, d, 0) >= 0 else (-a_n, -b_n)
    mod_sq = a_n * a_n + d * b_n * b_n

    def lhs(p):
        return iv_ln(iv_from_surd(aa, bb, d, p), p)

    def lhs_disc(p):
        return iv_div(iv_ln(iv_from_rat(mod_sq, p), p), 2, p)

    def rhs(p):  # the right side of both variants' cases, built once per case and rung
        return min_log_bound(base, n, p)

    return lhs, None if ctx.D > 0 else lhs_disc, rhs


def explicit_bound_verdicts(pair: KraitchikPair, n: int, max_precision: int = DEFAULT_MAX_PRECISION) -> tuple[str, str]:
    """(verdict, verdict_disc_radicand) of the strict bound at (d, n), a nonzero left side."""
    lhs, lhs_disc, rhs = explicit_bound_sides(pair, n)
    cases = [(lhs, rhs)] + ([] if lhs_disc is None else [(lhs_disc, rhs)])
    verdict, *disc = [decision.verdict for decision in decide(cases, precision_ladder(max_precision))]
    return verdict, disc[0] if disc else verdict
