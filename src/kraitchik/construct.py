"""Construction of the Gauss-Kraitchik decomposition 4*Phi_d = Psi_d^2 - D*Xi_d^2.

The half polynomials U+ and U- split the primitive d-th roots of unity by
quadratic character.  Their coefficients u_{d,n} = (-1)^n e_n come straight
from Newton's identities fed with the closed-form power sums, so no root of
unity is ever constructed here.  ``psi_xi`` runs the recursion on U's own
coefficients, in integers only: the doubled power sums sigma_j = 2*s_{d,j}
and the doubled coefficients U_m = 2*u_m are integer pairs (A, B) meaning
A + B*sqrt(D), U_0 = (2, 0), and

    2m * U_m = -sum_{j=1..m} U_{m-j} * sigma_j,

with (a, b)*(p, q) = (a*p + b*q*D, a*q + b*p).  Each step ends with an exact
division by 2m; a remainder raises ArithmeticError.  As sigma_j = (c_d(j), (j/d))
is Ramanujan's sum c_d(j) = sum_{g | (j, d)} g*mu(d/g) and the Jacobi symbol,
the step sums by the classes of j, not term by term (``_class_sums``): one
slice U_{m-g} + U_{m-2g} + ... per divisor g of d gives the rational parts
and, by Mobius inversion, the sum over the units j; one sum over the j with
(j/d) = 1 gives the surd parts.  This only regroups integer terms, so each
step divides the same integer total as the term-by-term sum.  Then

    a_{d,n} = u + conj(u) = A_n                (an integer),
    b_{d,n} = -2 * (surd part of u) = -B_n     (an integer),

are the coefficients of Psi_d and Xi_d from the top degree down, so the
reversed tuples are the polynomials in ascending degree.  Only m <= h =
max(d'//2, 1) is run: a_n = (-1)^d' a_{d'-n} and b_n = s*b_{d'-n} (b_0 = 0, s the
predicted b-sign) mirror the rest, certified by the identity gate (``psi_xi``).

``verify_identity`` checks the pair exactly against ``cyclotomic``'s
independent Phi_d, an ascending integer tuple from a sparse Mobius product,
as one integer equation at X = 2^k whose slot width k is proven wide enough
first.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, compress
from operator import sub
from typing import Optional, Sequence

from .numtheory import divisors, is_prime, jacobi, mobius
from .powersums import DiscriminantContext


@dataclass(frozen=True)
class KraitchikPair:
    """The full record for one modulus d.

    ``a`` holds a_{d,0..d'} and ``b`` holds b_{d,1..d'} in the classical
    descending-power indexing (index n is the coefficient of X^(d'-n)), so
    ``a[::-1]`` and ``b[::-1]`` are Psi_d and Xi_d in ascending degree.
    """

    ctx: DiscriminantContext
    a: tuple[int, ...]
    b: tuple[int, ...]

    @property
    def d(self) -> int:
        return self.ctx.d

    def b_coeff(self, n: int) -> int:
        """b_{d,n} with the convention b_{d,0} = 0."""
        return 0 if n == 0 else self.b[n - 1]


def _exact_quotient(pair: tuple[int, int], k: int, what: str) -> tuple[int, int]:
    """pair / k, raising ArithmeticError unless k divides both parts."""
    qa, ra = divmod(pair[0], k)
    qb, rb = divmod(pair[1], k)
    if ra or rb:
        raise ArithmeticError(f"integrality failure for {what}: {pair} is not divisible by {k}")
    return qa, qb


class IdentityGateError(ArithmeticError):
    """Neither b-sign gives a mirrored pair that passes ``verify_identity``.

    Its message, ``identity fails at d=<d>``, is the one the CLI reports."""


def psi_xi(d: int) -> KraitchikPair:
    """The record for one odd squarefree d >= 3, mirrored past h, then gated.  If
    P, X in Z[X], deg P = d' with leading coefficient 2 and deg X < d', satisfy
    P^2 - D*X^2 = 4*Phi_d = 4*U+*U-, then P + sqrt(D)*X is 2*U+ or 2*U-, as U+-
    are irreducible over K = Q(sqrt(D)) and K[X] is a UFD: (P, X) = (Psi_d, +-Xi_d),
    and b_1 = 1, computed (h >= 1, for d = 3 where Psi_3 = 2X + 1), fixes the sign.
    The other b-sign is tried if the predicted one fails; if both do, IdentityGateError.
    Each step sums U_{m-j}*sigma_j by the classes of j, from the running totals
    of U_0..U_{m-1}; the regrouped integer sum is the term-by-term one."""
    ctx = DiscriminantContext.for_modulus(d)
    dp, h = ctx.dprime, max(ctx.dprime // 2, 1)
    sigma = _sigma_classes(d, h)
    # U_0..U_m as the parts A and B of A + B*sqrt(D), with their running totals
    ua, ub, ta, tb = [2], [0], 2, 0
    for m in range(1, h + 1):
        ram_a, jac_a = _class_sums(ua, ta, m, *sigma)
        ram_b, jac_b = _class_sums(ub, tb, m, *sigma)
        # (A + B*sqrt(D)) * (c + q*sqrt(D)) = (A*c + B*q*D) + (A*q + B*c)*sqrt(D)
        total = (ram_a + ctx.D * jac_b, jac_a + ram_b)
        qa, qb = _exact_quotient(total, 2 * m, f"2*u_{m} at d={ctx.d}")
        ua.append(-qa)
        ub.append(-qb)
        ta, tb = ta - qa, tb - qb
    mirror, sign = range(dp - h - 1, -1, -1), _b_sign_predicted(d)  # d' - n for n = h+1..d'
    a = tuple(ua) + tuple((-1) ** dp * ua[n] for n in mirror)
    for s in (sign, -sign):
        pair = KraitchikPair(ctx, a, tuple(-v for v in ub[1:]) + tuple(-s * ub[n] for n in mirror))
        if verify_identity(pair).ok:
            return pair
    raise IdentityGateError(f"identity fails at d={d}")


def _sigma_classes(d: int, h: int) -> tuple[int, list[tuple[int, int, int]], list[bool]]:
    """What the recursion reads of sigma_1..sigma_h: mu(d); (g, g*mu(d/g), mu(g))
    for each divisor 1 < g <= h of d, ascending; and whether (j/d) = 1 for j = 1..h.
    As j <= h < d, gcd(j, d) is one of those g or 1, and sigma_j = (c_d(j), (j/d))
    with c_d(j) = mu(d) + sum of g*mu(d/g) over the g dividing j."""
    classes = [(g, g * mobius(d // g), mobius(g)) for g in divisors(d) if 1 < g <= h]
    return mobius(d), classes, [jacobi(j, d) == 1 for j in range(1, h + 1)]


def _class_sums(
    u: list[int], total: int, m: int, mu_d: int, classes: list[tuple[int, int, int]], plus: list[bool]
) -> tuple[int, int]:
    """(sum_j u_{m-j}*c_d(j), sum_j u_{m-j}*(j/d)) over j = 1..m, where u holds
    u_0..u_{m-1} and ``total`` is their sum.  With S_g the sum of u_{m-j} over
    the j <= m that g divides (S_1 = total, else one slice):

        sum_j u_{m-j}*c_d(j)  = sum_{g | d} g*mu(d/g) * S_g
        sum over units j      = sum_{g | d} mu(g) * S_g      (Mobius inversion)
        sum_j u_{m-j}*(j/d)   = 2*(sum over (j/d) = 1) - (sum over units j)

    as (j/d) is 1 or -1 on the units and 0 elsewhere; ``plus`` selects the
    j with (j/d) = 1 from u_{m-1}, u_{m-2}, ..., u_0."""
    ram, units = mu_d * total, total
    for g, weight, mu_g in classes:
        if g > m:
            break
        s = sum(u[m - g :: -g])
        ram += weight * s
        units += mu_g * s
    return ram, 2 * sum(compress(reversed(u), plus)) - units


def _b_sign_predicted(d: int) -> int:
    return -1 if (d % 4 == 3 and not is_prime(d)) else 1


def cyclotomic(d: int) -> tuple[int, ...]:
    """Phi_d's coefficients in ascending degree, via the Mobius product of
    (X^e - 1) factors on a plain integer list in O(d * 2^omega(d)) additions:
    each factor with mu(d/e) = 1 is a shift and a subtract, each with
    mu(d/e) = -1 an exact division."""
    if d < 1:
        raise ValueError(f"need d >= 1, got {d}")
    mu = {e: mobius(d // e) for e in divisors(d)}
    coeffs = [1]
    for e in [e for e in mu if mu[e] == 1]:  # every product first, so each division is exact
        coeffs = list(map(sub, [0] * e + coeffs, coeffs + [0] * e))
    for e in [e for e in mu if mu[e] == -1]:
        coeffs = _divide_by_x_power_minus_one(coeffs, e, d)
    return tuple(coeffs)


def _divide_by_x_power_minus_one(coeffs: list[int], e: int, d: int) -> list[int]:
    """coeffs / (X^e - 1), exact or ArithmeticError.  The quotient obeys
    q_i = q_{i-e} - c_i from the bottom, so -q_i is a running sum along i's
    residue class mod e; the same sums at the top e degrees are the remainder."""
    sums = list(coeffs)
    for r in range(e):
        sums[r::e] = accumulate(coeffs[r::e])
    if len(coeffs) <= e or any(sums[-e:]):
        raise ArithmeticError(f"cyclotomic division by X^{e} - 1 left a remainder at d={d}")
    return [-s for s in sums[:-e]]


@dataclass(frozen=True)
class IdentityReport:
    d: int
    ok: bool
    mismatch_index: Optional[int]  # first differing coefficient degree


def verify_identity(pair: KraitchikPair) -> IdentityReport:
    """Exact check of 4*Phi_d = Psi_d^2 - D*Xi_d^2 as one integer equation at
    X = 2^k (Kronecker substitution).  ``bound`` dominates every coefficient of
    Psi^2 - D*Xi^2 - 4*Phi and 2^(k-1) > bound is checked, so the packing is
    injective and the lowest set bit of a nonzero difference lies in the slot
    of the first differing degree."""
    phi = cyclotomic(pair.d)
    psi, xi, D = pair.a[::-1], pair.b[::-1], pair.ctx.D
    m = max(map(abs, psi + xi))
    bound = 4 * max(map(abs, phi)) + m * m * (len(psi) + abs(D) * len(xi))
    k = _slot_bits(bound)
    if bound >> (k - 1):
        raise ArithmeticError(f"{k}-bit slots cannot hold a coefficient bound of {bound} at d={pair.d}")
    width = -(-k // 8)  # whole bytes, at least k bits
    p, x = _pack(psi, width), _pack(xi, width)
    diff = p * p - D * x * x - 4 * _pack(phi, width)
    if diff == 0:
        return IdentityReport(pair.d, True, None)
    return IdentityReport(pair.d, False, ((diff & -diff).bit_length() - 1) // (8 * width))


def _slot_bits(bound: int) -> int:
    """The least k with 2^(k-1) > bound."""
    return bound.bit_length() + 1


def _pack(coeffs: Sequence[int], width: int) -> int:
    """sum_i c_i * 2^(8*width*i) for |c_i| < 2^(8*width - 1), in one pass: each
    c_i + 2^(8*width - 1) fills its width-byte slot without a sign, and the
    packed bias is subtracted once."""
    bias = 1 << (8 * width - 1)
    packed = b"".join((c + bias).to_bytes(width, "little") for c in coeffs)
    return int.from_bytes(packed, "little") - int.from_bytes(bias.to_bytes(width, "little") * len(coeffs), "little")


@dataclass(frozen=True)
class SymmetryReport:
    """Outcome of the palindromy laws for one d.

    The a-rule a_{d,n} = (-1)^{d'} a_{d,d'-n} is asserted outright.  For b
    the classical statement predicts the flip sign (minus exactly when
    d = 3 mod 4 is composite); both signs are tested empirically and any
    deviation from the predicted one is surfaced, not hidden.
    """

    d: int
    a_ok: bool
    a_witness: Optional[int]
    b_sign_predicted: int
    b_plus_holds: bool
    b_minus_holds: bool

    @property
    def b_matches_prediction(self) -> bool:
        return self.b_plus_holds if self.b_sign_predicted == 1 else self.b_minus_holds

    @property
    def ok(self) -> bool:
        return self.a_ok and (self.b_plus_holds or self.b_minus_holds)


def check_symmetry(pair: KraitchikPair) -> SymmetryReport:
    """The palindromy laws on any pair.  A ``psi_xi`` pair is mirrored, so on it
    the verdict means the mirrored pair passed the identity gate with that b-sign."""
    dp = pair.ctx.dprime
    a_witness = next((n for n in range(dp + 1) if pair.a[n] != (-1) ** dp * pair.a[dp - n]), None)
    b_plus, b_minus = (all(pair.b_coeff(n) == s * pair.b_coeff(dp - n) for n in range(1, dp)) for s in (1, -1))
    return SymmetryReport(pair.d, a_witness is None, a_witness, _b_sign_predicted(pair.d), b_plus, b_minus)
