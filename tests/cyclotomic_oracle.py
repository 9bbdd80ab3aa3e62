"""Dense Mobius product and dense identity check: the slow reference for the
identity gate in ``kraitchik.construct``.

This is ``cyclotomic`` and ``verify_identity`` as they were before both moved
onto integer coefficient lists, kept unchanged as a test oracle: ``Phi_d`` is
the dense ``Poly`` product of the ``X^e - 1`` factors with mu(d/e) = 1,
divided by the product of those with mu(d/e) = -1 through the schoolbook
``divmod``, and the identity is compared coefficient by coefficient after two
dense squarings (``tests/test_construct.py``).
"""

from __future__ import annotations

from typing import Optional

from oracles import Poly

from kraitchik.construct import KraitchikPair
from kraitchik.numtheory import divisors, mobius


def dense_cyclotomic(d: int) -> Poly:
    """Phi_d over the integers via the Mobius product of (X^e - 1) factors."""
    if d < 1:
        raise ValueError(f"need d >= 1, got {d}")
    num = den = Poly([1])
    for e in divisors(d):
        mu = mobius(d // e)
        if mu == 1:
            num = num * _x_power_minus_one(e)
        elif mu == -1:
            den = den * _x_power_minus_one(e)
    quo, rem = divmod(num, den)
    if not rem.is_zero():
        raise ArithmeticError(f"cyclotomic division left a remainder at d={d}")
    return quo


def _x_power_minus_one(e: int) -> Poly:
    return Poly([-1] + [0] * (e - 1) + [1])


def dense_identity(pair: KraitchikPair) -> tuple[bool, Optional[int]]:
    """(ok, first differing coefficient degree) of 4*Phi_d = Psi_d^2 - D*Xi_d^2."""
    lhs = dense_cyclotomic(pair.d) * 4
    psi, xi = Poly(pair.a[::-1]), Poly(pair.b[::-1])
    rhs = psi * psi - (xi * xi) * pair.ctx.D
    for k in range(max(len(lhs.coeffs), len(rhs.coeffs))):
        if lhs[k] != rhs[k]:
            return False, k
    return True, None
