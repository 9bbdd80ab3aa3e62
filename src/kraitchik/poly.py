"""Dense polynomials over an exact scalar ring.

Coefficients are stored ascending by degree with no trailing zeros; the zero
polynomial is the empty tuple.  The ring is whatever the coefficients are
(int or Fraction) -- the operations only assume exact +, -, *.  No module of
the package uses it: the pair, Phi_d and the symfunc collapse are plain
integer lists and tuples.  It stays for ``tests/oracles.py``'s ``Poly`` and
for ``perfbench/tracer.py``, which still wraps its methods.
"""

from __future__ import annotations

from typing import Iterable


class DensePoly:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple = tuple(cs)

    @classmethod
    def zero(cls) -> "DensePoly":
        return cls(())

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        if not isinstance(other, DensePoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __mul__(self, other) -> "DensePoly":
        if not isinstance(other, DensePoly):  # scalar
            return DensePoly([c * other for c in self.coeffs])
        if self.is_zero() or other.is_zero():
            return DensePoly.zero()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            for j, d in enumerate(other.coeffs):
                out[i + j] = out[i + j] + c * d
        return DensePoly(out)

    __rmul__ = __mul__

    def __divmod__(self, other: "DensePoly") -> tuple["DensePoly", "DensePoly"]:
        """Exact-ring division; requires each leading quotient step to divide."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        lead = other.coeffs[-1]
        rem = list(self.coeffs)
        quo = [0] * max(0, len(rem) - len(other.coeffs) + 1)
        while len(rem) >= len(other.coeffs):
            c = rem[-1]
            q = _exact_div(c, lead)
            k = len(rem) - len(other.coeffs)
            quo[k] = q
            for i, d in enumerate(other.coeffs):
                rem[k + i] = rem[k + i] - q * d
            if rem[-1] != 0:
                raise ArithmeticError(f"leading term {rem[-1]} survived a division step")
            rem.pop()
            while rem and rem[-1] == 0:
                rem.pop()
        return DensePoly(quo), DensePoly(rem)

    def evaluate(self, x):
        """Horner evaluation at any scalar supporting the ring operations."""
        acc = None
        for c in reversed(self.coeffs):
            acc = c if acc is None else acc * x + c
        return 0 if acc is None else acc


def _exact_div(c, lead):
    if isinstance(c, int) and isinstance(lead, int):
        q, r = divmod(c, lead)
        if r:
            raise ArithmeticError(f"inexact polynomial division: {c} / {lead}")
        return q
    return c / lead

