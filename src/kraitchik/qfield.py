"""Exact arithmetic in quadratic extensions Q(sqrt(r)).

A ``QuadElem`` is ``a + b*sqrt(r)`` with rational a, b and a squarefree
radicand r (possibly negative, never 0 or 1).  Elements with b = 0 act as
plain rationals and may combine with any radicand; mixing two genuinely
irrational radicands is a hard error rather than an implicit embedding into
a biquadratic field.

``cmp_surd`` decides the exact order of ``x + y*sqrt(d)`` against a rational
by sign analysis and squaring, which is what makes every inequality check in
the bounds modules exact rather than numeric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .numtheory import is_squarefree

Rational = int | Fraction


class RadicandMismatch(ValueError):
    """Raised when two elements of different quadratic fields are combined."""


def _as_fraction(x: Rational) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass(frozen=True)
class QuadElem:
    """The element a + b*sqrt(r) of Q(sqrt(r))."""

    a: Fraction
    b: Fraction
    r: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", _as_fraction(self.a))
        object.__setattr__(self, "b", _as_fraction(self.b))
        if self.r in (0, 1) or not is_squarefree(abs(self.r)):
            raise ValueError(f"radicand must be squarefree and not 0 or 1, got {self.r}")

    @classmethod
    def rational(cls, value: Rational, r: int) -> "QuadElem":
        return cls(_as_fraction(value), Fraction(0), r)

    @classmethod
    def sqrt_of(cls, r: int) -> "QuadElem":
        return cls(Fraction(0), Fraction(1), r)

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def rational_value(self) -> Fraction:
        if self.b != 0:
            raise ValueError(f"{self} is irrational")
        return self.a

    def conj(self) -> "QuadElem":
        """Algebraic conjugate a - b*sqrt(r)."""
        return QuadElem(self.a, -self.b, self.r)

    def _coerce(self, other) -> "QuadElem | None":
        if isinstance(other, QuadElem):
            if other.r == self.r or other.b == 0:
                return QuadElem(other.a, other.b, self.r)
            if self.b == 0:
                return other
            raise RadicandMismatch(f"cannot combine sqrt({self.r}) with sqrt({other.r})")
        if isinstance(other, (int, Fraction)):
            return QuadElem.rational(other, self.r)
        return None

    def __add__(self, other) -> "QuadElem":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.r != self.r:  # self rational, other irrational
            return o + self.a
        return QuadElem(self.a + o.a, self.b + o.b, self.r)

    __radd__ = __add__

    def __neg__(self) -> "QuadElem":
        return QuadElem(-self.a, -self.b, self.r)

    def __sub__(self, other) -> "QuadElem":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other) -> "QuadElem":
        return (-self) + other

    def __mul__(self, other) -> "QuadElem":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.r != self.r:
            return o * self.a
        return QuadElem(
            self.a * o.a + self.b * o.b * self.r,
            self.a * o.b + self.b * o.a,
            self.r,
        )

    __rmul__ = __mul__

    def inverse(self) -> "QuadElem":
        norm = self.a * self.a - self.b * self.b * self.r
        if norm == 0:
            raise ZeroDivisionError("division by zero in quadratic field")
        return QuadElem(self.a / norm, -self.b / norm, self.r)

    def __truediv__(self, other) -> "QuadElem":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.r != self.r:  # self rational, other irrational: work in other's field
            return QuadElem.rational(self.a, o.r) * o.inverse()
        return self * o.inverse()

    def __rtruediv__(self, other) -> "QuadElem":
        return QuadElem.rational(other, self.r) * self.inverse()

    def __pow__(self, n: int) -> "QuadElem":
        if n < 0:
            return self.inverse() ** (-n)
        result = QuadElem.rational(1, self.r)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

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
            return f"QuadElem({self.a})"
        return f"QuadElem({self.a} + {self.b}*sqrt({self.r}))"


def conj(x: QuadElem) -> QuadElem:
    return x.conj()


def cmp_surd(x: Rational, y: Rational, d: int, q: Rational) -> int:
    """Exact order of x + y*sqrt(d) versus q: returns -1, 0 or +1.

    Requires d >= 2 and not a perfect square, so equality forces y = 0.
    Integer arguments are compared in integer arithmetic throughout.
    """
    if d < 2:
        raise ValueError(f"radicand must be >= 2, got {d}")
    s = math.isqrt(d)
    if s * s == d:
        raise ValueError(f"radicand must not be a perfect square, got {d}")
    t = q - x  # compare y*sqrt(d) against t
    if y == 0:
        return 0 if t == 0 else (1 if t < 0 else -1)
    if y > 0 and t <= 0:
        return 1
    if y < 0 and t >= 0:
        return -1
    lhs_sq = y * y * d
    rhs_sq = t * t
    if y > 0:  # both sides positive
        return -1 if lhs_sq < rhs_sq else 1 if lhs_sq > rhs_sq else 0
    # both sides negative: order reverses under squaring
    return -1 if lhs_sq > rhs_sq else 1 if lhs_sq < rhs_sq else 0


def sign_real(x: QuadElem) -> int:
    """Exact sign of a real quadratic element (radicand > 0 or rational)."""
    if x.b == 0:
        return 0 if x.a == 0 else (1 if x.a > 0 else -1)
    if x.r < 0:
        raise ValueError("sign of a non-real element")
    return cmp_surd(x.a, x.b, x.r, 0)


def cmp_real(x: QuadElem, y: QuadElem | Rational) -> int:
    """Exact comparison of two real quadratic elements sharing a field."""
    return sign_real(x - y)


def abs_real(x: QuadElem) -> QuadElem:
    """|x| for a real quadratic element, exact."""
    return x if sign_real(x) >= 0 else -x
