"""Exact order in quadratic extensions Q(sqrt(r)).

A ``QuadElem`` is the record ``a + b*sqrt(r)`` with rational a, b and a
squarefree radicand r (possibly negative, never 0 or 1), equal only to the
element with the same three parts.  It carries no field arithmetic: every
deciding path reads its parts.

``cmp_surd`` decides the exact order of ``x + y*sqrt(d)`` against a rational
by sign analysis and squaring, which is what makes every inequality check in
the bounds modules exact rather than numeric.  ``cmp_real`` compares two
records on their parts; two genuinely irrational radicands raise
``RadicandMismatch`` rather than being embedded into a biquadratic field.
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


def cmp_real(x: QuadElem, y: QuadElem | Rational) -> int:
    """Exact order of two real quadratic elements: the sign of x - y, taken
    in the field of whichever one is irrational."""
    if not isinstance(y, QuadElem):
        a, b, r = x.a - y, x.b, x.r
    elif x.b and y.b and x.r != y.r:
        raise RadicandMismatch(f"cannot compare sqrt({x.r}) with sqrt({y.r})")
    else:
        a, b, r = x.a - y.a, x.b - y.b, x.r if x.b else y.r
    if b == 0:
        return (a > 0) - (a < 0)
    if r < 0:
        raise ValueError("sign of a non-real element")
    return cmp_surd(a, b, r, 0)


def abs_real(x: QuadElem) -> QuadElem:
    """|x| for a real quadratic element, exact."""
    return x if cmp_real(x, 0) >= 0 else QuadElem(-x.a, -x.b, x.r)
