"""Symmetric-function machinery: the Girard-Newton recursion, partition
weights, and the binomial collapse polynomial.

``newton_elementary`` starts from e_0 = Fraction(1), so it runs over any
exact scalar that combines with Fractions under +, -, * and division by a
positive integer.  The construction runs its own integer-pair form of the
recursion; this generic one, fed with the tests' quadratic-field scalar, is
the exact oracle the tests compare it against.  The partition weights w are
the positive rationals expanding the m-th elementary symmetric polynomial in
power sums,

    S^(m) = sum over partitions e of m of (-1)^(m-k) * w_e * prod S_{e_i},

with k the number of parts of e.  They have the closed form w_e = 1/z_e,
z_e = prod_j j^(c_j) * c_j! with c_j the multiplicity of the part j
(Macdonald, Symmetric Functions and Hall Polynomials, 2nd ed., ch. I,
(2.14')).  Collapsing every power sum to the same variable X turns the
expansion into the polynomial binom(X, m); that identity is what the bounds
pipeline relies on and is verified coefficient-for-coefficient in the test
suite.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction
from typing import Iterator, Sequence

from .poly import DensePoly

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


def pm_polynomial(m: int) -> DensePoly:
    """The collapse polynomial sum_e (-1)^(m-k) w_e X^k over partitions e of m with
    k parts (equal to binom(X, m))."""
    if m < 0:
        raise ValueError(f"need m >= 0, got {m}")
    if m == 0:
        return DensePoly([Fraction(1)])
    coeffs = [Fraction(0)] * (m + 1)
    for e, w in partition_weights(m).items():
        coeffs[len(e)] += w if (m - len(e)) % 2 == 0 else -w
    return DensePoly(coeffs)


def newton_elementary(power_sums: Sequence) -> list:
    """Elementary symmetric values e_0..e_N from power sums S_1..S_N.

    Uses m*e_m = sum_{j=1..m} (-1)^(j-1) e_{m-j} S_j.  Scalars need exact
    ring arithmetic with Fractions plus division by a positive integer;
    plain ints are promoted to Fraction.
    """
    sums = [Fraction(s) if isinstance(s, int) else s for s in power_sums]
    es: list = [Fraction(1)]
    for m in range(1, len(sums) + 1):
        acc = None
        for j in range(1, m + 1):
            term = es[m - j] * sums[j - 1]
            if j % 2 == 0:
                term = -term
            acc = term if acc is None else acc + term
        es.append(acc / m)
    return es


def elementary_brute(values: Sequence, m: int) -> object:
    """Direct sum over all m-subsets; the independent oracle for the recursion."""
    if m < 0:
        raise ValueError(f"need m >= 0, got {m}")
    if m == 0:
        return Fraction(1)
    if m > len(values):
        return Fraction(0)
    acc = None
    for combo in itertools.combinations(values, m):
        prod = combo[0]
        for v in combo[1:]:
            prod = prod * v
        acc = prod if acc is None else acc + prod
    return acc


def power_sums_of(values: Sequence, upto: int) -> list:
    """S_1..S_upto of a finite multiset, for feeding the recursion in tests."""
    out = []
    for k in range(1, upto + 1):
        acc = None
        for v in values:
            t = v**k
            acc = t if acc is None else acc + t
        out.append(acc if acc is not None else Fraction(0))
    return out
