"""Symmetric-function machinery: the Girard-Newton recursion and the
binomial collapse polynomial.

``newton_elementary`` starts from e_0 = Fraction(1), so it runs over any
exact scalar that combines with Fractions under +, -, * and division by a
positive integer.  The construction runs its own integer-pair form of the
recursion; this generic one, fed with the tests' quadratic-field scalar, is
the exact oracle the tests compare it against.  The m-th elementary symmetric
polynomial expands in power sums as

    e_m = sum over partitions λ of m of (-1)^(m-k) * p_λ / z_λ,

with k the number of parts of λ and z_λ = prod_j j^(c_j) * c_j!, c_j the
multiplicity of the part j (Macdonald, Symmetric Functions and Hall
Polynomials, 2nd ed., ch. I, (2.14')).  Collapsing every power sum to the
same variable X turns the expansion into the polynomial binom(X, m);
``pm_polynomial`` sums it over every partition of m as integer counts
m!/z_λ, the number of permutations of m of cycle type λ, and divides by m!
once per coefficient.  The weights 1/z_λ themselves, with the Fraction sum
over them, are the tests' slow oracle (``tests/oracles.py``); the tests check
the closed form 1/z_λ against an independent recursion.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Sequence

from .poly import DensePoly


def pm_polynomial(m: int) -> DensePoly:
    """The collapse polynomial sum_λ (-1)^(m-k) X^k / z_λ over the partitions λ of m
    with k parts (equal to binom(X, m)), summed as integer counts m!/z_λ."""
    if m < 0:
        raise ValueError(f"need m >= 0, got {m}")
    facts = [math.factorial(i) for i in range(m + 1)]
    counts = [0] * (m + 1)  # counts[k]: the permutations of m with k cycles
    # a prefix of parts j >= 2, largest first, with multiplicities: (what is left of m,
    # the largest part still allowed, the parts so far, their factor of z)
    stack = [(m, m, 0, 1)]
    while stack:
        rest, top, k, z = stack.pop()
        counts[k + rest] += facts[m] // (z * facts[rest])  # the partition that ends in rest ones
        for j in range(min(top, rest), 1, -1):
            zj = z
            for c in range(1, rest // j + 1):
                zj *= j * c  # j^c * c!
                stack.append((rest - j * c, j - 1, k + c, zj))
    return DensePoly(Fraction(n if (m - k) % 2 == 0 else -n, facts[m]) for k, n in enumerate(counts))


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
