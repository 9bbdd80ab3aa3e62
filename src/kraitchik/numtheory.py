"""Elementary number-theoretic helpers: factoring, Mobius, totient, Jacobi symbol.

Everything here is deterministic trial-division arithmetic.  Inputs stay at
desk scale (a few times 10^6 at most), so no probabilistic primality testing
or fancy factoring is needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache


@dataclass(frozen=True)
class Factorization:
    """Prime factorization ``n = prod(p**e)`` with primes strictly increasing."""

    n: int
    factors: tuple[tuple[int, int], ...]


@lru_cache(maxsize=None)
def factor(n: int) -> Factorization:
    """Factor a positive integer by trial division.  ``factor(1)`` has no factors."""
    if n < 1:
        raise ValueError(f"cannot factor nonpositive integer {n}")
    m = n
    out: list[tuple[int, int]] = []
    for p in (2, 3):
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
    p = 5
    # 6k +- 1 wheel; p*p > m terminates since m shrinks only by prime divisors
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
        p += 2 if p % 6 == 5 else 4
    if m > 1:
        out.append((m, 1))
    return Factorization(n, tuple(out))


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    f = factor(n).factors
    return len(f) == 1 and f[0][1] == 1


def mobius(n: int) -> int:
    """Mobius mu: 0 for non-squarefree n, else (-1)**(number of prime factors)."""
    fs = factor(n).factors
    if any(e > 1 for _, e in fs):
        return 0
    return -1 if len(fs) % 2 else 1


def euler_phi(n: int) -> int:
    phi = 1
    for p, e in factor(n).factors:
        phi *= (p - 1) * p ** (e - 1)
    return phi


def is_squarefree(n: int) -> bool:
    return all(e == 1 for _, e in factor(n).factors)


def squarefree_decompose(n: int) -> tuple[int, int]:
    """Write ``n = s*s * r`` with r squarefree; returns ``(s, r)``."""
    if n < 1:
        raise ValueError(f"need a positive integer, got {n}")
    s = 1
    r = 1
    for p, e in factor(n).factors:
        s *= p ** (e // 2)
        if e % 2:
            r *= p
    return s, r


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd positive n, by quadratic reciprocity.

    Zero exactly when gcd(a, n) > 1; (a/1) = 1 by the empty-product convention.
    """
    if n <= 0 or n % 2 == 0:
        raise ValueError(f"Jacobi symbol needs an odd positive modulus, got {n}")
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    ds = [1]
    for p, e in factor(n).factors:
        ds = [d * p**k for d in ds for k in range(e + 1)]
    return sorted(ds)


def odd_squarefree_range(lo: int, hi: int) -> list[int]:
    """Odd squarefree integers in the inclusive range [lo, hi]."""
    start = max(lo, 1)
    if start % 2 == 0:
        start += 1
    return [d for d in range(start, hi + 1, 2) if is_squarefree(d)]
