"""Elementary number-theoretic helpers: factoring, Mobius, totient, Jacobi symbol.

``factor(n)`` returns n's prime-power tuple ``((p, e), ...)`` with the primes
strictly increasing, found by trial division and cached; the other helpers
read it.  Inputs stay at desk scale (a few times 10^6 at most), so no
probabilistic primality testing or faster factoring is needed.
"""

from __future__ import annotations

from functools import lru_cache


@lru_cache(maxsize=None)
def factor(n: int) -> tuple[tuple[int, int], ...]:
    """The prime powers ``(p, e)`` of a positive integer, primes increasing; ``factor(1) == ()``."""
    if n < 1:
        raise ValueError(f"cannot factor nonpositive integer {n}")
    m = n
    out: list[tuple[int, int]] = []
    p = 2
    # every prime factor of m is >= p, so once p*p > m the m left over is 1 or a prime
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if m > 1:
        out.append((m, 1))
    return tuple(out)


def is_prime(n: int) -> bool:
    return n >= 2 and factor(n) == ((n, 1),)


def mobius(n: int) -> int:
    """Mobius mu: 0 for non-squarefree n, else (-1)**(number of prime factors)."""
    fs = factor(n)
    if any(e > 1 for _, e in fs):
        return 0
    return -1 if len(fs) % 2 else 1


def euler_phi(n: int) -> int:
    phi = 1
    for p, e in factor(n):
        phi *= (p - 1) * p ** (e - 1)
    return phi


def is_squarefree(n: int) -> bool:
    return all(e == 1 for _, e in factor(n))


def squarefree_decompose(n: int) -> tuple[int, int]:
    """Write ``n = s*s * r`` with r squarefree; returns ``(s, r)``."""
    if n < 1:
        raise ValueError(f"need a positive integer, got {n}")
    s = 1
    r = 1
    for p, e in factor(n):
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
    for p, e in factor(n):
        ds = [d * p**k for d in ds for k in range(e + 1)]
    return sorted(ds)


def odd_squarefree_range(lo: int, hi: int) -> list[int]:
    """Odd squarefree integers in the inclusive range [lo, hi]."""
    start = max(lo, 1)
    if start % 2 == 0:
        start += 1
    return [d for d in range(start, hi + 1, 2) if is_squarefree(d)]
