import pytest
from hypothesis import given, strategies as st

from kraitchik.numtheory import (
    divisors,
    euler_phi,
    factor,
    is_prime,
    is_squarefree,
    jacobi,
    mobius,
    odd_squarefree_range,
    squarefree_decompose,
)


def test_factor_examples():
    assert factor(1) == ()
    assert factor(2) == ((2, 1),)
    assert factor(49) == ((7, 2),)
    assert factor(15) == ((3, 1), (5, 1))
    assert factor(255) == ((3, 1), (5, 1), (17, 1))
    assert factor(360) == ((2, 3), (3, 2), (5, 1))


def test_factor_rejects_nonpositive():
    with pytest.raises(ValueError):
        factor(0)


@given(st.integers(min_value=1, max_value=10**6))
def test_factor_reconstructs(n):
    prod = 1
    for p, e in factor(n):
        assert is_prime(p)
        prod *= p**e
    assert prod == n
    primes = [p for p, _ in factor(n)]
    assert primes == sorted(set(primes))


def test_mobius_examples():
    assert mobius(1) == 1
    assert mobius(5) == -1
    assert mobius(15) == 1
    assert mobius(12) == 0


def test_euler_phi_examples():
    assert euler_phi(1) == 1
    assert euler_phi(15) == 8
    assert euler_phi(5) == 4


def test_jacobi_examples():
    assert jacobi(2, 7) == 1  # squares mod 7 are {1, 2, 4}
    assert jacobi(3, 15) == 0
    assert jacobi(2, 15) == 1  # (2/3)(2/5) = (-1)(-1)
    assert jacobi(7, 1) == 1  # empty-product convention


@pytest.mark.parametrize("bad", [0, -3, 4, 10])
def test_jacobi_rejects_bad_modulus(bad):
    with pytest.raises(ValueError):
        jacobi(2, bad)


def test_divisors_examples():
    assert divisors(1) == [1]
    assert divisors(15) == [1, 3, 5, 15]
    assert divisors(105) == [1, 3, 5, 7, 15, 21, 35, 105]


def test_mobius_and_phi_divisor_sums():
    # sum of mu over divisors detects 1; sum of phi over divisors rebuilds n
    for n in range(1, 10**4 + 1):
        ds = divisors(n)
        assert sum(mobius(e) for e in ds) == (1 if n == 1 else 0)
        assert sum(euler_phi(e) for e in ds) == n


@given(
    st.integers(min_value=-10**6, max_value=10**6),
    st.integers(min_value=-10**6, max_value=10**6),
    st.integers(min_value=0, max_value=499),
)
def test_jacobi_multiplicative_in_numerator(a, b, k):
    n = 2 * k + 1  # odd n <= 10^3
    assert jacobi(a, n) * jacobi(b, n) == jacobi(a * b, n)


def test_jacobi_detects_squares_mod_odd_primes():
    for p in [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]:
        squares = {(x * x) % p for x in range(1, p)}
        for a in range(1, p):
            assert jacobi(a, p) == (1 if a in squares else -1)


@given(st.integers(min_value=1, max_value=10**5))
def test_squarefree_decompose(n):
    s, r = squarefree_decompose(n)
    assert s * s * r == n
    assert is_squarefree(r)


def test_odd_squarefree_range_counts():
    ds = odd_squarefree_range(5, 149)
    assert len(ds) == 59  # 73 odd values minus 14 non-squarefree ones
    assert all(d % 2 == 1 and is_squarefree(d) for d in ds)
    assert odd_squarefree_range(5, 5) == [5]
    assert {105, 165, 195, 231} <= set(odd_squarefree_range(5, 255))
