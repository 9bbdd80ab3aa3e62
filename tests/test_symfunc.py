import math
import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st
from oracles import falling_factorial_poly, partition_weights, partitions, pm_polynomial_by_weights

from kraitchik.cli import SYMFUNC_MAX_M
from kraitchik.symfunc import elementary_brute, newton_elementary, pm_polynomial, power_sums_of

F = Fraction


@lru_cache(maxsize=None)
def recursive_weight(parts) -> Fraction:
    """Independent oracle: w_e = (1/m) * sum over the distinct part values j of e of
    w_(e minus one copy of j), from w_() = 1.

    The recursion distributes m*w_e over the distinct part values of e (removing one
    copy of each); summing over all positions instead would count repeated parts with
    multiplicity and already fails at m = 2, where S^(2) = (S_1^2 - S_2)/2 forces
    w_(1,1) = 1/2.
    """
    if not parts:
        return F(1)
    acc = F(0)
    for j in sorted(set(parts)):
        shorter = list(parts)
        shorter.remove(j)
        acc += recursive_weight(tuple(shorter))
    return acc / sum(parts)


def test_partitions_enumeration():
    assert list(partitions(0)) == [()]
    assert sorted(partitions(4)) == [(1, 1, 1, 1), (1, 1, 2), (1, 3), (2, 2), (4,)]
    assert len(list(partitions(10))) == 42  # p(10)


def test_weight_tables_small():
    assert partition_weights(1) == {(1,): F(1)}
    assert partition_weights(2) == {(1, 1): F(1, 2), (2,): F(1, 2)}
    assert partition_weights(3) == {
        (1, 1, 1): F(1, 6),
        (1, 2): F(1, 2),
        (3,): F(1, 3),
    }


def test_weights_match_closed_form():
    # the closed form 1/z_e against the recursion, on all 2713 partitions of m <= 20
    weights = [(e, w) for m in range(1, 21) for e, w in partition_weights(m).items()]
    assert len(weights) == 2713
    assert [e for e, w in weights if w != recursive_weight(e)] == []


def test_weights_positive():
    for m in range(1, 13):
        assert all(w > 0 for w in partition_weights(m).values())


def test_v_anchors():
    # [X^m] counts the one permutation of type (1, ..., 1); [X^1] the (m-1)! m-cycles, with sign (-1)^(m-1)
    for m in range(1, 21):
        counts = pm_polynomial(m)
        assert counts[m] == 1
        assert counts[1] == (-1) ** (m - 1) * math.factorial(m - 1)


def test_pm_polynomial_examples():
    assert pm_polynomial(0) == [1]
    assert pm_polynomial(2) == [0, -1, 1]
    assert pm_polynomial(5) == falling_factorial_poly(5) == [0, 24, -50, 35, -10, 1]


def test_pm_polynomial_matches_weight_sum():
    # the integer counts m!/z against one Fraction weight 1/z per partition, at every m the CLI accepts
    for m in range(SYMFUNC_MAX_M + 1):
        counts = pm_polynomial(m)
        assert counts == [c * math.factorial(m) for c in pm_polynomial_by_weights(m).coeffs], m
        # |[X^k]| counts the permutations of m with k cycles: together, all m! of them
        assert sum(map(abs, counts)) == math.factorial(m), m


def test_newton_examples():
    # power sums of {1, 2, 3} -> coefficients of (X+1)(X+2)(X+3)
    assert newton_elementary([6, 14, 36]) == [F(1), F(6), F(11), F(6)]
    # a single value x: e_1 = x, higher ones vanish
    x = F(3, 2)
    es = newton_elementary([x**j for j in range(1, 6)])
    assert es[0] == 1 and es[1] == x and all(e == 0 for e in es[2:])
    # two symbolic-ish sums: e_2 = (s^2 - t)/2
    s, t = F(7, 3), F(-4, 5)
    assert newton_elementary([s, t])[2] == (s * s - t) / 2


def test_elementary_brute_examples():
    assert elementary_brute([1, 2, 3], 2) == 11
    assert elementary_brute([5, 7], 0) == 1
    assert elementary_brute([F(1, 2)], 2) == 0


@settings(max_examples=150)
@given(
    st.lists(
        st.fractions(min_value=-5, max_value=5, max_denominator=6),
        min_size=0,
        max_size=6,
    )
)
def test_newton_matches_brute_force(values):
    es = newton_elementary(power_sums_of(values, len(values)))
    for m in range(len(values) + 1):
        assert es[m] == elementary_brute(values, m)


def test_weight_expansion_reconstructs_elementary():
    # sum over partitions of (-1)^(m-k) w_e prod S_{e_i} must equal e_m
    rng = random.Random(31)
    for m in range(1, 9):
        sums = [F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(m)]
        total = F(0)
        for e, w in partition_weights(m).items():
            prod = F(1)
            for part in e:
                prod *= sums[part - 1]
            total += (-1) ** (m - len(e)) * w * prod
        assert total == newton_elementary(sums)[m]


def test_input_validation():
    with pytest.raises(ValueError):
        partition_weights(0)
    with pytest.raises(ValueError):
        pm_polynomial(-1)
    with pytest.raises(ValueError):
        elementary_brute([1], -2)
