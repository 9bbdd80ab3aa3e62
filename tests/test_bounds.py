import importlib.util
import math
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kraitchik.bounds as bounds
from kraitchik.bounds import (
    _ceil_half_surd,
    abs_bound_base,
    check_coefficient_bounds,
    check_explicit_bound,
    l1_bound_base,
    rising_factorial_bound,
)
from kraitchik.construct import psi_xi
from kraitchik.numtheory import is_squarefree, odd_squarefree_range, squarefree_decompose
from kraitchik.powersums import DiscriminantContext
from kraitchik.qfield import QuadElem, RadicandMismatch, abs_real, cmp_real, cmp_surd, sign_real

F = Fraction


def ctx(d):
    return DiscriminantContext.for_modulus(d)


def as_quad(bound, r):
    """The integer triple (P, Q, K) of ``rising_factorial_bound`` as (P + Q*sqrt(r))/K."""
    P, Q, K = bound
    return QuadElem(F(P, K), F(Q, K), r)


# -- the exact field-arithmetic path the integer checks replaced, kept as the oracle


def oracle_rising_factorial(base: QuadElem, n: int) -> QuadElem:
    """2*B(B+1)...(B+n-1)/n! in Q(sqrt(r)), exact."""
    return _oracle_product(base.a, base.b, base.r, n)


@lru_cache(maxsize=None)
def _oracle_product(a, b, r, n):
    # memoised along n, one field multiplication per step; keyed on (a, b, r)
    # because QuadElem equality ignores r for rational elements
    if n == 0:
        return QuadElem.rational(2, r)
    return _oracle_product(a, b, r, n - 1) * (QuadElem(a, b, r) + (n - 1)) / n


def oracle_bounds(pair, n) -> tuple[bool, bool]:
    """(abs_ok, l1_ok) by QuadElem/Fraction products and ``abs_real``/``cmp_real``."""
    c = pair.ctx
    a_n, b_n, d = pair.a[n], pair.b_coeff(n), c.d
    bound_abs = oracle_rising_factorial(abs_bound_base(c, n), n)
    bound_l1 = oracle_rising_factorial(l1_bound_base(c, n), n)
    if c.D > 0:
        abs_ok = cmp_real(abs_real(QuadElem(a_n, b_n, d)), bound_abs) <= 0
    else:
        abs_ok = cmp_real(bound_abs * bound_abs, F(a_n * a_n + d * b_n * b_n)) >= 0
    l1_ok = cmp_real(QuadElem(abs(a_n), abs(b_n), d), bound_l1) <= 0
    return abs_ok, l1_ok


def test_base_examples():
    # no divisor of 5 lies in (1, 2], so the surd floor wins
    assert abs_bound_base(ctx(5), 2) == QuadElem(F(1, 2), F(1, 2), 5)
    assert abs_bound_base(ctx(5), 0) == QuadElem(F(1, 2), F(1, 2), 5)
    assert abs_bound_base(ctx(5), 1) == QuadElem(F(1, 2), F(1, 2), 5)
    # d = 15: the floor sqrt(16)/2 collapses to the rational 2 and ties phi(5)/2
    assert abs_bound_base(ctx(15), 5) == F(2)
    assert abs_bound_base(ctx(15), 5).b == 0
    # d = 7: floor sqrt(8)/2 normalizes to sqrt(2)
    assert abs_bound_base(ctx(7), 1) == QuadElem(F(0), F(1), 2)
    # the L1 floor always uses sqrt(d)
    assert l1_bound_base(ctx(7), 1) == QuadElem(F(1, 2), F(1, 2), 7)


def test_base_monotone_in_n():
    for d in (15, 105, 255):
        c = ctx(d)
        prev = None
        for n in range(c.dprime + 1):
            cur = abs_bound_base(c, n)
            if prev is not None:
                assert sign_real(cur - prev) >= 0, (d, n)
            prev = cur


def test_rising_factorial_examples():
    golden = QuadElem(F(1, 2), F(1, 2), 5)
    # uses F^2 = F + 1: 2*F(F+1)/2 = 2 + sqrt(5)
    assert as_quad(rising_factorial_bound(golden, 2), 5) == QuadElem(F(2), F(1), 5)
    assert as_quad(rising_factorial_bound(golden, 0), 5) == F(2)
    assert as_quad(rising_factorial_bound(QuadElem(F(2), 0, 15), 3), 15) == F(8)


def test_rising_factorial_recurrence():
    for base in (QuadElem(F(5, 2), 0, 13), QuadElem(F(1, 2), F(1, 2), 13)):
        for n in range(6):
            lhs = as_quad(rising_factorial_bound(base, n), 13) * (base + n)
            rhs = as_quad(rising_factorial_bound(base, n + 1), 13) * (n + 1)
            assert lhs == rhs


squarefree_radicands = st.integers(min_value=2, max_value=10**4).filter(is_squarefree)


@settings(max_examples=200, deadline=None)
@given(
    p=st.integers(min_value=-50, max_value=10**4),
    q=st.integers(min_value=0, max_value=10**3),
    r=squarefree_radicands,
    n=st.integers(min_value=0, max_value=12),
)
def test_rising_factorial_matches_the_quadelem_product(p, q, r, n):
    base = QuadElem(F(p, 2), F(q, 2), r)
    assert as_quad(rising_factorial_bound(base, n), r) == oracle_rising_factorial(base, n)


def test_rising_factorial_refuses_a_base_off_the_half_integer_grid():
    with pytest.raises(ValueError):
        rising_factorial_bound(QuadElem(F(1, 3), F(1, 2), 5), 2)


def _smallest_ceiling(p, q, r):
    """The smallest c with (p + q*sqrt(r))/2 <= c, by exact comparisons only."""
    s, rr = squarefree_decompose(r)

    def fits(c):
        if rr == 1 or q == 0:
            return F(p + q * s, 2) <= c
        return cmp_surd(F(p, 2), F(q * s, 2), rr, c) <= 0

    c = math.floor((p + q * math.sqrt(r)) / 2)
    while not fits(c):
        c += 1
    while fits(c - 1):
        c -= 1
    return c


@settings(max_examples=300, deadline=None)
@given(
    p=st.integers(min_value=-10**6, max_value=10**6),
    q=st.integers(min_value=0, max_value=10**3),
    r=st.one_of(st.integers(min_value=1, max_value=10**4), st.integers(min_value=1, max_value=100).map(lambda k: k * k)),
)
def test_ceil_half_surd_is_the_smallest_ceiling(p, q, r):
    assert _ceil_half_surd(p, q, r) == _smallest_ceiling(p, q, r)


@pytest.mark.parametrize("p,q,r,want", [(3, 0, 5, 2), (-3, 0, 5, -1), (1, 2, 9, 4), (0, 1, 4, 1), (1, 1, 5, 2), (2, 2, 5, 4)])
def test_ceil_half_surd_examples(p, q, r, want):
    assert _ceil_half_surd(p, q, r) == want


def test_ceil_half_surd_refuses_a_negative_surd_part():
    with pytest.raises(ValueError):
        _ceil_half_surd(1, -1, 5)


def test_coefficient_bounds_match_the_field_oracle(pairs_255):
    checked = 0
    for d in odd_squarefree_range(5, 255):
        pair = pairs_255[d]
        for n in range(pair.ctx.dprime + 1):
            rep = check_coefficient_bounds(pair, n)
            assert (rep.abs_ok, rep.l1_ok) == oracle_bounds(pair, n), (d, n)
            checked += 1
    assert checked > 3000


planted_moduli = st.sampled_from([5, 13, 21, 105, 7, 15, 35, 255])  # D > 0 first, then D < 0


@settings(max_examples=300, deadline=None)
@given(d=planted_moduli, data=st.data())
def test_coefficient_bounds_match_the_oracle_on_planted_coefficients(d, data):
    # real coefficients all lie inside their bounds; planted ones of either
    # sign and any size also exercise the falsifying side of each comparison
    c = ctx(d)
    n = data.draw(st.integers(min_value=0, max_value=c.dprime))
    scale = data.draw(st.sampled_from([3, 40, 10**4, 10**12]))
    a = data.draw(st.integers(min_value=-scale, max_value=scale))
    b = data.draw(st.integers(min_value=-scale, max_value=scale))
    pair = SimpleNamespace(ctx=c, a={n: a}, b_coeff=lambda m: b)
    rep = check_coefficient_bounds(pair, n)
    assert (rep.abs_ok, rep.l1_ok) == oracle_bounds(pair, n)


@pytest.mark.parametrize(
    "d,n,a,b,want",
    [
        (5, 0, -2, 0, (True, True)),  # both bounds are 2 at n = 0
        (5, 0, -3, 0, (False, False)),
        (5, 1, -1, -1, (True, True)),  # |-1 - sqrt(5)| = 1 + sqrt(5), the bound itself
        (5, 1, 0, -2, (False, False)),  # |-2*sqrt(5)| ~ 4.47 > 1 + sqrt(5), both bounds at n = 1
        (5, 1, 2, -1, (True, False)),  # |2 - sqrt(5)| ~ 0.24 is small, its L1 norm 2 + sqrt(5) is not
        (7, 1, 0, -1, (True, True)),  # |i*sqrt(7)| ~ 2.65 <= 2*sqrt(2) ~ 2.83
        (7, 1, 1, -1, (True, True)),  # |1 - i*sqrt(7)| = sqrt(8) and 1 + sqrt(7): both exactly the bound
        (7, 1, 2, -1, (False, False)),
    ],
)
def test_coefficient_bounds_on_planted_examples(d, n, a, b, want):
    pair = SimpleNamespace(ctx=ctx(d), a={n: a}, b_coeff=lambda m: b)
    rep = check_coefficient_bounds(pair, n)
    assert (rep.abs_ok, rep.l1_ok) == want == oracle_bounds(pair, n)


def test_planted_bound_error_falsifies_the_tight_case(monkeypatch):
    # at d = 5, n = 0 both inequalities are equalities (|a_0| = 2 = the bound),
    # so a bound one unit too small must be caught
    real = rising_factorial_bound

    def one_short(base, n):
        P, Q, K = real(base, n)
        return (P - 1, Q, K) if n == 0 else (P, Q, K)

    monkeypatch.setattr(bounds, "rising_factorial_bound", one_short)
    rep = check_coefficient_bounds(psi_xi(5), 0)
    assert rep.verdict == "falsified"
    assert not rep.abs_ok and not rep.l1_ok


def test_bound_in_a_foreign_field_is_refused(monkeypatch):
    monkeypatch.setattr(bounds, "l1_bound_base", lambda c, n: QuadElem(F(1, 2), F(1, 2), 3))
    with pytest.raises(RadicandMismatch):
        check_coefficient_bounds(psi_xi(5), 1)


def test_coefficient_bounds_examples():
    p5 = psi_xi(5)
    for n in range(3):
        rep = check_coefficient_bounds(p5, n)
        assert rep.verdict == "verified", n
    # n = 0 is exactly tight: |a_0| = 2 equals the empty-product bound
    assert check_coefficient_bounds(p5, 0).abs_ok
    p13 = psi_xi(13)
    assert check_coefficient_bounds(p13, 2).verdict == "verified"


def test_coefficient_bounds_reject_out_of_scope():
    with pytest.raises(ValueError):
        check_coefficient_bounds(psi_xi(3), 0)
    with pytest.raises(ValueError):
        check_coefficient_bounds(psi_xi(5), 3)


def test_explicit_bound_examples():
    p5 = psi_xi(5)
    assert check_explicit_bound(p5, 1).verdict == "verified"
    assert check_explicit_bound(p5, 2).verdict == "verified"
    p7 = psi_xi(7)
    rep = check_explicit_bound(p7, 1)
    assert rep.verdict == "verified"
    assert rep.verdict_disc_radicand == "verified"
    assert check_explicit_bound(psi_xi(13), 3).verdict == "verified"


def test_explicit_bound_rejects_n_zero():
    with pytest.raises(ValueError):
        check_explicit_bound(psi_xi(5), 0)


def test_explicit_bound_unresolved_below_ladder():
    # a ceiling below the 64-bit ladder start means no enclosure is ever built
    rep = check_explicit_bound(psi_xi(5), 1, max_precision=32)
    assert rep.verdict == "unresolved"


def test_explicit_bound_refuses_a_ceiling_above_the_cap(monkeypatch):
    # the cap holds for library callers too, and before any enclosure is built
    def refuse(*args):
        raise AssertionError("interval work ran")

    monkeypatch.setattr(bounds, "_three_bounds", refuse)
    with pytest.raises(ValueError, match="max_precision"):
        check_explicit_bound(psi_xi(5), 1, max_precision=65537)


def test_suite_small_range(pairs_149):
    for d in (5, 7, 15, 21, 33, 105):
        pair = pairs_149[d]
        for n in range(pair.ctx.dprime + 1):
            assert check_coefficient_bounds(pair, n).verdict == "verified", (d, n)
        for n in range(1, pair.ctx.dprime + 1):
            assert check_explicit_bound(pair, n).verdict == "verified", (d, n)


def test_coefficient_growth_script_prints_one_line_per_modulus(capsys):
    path = Path(__file__).resolve().parent.parent / "scripts" / "coefficient_growth.py"
    spec = importlib.util.spec_from_file_location("coefficient_growth", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.main(["--dmax", "15"]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split()[0] == "d"
    assert [int(row.split()[0]) for row in rows] == odd_squarefree_range(5, 15)
    # d = 5, n = 1: the bound 2*(1 + sqrt(5))/2 ~ 3.236
    assert rows[0].split()[-1] == "3.236e+00"
