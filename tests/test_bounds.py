import dataclasses
import importlib.util
import math
import random
import sys
from collections import Counter
from fractions import Fraction
from functools import lru_cache, partial
from pathlib import Path
from types import SimpleNamespace

import interval_oracle
import mpmath
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import Quad, growth_base, surd_base

import kraitchik.bounds as bounds
import kraitchik.cli as cli
import kraitchik.powersums as powersums
import kraitchik.ratio as ratio
from kraitchik.bounds import (
    _ceil_half_surd,
    _floor_half_surd,
    abs_bound_base,
    check_coefficient_bounds,
    check_explicit_bound,
    coefficient_bounds_pass,
    doubled_parts,
    explicit_bound_pass,
    l1_bound_base,
    rising_factorial_bound,
)
from kraitchik.construct import psi_xi
from kraitchik.interval import DEFAULT_MAX_PRECISION, FIRST_RUNG, GUARD_BITS, DyadicInterval, decide, precision_ladder
from kraitchik.numtheory import is_squarefree, jacobi, mobius, odd_squarefree_range, squarefree_decompose
from kraitchik.powersums import DiscriminantContext
from kraitchik.qfield import QuadElem, RadicandMismatch, abs_real, cmp_real, cmp_surd

F = Fraction


def ctx(d):
    return DiscriminantContext.for_modulus(d)


def as_quad(bound, r):
    """The integer triple (P, Q, K) of ``rising_factorial_bound`` as (P + Q*sqrt(r))/K."""
    P, Q, K = bound
    return Quad(F(P, K), F(Q, K), r)


# -- the exact field-arithmetic path the integer checks replaced, kept as the oracle


@lru_cache(maxsize=None)
def oracle_rising_factorial(base: QuadElem, n: int) -> Quad:
    """2*B(B+1)...(B+n-1)/n! in Q(sqrt(r)), exact; memoised along n, one field
    multiplication per step."""
    if n == 0:
        return Quad(2, 0, base.r)
    return oracle_rising_factorial(base, n - 1) * (Quad(base.a, base.b, base.r) + (n - 1)) / n


def oracle_bounds(pair, n) -> tuple[bool, bool, int, int]:
    """(abs_ok, l1_ok, abs_sign, l1_sign) by Quad/Fraction products and ``abs_real``/``cmp_real``:
    each sign is that of the bound minus the coefficient's size, so a bound holds at a sign >= 0
    and is an equality at 0."""
    c = pair.ctx
    a_n, b_n, d = pair.a[n], pair.b_coeff(n), c.d
    bound_abs = oracle_rising_factorial(abs_bound_base(c, n), n)
    bound_l1 = oracle_rising_factorial(l1_bound_base(c, n), n)
    if c.D > 0:
        abs_sign = -cmp_real(abs_real(QuadElem(a_n, b_n, d)), bound_abs)
    else:
        abs_sign = cmp_real(bound_abs * bound_abs, F(a_n * a_n + d * b_n * b_n))
    l1_sign = -cmp_real(QuadElem(abs(a_n), abs(b_n), d), bound_l1)
    return abs_sign >= 0, l1_sign >= 0, abs_sign, l1_sign


def tight_by_rule(c: DiscriminantContext, n: int) -> tuple[bool, bool]:
    """(abs, l1): whether the equality rule of the coefficient bounds puts an equality at n."""
    if n == 0:
        return True, True
    if n == 1:
        return not (c.D > 0 and mobius(c.d) == 1), True
    tight = c.D > 0 and mobius(c.d) == -1 and all(jacobi(k, c.d) == 1 for k in range(2, n + 1))
    return tight, tight


def test_base_examples():
    # no divisor of 5 lies in (1, 2], so the surd floor wins
    assert abs_bound_base(ctx(5), 2) == QuadElem(F(1, 2), F(1, 2), 5)
    assert abs_bound_base(ctx(5), 0) == QuadElem(F(1, 2), F(1, 2), 5)
    assert abs_bound_base(ctx(5), 1) == QuadElem(F(1, 2), F(1, 2), 5)
    # d = 15: the floor sqrt(16)/2 collapses to the rational 2 and ties phi(5)/2
    assert abs_bound_base(ctx(15), 5) == QuadElem(2, 0, 15)
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
                assert cmp_real(cur, prev) >= 0, (d, n)
            prev = cur


def test_growth_bases_match_the_per_divisor_oracle():
    # every odd squarefree d <= 255, and d = 1155, whose abs floor sqrt(1 + 1155)/2 = 17 is rational
    checked = 0
    for d in odd_squarefree_range(3, 255) + [1155]:
        c = ctx(d)
        if c.D > 0:
            abs_floor = surd_base(1, 1, d, d)
        else:
            abs_floor = surd_base(0, 1, 1 + d, d)
        l1_floor = surd_base(1, 1, d, d)
        for n in range(c.dprime + 2):
            assert abs_bound_base(c, n) == growth_base(c, n, abs_floor), (d, n)
            assert l1_bound_base(c, n) == growth_base(c, n, l1_floor), (d, n)
            checked += 1
    assert abs_bound_base(ctx(1155), 0) == QuadElem(17, 0, 1155)
    assert checked == 6111


def test_rising_factorial_examples():
    golden = QuadElem(F(1, 2), F(1, 2), 5)
    # uses F^2 = F + 1: 2*F(F+1)/2 = 2 + sqrt(5)
    assert as_quad(rising_factorial_bound(golden, 2), 5) == QuadElem(F(2), F(1), 5)
    assert as_quad(rising_factorial_bound(golden, 0), 5) == F(2)
    assert as_quad(rising_factorial_bound(QuadElem(F(2), 0, 15), 3), 15) == F(8)


def test_rising_factorial_recurrence():
    for base in (Quad(F(5, 2), 0, 13), Quad(F(1, 2), F(1, 2), 13)):
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


def direct_rising_factorial(p, q, r, n):
    """The product loop over the factors (p + 2i, q)/2, i < n, with K = 2^n * n!."""
    P, Q = 2, 0
    for i in range(n):
        u = p + 2 * i
        P, Q = P * u + Q * q * r, P * q + Q * u
    return P, Q, math.factorial(n) << n


def test_rising_prefix_gives_the_same_bound_in_any_call_order():
    # more base triples than the prefix cache holds, interleaved, each asked from a cold cache
    # at shuffled, then descending, then repeated n: every answer is the direct product loop's
    rng = random.Random(5)
    held = bounds._rising_prefix.cache_parameters()["maxsize"]
    triples = [(rng.randrange(-9, 60), rng.randrange(0, 9), rng.choice([2, 3, 5, 13, 105])) for _ in range(held + 3)]
    calls = []
    for triple in triples:
        ns = list(range(14))
        rng.shuffle(ns)
        calls += [(triple, n) for n in ns + sorted(ns, reverse=True) + rng.choices(ns, k=6)]
    rng.shuffle(calls)
    bounds._rising_prefix.cache_clear()
    for (p, q, r), n in calls:
        assert rising_factorial_bound(QuadElem(F(p, 2), F(q, 2), r), n) == direct_rising_factorial(p, q, r, n)
    assert bounds._rising_prefix.cache_info().currsize == held


def test_every_cache_in_bounds_is_bounded():
    caches = {name: obj for name, obj in vars(bounds).items()
              if hasattr(obj, "cache_parameters") and obj.__module__ == bounds.__name__}
    assert {"_growth_plan", "_rising_prefix"} <= set(caches)
    assert all(cache.cache_parameters()["maxsize"] is not None for cache in caches.values()), caches


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


HALF_SURDS = dict(
    p=st.integers(min_value=-10**6, max_value=10**6),
    q=st.integers(min_value=0, max_value=10**3),
    r=st.one_of(st.integers(min_value=1, max_value=10**4), st.integers(min_value=1, max_value=100).map(lambda k: k * k)),
)


@settings(max_examples=300, deadline=None)
@given(**HALF_SURDS)
def test_ceil_half_surd_is_the_smallest_ceiling(p, q, r):
    assert _ceil_half_surd(p, q, r) == _smallest_ceiling(p, q, r)


@settings(max_examples=300, deadline=None)
@given(**HALF_SURDS)
def test_floor_half_surd_is_the_largest_floor(p, q, r):
    # the coarse strict bound's ln(floor(F) + n - 1) is a lower end only if this is no larger than F
    c = _smallest_ceiling(p, q, r)
    s = math.isqrt(r)
    integral = (q == 0 or s * s == r) and F(p + q * s, 2) == c
    assert _floor_half_surd(p, q, r) == (c if integral else c - 1)


@pytest.mark.parametrize("p,q,r,want", [(3, 0, 5, 2), (-3, 0, 5, -1), (1, 2, 9, 4), (0, 1, 4, 1), (1, 1, 5, 2), (2, 2, 5, 4)])
def test_ceil_half_surd_examples(p, q, r, want):
    assert _ceil_half_surd(p, q, r) == want


def test_ceil_half_surd_refuses_a_negative_surd_part():
    with pytest.raises(ValueError):
        _ceil_half_surd(1, -1, 5)


def test_coefficient_bounds_match_the_field_oracle(pairs_255):
    checked, equalities = 0, Counter()
    for d in odd_squarefree_range(5, 255):
        pair = pairs_255[d]
        for n in range(pair.ctx.dprime + 1):
            rep = check_coefficient_bounds(pair, n)
            abs_ok, l1_ok, abs_sign, l1_sign = oracle_bounds(pair, n)
            assert (rep.abs_ok, rep.l1_ok) == (abs_ok, l1_ok), (d, n)
            # the equality rule: a sign of 0 exactly where it puts one
            assert (abs_sign == 0, l1_sign == 0) == tight_by_rule(pair.ctx, n), (d, n)
            equalities.update((kind, min(n, 2)) for kind, sign in (("abs", abs_sign), ("l1", l1_sign)) if sign == 0)
            checked += 1
    assert checked > 3000
    # per bound and n = 0, 1, >= 2, over the 103 moduli
    assert equalities == {("abs", 0): 103, ("abs", 1): 79, ("abs", 2): 21, ("l1", 0): 103, ("l1", 1): 103, ("l1", 2): 21}


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
    assert (rep.abs_ok, rep.l1_ok) == oracle_bounds(pair, n)[:2]


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
    assert (rep.abs_ok, rep.l1_ok) == want == oracle_bounds(pair, n)[:2]


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


def refuse_interval_work(monkeypatch):
    def refuse(*args):
        raise AssertionError("interval work ran")

    # the iv_* operations, and the bare-mantissa kernel of the per-modulus pass
    for name in dir(bounds):
        if name.startswith("iv_") or name in ("ln_mantissas", "_min_log_t"):
            monkeypatch.setattr(bounds, name, refuse)


def test_explicit_bound_refuses_a_ceiling_above_the_cap(monkeypatch):
    # the cap holds for library callers too, and before any enclosure is built
    refuse_interval_work(monkeypatch)
    with pytest.raises(ValueError, match="max_precision"):
        check_explicit_bound(psi_xi(5), 1, max_precision=65537)


# -- the strict bound in its direct form, over the Fraction-endpoint oracle


def direct_verdicts(pair, n, max_precision=4096) -> tuple[str, str]:
    """(verdict, verdict_disc_radicand) of |a_n + b_n*sqrt(d)| < min(t1, t2, t3) with the
    t_i as products of powers, through the same ``decide`` and ladder as the log form."""
    ctx = pair.ctx
    base = abs_bound_base(ctx, n)
    a_n, b_n, d = pair.a[n], pair.b_coeff(n), ctx.d
    iv, to_m = interval_oracle, interval_oracle.to_mantissas

    def min_bound(prec):  # the right side of both cases, built once per case and rung
        ts = [to_m(t) for t in iv.three_bounds(base, n, prec)]
        return DyadicInterval(min(t.lo_m for t in ts), min(t.hi_m for t in ts), prec)

    aa, bb = (a_n, b_n) if cmp_surd(a_n, b_n, d, 0) >= 0 else (-a_n, -b_n)
    mod_sq = a_n * a_n + d * b_n * b_n
    cases = [(lambda p: to_m(iv.iv_from_surd(aa, bb, d, p)), min_bound)]
    if ctx.D < 0:
        cases.append((lambda p: to_m(iv.iv_sqrt(iv.iv_from_rat(mod_sq, p), p)), min_bound))
    verdict, *disc = [decision.verdict for decision in decide(cases, precision_ladder(max_precision))]
    return verdict, disc[0] if disc else verdict


def test_log_form_verdicts_match_the_direct_form(pairs_149):
    checked = 0
    for d, pair in pairs_149.items():
        for n in range(1, pair.ctx.dprime + 1):
            rep = check_explicit_bound(pair, n)
            assert (rep.verdict, rep.verdict_disc_radicand) == direct_verdicts(pair, n), (d, n)
            checked += 1
    assert checked == 1905


def reference_log_bounds(base, n) -> list:
    """ln t1, ln t2, ln t3 from the direct form, at mpmath's working precision."""
    F = mpmath.mpf(base.a.numerator) / base.a.denominator
    F += mpmath.mpf(base.b.numerator) / base.b.denominator * mpmath.sqrt(base.r)
    stir2 = 2 * mpmath.exp(1 / (6 * (F + n)))
    epi = mpmath.e * mpmath.pi
    t1 = mpmath.sqrt(stir2 / (epi * n)) * (mpmath.e * (F + n - 1) / (F - 1)) ** (F - mpmath.mpf(1) / 2)
    t2 = mpmath.sqrt(stir2 / (epi * (F - 1))) * (mpmath.e * (F + n - 1) / n) ** (n + mpmath.mpf(1) / 2)
    return [mpmath.log(t) for t in (t1, t2, mpmath.mpf(2) ** (F + n))]


# D > 0 and D < 0, a rational base (d = 15, n = 5), and t_i past 2^1024 at d = 6997
LOG_SAMPLE = [(5, 1), (5, 2), (7, 3), (13, 6), (15, 5), (105, 24), (255, 64), (6997, 1), (6997, 3000)]


@pytest.mark.parametrize("prec", [64, 256])
def test_log_bounds_contain_the_mpmath_logarithms(prec):
    with mpmath.workprec(2 * prec + 128):  # at least 50 digits, and finer than the enclosures
        for d, n in LOG_SAMPLE:
            base = abs_bound_base(ctx(d), n)
            ts = oracles.log_bounds(base, n, prec)
            for got, ref in zip(ts, reference_log_bounds(base, n)):
                got = interval_oracle.as_fractions(got)
                lo, hi = got.lo, got.hi
                assert mpmath.mpf(lo.numerator) / lo.denominator <= ref <= mpmath.mpf(hi.numerator) / hi.denominator
                assert got.width < F(1, 2 ** (prec - 16)), (d, n)
            # the pass's kernel is the minimum of the same three enclosures, bit for bit
            key = doubled_parts(base)
            got = bounds._min_log_t(key, n, prec)
            assert (got.lo_m, got.hi_m, got.prec) == (min(t.lo_m for t in ts), min(t.hi_m for t in ts), prec), (d, n)


@pytest.mark.parametrize("d", [5, 7])  # D > 0, then D < 0
def test_zero_left_side_is_verified_without_a_logarithm(d, monkeypatch):
    # no real a_n = b_n = 0 for d <= 2000, so plant one; ln 0 has no enclosure
    pair, n = psi_xi(d), 2
    planted = dataclasses.replace(pair, a=pair.a[:n] + (0,) + pair.a[n + 1 :], b=pair.b[: n - 1] + (0,) + pair.b[n:])
    assert (planted.a[n], planted.b_coeff(n)) == (0, 0)
    assert direct_verdicts(planted, n) == ("verified", "verified")
    refuse_interval_work(monkeypatch)
    rep = check_explicit_bound(planted, n)
    assert (rep.verdict, rep.verdict_disc_radicand) == ("verified", "verified")
    with pytest.raises(ValueError, match="max_precision"):
        check_explicit_bound(planted, n, max_precision=65537)


# -- the per-modulus pass against the per-n paths it replaced


def test_coefficient_pass_matches_the_field_oracle(pairs_255):
    # the carried triples over every n of a modulus, against the Quad product at each n alone
    checked = 0
    for d, pair in pairs_255.items():
        for rep in coefficient_bounds_pass(pair):
            assert (rep.d, rep.abs_ok, rep.l1_ok) == (d, *oracle_bounds(pair, rep.n)[:2]), (d, rep.n)
            checked += 1
    assert checked == sum(p.ctx.dprime + 1 for p in pairs_255.values()) > 5000


def pass_inputs(pair, n) -> tuple:
    """(key, aa, bb, mod_sq) as the pass forms them at (d, n): the growth base's integers
    (p, q, r), the left side a_n + b_n*sqrt(d) signed to be positive, and a_n^2 + d*b_n^2."""
    a_n, b_n, d = pair.a[n], pair.b_coeff(n), pair.ctx.d
    base = abs_bound_base(pair.ctx, n)
    aa, bb = (a_n, b_n) if cmp_surd(a_n, b_n, d, 0) >= 0 else (-a_n, -b_n)
    return doubled_parts(base), aa, bb, a_n * a_n + d * b_n * b_n


def coarse_sides(pair, n, prec=FIRST_RUNG) -> tuple[list, int]:
    """The coarse stage's upper end of each variant's left side, and its lower end of the right
    side, at (d, n), as mantissas."""
    key, aa, bb, mod_sq = pass_inputs(pair, n)
    lhs = [bounds._ln_surd_above(aa, bb, pair.ctx.d, prec)]
    lhs += [bounds._half_ln_int_above(mod_sq, prec)] if pair.ctx.D < 0 else []
    return lhs, bounds._coarse_min_log_t(key, bounds._floor_half_surd(*key), n, prec).lo_m


def fine_sides(pair, n, prec=FIRST_RUNG) -> tuple[list, DyadicInterval]:
    """The enclosures ``decide`` builds at (d, n) on rung ``prec``: each variant's left side, then the right side."""
    key, aa, bb, mod_sq = pass_inputs(pair, n)
    lhs = [bounds._ln_surd(aa, bb, pair.ctx.d, prec)]
    lhs += [bounds._half_ln_int(mod_sq, prec)] if pair.ctx.D < 0 else []
    return lhs, bounds._min_log_t(key, n, prec)


def coarsely_settled(pair, n) -> bool:
    lhs, rhs_lo = coarse_sides(pair, n)
    return max(lhs) < rhs_lo


def test_coarse_bounds_lie_outside_the_first_rung_enclosures(pairs_255):
    # every case of d <= 255, both variants: the coarse left side's upper end is at or above the
    # rung-64 enclosure's, the coarse right side's lower end at or below _min_log_t's, so no
    # coarse verdict is one the first rung could contradict
    checked = 0
    for d, pair in pairs_255.items():
        for n in range(1, pair.ctx.dprime + 1):
            (lhs_up, rhs_lo), (lhs, rhs) = coarse_sides(pair, n), fine_sides(pair, n)
            assert len(lhs_up) == len(lhs) and all(up >= box.hi_m for up, box in zip(lhs_up, lhs)), (d, n)
            assert rhs_lo <= rhs.lo_m, (d, n)
            checked += len(lhs)
    assert checked > 5660


def test_coarse_bounds_contain_the_mpmath_logarithms(pairs_255):
    # the right side at every sample; the left side where the sample has a coefficient, which
    # (15, 5) past d' = 4 has not
    scale = mpmath.mpf(2) ** -(FIRST_RUNG + GUARD_BITS)
    pairs = {**pairs_255, 6997: psi_xi(6997)}
    with mpmath.workprec(1024):  # past the cancellation in a_n + b_n*sqrt(d)
        for d, n in LOG_SAMPLE:
            base = abs_bound_base(ctx(d), n)
            key = doubled_parts(base)
            rhs_lo = bounds._coarse_min_log_t(key, bounds._floor_half_surd(*key), n, FIRST_RUNG).lo_m
            assert rhs_lo * scale <= min(reference_log_bounds(base, n)), (d, n)
            pair = pairs[d]
            if n > pair.ctx.dprime:
                continue
            a_n, b_n = pair.a[n], pair.b_coeff(n)
            refs = [mpmath.log(abs(a_n + b_n * mpmath.sqrt(d)))]
            refs += [mpmath.log(a_n * a_n + d * b_n * b_n) / 2] if pair.ctx.D < 0 else []
            lhs_up = coarse_sides(pair, n)[0]
            assert len(refs) == len(lhs_up) and all(ref <= up * scale for ref, up in zip(refs, lhs_up)), (d, n)


@pytest.mark.parametrize("max_precision", [DEFAULT_MAX_PRECISION, 32])
def test_explicit_pass_matches_the_per_n_oracle(pairs_255, max_precision, monkeypatch):
    # every (d, n) of odd squarefree d <= 255: both variants' verdicts against the per-n decide
    # path.  An n the coarse stage settles is verified and builds no fine enclosure; every other
    # n reaches decide, and the enclosures the pass built for it on its first rung match that
    # path's, mantissa for mantissa.  decide calls each open case's lhs, then its rhs, so the
    # enclosures compare as a multiset, with _min_log_t built once per case and rung: twice per
    # open n when D < 0.  Under 32 bits the ladder has no rung: nothing is built, coarse or
    # fine, and nothing resolves
    built = []

    def record(name):
        real = getattr(bounds, name)

        def wrapper(*args):
            out = real(*args)
            built.append((name, args, (out.lo_m, out.hi_m, out.prec)))
            return out

        monkeypatch.setattr(bounds, name, wrapper)

    fine = ("_min_log_t", "_ln_surd", "_half_ln_int")
    for name in fine + ("_coarse_min_log_t",):
        record(name)
    first = precision_ladder(max_precision)[:1]
    checked = settled = 0
    for d, pair in pairs_255.items():
        built.clear()
        want = []
        for rep in explicit_bound_pass(pair, max_precision):
            assert rep.d == d and (first or (rep.verdict, rep.verdict_disc_radicand) == ("unresolved",) * 2)
            assert (rep.verdict, rep.verdict_disc_radicand) == oracles.explicit_bound_verdicts(
                pair, rep.n, max_precision
            ), (d, rep.n)
            checked += 1
            if first and coarsely_settled(pair, rep.n):
                settled += 1
                continue
            lhs, lhs_disc, rhs = oracles.explicit_bound_sides(pair, rep.n)
            sides = [("_ln_surd", lhs), ("_min_log_t", rhs)]
            sides += [("_half_ln_int", lhs_disc), ("_min_log_t", rhs)] if lhs_disc else []
            want += [(name, p, (side(p).lo_m, side(p).hi_m, p)) for p in first for name, side in sides]
        on_first = [(name, args[-1], out) for name, args, out in built if name in fine and args[-1] in first]
        assert Counter(on_first) == Counter(want), d
        rhs_built = Counter((args[1], args[-1]) for name, args, _ in built if name == "_min_log_t")
        assert max(rhs_built.values(), default=1) <= (2 if pair.ctx.D < 0 else 1), d  # once per case and rung
    assert checked == sum(p.ctx.dprime for p in pairs_255.values()) > 5000
    if first:
        assert settled > 0.95 * checked  # most n never reach decide: 5513 of 5660
    else:
        assert built == [] and settled == 0


def planted(pair, n: int, a: int, b: int = 0):
    """``pair`` with (a_n, b_n) replaced by (a, b)."""
    return dataclasses.replace(pair, a=pair.a[:n] + (a,) + pair.a[n + 1 :], b=pair.b[: n - 1] + (b,) + pair.b[n:])


def falsified_at(reports) -> list[int]:
    return [r.n for r in reports if r.verdict != "verified"]


def test_a_coefficient_just_past_its_bound_is_falsified_at_that_n_only():
    # d = 105: from n = 21 the base is phi(21)/2 = 6, so the bound 2*(6)_n/n! = 2*C(n + 5, 5) is an integer
    pair, n = psi_xi(105), 22
    bound = 2 * math.comb(n + 5, 5)
    assert abs_bound_base(pair.ctx, n) == QuadElem(6, 0, 105) and bound == 161460
    tight, past = planted(pair, n, bound), planted(pair, n, bound + 1)
    assert falsified_at(coefficient_bounds_pass(tight)) == []
    assert falsified_at(coefficient_bounds_pass(past)) == [n]
    assert falsified_at(check_coefficient_bounds(past, m) for m in range(pair.ctx.dprime + 1)) == [n]


@pytest.mark.parametrize("d,n", [(105, 22), (35, 6)])  # D > 0, then D < 0 with both variants
def test_a_coefficient_just_past_the_strict_bound_is_falsified_at_that_n_only(d, n):
    pair = psi_xi(d)
    with mpmath.workdps(60):
        mint = mpmath.exp(min(reference_log_bounds(abs_bound_base(pair.ctx, n), n)))
        edge = int(mpmath.floor(mint))
        assert edge + 1e-9 < mint < edge + 1 - 1e-9
    inside, past = planted(pair, n, edge), planted(pair, n, edge + 1)
    reps = explicit_bound_pass(past)
    assert falsified_at(explicit_bound_pass(inside)) == []
    assert falsified_at(reps) == [n] and (reps[n - 1].verdict, reps[n - 1].verdict_disc_radicand) == ("falsified",) * 2
    assert explicit_bound_pass(past, 64) == reps  # all decided on the first rung
    assert [check_explicit_bound(past, m) for m in range(1, pair.ctx.dprime + 1)] == reps
    assert oracles.explicit_bound_verdicts(past, n) == ("falsified", "falsified")


def test_an_n_open_on_the_first_rung_goes_up_the_ladder():
    """a_1 + b_1*sqrt(5) = (9 - 4*sqrt(5))^24 ~ 2^-100, a unit's power: its enclosure straddles 0
    at 64 bits, where ln has no enclosure, and is positive from 128 bits on, so the ladder alone
    settles it on rung 128.  The coarse stage bounds it by U = 1 < 2^1 with one isqrt and proves
    it wherever the ladder has a rung, 64 included: it may turn ``unresolved`` into
    ``verified``, and nothing else."""
    x, y = 1, 0
    for _ in range(24):
        x, y = 9 * x + 20 * y, 4 * x + 9 * y
    pair = planted(psi_xi(5), 1, x, -y)
    assert cmp_surd(x, -y, 5, F(1, 2**99)) < 0 < cmp_surd(x, -y, 5, 0)
    assert [(r.verdict, r.verdict_disc_radicand) for r in explicit_bound_pass(pair)] == [("verified",) * 2] * 2
    assert oracles.explicit_bound_verdicts(pair, 1) == ("verified",) * 2
    assert coarse_sides(pair, 1)[0] == [bounds._rung_logs(FIRST_RUNG)[1]]  # L = 1
    # with only rung 64 below the ceiling, the ladder alone leaves n = 1 open; the pass proves it
    assert oracles.explicit_bound_verdicts(pair, 1, 127)[0] == "unresolved"
    assert explicit_bound_pass(pair, 127)[0].verdict == "verified"
    # the pass's own fine sides climb: no enclosure on rung 64, verified on rung 128
    key = doubled_parts(abs_bound_base(pair.ctx, 1))
    case = [(partial(bounds._ln_surd, x, -y, 5), partial(bounds._min_log_t, key, 1))]
    assert decide(case, precision_ladder(127)) == [("unresolved", None, None)]
    verdict, lhs, rhs = decide(case, precision_ladder(DEFAULT_MAX_PRECISION))[0]
    assert verdict == "verified" and lhs.prec == rhs.prec == 128


def test_a_short_seed_at_a_base_breakpoint_is_carried_forward(monkeypatch):
    # d = 105 (d' = 24): the base changes once past n = 0, to phi(21)/2 = 6 at n = 21.  With
    # a_n on its bound 2*C(n + 5, 5) for n >= 21, a seed one unit short at n = 21 is caught
    # there, and the pass carries it to n = 22..24; the per-n entry point seeds each n itself
    pair = psi_xi(105)
    for n in range(21, 25):
        pair = planted(pair, n, 2 * math.comb(n + 5, 5))
    assert falsified_at(coefficient_bounds_pass(pair)) == []
    real, seeds = rising_factorial_bound, []

    def one_short_at_21(base, n):
        seeds.append(n)
        P, Q, K = real(base, n)
        return (P - 1, Q, K) if n == 21 else (P, Q, K)

    monkeypatch.setattr(bounds, "rising_factorial_bound", one_short_at_21)
    assert falsified_at(coefficient_bounds_pass(pair)) == [21, 22, 23, 24]
    assert sorted(seeds) == [0, 0, 21, 21]  # abs and L1, at n = 0 and at the breakpoint only
    assert falsified_at(check_coefficient_bounds(pair, n) for n in range(25)) == [21]


def test_explicit_pass_decides_every_open_n_in_one_family(monkeypatch):
    # D < 0: each n the coarse stage leaves open is two cases, both against that n's right
    # side, and all of them go to one decide call; a per-n decide would make one call per n
    calls = []

    def recording_decide(cases, rungs):
        calls.append([rhs.args[-1] for _, rhs in cases])  # the n of partial(_min_log_t, key, n)
        return decide(cases, rungs)

    monkeypatch.setattr(bounds, "decide", recording_decide)
    for d in (19, 31):
        pair, calls[:] = psi_xi(d), []
        open_ns = [n for n in range(1, pair.ctx.dprime + 1) if not coarsely_settled(pair, n)]
        assert pair.ctx.D < 0 and len(open_ns) >= 2, (d, open_ns)
        assert {rep.verdict for rep in explicit_bound_pass(pair)} == {"verified"}
        assert calls == [[n for n in open_ns for _ in range(2)]], d


def test_growth_bases_reach_cmp_surd_as_integers(monkeypatch, capsys, pairs_149):
    # each growth base is read once as its integers (p, q, r), and the ratio gate x > 2G at
    # x = u/v is u > v*(p + q*sqrt(r)): every exact comparison in bounds, ratio and powersums
    # takes ints only, through the CLI and through the per-n and per-table entry points; the
    # caches are cleared first, so each growth plan is built, and compared, under this test's watch
    bounds._growth_plan.cache_clear()
    bounds._rising_prefix.cache_clear()
    callers, non_int_callers = set(), set()

    def integer_cmp_surd(*args):
        caller = sys._getframe(1).f_code.co_name
        callers.add(caller)
        if not all(type(arg) is int for arg in args):
            non_int_callers.add(caller)
        return cmp_surd(*args)

    for module in (bounds, ratio, powersums):
        monkeypatch.setattr(module, "cmp_surd", integer_cmp_surd)
    assert cli.main(["verify", "all", "--dmax", "35"]) == 1  # ratio d=7 x=100
    capsys.readouterr()
    for d, pair in pairs_149.items():
        if d <= 35:
            for n in range(pair.ctx.dprime + 1):
                check_coefficient_bounds(pair, n)
                if n:
                    check_explicit_bound(pair, n)
    ratio.ratio_table(pairs_149[7], [F(9, 2), 5, 100])
    assert non_int_callers == set()
    assert {"_growth_plan", "coefficient_bounds_pass", "explicit_bound_pass", "_past_gate", "inside"} <= callers


def test_suite_small_range(pairs_149):
    for d in (5, 7, 15, 21, 33, 105):
        pair = pairs_149[d]
        for n in range(pair.ctx.dprime + 1):
            assert check_coefficient_bounds(pair, n).verdict == "verified", (d, n)
        for n in range(1, pair.ctx.dprime + 1):
            assert check_explicit_bound(pair, n).verdict == "verified", (d, n)


def coefficient_growth_script():
    path = Path(__file__).resolve().parent.parent / "scripts" / "coefficient_growth.py"
    spec = importlib.util.spec_from_file_location("coefficient_growth", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_coefficient_growth_script_prints_one_line_per_modulus(capsys):
    script = coefficient_growth_script()
    assert script.main(["--dmax", "15"]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split()[0] == "d"
    assert [int(row.split()[0]) for row in rows] == [5, 7, 11, 13, 15]
    # d = 5, n = 1: the bound 2*(1 + sqrt(5))/2 ~ 3.236
    assert rows[0].split()[-1] == "3.236e+00"
    # d = 4487: base 320 at n = 960, so 2*320*321*...*1279/960! ~ 5.129e+310 (mpmath), past float's 2^1024
    assert script.bound_at_half(ctx(4487)) == "5.129e+310"


@pytest.mark.parametrize("dmax", ["7001", "2", "2001"])
def test_coefficient_growth_script_refuses_unbounded_or_empty_dmax(capsys, monkeypatch, dmax):
    # past MAX_MODULUS, no modulus at all, or past MAX_TABLE_WORK: a usage error before any pair is built
    script = coefficient_growth_script()

    def refuse(d):
        raise AssertionError(f"psi_xi({d}) called")

    monkeypatch.setattr(script, "psi_xi", refuse)
    with pytest.raises(SystemExit) as exc:
        script.main(["--dmax", dmax])
    out, err = capsys.readouterr()
    assert exc.value.code == 2
    assert out == "" and "--dmax" in err
