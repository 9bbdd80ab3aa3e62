"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see every line.  All ten
criteria pass.  Criterion 9 pins the ratio suite's verdicts against an
independent mpmath evaluation of the envelope: every grid point with
``d <= 149`` verifies except (d=7, x=100), where the envelope is provably
false (exact LHS 3367/67331583 ~ 5.0006e-5 against RHS ~ 4.9005e-5) and the
checker must say ``falsified``.
"""

import random
import time
from fractions import Fraction

import mpmath
from interval_oracle import as_fractions
from oracles import falling_factorial_poly, second_coefficient_closed_form, u_coefficients

from kraitchik.bounds import check_coefficient_bounds, check_explicit_bound, doubled_parts
from kraitchik.construct import check_symmetry, psi_xi, verify_identity
from kraitchik.numtheory import is_prime, mobius, odd_squarefree_range
from kraitchik.poly import DensePoly
from kraitchik.powersums import (
    DiscriminantContext,
    power_sum_doubled,
    quad_in_enclosure,
    residue_sum_enclosure,
)
from kraitchik.qfield import QuadElem
from kraitchik.ratio import _log_lhs, _log_rhs, default_sample_points, gate_value, ratio_table
from kraitchik.symfunc import elementary_brute, newton_elementary, pm_polynomial, power_sums_of

F = Fraction


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num:>2} {name}: {status}{suffix}")


def test_criterion_1_golden_reproduction():
    t0 = time.perf_counter()
    expected = {
        5: ([2, 1, 2], [1, 0]),
        7: ([2, 1, -1, -2], [1, 1, 0]),
        11: ([2, 1, -2, 2, -1, -2], [1, 0, 0, 1, 0]),
        13: ([2, 1, 4, -1, 4, 1, 2], [1, 0, 1, 0, 1, 0]),
    }
    mismatches = []
    for d, (a, b) in expected.items():
        pair = psi_xi(d)
        if list(pair.a) != a or list(pair.b) != b:
            mismatches.append(d)
    elapsed = time.perf_counter() - t0
    ok = not mismatches and elapsed < 1.0
    report(1, "golden reproduction d in {5,7,11,13}", ok, f"{elapsed:.3f}s")
    assert not mismatches
    assert elapsed < 1.0


def test_criterion_2_identity_suite():
    t0 = time.perf_counter()
    ds = odd_squarefree_range(5, 255)
    assert {105, 165, 195, 231} <= set(ds)
    bad = []
    for d in ds:
        if not verify_identity(psi_xi(d)).ok:
            bad.append(d)
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 60.0 and len(ds) >= 46
    report(2, f"identity suite 5..255 ({len(ds)} moduli)", ok, f"{elapsed:.1f}s")
    assert not bad
    assert elapsed < 60.0


def test_criterion_3_binomial_collapse():
    t0 = time.perf_counter()
    bad = []
    for m in range(1, 21):
        if pm_polynomial(m) != falling_factorial_poly(m):
            bad.append(m)
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 5.0
    report(3, "binomial collapse m=1..20", ok, f"{elapsed:.2f}s")
    assert not bad
    assert elapsed < 5.0


def test_criterion_4_newton_oracle_equivalence():
    rng = random.Random(8191)
    bad = 0
    for _ in range(200):
        size = rng.randint(0, 6)
        values = [F(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(size)]
        es = newton_elementary(power_sums_of(values, size))
        for m in range(size + 1):
            if es[m] != elementary_brute(values, m):
                bad += 1
    report(4, "Girard-Newton vs brute force, 200 multisets", bad == 0)
    assert bad == 0


def test_criterion_5_power_sum_enclosures():
    bad = []
    for d in odd_squarefree_range(3, 101):
        ctx = DiscriminantContext.for_modulus(d)
        for k in range(1, d + 1):
            box = residue_sum_enclosure(d, k)
            wide = box.width_mantissa() * 10**9 > 1 << box.bits  # wider than 1e-9, exactly
            if wide or not quad_in_enclosure(*power_sum_doubled(ctx, k), ctx.D, box):
                bad.append((d, k))
    report(5, "power-sum closed form inside enclosures, d<=101", not bad)
    assert not bad


def test_criterion_6_second_coefficient_closed_forms():
    bad = []
    for d in odd_squarefree_range(3, 101):
        if not is_prime(d):
            continue
        ctx = DiscriminantContext.for_modulus(d)
        u = u_coefficients(ctx)
        if u[1] != QuadElem(F(1, 2), F(-1, 2), ctx.D):
            bad.append((d, 1))
        if ctx.dprime < 2:
            continue
        if u[2] != second_coefficient_closed_form(d):
            bad.append((d, 2))
    report(6, "u1/u2 closed forms at odd primes <= 101", not bad)
    assert not bad


def test_criterion_7_coefficient_bound_suite(pairs_255):
    t0 = time.perf_counter()
    bad = []
    for d, pair in pairs_255.items():
        for n in range(pair.ctx.dprime + 1):
            rep = check_coefficient_bounds(pair, n)
            if rep.verdict != "verified":
                bad.append((d, n, rep.verdict))
    elapsed = time.perf_counter() - t0
    report(7, "coefficient bounds, all (d, n), d<=255", not bad, f"{elapsed:.1f}s")
    assert not bad


def test_criterion_8_explicit_bound_suite(pairs_255):
    t0 = time.perf_counter()
    bad = []
    for d, pair in pairs_255.items():
        for n in range(1, pair.ctx.dprime + 1):
            rep = check_explicit_bound(pair, n)
            if rep.verdict != "verified":
                bad.append((d, n, rep.verdict))
    elapsed = time.perf_counter() - t0
    report(8, "strict closed-form bound, all (d, n), d<=255", not bad, f"{elapsed:.1f}s")
    assert not bad


def _mp(q: Fraction) -> mpmath.mpf:
    return mpmath.mpf(q.numerator) / q.denominator


def _oracle_rhs(pair, x: int) -> mpmath.mpf:
    """The ratio envelope in plain mpmath at the working precision.

    x/((2x - mu(d)) sqrt(d)) * ((1 - 1/x)^(-G) - 1 - G/x), with G the gate
    value a + b*sqrt(r) (b = 0 for a half-integer) read off ``gate_value``;
    no interval arithmetic is involved.
    """
    d = pair.ctx.d
    g = gate_value(pair)
    G = _mp(g.a) + _mp(g.b) * mpmath.sqrt(g.r)
    xm = mpmath.mpf(x)
    pref = xm / ((2 * xm - mobius(d)) * mpmath.sqrt(d))
    return pref * ((1 - 1 / xm) ** -G - 1 - G / xm)


def test_criterion_9_ratio_suite(pairs_149):
    with mpmath.workdps(50):
        # Spot anchor first: d=5, x=4 has LHS exactly 1/171, so c = LHS*(2x - mu)/x
        # = 1/76, and the check is ln(1 + G/4 + sqrt(5)/76) < G ln(4/3); each
        # log side's enclosure must hold its value computed at 50 digits.
        spot = ratio_table(pairs_149[5], [F(4)])[0]
        assert spot.lhs_exact == F(1, 171)
        G = (1 + mpmath.sqrt(5)) / 2
        refs = (mpmath.log(1 + G / 4 + mpmath.sqrt(5) / 76), G * mpmath.log(mpmath.mpf(4) / 3))
        g = doubled_parts(gate_value(pairs_149[5]))
        for side, ref in zip(map(as_fractions, (_log_lhs(g, F(4), F(1, 76), 5, 64), _log_rhs(g, F(4), 64))), refs):
            assert _mp(side.lo) <= ref <= _mp(side.hi)

        # Every verdict must be the truth, as told by the mpmath oracle: a
        # strict LHS < RHS means verified, anything else falsified.  The
        # oracle's margin must dwarf its own rounding for that to settle it.
        points = 0
        disagreements = []
        failures = []
        for d, pair in pairs_149.items():
            for rep in ratio_table(pair, default_sample_points(pair)):
                points += 1
                x = int(rep.x)
                assert rep.verdict in ("verified", "falsified"), (d, x, rep.verdict)
                lhs, rhs = _mp(rep.lhs_exact), _oracle_rhs(pair, x)
                assert abs(lhs - rhs) > rhs * mpmath.mpf(10) ** -30, (d, x)
                truth = "verified" if lhs < rhs else "falsified"
                if rep.verdict != truth:
                    disagreements.append((d, x, rep.verdict, truth))
                if rep.verdict != "verified":
                    failures.append((d, x, rep.verdict))

        # The one false grid point: the envelope is violated at (d=7, x=100).
        # Recompute its exact LHS from Psi_7 and Xi_7 by Fraction Horner, independent
        # of the checker's integer evaluation, and check it against the
        # oracle's RHS.  The deviation decays like b_2/(2x^2) = 1/(2x^2) while
        # the envelope decays like G(G+1)/(4 sqrt(7) x^2) ~ 0.4862/x^2, so
        # the violation is no rounding artefact.
        pair7 = pairs_149[7]
        x7 = F(100)
        psi7, xi7 = DensePoly(pair7.a[::-1]), DensePoly(pair7.b[::-1])
        lhs7 = abs(F(xi7.evaluate(x7)) / psi7.evaluate(x7) - 1 / (2 * x7 + 1))
        assert lhs7 == F(3367, 67331583)
        assert _mp(lhs7) > _oracle_rhs(pair7, 100)

    report(
        9,
        "ratio approximation suite, d<=149, three points each",
        not disagreements and failures == [(7, 100, "falsified")],
        f"{points} points, non-verified: {failures}",
    )
    assert points == 3 * 59
    assert not disagreements, f"verdicts contradict the mpmath oracle: {disagreements}"
    assert failures == [(7, 100, "falsified")], f"non-verified points: {failures}"


def test_criterion_10_symmetry_suite(pairs_255):
    bad = []
    rule_deviations = []
    for d, pair in pairs_255.items():
        rep = check_symmetry(pair)
        if not rep.ok:
            bad.append(d)
        elif not rep.b_matches_prediction:
            rule_deviations.append(d)
    detail = f"b-sign rule deviations: {rule_deviations or 'none'}"
    report(10, "palindromy laws, d<=255", not bad, detail)
    assert not bad
    # the sign-rule comparison is informational; deviations are reported above
