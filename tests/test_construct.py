import dataclasses
from fractions import Fraction

import cyclotomic_oracle as oracle
import mpmath
import pytest
from hypothesis import given, strategies as st
from oracles import (
    Poly,
    Quad,
    half_polys,
    pair_dot,
    pair_u,
    psi_xi_full,
    second_coefficient_closed_form,
    u_coefficients,
)

import kraitchik.construct as construct
from kraitchik.construct import IdentityGateError, check_symmetry, cyclotomic, psi_xi, verify_identity
from kraitchik.numtheory import is_prime, is_squarefree, jacobi, odd_squarefree_range
from kraitchik.poly import DensePoly
from kraitchik.powersums import DiscriminantContext, power_sum_doubled
from kraitchik.qfield import QuadElem

F = Fraction

# the classical table rows for the first four moduli (descending powers)
CLASSICAL_A = {
    5: [2, 1, 2],
    7: [2, 1, -1, -2],
    11: [2, 1, -2, 2, -1, -2],
    13: [2, 1, 4, -1, 4, 1, 2],
}
CLASSICAL_B = {
    5: [1, 0],
    7: [1, 1, 0],
    11: [1, 0, 0, 1, 0],
    13: [1, 0, 1, 0, 1, 0],
}


def test_classical_rows_reproduced():
    for d in (5, 7, 11, 13):
        pair = psi_xi(d)
        assert list(pair.a) == CLASSICAL_A[d], d
        assert list(pair.b) == CLASSICAL_B[d], d


def test_smallest_modulus_accepted():
    pair = psi_xi(3)
    assert (pair.a, pair.b) == ((2, 1), (1,))  # Psi_3 = 2X + 1, Xi_3 = 1
    assert verify_identity(pair).ok


def test_invalid_moduli_rejected():
    for bad in (1, 2, 9, 12, 45):
        with pytest.raises(ValueError):
            psi_xi(bad)


def test_u_coefficient_examples():
    u7 = u_coefficients(DiscriminantContext.for_modulus(7))
    assert u7[1] == QuadElem(F(1, 2), F(-1, 2), -7)  # (1 - sqrt(-7))/2
    u13 = u_coefficients(DiscriminantContext.for_modulus(13))
    assert u13[2] == 2
    u5 = u_coefficients(DiscriminantContext.for_modulus(5))
    assert u5[2] == 1


def test_integer_construction_matches_the_fraction_path():
    # every odd squarefree d <= 255, and d = 1155 = 3*5*7*11 (d' = 240, 16 divisors);
    # u_coefficients is the Fraction/Quad Girard-Newton recursion, and
    # a_n = 2 * (rational part of u_n), b_n = -2 * (surd part of u_n)
    for d in odd_squarefree_range(3, 255) + [1155]:
        pair = psi_xi(d)
        u = u_coefficients(pair.ctx)
        assert list(pair.a) == [2 * un.a for un in u], d
        assert list(pair.b) == [-2 * un.b for un in u[1:]], d
        assert pair_u(pair) == u, d


radicands = st.integers(min_value=-300, max_value=300).filter(
    lambda r: r not in (0, 1) and is_squarefree(abs(r))
)
ints = st.integers(min_value=-(10**12), max_value=10**12)


@given(st.lists(st.tuples(ints, ints, ints, ints), max_size=6), radicands)
def test_pair_dot_is_four_times_the_quadelem_products(terms, D):
    xa, xb, ya, yb = ([t[i] for t in terms] for i in range(4))
    want = Quad(0, 0, D)
    for a, b, p, q in terms:
        want += 4 * (Quad(F(a, 2), F(b, 2), D) * Quad(F(p, 2), F(q, 2), D))
    assert want.a.denominator == 1 and want.b.denominator == 1
    assert pair_dot(xa, xb, ya, yb, D) == (want.a.numerator, want.b.numerator)


@given(
    st.integers(min_value=1, max_value=5000),
    st.tuples(ints, ints),
    st.tuples(st.integers(min_value=0), st.integers(min_value=0)),
)
def test_exact_quotient_refuses_any_remainder(m, quotient, offsets):
    k = 2 * m
    ra, rb = offsets[0] % k, offsets[1] % k
    pair = (quotient[0] * k + ra, quotient[1] * k + rb)
    if ra or rb:
        with pytest.raises(ArithmeticError):
            construct._exact_quotient(pair, k, "2*u_m")
    else:
        assert construct._exact_quotient(pair, k, "2*u_m") == quotient


def test_planted_remainder_raises(monkeypatch):
    # mu(11) read one too high (0, not -1) zeroes every c_11(j): sigma_1 = (0, 1) gives
    # U_1 = (0, -1), and U_1*sigma_1 + U_0*sigma_2 = (11, -2) is not divisible by 4 = 2m,
    # so the step must refuse, not floor.  d = 11 runs the recursion to h = 2
    mobius = construct.mobius
    monkeypatch.setattr(construct, "mobius", lambda n: mobius(n) + (n == 11))
    with pytest.raises(ArithmeticError, match="2\\*u_2 at d=11"):
        psi_xi(11)


def test_half_recursion_matches_the_full_recursion():
    # the construct benchmark's pool (every odd squarefree d <= 449), d = 2003 (prime,
    # d' = 1001) and the divisor-rich 1155 = 3*5*7*11, 3003 = 3*7*11*13 and 5005 = 5*7*11*13,
    # where the class sums take the most slices: the mirrored half must give the full
    # recursion's tuples
    for d in odd_squarefree_range(3, 449) + [1155, 2003, 3003, 5005]:
        pair, full = psi_xi(d), psi_xi_full(d)
        assert (pair.a, pair.b) == (full.a, full.b), d


def test_class_inputs_give_the_closed_form_power_sums():
    # what the recursion reads of sigma_j, rebuilt class by class, is power_sum_doubled
    # (the closed form the gauss-oracle suite certifies) at every j <= h of d <= 1001
    for d in odd_squarefree_range(3, 1001):
        ctx = DiscriminantContext.for_modulus(d)
        h = max(ctx.dprime // 2, 1)
        mu_d, classes, plus = construct._sigma_classes(d, h)
        for j in range(1, h + 1):
            ramanujan = mu_d + sum(weight for g, weight, _ in classes if j % g == 0)
            unit = 1 + sum(mu_g for g, _, mu_g in classes if j % g == 0)
            assert (ramanujan, 2 * plus[j - 1] - unit) == power_sum_doubled(ctx, j), (d, j)


def recording_gate(monkeypatch, verdict=None):
    """Patch psi_xi's identity gate; return the list of its verdicts, in call order."""
    real, seen = construct.verify_identity, []

    def gate(pair):
        rep = real(pair) if verdict is None else construct.IdentityReport(pair.d, verdict, 0)
        seen.append(rep.ok)
        return rep

    monkeypatch.setattr(construct, "verify_identity", gate)
    return seen


def test_wrong_predicted_b_sign_is_refused_and_the_other_sign_kept(monkeypatch):
    # 15 = 3 mod 4 is composite, so b_n = -b_{4-n}; calling 15 prime predicts +1,
    # which mirrors b_1 = 1 onto b_3 = +1: the gate must refuse that pair
    seen = recording_gate(monkeypatch)
    monkeypatch.setattr(construct, "is_prime", lambda n: True)
    pair = psi_xi(15)
    assert seen == [False, True]
    full = psi_xi_full(15)
    assert (pair.a, pair.b) == (full.a, full.b)
    assert check_symmetry(pair).b_minus_holds


def test_predicted_b_sign_passes_first():
    # 15 and 35 = 3 mod 4 composite (-1), 7 prime (+1), 21 = 1 mod 4 (+1)
    for d in (7, 15, 21, 35):
        with pytest.MonkeyPatch.context() as mp:
            seen = recording_gate(mp)
            psi_xi(d)
        assert seen == [True], d


def test_a_gate_failing_both_signs_raises_the_typed_error(monkeypatch):
    seen = recording_gate(monkeypatch, verdict=False)
    with pytest.raises(IdentityGateError, match="identity fails at d=13"):
        psi_xi(13)
    assert seen == [False, False]
    assert issubclass(IdentityGateError, ArithmeticError)


def test_leading_coefficients_across_range(pairs_255):
    for pair in pairs_255.values():
        assert pair_u(pair)[0] == 1
        assert pair.a[0] == 2
        assert pair.b[0] == 1  # b_{d,1}
        assert len(pair.a) == pair.ctx.dprime + 1  # deg Psi_d = d'
        assert len(pair.b) == pair.ctx.dprime  # deg Xi_d = d' - 1


def test_half_integer_parity_invariant(pairs_255):
    # 2*(rational part) and 2*(surd part) are integers of equal parity
    for pair in pairs_255.values():
        for u in pair_u(pair):
            two_a, two_b = 2 * u.a, 2 * u.b
            assert two_a.denominator == 1 and two_b.denominator == 1
            assert (two_a.numerator - two_b.numerator) % 2 == 0


def test_first_two_coefficients_closed_forms_at_primes():
    for d in odd_squarefree_range(3, 101):
        if not is_prime(d):
            continue
        ctx = DiscriminantContext.for_modulus(d)
        u = u_coefficients(ctx)
        assert u[1] == QuadElem(F(1, 2), F(-1, 2), ctx.D), d  # (1 - sqrt(D))/2
        if ctx.dprime >= 2:
            assert u[2] == second_coefficient_closed_form(d), d


def test_cyclotomic_examples():
    assert cyclotomic(5) == (1, 1, 1, 1, 1)
    assert cyclotomic(1) == (-1, 1)
    assert cyclotomic(15) == (1, -1, 0, 1, -1, 1, 0, -1, 1)
    # cross-check by evaluation: prod over e|15 of (2^e - 1)^mu(15/e)
    assert DensePoly(cyclotomic(15)).evaluate(2) == (2**15 - 1) * (2 - 1) // ((2**3 - 1) * (2**5 - 1))


def test_cyclotomic_degree_and_palindromy():
    from kraitchik.numtheory import euler_phi

    for d in (9, 12, 21, 30, 105):
        phi = cyclotomic(d)
        assert len(phi) - 1 == euler_phi(d)
        assert phi[-1] == 1
        if d > 1:
            assert phi == phi[::-1]


def test_identity_examples():
    # 4*Phi_5 = (2X^2+X+2)^2 - 5X^2 and 4*Phi_7 = (...)^2 + 7(X^2+X)^2
    for d in (5, 7, 105):
        assert verify_identity(psi_xi(d)).ok


def test_identity_witness_on_corrupted_pair():
    pair = psi_xi(5)
    broken = dataclasses.replace(pair, a=(2, 1, 3))  # Psi_5 = 2X^2 + X + 3
    rep = verify_identity(broken)
    assert not rep.ok
    assert rep.mismatch_index == 0


def test_cyclotomic_matches_the_dense_mobius_product():
    # every d up to 300, even and non-squarefree ones included, and three with
    # many factors or a large prime: 1155 = 3*5*7*11, 2003, 6545 = 5*7*11*17
    for d in list(range(1, 301)) + [1155, 2003, 6545]:
        assert cyclotomic(d) == oracle.dense_cyclotomic(d).coeffs, d
    for bad in (0, -3):
        with pytest.raises(ValueError):
            cyclotomic(bad)


def test_division_by_x_power_minus_one_refuses_a_remainder(monkeypatch):
    divide = construct._divide_by_x_power_minus_one
    assert divide([-1, 0, 0, 0, 0, 0, 1], 3, 6) == [1, 0, 0, 1]  # X^6 - 1 = (X^3 - 1)(X^3 + 1)
    for coeffs, e in (([1, 0, 1], 1), ([-1, 0, 0, 0, 0, 0, 1], 4), ([-1, 1], 2), ([-1, 0, 2], 2)):
        with pytest.raises(ArithmeticError):
            divide(coeffs, e, 0)
    # with mu's sign flipped at d = 15, X^15 - 1 would divide (X^5 - 1)(X^3 - 1)
    mobius = construct.mobius
    monkeypatch.setattr(construct, "mobius", lambda n: -mobius(n))
    with pytest.raises(ArithmeticError, match="X\\^15 - 1 left a remainder at d=15"):
        cyclotomic(15)


@given(
    st.lists(st.integers(min_value=-50, max_value=50), min_size=1, max_size=12),
    st.integers(min_value=1, max_value=6),
    st.lists(st.integers(min_value=-3, max_value=3), max_size=6),
)
def test_division_by_x_power_minus_one_matches_divmod(quo, e, rem):
    quotient, remainder = Poly(quo), Poly(rem[:e])
    num = quotient * DensePoly([-1] + [0] * (e - 1) + [1]) + remainder
    if quotient.is_zero() or not remainder.is_zero():
        with pytest.raises(ArithmeticError):
            construct._divide_by_x_power_minus_one(list(num.coeffs), e, 0)
    else:
        assert DensePoly(construct._divide_by_x_power_minus_one(list(num.coeffs), e, 0)) == quotient


def test_packed_identity_agrees_with_the_dense_check(pairs_255):
    for d in odd_squarefree_range(3, 255) + [1155]:
        pair = pairs_255[d] if d in pairs_255 else psi_xi(d)
        rep = verify_identity(pair)
        assert (rep.ok, rep.mismatch_index) == oracle.dense_identity(pair) == (True, None), d


@pytest.mark.parametrize("d", [5, 7, 15, 105])  # D = 5, -7, -15, 105
@pytest.mark.parametrize("field", ["psi", "xi"])
def test_planted_coefficient_error_is_found_at_the_dense_index(d, field):
    pair = psi_xi(d)
    attr = {"psi": "a", "xi": "b"}[field]  # descending coefficients of Psi_d, Xi_d
    coeffs = getattr(pair, attr)[::-1]
    top = len(coeffs) - 1
    for degree in (0, top // 2, top):
        for delta in (1, -1, 2**70):
            planted = list(coeffs)
            planted[degree] += delta
            broken = dataclasses.replace(pair, **{attr: tuple(planted[::-1])})
            rep = verify_identity(broken)
            ok, index = oracle.dense_identity(broken)
            assert not ok, (d, field, degree, delta)
            assert (rep.ok, rep.mismatch_index) == (False, index), (d, field, degree, delta)


@st.composite
def packable(draw):
    """A slot width in bytes and coefficients that fit it signed, both extremes included."""
    width = draw(st.integers(min_value=1, max_value=40))
    top = (1 << (8 * width - 1)) - 1
    coeff = st.one_of(st.sampled_from([top, -top, 0]), st.integers(min_value=-top, max_value=top))
    return width, draw(st.lists(coeff, max_size=12))


@given(packable())
def test_one_pass_pack_is_the_kronecker_sum(case):
    width, coeffs = case
    assert construct._pack(coeffs, width) == sum(c << (8 * width * i) for i, c in enumerate(coeffs))


def test_slots_one_bit_too_narrow_are_refused(monkeypatch):
    slot_bits = construct._slot_bits
    monkeypatch.setattr(construct, "_slot_bits", lambda bound: slot_bits(bound) - 1)
    for d in (3, 5, 7, 105):
        with pytest.raises(ArithmeticError, match="slots cannot hold"):
            verify_identity(psi_xi(d))


def test_symmetry_examples():
    rep13 = check_symmetry(psi_xi(13))
    assert rep13.a_ok and rep13.b_plus_holds  # palindromic, d' even
    rep7 = check_symmetry(psi_xi(7))
    assert rep7.a_ok  # a_{7,n} = -a_{7,3-n}
    rep15 = check_symmetry(psi_xi(15))
    assert rep15.b_sign_predicted == -1 and rep15.b_minus_holds
    rep21 = check_symmetry(psi_xi(21))
    assert rep21.b_sign_predicted == 1 and rep21.b_plus_holds


def test_root_sets_split_by_character():
    # the two half polynomials vanish exactly on the residue/non-residue roots
    with mpmath.workdps(40):
        for d in odd_squarefree_range(5, 49):
            pair = psi_xi(d)
            plus, minus = half_polys(pair)

            def value_at_root(poly, k):
                z = mpmath.e ** (2j * mpmath.pi * k / d)
                acc = mpmath.mpc(0)
                sqrt_D = mpmath.sqrt(pair.ctx.D)
                for c in reversed(poly.coeffs):
                    cv = mpmath.mpf(c.a.numerator) / c.a.denominator + (
                        mpmath.mpf(c.b.numerator) / c.b.denominator
                    ) * sqrt_D
                    acc = acc * z + cv
                return abs(acc)

            for k in range(1, d):
                sym = jacobi(k, d)
                if sym == 1:
                    assert value_at_root(plus, k) < 1e-8, (d, k)
                elif sym == -1:
                    assert value_at_root(minus, k) < 1e-8, (d, k)
