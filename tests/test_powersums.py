import math
from fractions import Fraction

import powersum_oracle
import pytest
from oracles import ramanujan_h
from mpmath import iv
from mpmath.libmp import to_rational

import kraitchik.cli as cli
import kraitchik.powersums as powersums
from kraitchik.interval import GUARD_BITS
from kraitchik.numtheory import euler_phi, jacobi, odd_squarefree_range
from kraitchik.powersums import (
    DiscriminantContext,
    power_sum_doubled,
    power_sum_s,
    quad_in_enclosure,
    residue_sum_enclosure,
)
from kraitchik.qfield import QuadElem

F = Fraction


def test_context_construction():
    ctx = DiscriminantContext.for_modulus(5)
    assert (ctx.d, ctx.D, ctx.dprime) == (5, 5, 2)
    ctx = DiscriminantContext.for_modulus(7)
    assert (ctx.d, ctx.D, ctx.dprime) == (7, -7, 3)
    for d in odd_squarefree_range(3, 255):
        c = DiscriminantContext.for_modulus(d)
        assert c.D % 4 == 1
        assert c.dprime == euler_phi(d) // 2


@pytest.mark.parametrize(
    "bad,why",
    [(1, "small"), (9, "squarefree"), (10, "even"), (45, "squarefree")],
)
def test_context_rejections(bad, why):
    with pytest.raises(ValueError, match=why):
        DiscriminantContext.for_modulus(bad)


def test_power_sum_examples():
    ctx5 = DiscriminantContext.for_modulus(5)
    assert power_sum_s(ctx5, 1) == QuadElem(F(-1, 2), F(1, 2), 5)
    ctx15 = DiscriminantContext.for_modulus(15)
    assert power_sum_s(ctx15, 3) == QuadElem(-1, 0, -15)  # mu(5) phi(3) / 2
    assert power_sum_s(ctx15, 15) == QuadElem(4, 0, -15)  # f = d branch: phi(15)/2


def test_power_sum_periodicity():
    for d in (5, 15, 21, 35):
        ctx = DiscriminantContext.for_modulus(d)
        for k in range(1, d):
            assert power_sum_s(ctx, k) == power_sum_s(ctx, k + d)
            assert power_sum_s(ctx, k) == power_sum_s(ctx, k + 3 * d)


def test_conjugate_sum_is_primitive_root_power_sum():
    # s + conj(s) = 2a collapses the character and must equal the Ramanujan-type sum;
    # s - conj(s) = 2*s - h is the Gauss sum g_{d,k} = (k/d)*sqrt(D), so the
    # enclosure checks of s cover the Gauss sum as well
    for d in odd_squarefree_range(3, 101):
        ctx = DiscriminantContext.for_modulus(d)
        for k in range(1, d + 1):
            s = power_sum_s(ctx, k)
            assert 2 * s.a == ramanujan_h(d, k)
            assert 2 * s.b == jacobi(k, d), (d, k)


def test_ramanujan_examples():
    assert ramanujan_h(5, 5) == 4
    assert ramanujan_h(5, 1) == -1
    assert ramanujan_h(15, 3) == -2  # = h(5,3) * h(3,3) = (-1) * 2


def test_ramanujan_multiplicative():
    coprime_pairs = [(3, 5), (5, 7), (3, 35), (9, 5), (7, 15), (4, 9)]
    for d, m in coprime_pairs:
        assert math.gcd(d, m) == 1
        for k in range(1, 16):
            assert ramanujan_h(d * m, k) == ramanujan_h(d, k) * ramanujan_h(m, k)


def test_residue_sum_matches_closed_form_small_range():
    for d in odd_squarefree_range(3, 35):
        ctx = DiscriminantContext.for_modulus(d)
        for k in range(1, d + 1):
            box = residue_sum_enclosure(d, k)
            assert box.width_mantissa() * 10**9 <= 1 << box.bits  # at most 1e-9 wide, exactly
            assert quad_in_enclosure(*power_sum_doubled(ctx, k), ctx.D, box), (d, k)


def _roots_at_40_digits(d: int) -> list:
    old = iv.dps
    iv.dps = 40
    try:
        return [(iv.cos(2 * iv.pi * a / d), iv.sin(2 * iv.pi * a / d)) for a in range(d)]
    finally:
        iv.dps = old


@pytest.fixture
def coarse_grid(monkeypatch, request):
    """Root tables on the grid ``request.param`` bits finer than 2^-ROOT_PREC, built afresh:
    GUARD_BITS keeps the table's own grid, a negative value a grid coarser than 2^-ROOT_PREC."""
    monkeypatch.setattr(powersums, "ROOT_PREC", powersums.ROOT_PREC + request.param - GUARD_BITS)
    powersums._root_table.cache_clear()
    yield
    powersums._root_table.cache_clear()


# Each mantissa pair must bracket a 40-digit enclosure of cos/sin(2 pi a/d),
# which a wrong mirror sign breaks, and stay narrow next to its grid, which
# the width bound of the powers test below checks at every d.
@pytest.mark.parametrize("coarse_grid", [GUARD_BITS, -8], indirect=True)
def test_root_table_brackets_independent_enclosures(coarse_grid):
    for d in odd_squarefree_range(3, 101):
        t = powersums._root_table(d)
        scale = 2**t.bits
        for a, (c, s) in enumerate(_roots_at_40_digits(d)):
            for lo_m, hi_m, x in ((t.cos_lo[a], t.cos_hi[a], c), (t.sin_lo[a], t.sin_hi[a], s)):
                lo, hi = (F(*to_rational(e)) for e in x._mpi_)
                assert lo_m <= lo * scale and hi * scale <= hi_m, (d, a)
                assert hi_m - lo_m < 2 ** (t.bits - 60), (d, a)  # outward, but not loose
        assert t.residues == tuple(a for a in range(d) if jacobi(a, d) == 1)


def _boxes_intersect(new, old) -> bool:
    scale = 2**new.bits
    for lo_m, hi_m, x in ((new.re_lo, new.re_hi, old.re), (new.im_lo, new.im_hi, old.im)):
        lo, hi = powersum_oracle.iv_endpoints(x)
        if lo_m > hi * scale or lo * scale > hi_m:
            return False
    return True


def test_exact_sums_agree_with_the_mpmath_oracle():
    for d in odd_squarefree_range(3, 35):
        ctx = DiscriminantContext.for_modulus(d)
        for k in range(1, d + 1):
            new = residue_sum_enclosure(d, k)
            old = powersum_oracle.residue_sum_enclosure(d, k, digits=25)
            assert quad_in_enclosure(*power_sum_doubled(ctx, k), ctx.D, new), (d, k)
            assert powersum_oracle.quad_in_enclosure(power_sum_s(ctx, k), old), (d, k)
            assert _boxes_intersect(new, old), (d, k)


def test_planted_errors_fall_outside_the_rectangles():
    signs = set()
    for d in odd_squarefree_range(3, 35):
        ctx = DiscriminantContext.for_modulus(d)
        for k in range(1, d + 1):
            if math.gcd(k, d) != 1:
                continue
            p, q = power_sum_doubled(ctx, k)
            box = residue_sum_enclosure(d, k)
            assert quad_in_enclosure(p, q, ctx.D, box)
            assert not quad_in_enclosure(p, -q, ctx.D, box), (d, k)
            assert not quad_in_enclosure(p + 2, q, ctx.D, box), (d, k)
            signs.add(ctx.D > 0)
    assert signs == {True, False}


def plant(monkeypatch, ks):
    """Make ``cli.power_sum_doubled`` wrong by 2 in p at each k in ``ks``."""
    real = powersums.power_sum_doubled

    def planted(ctx, k):
        p, q = real(ctx, k)
        return (p + 2, q) if k in ks else (p, q)

    monkeypatch.setattr(cli, "power_sum_doubled", planted)


# At d = 13 the residues are 1, 3, 4, 9, 10, 12: k = 4 and 10 lie in the orbit of
# k = 1 and k = 5 in that of k = 2, so only k = 1 and k = 13 lead their orbits.
def test_gauss_oracle_suite_reports_a_planted_error(monkeypatch):
    for ks in ([4], [1], [5, 10], [1, 4, 13]):
        plant(monkeypatch, ks)
        assert cli._suite_gauss_oracle(13) == [("d=13", cli.FALSIFIED, f"(at k={ks})")]
        assert powersum_oracle.gauss_oracle_rows(13) == cli._suite_gauss_oracle(13)


def test_gauss_oracle_suite_matches_the_per_k_oracle():
    for d in odd_squarefree_range(3, 255):
        assert cli._suite_gauss_oracle(d) == powersum_oracle.gauss_oracle_rows(d), d


def test_power_sums_are_constant_on_residue_orbits():
    # s_{k*r} = s_k for every residue r: the lemma behind one enclosure per orbit.
    # power_sum_doubled reduces k mod d, so its values at k = 1..d stand for every k
    for d in odd_squarefree_range(3, 255):
        ctx = DiscriminantContext.for_modulus(d)
        s = [power_sum_doubled(ctx, k or d) for k in range(d)]  # s[k % d]
        residues = [r for r in range(1, d) if jacobi(r, d) == 1]
        for k in range(1, d + 1):
            assert all(s[k * r % d] == s[k % d] for r in residues), (d, k)


@pytest.mark.parametrize("d,orbits", [(3, 3), (5, 3), (105, 9), (935, 9), (1001, 9)])
def test_orbit_representatives(d, orbits):
    reps = powersums.orbit_representatives(d)
    residues = [r for r in range(1, d) if jacobi(r, d) == 1]
    assert len(set(reps)) == orbits
    for k in range(1, d + 1):
        rep = reps[k % d]
        assert 1 <= rep <= k and reps[rep % d] == rep, (d, k)
        assert any(rep * r % d == k % d for r in residues), (d, k)


# Each power of the one enclosed root must hold a 40-digit enclosure of its own
# root and stay narrow.  On the coarse grid a product that rounds inward loses
# the root within a few hundred powers.
@pytest.mark.parametrize("coarse_grid", [GUARD_BITS, -8], indirect=True)
@pytest.mark.parametrize("d", [3, 5, 105, 1001])
def test_powers_of_one_root_enclose_each_root_narrowly(coarse_grid, d):
    t = powersums._root_table(d)
    scale = 2**t.bits
    for a, (c, s) in enumerate(_roots_at_40_digits(d)):
        for lo_m, hi_m, x in ((t.cos_lo[a], t.cos_hi[a], c), (t.sin_lo[a], t.sin_hi[a], s)):
            lo, hi = (F(*to_rational(e)) for e in x._mpi_)
            assert lo_m <= lo * scale and hi * scale <= hi_m, (d, a)
            assert hi_m - lo_m < 2 ** (t.bits - 60), (d, a)


def test_gauss_oracle_encloses_one_root_per_modulus(monkeypatch, capsys):
    calls = []
    moduli = []
    suite = cli._suite_gauss_oracle
    kernel = powersums.root_of_unity_mantissas

    def tracked(d):
        moduli.append(d)
        return suite(d)

    def counting(d, prec):
        calls.append((moduli[-1], d, prec))
        return kernel(d, prec)

    monkeypatch.setattr(cli, "_suite_gauss_oracle", tracked)
    monkeypatch.setattr(powersums, "root_of_unity_mantissas", counting)
    powersums._root_table.cache_clear()
    assert cli.main(["verify", "gauss-oracle", "--dmax", "35"]) == 0
    capsys.readouterr()
    assert moduli == list(odd_squarefree_range(5, 35))
    assert calls == [(d, d, powersums.ROOT_PREC) for d in moduli]
