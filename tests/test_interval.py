import math
import random
from fractions import Fraction
from types import SimpleNamespace

import interval_oracle
import mpmath
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from interval_oracle import as_fractions, show
from mpmath.libmp import to_rational
from oracles import iv_div

from kraitchik import bounds, interval, powersums, ratio
from kraitchik.interval import (
    FALSIFIED,
    GUARD_BITS,
    UNRESOLVED,
    VERIFIED,
    DyadicInterval,
    IntervalDomainError,
    decide,
    iv_add,
    iv_const_pi,
    iv_from_rat,
    iv_from_surd,
    iv_ln,
    iv_sub,
    precision_ladder,
)
from kraitchik.numtheory import odd_squarefree_range
from kraitchik.powersums import DiscriminantContext

F = Fraction


def as_mpf(q: Fraction) -> mpmath.mpf:
    return mpmath.mpf(q.numerator) / q.denominator


def assert_contains(ivl, ref) -> None:
    assert as_mpf(as_fractions(ivl).lo) <= ref <= as_mpf(as_fractions(ivl).hi), (show(ivl), ref)


def iv_abs(x: DyadicInterval, prec: int) -> DyadicInterval:
    if x.lo_m >= 0:
        return x
    if x.hi_m <= 0:
        return DyadicInterval(-x.hi_m, -x.lo_m, prec)
    return DyadicInterval(0, max(-x.lo_m, x.hi_m), prec)


def test_from_rat_width_contract():
    for prec in (20, 64, 200):
        ivl = as_fractions(iv_from_rat(F(1, 3), prec))
        assert ivl.contains(F(1, 3))
        assert ivl.width <= F(2) ** (1 - prec)


def test_from_surd_examples():
    with mpmath.workdps(50):
        golden = iv_from_surd(F(1, 2), F(1, 2), 5, 64)
        assert_contains(golden, (1 + mpmath.sqrt(5)) / 2)
        assert as_fractions(golden).width <= F(2) ** -63
        assert as_fractions(iv_from_surd(F(0), F(0), 5, 64)).contains(0)
        # cancellation between the parts must not defeat the width contract
        tight = iv_from_surd(F(-665857, 1), F(470832, 1), 2, 64)  # ~ -7.5e-7
        assert as_fractions(tight).width <= F(2) ** -63
        assert_contains(tight, -665857 + 470832 * mpmath.sqrt(2))


def test_constants():
    with mpmath.workdps(50):
        for prec in (30, 64, 128):
            pi = iv_const_pi(prec)
            assert_contains(pi, mpmath.pi)
            assert as_fractions(pi).width <= F(2) ** (1 - prec)


# Each root's kernel enclosure must hold mpmath's 40-digit interval, itself under one grid
# unit wide, and be at most 4 grid units wide: a series cut short, or the angle or an end
# rounded inward, breaks one of the two
ROOT_MODULI = [*odd_squarefree_range(3, 1001), 6997]


def test_root_of_unity_kernel_encloses_each_root_narrowly():
    prec = powersums.ROOT_PREC
    scale = 2 ** (prec + GUARD_BITS)
    old = mpmath.iv.dps
    mpmath.iv.dps = 40
    try:
        refs = [(mpmath.iv.cos(2 * mpmath.iv.pi / d), mpmath.iv.sin(2 * mpmath.iv.pi / d)) for d in ROOT_MODULI]
    finally:
        mpmath.iv.dps = old
    for d, ref in zip(ROOT_MODULI, refs):
        c_lo, c_hi, s_lo, s_hi = interval.root_of_unity_mantissas(d, prec)
        for lo_m, hi_m, x in ((c_lo, c_hi, ref[0]), (s_lo, s_hi, ref[1])):
            lo, hi = (F(*to_rational(e)) for e in x._mpi_)
            assert lo_m <= lo * scale and hi * scale <= hi_m, d
            assert (hi - lo) * scale < 1 and hi_m - lo_m <= 4, d


def test_root_of_unity_kernel_refuses_small_moduli():
    for d in (-1, 0, 1, 2):
        with pytest.raises(ValueError, match="d >= 3"):
            interval.root_of_unity_mantissas(d, 64)


def test_mul_mantissas_covers_every_sign():
    # the product's range over two intervals of any signs is two of its four corner
    # products: mul_mantissas returns them on the grid 2^0 (the root table's use), and
    # floors the least and ceils the greatest onto a coarser grid
    intervals = [(-5, -3), (-2, 3), (4, 7)]
    for a in intervals:
        for b in intervals:
            products = [x * y for x in range(a[0], a[1] + 1) for y in range(b[0], b[1] + 1)]
            for g in (0, 2):
                want = (math.floor(F(min(products), 2**g)), math.ceil(F(max(products), 2**g)))
                assert interval.mul_mantissas(*a, *b, g - GUARD_BITS) == want, (a, b, g)


mantissa_intervals = st.lists(st.integers(min_value=-(2**80), max_value=2**80), min_size=2, max_size=2).map(sorted)


@settings(max_examples=300, deadline=None)
@given(x=mantissa_intervals, y=mantissa_intervals, prec=st.sampled_from([-GUARD_BITS, -GUARD_BITS + 1, 0, 64]))
def test_mul_mantissas_matches_the_four_corners(x, y, prec):
    # the two-product path for nonnegative lower ends gives what the four corners give, at any sign
    corners = [a * b for a in x for b in y]
    g = prec + GUARD_BITS
    want = (math.floor(F(min(corners), 2**g)), math.ceil(F(max(corners), 2**g)))
    assert interval.mul_mantissas(*x, *y, prec) == want


# exp and powers are the direct forms' kernels in the Fraction-endpoint oracle only

def test_exp_examples():
    with mpmath.workdps(50):
        assert ORACLE.iv_exp(ORACLE.iv_from_rat(0, 64), 64).contains(1)
        assert_contains(ORACLE.iv_exp(ORACLE.iv_from_rat(F(7, 2), 64), 64), mpmath.exp(mpmath.mpf(7) / 2))
        assert_contains(ORACLE.iv_exp(ORACLE.iv_from_rat(-40, 64), 64), mpmath.exp(-40))
        big = ORACLE.iv_exp(ORACLE.iv_from_rat(133, 128), 128)
        assert_contains(big, mpmath.exp(133))
        roundtrip = ORACLE.iv_exp(ORACLE.iv_ln(ORACLE.iv_from_rat(F(22, 7), 96), 96), 96)
        assert roundtrip.contains(F(22, 7))


def test_ln_and_sqrt():
    with mpmath.workdps(50):
        assert_contains(iv_from_surd(0, 1, 5, 64), mpmath.sqrt(5))
        assert_contains(iv_ln(iv_from_rat(F(1, 7), 64), 64), -mpmath.log(7))
        assert_contains(iv_ln(iv_from_rat(1, 64), 64), mpmath.mpf(0))


def test_pow_example_from_golden_ratio():
    with mpmath.workdps(50):
        g = ORACLE.iv_from_surd(F(1, 2), F(1, 2), 5, 96)
        p = ORACLE.iv_pow(ORACLE.iv_from_rat(F(4, 3), 96), g, 96)
        ref = mpmath.power(mpmath.mpf(4) / 3, (1 + mpmath.sqrt(5)) / 2)
        assert_contains(p, ref)  # ~ 1.59279


def test_pow_integer_and_half_integer():
    x = ORACLE.iv_from_rat(F(3, 2), 64)
    assert ORACLE.iv_pow(x, 3, 64).contains(F(27, 8))
    assert ORACLE.iv_pow(x, 0, 64).contains(1)
    inv = ORACLE.iv_pow(x, -2, 64)
    assert inv.contains(F(4, 9))
    with mpmath.workdps(50):
        half = ORACLE.iv_pow(x, F(5, 2), 64)
        assert_contains(half, mpmath.power(mpmath.mpf(3) / 2, mpmath.mpf(5) / 2))


def test_pow_routes_mutually_contain():
    # the oracle's exact-squaring route (a rational exponent) and its exp/ln route
    # (an interval exponent) must overlap on the value
    with mpmath.workdps(50):
        for base, expo in [(F(4, 3), F(7, 2)), (F(9, 5), F(3, 1)), (F(1, 2), F(5, 2))]:
            x = ORACLE.iv_from_rat(base, 96)
            fast = ORACLE.iv_pow(x, expo, 96)
            slow = ORACLE.iv_pow(x, ORACLE.iv_from_rat(expo, 96), 96)
            ref = mpmath.power(as_mpf(base), as_mpf(expo))
            assert_contains(fast, ref)
            assert_contains(slow, ref)
            assert max(fast.lo, slow.lo) <= min(fast.hi, slow.hi)


def test_domain_errors():
    one = 1 << (64 + GUARD_BITS)  # 1 as a mantissa at 64 bits
    span = DyadicInterval(-one, one, 64)
    with pytest.raises(IntervalDomainError):
        iv_div(iv_from_rat(1, 64), span, 64)
    with pytest.raises(IntervalDomainError):
        iv_ln(span, 64)
    with pytest.raises(IntervalDomainError):
        iv_from_surd(1, 1, -5, 64)
    # past 4300 decimal digits a decimal message would raise a plain ValueError, which decide does not catch
    for iv in (interval, ORACLE):
        with pytest.raises(IntervalDomainError, match="^log needs a strictly positive interval"):
            iv.iv_ln(iv.iv_sub(0, iv.iv_from_rat(2**20000, 64), 64), 64)


def decide_one(lhs, rhs, rungs):
    """``decide`` on the family of the one case lhs < rhs."""
    (decision,) = decide([(lhs, rhs)], rungs)
    return decision


def test_decide_examples():
    golden = lambda p: iv_from_surd(F(1, 2), F(1, 2), 5, p)
    two = lambda p: iv_from_rat(2, p)
    third = lambda p: iv_from_rat(F(1, 3), p)
    assert decide_one(golden, two, precision_ladder(4096)).verdict == VERIFIED
    assert decide_one(two, golden, precision_ladder(4096)).verdict == FALSIFIED
    # exact endpoints decide 2 < 2 false; equal sides that are not exact never separate
    assert decide_one(two, two, precision_ladder(4096)).verdict == FALSIFIED
    stuck = decide_one(third, third, precision_ladder(256))
    assert stuck.verdict == UNRESOLVED and stuck.lhs.prec == stuck.rhs.prec == 256
    # a 30-digit truncation of sqrt(5) separates only beyond 64-bit enclosures
    sqrt5 = lambda p: iv_from_surd(0, 1, 5, p)
    near = lambda p: iv_from_rat(F(2236067977499789696409173668731, 10**30), p)
    assert decide_one(near, sqrt5, precision_ladder(64)).verdict == UNRESOLVED
    assert decide_one(near, sqrt5, precision_ladder(4096)).verdict == VERIFIED
    assert decide_one(sqrt5, near, precision_ladder(4096)).verdict == FALSIFIED
    # ln(sqrt(5) - near) ~ -70.4: at 64 bits the difference straddles 0 and
    # iv_ln raises, so that rung is skipped and 128 bits decides
    gap_log = lambda p: iv_ln(iv_sub(sqrt5(p), near(p), p), p)
    zero = lambda p: iv_from_rat(0, p)
    with pytest.raises(IntervalDomainError):
        gap_log(64)
    decided = decide_one(gap_log, zero, precision_ladder(4096))
    assert decided.verdict == VERIFIED and decided.lhs.prec == 128
    assert decide_one(gap_log, zero, precision_ladder(64)) == (UNRESOLVED, None, None)


# the driver over a family of cases: which rungs it takes and which sides it evaluates

GOLDEN = lambda p: iv_from_surd(F(1, 2), F(1, 2), 5, p)
TWO = lambda p: iv_from_rat(2, p)
SQRT5 = lambda p: iv_from_surd(0, 1, 5, p)
# sqrt(5) truncated and rounded up at 30 digits: about 2^-101 and 2^-100 from it, so each
# separates from sqrt(5) only beyond 64-bit enclosures
BELOW = lambda p: iv_from_rat(F(2236067977499789696409173668731, 10**30), p)
ABOVE = lambda p: iv_from_rat(F(2236067977499789696409173668732, 10**30), p)
# ln(sqrt(5) - BELOW) ~ -70.4: at 64 bits the difference straddles 0 and iv_ln raises
GAP_LOG = lambda p: iv_ln(iv_sub(SQRT5(p), BELOW(p), p), p)
ZERO = lambda p: iv_from_rat(0, p)


def traced(calls: list, name: str, side):
    """``side``, with each call noted in ``calls`` as (name, prec)."""

    def call(p):
        calls.append((name, p))
        return side(p)

    return call


def taking(rungs, taken: list):
    """The rungs, each noted in ``taken`` when the driver takes it."""
    for p in rungs:
        taken.append(p)
        yield p


def mantissas(decision):
    return decision.verdict, *((s.lo_m, s.hi_m, s.prec) if s else None for s in (decision.lhs, decision.rhs))


def test_decide_takes_a_rung_only_while_a_case_is_open():
    # of three cases only the middle one needs 128 bits: rung 128 is taken once, for it alone,
    # and no rung past it is taken
    calls, taken = [], []
    names = ("golden", "two", "below", "sqrt5", "two'", "golden'")
    sides = [traced(calls, name, side) for name, side in zip(names, (GOLDEN, TWO, BELOW, SQRT5, TWO, GOLDEN))]
    cases = list(zip(sides[::2], sides[1::2]))
    decisions = decide(cases, taking(precision_ladder(4096), taken))
    assert taken == [64, 128]
    assert [(d.verdict, d.lhs.prec) for d in decisions] == [(VERIFIED, 64), (VERIFIED, 128), (FALSIFIED, 64)]
    assert sorted(name for name, p in calls if p == 64) == sorted(names)
    assert [call for call in calls if call[1] == 128] == [("below", 128), ("sqrt5", 128)]


def test_a_shared_side_is_evaluated_once_per_case_and_rung():
    # one sqrt(5) object on the right of two cases that both need 128 bits: decide keeps no
    # memo, so each open case calls it on each rung it takes
    calls = []
    rhs = traced(calls, "sqrt5", SQRT5)
    decisions = decide([(BELOW, rhs), (ABOVE, rhs)], precision_ladder(4096))
    assert [(d.verdict, d.lhs.prec) for d in decisions] == [(VERIFIED, 128), (FALSIFIED, 128)]
    assert calls == [("sqrt5", 64)] * 2 + [("sqrt5", 128)] * 2


def test_an_empty_family_takes_no_rung():
    taken = []
    assert decide([], taking(precision_ladder(4096), taken)) == []
    assert taken == []


def test_a_domain_error_keeps_its_case_open():
    # GAP_LOG has no enclosure at 64 bits, on either side of a case; the other case still
    # decides there, and the open ones decide at 128
    calls = []
    gap_log = traced(calls, "gap_log", GAP_LOG)
    cases = [(gap_log, traced(calls, "zero", ZERO)), (GOLDEN, TWO), (ZERO, gap_log)]
    decisions = decide(cases, precision_ladder(4096))
    assert [(d.verdict, d.lhs.prec) for d in decisions] == [(VERIFIED, 128), (VERIFIED, 64), (FALSIFIED, 128)]
    # each open case calls gap_log on each rung; a case whose lhs raised never calls its rhs
    assert calls == [("gap_log", 64), ("gap_log", 64), ("gap_log", 128), ("zero", 128), ("gap_log", 128)]
    assert [mantissas(d) for d in decide(cases, precision_ladder(64))] == [
        (UNRESOLVED, None, None),
        mantissas(decide_one(GOLDEN, TWO, precision_ladder(64))),
        (UNRESOLVED, None, None),
    ]


def test_decisions_come_back_in_case_order():
    # a family decided on different rungs, and with different verdicts, in either order:
    # each case's decision is the one it gets alone, at its own index
    third = lambda p: iv_from_rat(F(1, 3), p)
    cases = [
        (BELOW, SQRT5),
        (GOLDEN, TWO),
        (third, third),
        (SQRT5, ABOVE),
        (TWO, GOLDEN),
        (GAP_LOG, ZERO),
        (TWO, TWO),
        (ABOVE, SQRT5),
    ]
    alone = [mantissas(decide_one(lhs, rhs, precision_ladder(1024))) for lhs, rhs in cases]
    assert [v for v, *_ in alone] == [VERIFIED, VERIFIED, UNRESOLVED, VERIFIED, FALSIFIED, VERIFIED, FALSIFIED, FALSIFIED]
    assert [mantissas(d) for d in decide(cases, precision_ladder(1024))] == alone
    assert [mantissas(d) for d in decide(cases[::-1], precision_ladder(1024))] == alone[::-1]


def test_precision_ladder_checks_its_ceiling():
    assert precision_ladder() == (64, 128, 256, 512, 1024, 2048, 4096)
    assert precision_ladder(65536)[-1] == 65536
    assert precision_ladder(32) == ()  # a ceiling below the 64-bit start: no rung, so unresolved
    for bad in (4, 65537, 10**9):
        with pytest.raises(ValueError, match="max_precision"):
            precision_ladder(bad)


# ---------------------------------------------------------------------------
# randomized expression trees: containment of the mpmath reference value, and
# bit-identical endpoints against the Fraction-endpoint oracle

# the integer-mantissa module and the oracle under one set of names
NEW = SimpleNamespace(
    **{k: getattr(interval, k) for k in dir(interval) if k.startswith("iv_")}, iv_abs=iv_abs, iv_div=iv_div
)
ORACLE = interval_oracle


class Node:
    """A random expression evaluable as intervals of either module and at 50 digits."""

    def __init__(self, op, kids, payload=None):
        self.op = op
        self.kids = kids
        self.payload = payload

    def interval(self, prec, iv=NEW):
        k = [c.interval(prec, iv) for c in self.kids]
        if self.op == "rat":
            return iv.iv_from_rat(self.payload, prec)
        if self.op == "surd":
            x, y, d = self.payload
            return iv.iv_from_surd(x, y, d, prec)
        if self.op == "pi":
            return iv.iv_const_pi(prec)
        if self.op == "add":
            return iv.iv_add(k[0], k[1], prec)
        if self.op == "sub":
            return iv.iv_sub(k[0], k[1], prec)
        if self.op == "mul":
            return iv.iv_mul(k[0], k[1], prec)
        if self.op == "div":
            return iv.iv_div(k[0], k[1], prec)
        if self.op == "ln":
            return iv.iv_ln(iv.iv_add(iv.iv_abs(k[0], prec), F(1, 7), prec), prec)
        raise AssertionError(self.op)

    def reference(self):
        k = [c.reference() for c in self.kids]
        if self.op == "rat":
            return as_mpf(self.payload)
        if self.op == "surd":
            x, y, d = self.payload
            return as_mpf(x) + as_mpf(y) * mpmath.sqrt(d)
        if self.op == "pi":
            return mpmath.pi
        if self.op == "add":
            return k[0] + k[1]
        if self.op == "sub":
            return k[0] - k[1]
        if self.op == "mul":
            return k[0] * k[1]
        if self.op == "div":
            return k[0] / k[1]
        if self.op == "ln":
            return mpmath.log(abs(k[0]) + mpmath.mpf(1) / 7)
        raise AssertionError(self.op)


BASIC_OPS = ("add", "sub", "mul", "ln")
ALL_OPS = BASIC_OPS + ("div",)


def random_leaf(rng: random.Random) -> Node:
    choice = rng.randrange(3)
    if choice == 0:
        return Node("rat", [], F(rng.randint(-40, 40), rng.randint(1, 9)))
    if choice == 1:
        return Node(
            "surd",
            [],
            (
                F(rng.randint(-8, 8), rng.randint(1, 4)),
                F(rng.randint(-8, 8), rng.randint(1, 4)),
                rng.choice([2, 3, 5, 7, 13]),
            ),
        )
    return Node("pi", [])


def random_tree(rng: random.Random, depth: int, ops=BASIC_OPS) -> Node:
    if depth == 0:
        return random_leaf(rng)
    op = rng.choice(ops)
    if op in ("add", "sub", "mul", "div"):
        return Node(op, [random_tree(rng, depth - 1, ops), random_tree(rng, depth - 1, ops)])
    return Node(op, [random_tree(rng, depth - 1, ops)])


def test_random_trees_containment():
    with mpmath.workdps(50):
        rng = random.Random(46116)
        for _ in range(10**4):
            tree = random_tree(rng, rng.randint(1, 3))
            ref = tree.reference()
            assert_contains(tree.interval(32), ref)
            assert_contains(tree.interval(64), ref)


def _outcome(tree: Node, prec: int, iv):
    """The enclosure's exact endpoints, or the domain error's name."""
    try:
        ivl = as_fractions(tree.interval(prec, iv))
    except (IntervalDomainError, interval_oracle.IntervalDomainError) as exc:
        return type(exc).__name__
    return ivl.lo, ivl.hi, ivl.prec


@pytest.mark.parametrize("prec", [64, 256, 1024])  # ln: the table step at 64, square-root reductions above
def test_random_trees_match_the_fraction_oracle(prec):
    rng = random.Random(prec)
    enclosed = 0
    with mpmath.workprec(2 * prec + 128):  # a reference well inside the enclosures' widths
        for _ in range(400):
            tree = random_tree(rng, rng.randint(1, 3), ALL_OPS)
            got = _outcome(tree, prec, NEW)
            assert got == _outcome(tree, prec, ORACLE)
            if not isinstance(got, str):
                enclosed += 1
                assert as_mpf(got[0]) <= tree.reference() <= as_mpf(got[1])
    assert enclosed >= 300


def _ln_kernel_inputs(bits: int) -> list[Fraction]:
    """Seeded rationals, then each table boundary 1 + t/64, one unit of the
    kernel's 2^-(bits+48) grid below it, the largest mantissa below 2 on that
    grid, a mantissa below 2 by less than a unit of it (whose ceiling is 2),
    and 1, each at exponents k of both signs."""
    rng = random.Random(bits)
    sample = [F(rng.getrandbits(rng.randint(1, 600)) + 1, rng.getrandbits(rng.randint(1, 600)) + 1) for _ in range(300)]
    ws = bits + 48
    table = [F(64 + t, 64) for t in range(64)] + [F(((64 + t) << (ws - 6)) - 1, 1 << ws) for t in range(1, 64)]
    edges = table + [F((2 << ws) - 1, 1 << ws), F((2 << (ws + 13)) - 1, 1 << (ws + 13)), F(1)]
    return sample + [m * F(2) ** k for m in edges for k in (-300, -7, -1, 0, 1, 9, 300)]


@pytest.mark.parametrize("bits", [96, 160, 288, 544, 1056])  # the ln of rungs 64, 128, 256, 512 and 1024
def test_ln_kernel_matches_the_untabled_oracle(bits):
    for q in _ln_kernel_inputs(bits):
        lo, hi = interval_oracle._ln_point_bounds(q, bits)
        got = interval._ln_bound(q.numerator, q.denominator, bits, False), interval._ln_bound(
            q.numerator, q.denominator, bits, True
        )
        assert got == (interval_oracle._floor_scaled(lo, bits), interval_oracle._ceil_scaled(hi, bits)), q


@pytest.mark.parametrize("bits", [96, 160, 288, 544, 1056])
def test_ln_kernel_rounds_outward_next_to_grid_points(bits):
    # y = N/2^bits on the output grid, with its mantissa in each table interval;
    # q = exp(y)(1 +- ~2^-(bits+200)) puts ln q within a hair of y on either side,
    # where rounding the kernel's 2^-(bits+48) sum to the grid leaves no slack, so a
    # bound rounded inward there shows; at k = 0 no ln 2 term widens the sum
    with mpmath.workprec(bits + 300):
        for t in range(64):
            for k in (-9, 0, 5):
                n = int(mpmath.floor((mpmath.log(1 + (t + mpmath.mpf(1) / 2) / 64) + k * mpmath.ln2) * 2**bits))
                man, exp = mpmath.exp(mpmath.mpf(n) / 2**bits).man_exp
                q = F(man) * F(2) ** exp
                for side, want in ((1, (n, n + 1)), (-1, (n - 1, n))):
                    x = q + side * q / 2 ** (bits + 200)
                    lo, hi = (interval._ln_bound(x.numerator, x.denominator, bits, up) for up in (False, True))
                    assert lo <= want[0] and want[1] <= hi and hi - lo <= 2, (t, k, side)


# ln's working scale 2^-ws at each rung 64..4096: the table's entries, and ln 2 for the power of two
@pytest.mark.parametrize("ws", [prec + GUARD_BITS + 48 for prec in precision_ladder()])
def test_ln_table_encloses_the_logs_it_stands_for(ws):
    lows, highs = interval._ln_table(ws, False), interval._ln_table(ws, True)
    assert len(lows) == len(highs) == 1 << interval.TABLE_BITS
    with mpmath.workprec(ws + 64):
        assert interval._ln2_bound(ws, False) < mpmath.ln2 * 2**ws < interval._ln2_bound(ws, True)
        for t, (lo, hi) in enumerate(zip(lows, highs)):
            ref = mpmath.log(1 + mpmath.mpf(t) / 64) * mpmath.mpf(2) ** ws
            assert lo <= ref <= hi, t


@pytest.mark.parametrize("k", [1, -1, 64, -64, 1500, -1500])
def test_ln_of_a_power_of_two_multiple_is_enclosed_at_every_rung(k):
    # q = m * 2^k with ln q a hair below or above a point of the output grid, so that
    # k ln 2 taken with the wrong directed bound shows; ln's kernel is called on q
    # itself, since 2^-1500 lies below the grid of every rung that iv_ln reads
    for prec in precision_ladder():  # the rungs 64..4096
        bits = prec + GUARD_BITS
        with mpmath.workprec(bits + 300):
            n = int(mpmath.floor((mpmath.log(mpmath.mpf(3) / 2) + k * mpmath.ln2) * 2**bits))
            for side in (-1, 1):
                man, exp = (mpmath.exp(mpmath.mpf(n) / 2**bits) * (1 + side * mpmath.mpf(2) ** -(bits + 200))).man_exp
                q = F(man) * F(2) ** exp
                assert interval._ilog2_floor(q.numerator, q.denominator) == k
                lo, hi = (interval._ln_bound(q.numerator, q.denominator, bits, up) for up in (False, True))
                ref = mpmath.log(mpmath.mpf(man) * mpmath.mpf(2) ** exp) * 2**bits
                assert lo <= ref <= hi and hi - lo <= 2, (prec, side)


def test_constants_match_the_fraction_oracle():
    for prec in (30, 64, 256, 1024):
        assert as_fractions(iv_const_pi(prec)) == ORACLE.iv_const_pi(prec)


@pytest.fixture(params=[64, 256])
def both_modules(request, monkeypatch):
    """(prec, use): ``use(module, iv)`` rebinds the module's iv_* names to those of ``iv``."""

    def use(module, iv):
        for name in dir(module):
            if name.startswith("iv_"):
                monkeypatch.setattr(module, name, getattr(iv, name))

    return request.param, use


def clear_oracle_caches():
    for cache in (oracles._ln_pi, oracles._ln_int, oracles._ln_base_minus_one):
        cache.cache_clear()


@pytest.fixture
def cold_oracle_caches():
    """Empty the per-n strict-bound oracle's logarithm caches before and after, so no
    enclosure outlives the interval module that built it."""
    clear_oracle_caches()
    yield clear_oracle_caches
    clear_oracle_caches()


def test_log_bounds_match_the_fraction_oracle(both_modules, cold_oracle_caches):
    # the per-n ``oracles.log_bounds`` on the iv_* operations against the same on Fraction
    # endpoints; tests/test_bounds.py ties ``bounds._min_log_t`` to ``oracles.log_bounds``
    prec, use = both_modules
    cases = []
    for d in odd_squarefree_range(5, 149):
        ctx = DiscriminantContext.for_modulus(d)
        cases += [(bounds.abs_bound_base(ctx, n), n) for n in range(1, ctx.dprime + 1)]
    assert len(cases) == 1905
    new = [oracles.log_bounds(base, n, prec) for base, n in cases]
    use(oracles, ORACLE)
    cold_oracle_caches()
    old = [oracles.log_bounds(base, n, prec) for base, n in cases]
    for (base, n), ts, refs in zip(cases, new, old):
        assert list(map(as_fractions, ts)) == list(refs), (base, n)


def test_ratio_envelopes_match_the_fraction_oracle(both_modules, monkeypatch, pairs_149):
    prec, use = both_modules
    captured = []

    def capture(cases, rungs):
        # both log sides of each case at the one precision under test, whatever the ladder
        decisions = []
        for lhs, rhs in cases:
            captured.append((lhs(prec), rhs(prec)))
            decisions.append(interval.Decision("captured", *captured[-1]))
        return decisions

    monkeypatch.setattr(ratio, "decide", capture)

    def log_sides():
        captured.clear()
        for pair in pairs_149.values():
            for x in ratio.default_sample_points(pair):
                ratio.check_ratio_approx(pair, x)
        return [list(map(as_fractions, sides)) for sides in captured]

    new = log_sides()
    use(ratio, ORACLE)
    assert len(new) == 177 and log_sides() == new


def test_mixed_precisions_are_refused():
    with pytest.raises(ValueError):
        iv_add(iv_from_rat(1, 64), iv_from_rat(1, 128), 64)
    with pytest.raises(ValueError, match="precisions 64 and 128"):
        decide([(lambda p: iv_from_rat(1, p), lambda p: iv_from_rat(2, 2 * p))], [64])
    # also when the mixed case follows one that the rung decides
    with pytest.raises(ValueError, match="precisions 64 and 128"):
        decide([(GOLDEN, TWO), (lambda p: iv_from_rat(1, p), lambda p: iv_from_rat(2, 2 * p))], [64])


def test_repr_past_the_float_range():
    # float() overflows at 2^1024, which would turn a failing assertion's report into a second crash
    big = iv_from_rat(2**1500, 64)
    assert show(big) == "DyadicInterval(3.5074662110434038E+451, 3.5074662110434039E+451, prec=64)"
    base = bounds.abs_bound_base(DiscriminantContext.for_modulus(6997), 3000)
    t3 = ORACLE.to_mantissas(ORACLE.three_bounds(base, 3000, 64)[2])
    assert show(t3).startswith("DyadicInterval(6.77") and show(t3).endswith("E+915, prec=64)")
    # 17 digits rounded outward: the printed endpoints still enclose the value
    assert show(iv_from_rat(F(-1, 3), 64)) == "DyadicInterval(-0.33333333333333334, -0.33333333333333333, prec=64)"


def test_inverted_interval_message_survives_huge_mantissas():
    # a decimal str() of a mantissa past 4300 digits raises its own ValueError in place of this one
    with pytest.raises(ValueError, match="^inverted interval"):
        DyadicInterval(2**20000, 1, 64)
    with pytest.raises(ValueError, match="^inverted interval"):
        ORACLE.DyadicInterval(F(2**20000, 3), F(1), 64)
    assert repr(ORACLE.DyadicInterval(F(1), F(2**20000, 3), 64)).startswith("DyadicInterval(0x1/0x1, 0x")
