import random
from fractions import Fraction

import mpmath
import pytest

from kraitchik.interval import (
    FALSIFIED,
    UNRESOLVED,
    VERIFIED,
    DyadicInterval,
    IntervalDomainError,
    decide,
    default_max_precision,
    iv_abs,
    iv_add,
    iv_const_e,
    iv_const_ln2,
    iv_const_pi,
    iv_div,
    iv_exp,
    iv_from_rat,
    iv_from_surd,
    iv_ln,
    iv_mul,
    iv_pow,
    iv_sqrt,
    iv_sub,
    precision_ladder,
)

F = Fraction


def as_mpf(q: Fraction) -> mpmath.mpf:
    return mpmath.mpf(q.numerator) / q.denominator


def assert_contains(ivl: DyadicInterval, ref) -> None:
    assert as_mpf(ivl.lo) <= ref <= as_mpf(ivl.hi), (float(ivl.lo), ref, float(ivl.hi))


def test_from_rat_width_contract():
    for prec in (20, 64, 200):
        ivl = iv_from_rat(F(1, 3), prec)
        assert ivl.contains(F(1, 3))
        assert ivl.width <= F(2) ** (1 - prec)


def test_from_surd_examples():
    with mpmath.workdps(50):
        golden = iv_from_surd(F(1, 2), F(1, 2), 5, 64)
        assert_contains(golden, (1 + mpmath.sqrt(5)) / 2)
        assert golden.width <= F(2) ** -63
        assert iv_from_surd(F(0), F(0), 5, 64).contains(0)
        # cancellation between the parts must not defeat the width contract
        tight = iv_from_surd(F(-665857, 1), F(470832, 1), 2, 64)  # ~ -7.5e-7
        assert tight.width <= F(2) ** -63
        assert_contains(tight, -665857 + 470832 * mpmath.sqrt(2))


def test_constants():
    with mpmath.workdps(50):
        for prec in (30, 64, 128):
            pi = iv_const_pi(prec)
            assert_contains(pi, mpmath.pi)
            assert pi.width <= F(2) ** (1 - prec)
            e = iv_const_e(prec)
            assert_contains(e, mpmath.e)
            assert e.width <= F(2) ** (1 - prec)
            assert_contains(iv_const_ln2(prec), mpmath.log(2))


def test_exp_examples():
    with mpmath.workdps(50):
        assert iv_exp(iv_from_rat(0, 64), 64).contains(1)
        assert_contains(iv_exp(iv_from_rat(F(7, 2), 64), 64), mpmath.exp(mpmath.mpf(7) / 2))
        assert_contains(iv_exp(iv_from_rat(-40, 64), 64), mpmath.exp(-40))
        big = iv_exp(iv_from_rat(133, 128), 128)
        assert_contains(big, mpmath.exp(133))


def test_ln_and_sqrt():
    with mpmath.workdps(50):
        assert_contains(iv_sqrt(iv_from_rat(5, 64), 64), mpmath.sqrt(5))
        assert_contains(iv_ln(iv_from_rat(F(1, 7), 64), 64), -mpmath.log(7))
        assert_contains(iv_ln(iv_from_rat(1, 64), 64), mpmath.mpf(0))
        roundtrip = iv_exp(iv_ln(iv_from_rat(F(22, 7), 96), 96), 96)
        assert roundtrip.contains(F(22, 7))


def test_pow_example_from_golden_ratio():
    with mpmath.workdps(50):
        g = iv_from_surd(F(1, 2), F(1, 2), 5, 96)
        p = iv_pow(iv_from_rat(F(4, 3), 96), g, 96)
        ref = mpmath.power(mpmath.mpf(4) / 3, (1 + mpmath.sqrt(5)) / 2)
        assert_contains(p, ref)  # ~ 1.59279


def test_pow_integer_and_half_integer():
    x = iv_from_rat(F(3, 2), 64)
    assert iv_pow(x, 3, 64).contains(F(27, 8))
    assert iv_pow(x, 0, 64).contains(1)
    inv = iv_pow(x, -2, 64)
    assert inv.contains(F(4, 9))
    with mpmath.workdps(50):
        half = iv_pow(x, F(5, 2), 64)
        assert_contains(half, mpmath.power(mpmath.mpf(3) / 2, mpmath.mpf(5) / 2))


def test_pow_routes_mutually_contain():
    # the exact-squaring route and the exp/ln route must overlap on the value
    with mpmath.workdps(50):
        for base, expo in [(F(4, 3), F(7, 2)), (F(9, 5), F(3, 1)), (F(1, 2), F(5, 2))]:
            fast = iv_pow(iv_from_rat(base, 96), expo, 96)
            slow = iv_exp(
                iv_mul(iv_from_rat(expo, 96), iv_ln(iv_from_rat(base, 96), 96), 96), 96
            )
            ref = mpmath.power(as_mpf(base), as_mpf(expo))
            assert_contains(fast, ref)
            assert_contains(slow, ref)
            assert max(fast.lo, slow.lo) <= min(fast.hi, slow.hi)


def test_domain_errors():
    span = DyadicInterval(F(-1), F(1), 64)
    with pytest.raises(IntervalDomainError):
        iv_div(iv_from_rat(1, 64), span, 64)
    with pytest.raises(IntervalDomainError):
        iv_ln(span, 64)
    with pytest.raises(IntervalDomainError):
        iv_sqrt(DyadicInterval(F(-2), F(-1), 64), 64)
    with pytest.raises(IntervalDomainError):
        iv_pow(span, iv_from_rat(F(1, 3), 64), 64)
    with pytest.raises(IntervalDomainError):
        iv_from_surd(1, 1, -5, 64)


def test_decide_examples():
    golden = lambda p: iv_from_surd(F(1, 2), F(1, 2), 5, p)
    two = lambda p: iv_from_rat(2, p)
    third = lambda p: iv_from_rat(F(1, 3), p)
    assert decide(golden, two, precision_ladder(4096)).verdict == VERIFIED
    assert decide(two, golden, precision_ladder(4096)).verdict == FALSIFIED
    # exact endpoints decide 2 < 2 false; equal sides that are not exact never separate
    assert decide(two, two, precision_ladder(4096)).verdict == FALSIFIED
    stuck = decide(third, third, precision_ladder(256))
    assert stuck.verdict == UNRESOLVED and stuck.lhs.prec == stuck.rhs.prec == 256
    # a 30-digit truncation of sqrt(5) separates only beyond 64-bit enclosures
    sqrt5 = lambda p: iv_sqrt(iv_from_rat(5, p), p)
    near = lambda p: iv_from_rat(F(2236067977499789696409173668731, 10**30), p)
    assert decide(near, sqrt5, precision_ladder(64)).verdict == UNRESOLVED
    assert decide(near, sqrt5, precision_ladder(4096)).verdict == VERIFIED
    assert decide(sqrt5, near, precision_ladder(4096)).verdict == FALSIFIED
    # ln(sqrt(5) - near) ~ -70.4: at 64 bits the difference straddles 0 and
    # iv_ln raises, so that rung is skipped and 128 bits decides
    gap_log = lambda p: iv_ln(iv_sub(sqrt5(p), near(p), p), p)
    zero = lambda p: iv_from_rat(0, p)
    with pytest.raises(IntervalDomainError):
        gap_log(64)
    decided = decide(gap_log, zero, precision_ladder(4096))
    assert decided.verdict == VERIFIED and decided.lhs.prec == 128
    assert decide(gap_log, zero, precision_ladder(64)) == (UNRESOLVED, None, None)


def test_default_precision_env(monkeypatch):
    monkeypatch.delenv("KRAITCHIK_PRECISION_MAX", raising=False)
    assert default_max_precision() == 4096
    monkeypatch.setenv("KRAITCHIK_PRECISION_MAX", "512")
    assert default_max_precision() == 512
    for bad in ("4", "abc"):
        monkeypatch.setenv("KRAITCHIK_PRECISION_MAX", bad)
        with pytest.raises(ValueError):
            default_max_precision()


# ---------------------------------------------------------------------------
# randomized expression trees: containment of the mpmath reference value

class Node:
    """A random expression evaluable both as intervals and at 50 digits."""

    def __init__(self, op, kids, payload=None):
        self.op = op
        self.kids = kids
        self.payload = payload

    def interval(self, prec):
        k = [c.interval(prec) for c in self.kids]
        if self.op == "rat":
            return iv_from_rat(self.payload, prec)
        if self.op == "surd":
            x, y, d = self.payload
            return iv_from_surd(x, y, d, prec)
        if self.op == "pi":
            return iv_const_pi(prec)
        if self.op == "add":
            return iv_add(k[0], k[1], prec)
        if self.op == "sub":
            return iv_sub(k[0], k[1], prec)
        if self.op == "mul":
            return iv_mul(k[0], k[1], prec)
        if self.op == "sqrt":
            return iv_sqrt(iv_abs(k[0], prec), prec)
        if self.op == "exp":
            return iv_exp(k[0], prec)
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
        if self.op == "sqrt":
            return mpmath.sqrt(abs(k[0]))
        if self.op == "exp":
            return mpmath.exp(k[0])
        raise AssertionError(self.op)


def random_tree(rng: random.Random, depth: int) -> Node:
    if depth == 0:
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
    op = rng.choice(["add", "sub", "mul", "sqrt", "exp"])
    if op in ("add", "sub", "mul"):
        return Node(op, [random_tree(rng, depth - 1), random_tree(rng, depth - 1)])
    if op == "exp":
        # keep exponents desk-sized: exp of a leaf only
        return Node("exp", [random_tree(rng, 0)])
    return Node(op, [random_tree(rng, depth - 1)])


def test_random_trees_containment():
    with mpmath.workdps(50):
        rng = random.Random(46116)
        for _ in range(10**4):
            tree = random_tree(rng, rng.randint(1, 3))
            ref = tree.reference()
            assert_contains(tree.interval(32), ref)
            assert_contains(tree.interval(64), ref)
