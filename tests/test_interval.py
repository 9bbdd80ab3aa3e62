import random
from fractions import Fraction
from types import SimpleNamespace

import interval_oracle
import mpmath
import pytest

from kraitchik import bounds, interval, ratio
from kraitchik.interval import (
    FALSIFIED,
    GUARD_BITS,
    UNRESOLVED,
    VERIFIED,
    DyadicInterval,
    IntervalDomainError,
    _ln2_bounds,
    decide,
    iv_add,
    iv_const_e,
    iv_const_pi,
    iv_div,
    iv_exp,
    iv_from_rat,
    iv_from_surd,
    iv_ln,
    iv_mul,
    iv_neg,
    iv_pow,
    iv_sqrt,
    iv_sub,
    precision_ladder,
)
from kraitchik.numtheory import odd_squarefree_range
from kraitchik.powersums import DiscriminantContext

F = Fraction


def as_mpf(q: Fraction) -> mpmath.mpf:
    return mpmath.mpf(q.numerator) / q.denominator


def assert_contains(ivl: DyadicInterval, ref) -> None:
    assert as_mpf(ivl.lo) <= ref <= as_mpf(ivl.hi), (float(ivl.lo), ref, float(ivl.hi))


def iv_abs(x: DyadicInterval, prec: int) -> DyadicInterval:
    if x.lo_m >= 0:
        return x
    if x.hi_m <= 0:
        return iv_neg(x, prec)
    return DyadicInterval(0, max(-x.lo_m, x.hi_m), prec)


def iv_const_ln2(prec: int) -> DyadicInterval:
    lo, hi = _ln2_bounds(prec + GUARD_BITS)  # mantissas over 2^(prec + GUARD_BITS + 16)
    return DyadicInterval(lo >> 16, -(-hi >> 16), prec)


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
    one = 1 << (64 + GUARD_BITS)  # 1 as a mantissa at 64 bits
    span = DyadicInterval(-one, one, 64)
    with pytest.raises(IntervalDomainError):
        iv_div(iv_from_rat(1, 64), span, 64)
    with pytest.raises(IntervalDomainError):
        iv_ln(span, 64)
    with pytest.raises(IntervalDomainError):
        iv_sqrt(DyadicInterval(-2 * one, -one, 64), 64)
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
NEW = SimpleNamespace(**{k: getattr(interval, k) for k in dir(interval) if k.startswith("iv_")}, iv_abs=iv_abs)
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
        if self.op == "e":
            return iv.iv_const_e(prec)
        if self.op == "add":
            return iv.iv_add(k[0], k[1], prec)
        if self.op == "sub":
            return iv.iv_sub(k[0], k[1], prec)
        if self.op == "mul":
            return iv.iv_mul(k[0], k[1], prec)
        if self.op == "div":
            return iv.iv_div(k[0], k[1], prec)
        if self.op == "sqrt":
            return iv.iv_sqrt(iv.iv_abs(k[0], prec), prec)
        if self.op == "exp":
            return iv.iv_exp(k[0], prec)
        if self.op == "ln":
            return iv.iv_ln(iv.iv_add(iv.iv_abs(k[0], prec), F(1, 7), prec), prec)
        if self.op == "pow":
            base = iv.iv_add(iv.iv_abs(k[0], prec), F(1, 7), prec)
            return iv.iv_pow(base, k[1] if len(k) > 1 else self.payload, prec)
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
        if self.op == "e":
            return mpmath.e
        if self.op == "add":
            return k[0] + k[1]
        if self.op == "sub":
            return k[0] - k[1]
        if self.op == "mul":
            return k[0] * k[1]
        if self.op == "div":
            return k[0] / k[1]
        if self.op == "sqrt":
            return mpmath.sqrt(abs(k[0]))
        if self.op == "exp":
            return mpmath.exp(k[0])
        if self.op == "ln":
            return mpmath.log(abs(k[0]) + mpmath.mpf(1) / 7)
        if self.op == "pow":
            expo = k[1] if len(k) > 1 else as_mpf(F(self.payload))
            return mpmath.power(abs(k[0]) + mpmath.mpf(1) / 7, expo)
        raise AssertionError(self.op)


BASIC_OPS = ("add", "sub", "mul", "sqrt", "exp")
ALL_OPS = BASIC_OPS + ("div", "ln", "pow")


def random_leaf(rng: random.Random, constants=("pi",)) -> Node:
    choice = rng.randrange(2 + len(constants))
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
    return Node(constants[choice - 2], [])


def random_tree(rng: random.Random, depth: int, ops=BASIC_OPS, constants=("pi",)) -> Node:
    if depth == 0:
        return random_leaf(rng, constants)
    op = rng.choice(ops)
    if op in ("add", "sub", "mul", "div"):
        return Node(op, [random_tree(rng, depth - 1, ops, constants), random_tree(rng, depth - 1, ops, constants)])
    if op == "exp":
        # keep exponents desk-sized: exp of a leaf only
        return Node("exp", [random_leaf(rng, constants)])
    if op == "pow":
        base = random_tree(rng, depth - 1, ops, constants)
        kind = rng.randrange(4)
        if kind == 0:  # integer exponent, negative ones through a reciprocal
            return Node("pow", [base], rng.randint(-3, 4))
        if kind == 1:  # half-integer exponent: exact squaring, then one square root
            return Node("pow", [base], F(2 * rng.randint(-2, 3) + 1, 2))
        if kind == 2:  # general rational exponent: exp(y ln x)
            return Node("pow", [base], F(rng.randint(-9, 9), rng.choice([3, 5, 7])))
        return Node("pow", [base, random_leaf(rng, constants)])  # interval exponent
    return Node(op, [random_tree(rng, depth - 1, ops, constants)])


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
        ivl = tree.interval(prec, iv)
    except (IntervalDomainError, interval_oracle.IntervalDomainError) as exc:
        return type(exc).__name__
    return ivl.lo, ivl.hi, ivl.prec


@pytest.mark.parametrize("prec", [64, 256, 1024])  # the three square-root reductions of ln
def test_random_trees_match_the_fraction_oracle(prec):
    rng = random.Random(prec)
    enclosed = 0
    with mpmath.workprec(2 * prec + 128):  # a reference well inside the enclosures' widths
        for _ in range(400):
            tree = random_tree(rng, rng.randint(1, 3), ALL_OPS, ("pi", "e"))
            got = _outcome(tree, prec, NEW)
            assert got == _outcome(tree, prec, ORACLE)
            if not isinstance(got, str):
                enclosed += 1
                assert as_mpf(got[0]) <= tree.reference() <= as_mpf(got[1])
    assert enclosed >= 300


def test_constants_match_the_fraction_oracle():
    for prec in (30, 64, 256, 1024):
        for new, old in [
            (iv_const_pi(prec), ORACLE.iv_const_pi(prec)),
            (iv_const_e(prec), ORACLE.iv_const_e(prec)),
            (iv_const_ln2(prec), ORACLE.iv_const_ln2(prec)),
        ]:
            assert (new.lo, new.hi) == (old.lo, old.hi)


@pytest.fixture(params=[64, 256])
def both_modules(request, monkeypatch):
    """(prec, use): ``use(module, iv)`` rebinds the module's iv_* names to those of ``iv``."""

    def use(module, iv):
        for name in dir(module):
            if name.startswith("iv_"):
                monkeypatch.setattr(module, name, getattr(iv, name))

    return request.param, use


def test_three_bounds_match_the_fraction_oracle(both_modules):
    prec, use = both_modules
    cases = []
    for d in odd_squarefree_range(5, 149):
        ctx = DiscriminantContext.for_modulus(d)
        cases += [(bounds.abs_bound_base(ctx, n), n) for n in range(1, ctx.dprime + 1)]
    assert len(cases) == 1905
    new = [bounds._three_bounds(base, n, prec) for base, n in cases]
    use(bounds, ORACLE)
    old = [bounds._three_bounds(base, n, prec) for base, n in cases]
    for (base, n), ts, refs in zip(cases, new, old):
        assert [(t.lo, t.hi) for t in ts] == [(t.lo, t.hi) for t in refs], (base, n)


def test_ratio_envelopes_match_the_fraction_oracle(both_modules, monkeypatch, pairs_149):
    prec, use = both_modules
    # evaluate the right side at the one precision under test, whatever the ladder
    monkeypatch.setattr(ratio, "decide", lambda lhs, rhs, rungs: interval.Decision("captured", lhs, rhs(prec)))

    def envelopes():
        out = {}
        for d, pair in pairs_149.items():
            for x in ratio.default_sample_points(pair):
                try:
                    rhs = ratio.check_ratio_approx(pair, x).rhs_enclosure
                except ratio.GateError:
                    continue
                out[d, x] = (rhs.lo, rhs.hi)
        return out

    new = envelopes()
    use(ratio, ORACLE)
    assert len(new) == 177 and envelopes() == new


def test_exact_side_is_compared_without_rounding():
    g = 64 + GUARD_BITS
    m = 3 << 70
    rhs = lambda p: DyadicInterval(m, m + 1, p)
    # equal to the lower end: the strict inequality must not verify
    assert decide(F(m, 1 << g), rhs, [64]).verdict == UNRESOLVED
    # half an ulp below it, off the grid: outward rounding would make this unresolved
    assert decide(F(2 * m - 1, 1 << (g + 1)), rhs, [64]).verdict == VERIFIED
    assert decide(F(m + 1, 1 << g), rhs, [64]).verdict == FALSIFIED
    # a non-dyadic side against the grid points next to it
    third = F(1, 3)
    up, down = -(-(1 << g) // 3), (1 << g) // 3
    assert decide(third, lambda p: DyadicInterval(up, up, p), [64]).verdict == VERIFIED
    assert decide(third, lambda p: DyadicInterval(down, down, p), [64]).verdict == FALSIFIED
    assert decide(lambda p: DyadicInterval(up, up, p), third, [64]).verdict == FALSIFIED
    assert decide(third, lambda p: iv_from_rat(third, p), precision_ladder(4096)).verdict == UNRESOLVED
    exact = decide(third, lambda p: DyadicInterval(up, up, p), [64])
    assert exact.lhs == third and exact.rhs.prec == 64


def test_mixed_precisions_are_refused():
    with pytest.raises(ValueError):
        iv_add(iv_from_rat(1, 64), iv_from_rat(1, 128), 64)
