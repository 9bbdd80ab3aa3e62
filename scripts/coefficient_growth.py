#!/usr/bin/env python3
"""Tabulate how sharp the rising-factorial coefficient bound is.

For each modulus, prints the largest coefficient magnitude of Psi_d next to
the bound value at n = d'/2 (roughly the peak), to four significant digits.
Purely for eyeballing the slack; nothing here is load-bearing.

    PYTHONPATH=src python scripts/coefficient_growth.py --dmax 149
"""

import argparse
from decimal import Context, Decimal
from fractions import Fraction

from kraitchik.bounds import abs_bound_base, rising_factorial_bound
from kraitchik.construct import psi_xi
from kraitchik.interval import GUARD_BITS, iv_from_surd
from kraitchik.numtheory import odd_squarefree_range
from kraitchik.powersums import DiscriminantContext


def bound_at_half(ctx: DiscriminantContext) -> str:
    """The abs bound at n = d'/2 as '%.3e' text, formatted in decimal: float() overflows past 2^1024."""
    n = ctx.dprime // 2
    base = abs_bound_base(ctx, n)
    P, Q, K = rising_factorial_bound(base, n)
    ivl = iv_from_surd(Fraction(P, K), Fraction(Q, K), base.r, 64)
    mid = Context(prec=17).divide(Decimal(ivl.lo_m + ivl.hi_m), Decimal(2 << (ivl.prec + GUARD_BITS)))
    mantissa, _, exponent = format(mid, ".3e").partition("e")
    return f"{mantissa}e{int(exponent):+03d}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dmax", type=int, default=149)
    opts = parser.parse_args(argv)

    print(f"{'d':>4} {'d_prime':>7} {'max|a_n|':>12} {'bound at n=d_prime/2':>22}")
    for d in odd_squarefree_range(5, opts.dmax):
        pair = psi_xi(d)
        print(f"{d:>4} {pair.ctx.dprime:>7} {max(abs(a) for a in pair.a):>12} {bound_at_half(pair.ctx):>22}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
