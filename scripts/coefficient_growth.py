#!/usr/bin/env python3
"""Tabulate how sharp the rising-factorial coefficient bound is.

For each modulus, prints the largest coefficient magnitude of Psi_d next to
the bound value at n = d'/2 (roughly the peak), as floats.  Purely for
eyeballing the slack; nothing here is load-bearing.

    PYTHONPATH=src python scripts/coefficient_growth.py --dmax 149
"""

import argparse
from fractions import Fraction

from kraitchik.bounds import abs_bound_base, rising_factorial_bound
from kraitchik.construct import psi_xi
from kraitchik.interval import iv_from_surd
from kraitchik.numtheory import odd_squarefree_range


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dmax", type=int, default=149)
    opts = parser.parse_args(argv)

    print(f"{'d':>4} {'d_prime':>7} {'max|a_n|':>12} {'bound at n=d_prime/2':>22}")
    for d in odd_squarefree_range(5, opts.dmax):
        pair = psi_xi(d)
        n = pair.ctx.dprime // 2
        base = abs_bound_base(pair.ctx, n)
        P, Q, K = rising_factorial_bound(base, n)
        ivl = iv_from_surd(Fraction(P, K), Fraction(Q, K), base.r, 64)
        approx = float((ivl.lo + ivl.hi) / 2)
        print(f"{d:>4} {pair.ctx.dprime:>7} {max(abs(a) for a in pair.a):>12} {approx:>22.3e}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
