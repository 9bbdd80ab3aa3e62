#!/usr/bin/env python3
"""Regenerate the golden text table for the byte-exact CLI test.

Refuses to overwrite unless every freshly computed row passes the identity
check and still matches the classical coefficient lists, so a construction
regression cannot silently rewrite the reference.  The identity check is
``psi_xi``'s own gate: it hands out only pairs that satisfy
4*Phi_d = Psi_d^2 - D*Xi_d^2 exactly, and raises ``IdentityGateError`` otherwise.

Usage: ``PYTHONPATH=src python scripts/regen_golden.py``; it takes no arguments.
"""

import argparse
import sys
from pathlib import Path

from kraitchik.cli import _table_text
from kraitchik.construct import IdentityGateError, psi_xi

CLASSICAL = {
    5: ([2, 1, 2], [1, 0]),
    7: ([2, 1, -1, -2], [1, 1, 0]),
    11: ([2, 1, -2, 2, -1, -2], [1, 0, 0, 1, 0]),
    13: ([2, 1, 4, -1, 4, 1, 2], [1, 0, 1, 0, 1, 0]),
}


def main(argv: list[str]) -> int:
    argparse.ArgumentParser(
        description="Rewrite golden/table_5_13.txt once every row passes the identity gate and the classical table."
    ).parse_args(argv)
    pairs = []
    for d, (a, b) in CLASSICAL.items():
        try:
            pair = psi_xi(d)
        except IdentityGateError as exc:
            print(f"refusing: {exc}", file=sys.stderr)
            return 1
        if list(pair.a) != a or list(pair.b) != b:
            print(f"refusing: computed row for d={d} deviates from the classical table", file=sys.stderr)
            return 1
        pairs.append(pair)
    target = Path(__file__).resolve().parent.parent / "golden" / "table_5_13.txt"
    target.write_text(_table_text(pairs))
    print(f"wrote {target}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
