#!/usr/bin/env python3
"""Regenerate the golden text table for the byte-exact CLI test.

Refuses to overwrite unless every freshly computed row passes
``verify_identity`` and still matches the classical coefficient lists, so a
construction regression cannot silently rewrite the reference.
"""

import sys
from pathlib import Path

from kraitchik.cli import _table_text
from kraitchik.construct import psi_xi, verify_identity

CLASSICAL = {
    5: ([2, 1, 2], [1, 0]),
    7: ([2, 1, -1, -2], [1, 1, 0]),
    11: ([2, 1, -2, 2, -1, -2], [1, 0, 0, 1, 0]),
    13: ([2, 1, 4, -1, 4, 1, 2], [1, 0, 1, 0, 1, 0]),
}


def main() -> int:
    pairs = []
    for d, (a, b) in CLASSICAL.items():
        pair = psi_xi(d)
        if not verify_identity(pair).ok:
            print(f"refusing: identity 4*Phi_d = Psi_d^2 - D*Xi_d^2 fails at d={d}", file=sys.stderr)
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
    sys.exit(main())
