"""Regenerate expected.json from the current program.

    python3 perfbench/make_expected.py

Stores the sha256 of ``kraitchik compute <d> --format json`` for every modulus
the construct workload can sample, so every seed's rows are checked, and the
ratio points that must come back falsified.  Run it only when a change is
meant to alter the printed rows; a faster program prints the same bytes.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402
from kraitchik.numtheory import odd_squarefree_range  # noqa: E402


def main() -> int:
    digests = {}
    for d in odd_squarefree_range(*workloads.CONSTRUCT_POOL):
        code, out = workloads.run_cli(["compute", str(d), "--format", "json"])
        if code != 0:
            print(f"compute {d} exited {code}", file=sys.stderr)
            return 1
        digests[str(d)] = workloads.row_digest(out)
    expected = {
        "certify_ratio_falsified": [[7, 100]],  # acceptance criterion 9
        "construct_row_sha256": digests,
    }
    workloads.EXPECTED_PATH.write_text(json.dumps(expected, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
