#!/usr/bin/env python3
"""Run every verification suite in sequence and print a timing summary.

This is the one-shot experiment driver: it covers the same ground as
``kraitchik verify <suite>`` for each suite at its default range, but keeps
going after failures so the final table shows the status of everything.
Exit code 1 if any suite reported a falsified case, 2 if only unresolved.
"""

import argparse
import sys
import time

from kraitchik.cli import SUITES, cmd_verify


class _Args:
    def __init__(self, suite, dmax, precision_max, jobs):
        self.suite = suite
        self.dmax = dmax
        self.precision_max = precision_max
        self.jobs = jobs
        self.format = "text"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dmax", type=int, default=None, help="override every suite's default range")
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--precision-max", type=int, default=None)
    opts = parser.parse_args()

    results = []
    for suite in SUITES:
        t0 = time.perf_counter()
        try:
            code = cmd_verify(_Args(suite, opts.dmax, opts.precision_max, opts.jobs))
        except argparse.ArgumentTypeError as exc:
            parser.error(f"{suite}: {exc}")
        results.append((suite, code, time.perf_counter() - t0))

    print()
    print(f"{'suite':<14} {'status':<12} seconds")
    worst = 0
    for suite, code, secs in results:
        status = {0: "ok", 1: "falsified", 2: "unresolved"}[code]
        print(f"{suite:<14} {status:<12} {secs:.1f}")
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(main())
