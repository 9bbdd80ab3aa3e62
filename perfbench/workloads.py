"""The benchmark's three workloads and the checks on their outputs.

Each workload is built from the seed (its set-up), then exposes ``cases``, a
fixed list that one timed pass runs in order, and ``run(case, tracer)``, which
runs one case and returns ``(attempted, failed)``.  The seed picks the inputs
and their order; the program only sees the resulting moduli and suites.

- construct: ``kraitchik compute <d> --format json`` through ``cli.main`` for
  one modulus from each of CONSTRUCT_SAMPLE strata of the odd squarefree
  257 <= d <= 449, sorted by d', so every seed builds a similar mix of sizes.
  The row must match the digest in expected.json.
- certify: the pairs of every odd squarefree 5 <= d <= CERTIFY_DMAX are built
  during set-up; a case is every coefficient bound, every strict bound and the
  ratio table of one d, through the public functions.
- sweep: each ``kraitchik verify <suite>`` through ``cli.main``, with its exit
  code and ``summary:`` counts compared with SWEEP.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import re
from pathlib import Path

from kraitchik import bounds, cli, ratio
from kraitchik.construct import psi_xi
from kraitchik.numtheory import euler_phi, odd_squarefree_range

EXPECTED_PATH = Path(__file__).with_name("expected.json")

CONSTRUCT_POOL = (257, 449)
CONSTRUCT_SAMPLE = 30
CERTIFY_DMAX = 149  # the ratio suite's default range, so every case has a ratio table

# suite, its own arguments, expected exit code, expected (verified, falsified, unresolved).
# The four suites whose default range is d <= 255 run to d <= 75 here: at
# their defaults one sweep takes over a minute, longer than a run may take.
SWEEP = (
    ("identity", ("--dmax", "75"), 0, (29, 0, 0)),
    ("symmetry", ("--dmax", "75"), 0, (29, 0, 0)),
    ("bounds", ("--dmax", "75"), 0, (29, 0, 0)),
    ("corollary", ("--dmax", "75"), 0, (29, 0, 0)),
    ("ratio", (), 1, (176, 1, 0)),  # criterion 9: d=7 x=100 is falsified
    ("gauss-oracle", (), 0, (40, 0, 0)),
    ("symfunc", (), 0, (21, 0, 0)),
)

SUMMARY_RE = re.compile(r"summary: verified=(\d+) falsified=(\d+) unresolved=(\d+)$")


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())


def run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def row_digest(stdout: str) -> str:
    return hashlib.sha256(stdout.encode()).hexdigest()


# ---------------------------------------------------------------------------
# checks (pure, so the tests can feed them wrong expectations)

def construct_failed(code: int, stdout: str, digest: str | None) -> bool:
    """compute must exit 0 (its identity oracle passed) and print the stored row."""
    return code != 0 or digest is None or row_digest(stdout) != digest


def certify_failures(d, coefficient, explicit, ratio_rows, falsified_points) -> int:
    """Verdicts that differ from the expected ones for one modulus.

    Every coefficient and strict bound must be verified; every ratio point is
    verified except the (d, x) listed in ``falsified_points``.
    """
    bad = sum(v != bounds.VERIFIED for v in coefficient)
    bad += sum(v != bounds.VERIFIED for v in explicit)
    for row in ratio_rows:
        want = bounds.FALSIFIED if (d, row.x) in falsified_points else bounds.VERIFIED
        bad += row.verdict != want
    return bad


def sweep_failed(code: int, stdout: str, want_code: int, want_counts: tuple) -> bool:
    lines = stdout.splitlines()
    m = SUMMARY_RE.match(lines[-1]) if lines else None
    return code != want_code or m is None or tuple(int(g) for g in m.groups()) != tuple(want_counts)


# ---------------------------------------------------------------------------
# workloads

class Construct:
    label = staticmethod(str)

    def __init__(self, seed: int):
        rng = random.Random(seed)
        pool = sorted(odd_squarefree_range(*CONSTRUCT_POOL), key=lambda d: (euler_phi(d), d))
        k = CONSTRUCT_SAMPLE
        self.cases = [rng.choice(pool[i * len(pool) // k:(i + 1) * len(pool) // k]) for i in range(k)]
        rng.shuffle(self.cases)
        self.digests = load_expected()["construct_row_sha256"]

    def run(self, d: int, tracer) -> tuple[int, int]:
        code, out = run_cli(["compute", str(d), "--format", "json"])
        return 1, int(construct_failed(code, out, self.digests.get(str(d))))


class Certify:
    label = staticmethod(str)

    def __init__(self, seed: int):
        self.cases = odd_squarefree_range(5, CERTIFY_DMAX)
        random.Random(seed).shuffle(self.cases)
        self.pairs = {d: psi_xi(d) for d in self.cases}
        self.falsified = {tuple(p) for p in load_expected()["certify_ratio_falsified"]}

    def run(self, d: int, tracer) -> tuple[int, int]:
        pair = self.pairs[d]
        dp = pair.ctx.dprime
        # module attributes are looked up per call, so a traced run sees its wrappers
        coefficient = [bounds.check_coefficient_bounds(pair, n).verdict for n in range(dp + 1)]
        explicit = [bounds.check_explicit_bound(pair, n).verdict for n in range(1, dp + 1)]
        rows = ratio.ratio_table(pair, ratio.default_sample_points(pair))
        attempted = len(coefficient) + len(explicit) + len(rows)
        return attempted, certify_failures(d, coefficient, explicit, rows, self.falsified)


class Sweep:
    def __init__(self, seed: int):
        self.cases = list(SWEEP)
        random.Random(seed).shuffle(self.cases)

    @staticmethod
    def label(case) -> str:
        return case[0]

    def run(self, case, tracer) -> tuple[int, int]:
        suite, extra, want_code, want_counts = case
        with tracer.span(f"cli.suite.{suite}") if tracer else contextlib.nullcontext():
            code, out = run_cli(["verify", suite, *extra])
        return 1, int(sweep_failed(code, out, want_code, want_counts))


WORKLOADS = {"construct": Construct, "certify": Certify, "sweep": Sweep}
