"""Command-line front end: compute one decomposition, regenerate the
classical coefficient tables, or run the verification suites.

Exit codes for ``verify``: 0 all verified, 1 any falsified, 2 any unresolved
(interval ceiling reached without separation).  Input that would check
nothing or cannot be read (an empty modulus range, ``--jobs`` below 1, a
malformed ``$KRAITCHIK_PRECISION_MAX``) is an argparse usage error: a message
on stderr, nothing on stdout, exit code 2.  ``compute`` rejects invalid
moduli with a diagnostic naming the violated condition and exit code 1.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import random
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import Optional

from .bounds import FALSIFIED, UNRESOLVED, VERIFIED, check_coefficient_bounds, check_explicit_bound
from .construct import KraitchikPair, check_symmetry, psi_xi, verify_identity
from .interval import PRECISION_ENV_VAR, default_max_precision
from .numtheory import is_squarefree, odd_squarefree_range
from .poly import DensePoly, format_poly
from .powersums import DiscriminantContext, power_sum_s, quad_in_enclosure, residue_sum_enclosure
from .ratio import REJECTED, default_sample_points, ratio_table
from .symfunc import (
    elementary_brute,
    newton_elementary,
    pm_polynomial,
    power_sums_of,
)

DEFAULT_TABLE_RANGE_NOTE = "range syntax is lo..hi, e.g. 5..149"


# ---------------------------------------------------------------------------
# table rows

def row_dict(pair: KraitchikPair) -> dict:
    """The JSON-lines schema: {"d":..,"D":..,"phi":..,"a":[..],"b":[..]}."""
    return {
        "d": pair.ctx.d,
        "D": pair.ctx.D,
        "phi": 2 * pair.ctx.dprime,
        "a": list(pair.a),
        "b": list(pair.b),
    }


def row_json(pair: KraitchikPair) -> str:
    return json.dumps(row_dict(pair), separators=(",", ":"))


def parse_row(line: str) -> dict:
    obj = json.loads(line)
    obj["a"] = [int(v) for v in obj["a"]]
    obj["b"] = [int(v) for v in obj["b"]]
    return obj


def _table_text(pairs: list[KraitchikPair]) -> str:
    header = ("d", "D", "phi", "d'", "a", "b")
    rows = [
        (
            str(p.ctx.d),
            str(p.ctx.D),
            str(2 * p.ctx.dprime),
            str(p.ctx.dprime),
            ",".join(str(v) for v in p.a),
            ",".join(str(v) for v in p.b),
        )
        for p in pairs
    ]
    widths = [max(len(header[i]), *(len(r[i]) for r in rows)) if rows else len(header[i]) for i in range(6)]
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(header)).rstrip()]
    for r in rows:
        lines.append("  ".join(r[i].ljust(widths[i]) for i in range(6)).rstrip())
    return "\n".join(lines) + "\n"


def _table_csv(pairs: list[KraitchikPair]) -> str:
    lines = ["d,n,a_n,b_n"]
    for p in pairs:
        for n in range(p.ctx.dprime + 1):
            b = "" if n == 0 else str(p.b_coeff(n))
            lines.append(f"{p.ctx.d},{n},{p.a[n]},{b}")
    return "\n".join(lines) + "\n"


def _compute_text(pair: KraitchikPair) -> str:
    return (
        f"d = {pair.ctx.d}\n"
        f"D = {pair.ctx.D}\n"
        f"phi = {2 * pair.ctx.dprime}\n"
        f"d' = {pair.ctx.dprime}\n"
        f"a = {list(pair.a)}\n"
        f"b = {list(pair.b)}\n"
        f"psi = {format_poly(pair.psi.coeffs)}\n"
        f"xi = {format_poly(pair.xi.coeffs)}\n"
    )


# ---------------------------------------------------------------------------
# verify suites

@dataclass
class SuiteOutcome:
    rows: list[tuple[str, str, str]] = field(default_factory=list)  # (label, verdict, note)
    verified: int = 0
    falsified: int = 0
    unresolved: int = 0

    def add(self, label: str, verdict: str, note: str = "") -> None:
        self.rows.append((label, verdict, note))
        if verdict == VERIFIED:
            self.verified += 1
        elif verdict == UNRESOLVED:
            self.unresolved += 1
        else:
            self.falsified += 1


def _suite_identity(d: int, precision_max: int) -> SuiteOutcome:
    out = SuiteOutcome()
    rep = verify_identity(psi_xi(d))
    if rep.ok:
        out.add(f"d={d}", VERIFIED)
    else:
        out.add(f"d={d}", FALSIFIED, f"(first mismatch at degree {rep.mismatch_index})")
    return out


def _suite_symmetry(d: int, precision_max: int) -> SuiteOutcome:
    out = SuiteOutcome()
    rep = check_symmetry(psi_xi(d))
    sign = "+1" if rep.b_plus_holds else ("-1" if rep.b_minus_holds else "none")
    note = f"(b-sign {sign}, predicted {rep.b_sign_predicted:+d})"
    if not rep.b_matches_prediction:
        note += " note: b-sign deviates from the stated rule"
    if rep.ok:
        out.add(f"d={d}", VERIFIED, note)
    else:
        out.add(f"d={d}", FALSIFIED, f"(a-rule witness n={rep.a_witness}) {note}")
    return out


def _suite_bounds(d: int, precision_max: int) -> SuiteOutcome:
    out = SuiteOutcome()
    pair = psi_xi(d)
    bad = [n for n in range(pair.ctx.dprime + 1) if check_coefficient_bounds(pair, n).verdict != VERIFIED]
    if bad:
        out.add(f"d={d}", FALSIFIED, f"(at n={bad})")
    else:
        out.add(f"d={d}", VERIFIED, f"(n=0..{pair.ctx.dprime})")
    return out


def _suite_corollary(d: int, precision_max: int) -> SuiteOutcome:
    out = SuiteOutcome()
    pair = psi_xi(d)
    verdicts = [check_explicit_bound(pair, n, precision_max) for n in range(1, pair.ctx.dprime + 1)]
    bad = [r.n for r in verdicts if r.verdict == FALSIFIED]
    open_ = [r.n for r in verdicts if r.verdict == UNRESOLVED]
    disc_bad = [r.n for r in verdicts if r.verdict_disc_radicand != VERIFIED]
    note = f" note: sqrt(D)-variant differs at n={disc_bad}" if disc_bad else ""
    if bad:
        out.add(f"d={d}", FALSIFIED, f"(at n={bad}){note}")
    elif open_:
        out.add(f"d={d}", UNRESOLVED, f"(at n={open_}){note}")
    else:
        out.add(f"d={d}", VERIFIED, f"(n=1..{pair.ctx.dprime}){note}")
    return out


def _suite_ratio(d: int, precision_max: int) -> SuiteOutcome:
    out = SuiteOutcome()
    pair = psi_xi(d)
    reports = ratio_table(pair, default_sample_points(pair), precision_max)
    for rep in reports:
        if rep.verdict == REJECTED:
            out.add(f"d={d} x={rep.x}", FALSIFIED, "(rejected below the gate)")
        else:
            out.add(f"d={d} x={rep.x}", rep.verdict)
    return out


def _suite_gauss_oracle(d: int, precision_max: int) -> SuiteOutcome:
    out = SuiteOutcome()
    ctx = DiscriminantContext.for_modulus(d)
    bad = []
    for k in range(1, d + 1):
        box = residue_sum_enclosure(d, k, digits=25)
        if box.width() > 1e-9 or not quad_in_enclosure(power_sum_s(ctx, k), box):
            bad.append(k)
    if bad:
        out.add(f"d={d}", FALSIFIED, f"(at k={bad})")
    else:
        out.add(f"d={d}", VERIFIED, f"(k=1..{d})")
    return out


def _suite_symfunc(mmax: int) -> SuiteOutcome:
    out = SuiteOutcome()
    for m in range(1, mmax + 1):
        # independent expansion of X(X-1)...(X-m+1)/m!
        expect = DensePoly([Fraction(1)])
        for i in range(m):
            expect = expect * DensePoly([Fraction(-i), Fraction(1)])
        expect = expect * Fraction(1, math.factorial(m))
        verdict = VERIFIED if pm_polynomial(m) == expect else FALSIFIED
        out.add(f"m={m}", verdict)
    rng = random.Random(20250809)
    mismatches = 0
    for _ in range(50):
        values = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(rng.randint(0, 6))]
        es = newton_elementary(power_sums_of(values, len(values)))
        for m in range(len(values) + 1):
            if es[m] != elementary_brute(values, m):
                mismatches += 1
    verdict = VERIFIED if mismatches == 0 else FALSIFIED
    out.add("newton-vs-brute", verdict, "(50 random multisets)")
    return out


_PER_D_SUITES = {
    "identity": (_suite_identity, 255),
    "symmetry": (_suite_symmetry, 255),
    "bounds": (_suite_bounds, 255),
    "corollary": (_suite_corollary, 255),
    "ratio": (_suite_ratio, 149),
    "gauss-oracle": (_suite_gauss_oracle, 101),
}

SUITES = tuple(_PER_D_SUITES) + ("symfunc",)


def _run_suite_for_d(d: int, suite: str, precision_max: int) -> SuiteOutcome:
    fn, _ = _PER_D_SUITES[suite]
    return fn(d, precision_max)


# ---------------------------------------------------------------------------
# commands

def _parse_range(text: str) -> tuple[int, int]:
    try:
        lo_s, hi_s = text.split("..", 1)
        lo, hi = int(lo_s), int(hi_s)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad range {text!r}; {DEFAULT_TABLE_RANGE_NOTE}") from exc
    if lo < 3 or hi < lo:
        raise argparse.ArgumentTypeError(f"range bounds must satisfy 3 <= lo <= hi, got {text!r}")
    return lo, hi


def _reject_modulus_reason(d: int) -> Optional[str]:
    if d < 3:
        return f"invalid d={d}: too small (need d >= 3)"
    if d % 2 == 0:
        return f"invalid d={d}: even"
    if not is_squarefree(d):
        return f"invalid d={d}: not squarefree"
    return None


def cmd_compute(args) -> int:
    reason = _reject_modulus_reason(args.d)
    if reason is not None:
        print(reason, file=sys.stderr)
        return 1
    pair = psi_xi(args.d)
    rep = verify_identity(pair)
    if not rep.ok:
        print(f"internal error: identity fails at d={args.d}", file=sys.stderr)
        return 1
    if args.format == "json":
        print(row_json(pair))
    else:
        sys.stdout.write(_compute_text(pair))
    return 0


def cmd_table(args) -> int:
    lo, hi = args.range
    ds = odd_squarefree_range(max(lo, 3), hi)
    pairs = [psi_xi(d) for d in ds]
    if args.format == "json":
        for p in pairs:
            print(row_json(p))
    elif args.format == "csv":
        sys.stdout.write(_table_csv(pairs))
    else:
        sys.stdout.write(_table_text(pairs))
    return 0


def cmd_verify(args) -> int:
    """Run one suite; raises ArgumentTypeError for input it cannot use or that checks nothing."""
    suite = args.suite
    if args.jobs < 1:
        raise argparse.ArgumentTypeError(f"--jobs must be at least 1, got {args.jobs}")
    try:
        precision_max = args.precision_max if args.precision_max else default_max_precision()
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    total = SuiteOutcome()
    if suite == "symfunc":
        outcomes = [_suite_symfunc(args.dmax or 20)]
    else:
        fn, default_dmax = _PER_D_SUITES[suite]
        dmax = args.dmax or default_dmax
        ds = odd_squarefree_range(5, dmax)
        if not ds:
            raise argparse.ArgumentTypeError(f"--dmax {dmax} leaves no odd squarefree modulus >= 5 to check")
        # never more workers than cores or moduli: fork starts all of them at once
        jobs = min(args.jobs, os.cpu_count() or 1, len(ds))
        if jobs > 1:
            worker = partial(_run_suite_for_d, suite=suite, precision_max=precision_max)
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                outcomes = list(pool.map(worker, ds))
        else:
            outcomes = [fn(d, precision_max) for d in ds]
    for o in outcomes:
        total.rows.extend(o.rows)
        total.verified += o.verified
        total.falsified += o.falsified
        total.unresolved += o.unresolved
    summary = {
        "suite": suite,
        "verified": total.verified,
        "falsified": total.falsified,
        "unresolved": total.unresolved,
    }
    if args.format == "json":
        for label, verdict, note in total.rows:
            obj = {"suite": suite, "case": label, "verdict": verdict}
            if note:
                obj["note"] = note
            print(json.dumps(obj, separators=(",", ":")))
        print(json.dumps(summary, separators=(",", ":")))
    elif args.format == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(["suite", "case", "verdict", "note"])
        for label, verdict, note in total.rows:
            writer.writerow([suite, label, verdict, note])
    else:
        for label, verdict, note in total.rows:
            print(f"{suite} {label} {verdict}" + (f" {note}" if note else ""))
        print(
            f"summary: verified={total.verified} falsified={total.falsified} "
            f"unresolved={total.unresolved}"
        )
    if total.falsified:
        return 1
    if total.unresolved:
        return 2
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kraitchik",
        description="Construct and verify the Gauss-Kraitchik decomposition of cyclotomic polynomials.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="print the coefficient record for one modulus")
    p_compute.add_argument("d", type=int)
    p_compute.add_argument("--format", choices=("text", "json"), default="text")
    p_compute.set_defaults(fn=cmd_compute)

    p_table = sub.add_parser("table", help="print rows for every valid modulus in a range")
    p_table.add_argument("range", type=_parse_range, help=DEFAULT_TABLE_RANGE_NOTE)
    p_table.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p_table.set_defaults(fn=cmd_table)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", choices=SUITES)
    p_verify.add_argument(
        "--dmax",
        type=int,
        default=None,
        help="largest modulus to check (for symfunc: largest collapse degree, default 20)",
    )
    p_verify.add_argument(
        "--precision-max",
        type=int,
        default=None,
        help=f"interval precision ceiling in bits (default: ${PRECISION_ENV_VAR} or 4096)",
    )
    p_verify.add_argument("--jobs", type=int, default=1, help="worker processes (at most one per core and modulus)")
    p_verify.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p_verify.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except argparse.ArgumentTypeError as exc:
        parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
