"""Command-line front end: compute one decomposition, regenerate the
classical coefficient tables, or run the verification suites.

``verify all`` builds each modulus's pair once and prints every suite's
output in turn, as the single ``verify <suite>`` runs with the same flags
would.  ``--dmax`` bounds the moduli; it does not reach symfunc under
``all``, which checks its default collapse degrees m <= 20, while
``verify symfunc --dmax M`` accepts 1 <= M <= 32 only.

Exit codes for ``verify``: 0 all verified, 1 any falsified, 2 any unresolved
(interval ceiling reached without separation).  Input that would check
nothing, cannot be read or asks for unbounded work (an empty modulus range,
``--jobs`` below 1, a ``--precision-max`` outside 16..``MAX_PRECISION_CEILING``
bits) is an argparse usage error: a message on stderr, nothing on stdout, exit
code 2.  ``compute`` rejects invalid moduli with a diagnostic naming the
violated condition and exit code 1; ``compute``, ``table`` and ``verify`` take
moduli up to ``MAX_MODULUS`` only, and ``compute`` and ``table`` print no row
that fails ``verify_identity``.  A ``table`` range or a ``verify --dmax``
whose work, the sum of d'^2 over its moduli, exceeds ``MAX_TABLE_WORK`` is a
usage error.  ``table`` prints its json and csv rows as each one passes the
identity gate, its text only once every row has.
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
from fractions import Fraction
from functools import partial

from .bounds import FALSIFIED, UNRESOLVED, VERIFIED, check_coefficient_bounds, check_explicit_bound
from .construct import KraitchikPair, check_symmetry, psi_xi, verify_identity
from .interval import DEFAULT_MAX_PRECISION, MAX_PRECISION_CEILING, checked_precision
from .numtheory import euler_phi, odd_squarefree_range
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

# largest modulus compute/table/verify accept: compute 6997 (prime, d' = 3498) takes
# about 8 s on a 2-core host, most of it in verify_identity
MAX_MODULUS = 7000
# largest sum of d'^2 one table range or verify --dmax may cost: table 5..1000
# (24.8M) takes about 14 s, compute 6997 alone is 12.2M
MAX_TABLE_WORK = 25_000_000


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


def _table_csv_rows(p: KraitchikPair) -> str:
    return "".join(f"{p.ctx.d},{n},{p.a[n]},{'' if n == 0 else p.b_coeff(n)}\n" for n in range(p.ctx.dprime + 1))


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
# verify suites: each returns its rows, (case label, verdict, note)

Row = tuple[str, str, str]


def _suite_identity(pair: KraitchikPair, precision_max: int) -> list[Row]:
    rep = verify_identity(pair)
    if rep.ok:
        return [(f"d={pair.ctx.d}", VERIFIED, "")]
    return [(f"d={pair.ctx.d}", FALSIFIED, f"(first mismatch at degree {rep.mismatch_index})")]


def _suite_symmetry(pair: KraitchikPair, precision_max: int) -> list[Row]:
    rep = check_symmetry(pair)
    sign = "+1" if rep.b_plus_holds else ("-1" if rep.b_minus_holds else "none")
    note = f"(b-sign {sign}, predicted {rep.b_sign_predicted:+d})"
    if not rep.b_matches_prediction:
        note += " note: b-sign deviates from the stated rule"
    if rep.ok:
        return [(f"d={pair.ctx.d}", VERIFIED, note)]
    return [(f"d={pair.ctx.d}", FALSIFIED, f"(a-rule witness n={rep.a_witness}) {note}")]


def _suite_bounds(pair: KraitchikPair, precision_max: int) -> list[Row]:
    dp = pair.ctx.dprime
    bad = [n for n in range(dp + 1) if check_coefficient_bounds(pair, n).verdict != VERIFIED]
    if bad:
        return [(f"d={pair.ctx.d}", FALSIFIED, f"(at n={bad})")]
    return [(f"d={pair.ctx.d}", VERIFIED, f"(n=0..{dp})")]


def _suite_corollary(pair: KraitchikPair, precision_max: int) -> list[Row]:
    dp = pair.ctx.dprime
    verdicts = [check_explicit_bound(pair, n, precision_max) for n in range(1, dp + 1)]
    bad = [r.n for r in verdicts if r.verdict == FALSIFIED]
    open_ = [r.n for r in verdicts if r.verdict == UNRESOLVED]
    disc_bad = [r.n for r in verdicts if r.verdict_disc_radicand != VERIFIED]
    note = f" note: sqrt(D)-variant differs at n={disc_bad}" if disc_bad else ""
    if bad:
        return [(f"d={pair.ctx.d}", FALSIFIED, f"(at n={bad}){note}")]
    if open_:
        return [(f"d={pair.ctx.d}", UNRESOLVED, f"(at n={open_}){note}")]
    return [(f"d={pair.ctx.d}", VERIFIED, f"(n=1..{dp}){note}")]


def _suite_ratio(pair: KraitchikPair, precision_max: int) -> list[Row]:
    rows = []
    for rep in ratio_table(pair, default_sample_points(pair), precision_max):
        label = f"d={pair.ctx.d} x={rep.x}"
        if rep.verdict == REJECTED:
            rows.append((label, FALSIFIED, "(rejected below the gate)"))
        else:
            rows.append((label, rep.verdict, ""))
    return rows


def _suite_gauss_oracle(d: int) -> list[Row]:
    """Closed-form power sums against mpmath enclosures; needs no pair."""
    ctx = DiscriminantContext.for_modulus(d)
    bad = []
    for k in range(1, d + 1):
        box = residue_sum_enclosure(d, k, digits=25)
        if box.width() > 1e-9 or not quad_in_enclosure(power_sum_s(ctx, k), box):
            bad.append(k)
    if bad:
        return [(f"d={d}", FALSIFIED, f"(at k={bad})")]
    return [(f"d={d}", VERIFIED, f"(k=1..{d})")]


def _suite_symfunc(mmax: int) -> list[Row]:
    rows = []
    for m in range(1, mmax + 1):
        # independent expansion of X(X-1)...(X-m+1)/m!
        expect = DensePoly([Fraction(1)])
        for i in range(m):
            expect = expect * DensePoly([Fraction(-i), Fraction(1)])
        expect = expect * Fraction(1, math.factorial(m))
        rows.append((f"m={m}", VERIFIED if pm_polynomial(m) == expect else FALSIFIED, ""))
    rng = random.Random(20250809)
    mismatches = 0
    for _ in range(50):
        values = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(rng.randint(0, 6))]
        es = newton_elementary(power_sums_of(values, len(values)))
        for m in range(len(values) + 1):
            if es[m] != elementary_brute(values, m):
                mismatches += 1
    rows.append(("newton-vs-brute", VERIFIED if mismatches == 0 else FALSIFIED, "(50 random multisets)"))
    return rows


_PAIR_SUITES = {
    "identity": _suite_identity,
    "symmetry": _suite_symmetry,
    "bounds": _suite_bounds,
    "corollary": _suite_corollary,
    "ratio": _suite_ratio,
}

# the per-modulus suites in output order, with their default largest modulus
_DEFAULT_DMAX = {"identity": 255, "symmetry": 255, "bounds": 255, "corollary": 255, "ratio": 149, "gauss-oracle": 101}

SUITES = tuple(_DEFAULT_DMAX) + ("symfunc",)

SYMFUNC_DEFAULT_M = 20
# pm_polynomial(m) enumerates all p(m) partitions; m = 36 already takes seconds
SYMFUNC_MAX_M = 32


def _rows_for_d(d: int, plan: tuple[tuple[str, int], ...], precision_max: int) -> list[list[Row]]:
    """Each planned (suite, dmax)'s rows for one modulus, none past its dmax; builds the pair at most once."""
    pair = None
    out = []
    for suite, dmax in plan:
        if d > dmax:
            out.append([])
        elif suite == "gauss-oracle":
            out.append(_suite_gauss_oracle(d))
        else:
            if pair is None:
                pair = psi_xi(d)
            out.append(_PAIR_SUITES[suite](pair, precision_max))
    return out


def _print_rows(suite: str, rows: list[Row], fmt: str) -> None:
    """One suite's output; the summary is its last line (json and text)."""
    verified = sum(verdict == VERIFIED for _, verdict, _ in rows)
    unresolved = sum(verdict == UNRESOLVED for _, verdict, _ in rows)
    falsified = len(rows) - verified - unresolved
    if fmt == "json":
        for label, verdict, note in rows:
            obj = {"suite": suite, "case": label, "verdict": verdict}
            if note:
                obj["note"] = note
            print(json.dumps(obj, separators=(",", ":")))
        summary = {"suite": suite, "verified": verified, "falsified": falsified, "unresolved": unresolved}
        print(json.dumps(summary, separators=(",", ":")))
    elif fmt == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(["suite", "case", "verdict", "note"])
        for label, verdict, note in rows:
            writer.writerow([suite, label, verdict, note])
    else:
        for label, verdict, note in rows:
            print(f"{suite} {label} {verdict}" + (f" {note}" if note else ""))
        print(f"summary: verified={verified} falsified={falsified} unresolved={unresolved}")


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
    _checked_moduli(lo, hi, "hi")
    return lo, hi


def _checked_moduli(lo: int, hi: int, name: str) -> list[int]:
    """The odd squarefree moduli in lo..hi; ArgumentTypeError naming ``name``, the bound
    that set hi, if hi exceeds MAX_MODULUS (before any modulus is listed) or if the
    moduli's sum of d'^2 exceeds MAX_TABLE_WORK."""
    if hi > MAX_MODULUS:
        raise argparse.ArgumentTypeError(f"range bound {hi} is too large (need {name} <= {MAX_MODULUS})")
    ds = odd_squarefree_range(lo, hi)
    work = sum((euler_phi(d) // 2) ** 2 for d in ds)
    if work > MAX_TABLE_WORK:
        raise argparse.ArgumentTypeError(
            f"range {lo}..{hi} sums d'^2 to {work} (need at most {MAX_TABLE_WORK}; lower {name})"
        )
    return ds


def _gated_pair(d_or_ctx: int | DiscriminantContext) -> KraitchikPair | None:
    """The pair for one modulus, or None (with a diagnostic) if the identity fails."""
    pair = psi_xi(d_or_ctx)
    if verify_identity(pair).ok:
        return pair
    print(f"internal error: identity fails at d={pair.d}", file=sys.stderr)
    return None


def cmd_compute(args) -> int:
    if args.d > MAX_MODULUS:
        print(f"invalid d={args.d}: too large (need d <= {MAX_MODULUS})", file=sys.stderr)
        return 1
    try:
        ctx = DiscriminantContext.for_modulus(args.d)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 1
    pair = _gated_pair(ctx)
    if pair is None:
        return 1
    if args.format == "json":
        print(row_json(pair))
    else:
        sys.stdout.write(_compute_text(pair))
    return 0


def cmd_table(args) -> int:
    lo, hi = args.range
    pairs = []
    if args.format == "csv":
        print("d,n,a_n,b_n", flush=True)
    for d in odd_squarefree_range(lo, hi):
        pair = _gated_pair(d)
        if pair is None:
            return 1
        if args.format == "json":
            print(row_json(pair), flush=True)
        elif args.format == "csv":
            print(_table_csv_rows(pair), end="", flush=True)
        else:
            pairs.append(pair)
    if args.format == "text":
        sys.stdout.write(_table_text(pairs))
    return 0


def cmd_verify(args) -> int:
    """Run one suite or all of them, building each pair at most once.

    Raises ArgumentTypeError for input it cannot use or that checks nothing.
    """
    if args.jobs < 1:
        raise argparse.ArgumentTypeError(f"--jobs must be at least 1, got {args.jobs}")
    try:
        precision_max = checked_precision(args.precision_max, "--precision-max")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    if args.suite == "symfunc":
        mmax = SYMFUNC_DEFAULT_M if args.dmax is None else args.dmax
        if not 1 <= mmax <= SYMFUNC_MAX_M:
            raise argparse.ArgumentTypeError(f"--dmax for symfunc must be in 1..{SYMFUNC_MAX_M}, got {mmax}")
        results = [("symfunc", _suite_symfunc(mmax))]
    else:
        suites = tuple(_DEFAULT_DMAX) if args.suite == "all" else (args.suite,)
        plan = tuple((s, _DEFAULT_DMAX[s] if args.dmax is None else args.dmax) for s in suites)
        dmax = max(dmax for _, dmax in plan)
        ds = _checked_moduli(5, dmax, "--dmax")
        if not ds:
            raise argparse.ArgumentTypeError(f"--dmax {dmax} leaves no odd squarefree modulus >= 5 to check")
        worker = partial(_rows_for_d, plan=plan, precision_max=precision_max)
        # never more workers than cores or moduli: fork starts all of them at once
        jobs = min(args.jobs, os.cpu_count() or 1, len(ds))
        if jobs > 1:
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                by_d = list(pool.map(worker, ds))
        else:
            by_d = [worker(d) for d in ds]
        results = [(s, [row for rows in by_d for row in rows[i]]) for i, (s, _) in enumerate(plan)]
        if args.suite == "all":
            results.append(("symfunc", _suite_symfunc(SYMFUNC_DEFAULT_M)))
    for suite, rows in results:
        _print_rows(suite, rows, args.format)
    verdicts = [verdict for _, rows in results for _, verdict, _ in rows]
    if any(v not in (VERIFIED, UNRESOLVED) for v in verdicts):
        return 1
    return 2 if UNRESOLVED in verdicts else 0


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

    p_verify = sub.add_parser("verify", help="run a verification suite, or all of them")
    p_verify.add_argument("suite", choices=SUITES + ("all",))
    p_verify.add_argument(
        "--dmax",
        type=int,
        default=None,
        help=(
            "largest modulus to check (for symfunc: largest collapse degree, "
            f"1..{SYMFUNC_MAX_M}, default {SYMFUNC_DEFAULT_M}; under all, symfunc keeps its default)"
        ),
    )
    p_verify.add_argument(
        "--precision-max",
        type=int,
        default=DEFAULT_MAX_PRECISION,
        help=f"interval precision ceiling in bits, 16..{MAX_PRECISION_CEILING} (default: {DEFAULT_MAX_PRECISION})",
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
