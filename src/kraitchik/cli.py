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
moduli up to ``MAX_MODULUS`` only, and print no row that ``psi_xi``'s identity
gate refuses: ``main`` reports the refusal, ``internal error: identity fails at
d=<d>`` on stderr, and exits 1.  A ``table`` range or a ``verify --dmax`` whose
work, the sum of d'^2 over its moduli, exceeds ``MAX_TABLE_WORK`` is a usage
error.  ``table`` prints its json and csv rows as each one passes the identity
gate, its text only once every row has.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import random
import sys
from functools import cache, partial

from .bounds import FALSIFIED, UNRESOLVED, VERIFIED, coefficient_bounds_pass, explicit_bound_pass
from .construct import IdentityGateError, KraitchikPair, check_symmetry, psi_xi
from .interval import DEFAULT_MAX_PRECISION, MAX_PRECISION_CEILING, checked_precision
from .numtheory import euler_phi, odd_squarefree_range
from .powersums import (
    DiscriminantContext,
    orbit_representatives,
    power_sum_doubled,
    quad_in_enclosure,
    residue_sum_enclosure,
)
from .ratio import default_sample_points, ratio_table
from .symfunc import (
    elementary_brute,
    newton_elementary,
    pm_polynomial,
    power_sums_of,
)

DEFAULT_TABLE_RANGE_NOTE = "range syntax is lo..hi, e.g. 5..149"

# largest modulus compute/table/verify accept: a fresh compute 6997 (prime, d' = 3498)
# takes about 0.35 s on a 2-core host, 0.22 s of it in psi_xi (0.14 s of that the gate)
MAX_MODULUS = 7000
# largest sum of d'^2 one table range or verify --dmax may cost: a fresh table 5..1000
# (24.8M) takes about 0.65-0.95 s, 0.47 s of it in psi_xi; compute 6997 alone is 12.2M
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


def format_poly(coeffs) -> str:
    """Render ascending coefficients the way the classical tables print them,
    e.g. ``2X^3+X^2-X-2``."""
    parts: list[str] = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if c != 0:
            xpow = "" if k == 0 else "X" if k == 1 else f"X^{k}"
            mag = "" if k and abs(c) == 1 else abs(c)
            parts.append(f"{'-' if c < 0 else '+' if parts else ''}{mag}{xpow}")
    return "".join(parts) or "0"


def _compute_text(pair: KraitchikPair) -> str:
    return (
        f"d = {pair.ctx.d}\n"
        f"D = {pair.ctx.D}\n"
        f"phi = {2 * pair.ctx.dprime}\n"
        f"d' = {pair.ctx.dprime}\n"
        f"a = {list(pair.a)}\n"
        f"b = {list(pair.b)}\n"
        f"psi = {format_poly(pair.a[::-1])}\n"
        f"xi = {format_poly(pair.b[::-1])}\n"
    )


# ---------------------------------------------------------------------------
# verify suites: each returns its rows, (case label, verdict, note)

Row = tuple[str, str, str]


def _suite_identity(pair: KraitchikPair, precision_max: int) -> list[Row]:
    """``psi_xi`` hands out only pairs that passed its exact identity gate, so the
    pair's existence is the verdict."""
    return [(f"d={pair.ctx.d}", VERIFIED, "")]


def _suite_symmetry(pair: KraitchikPair, precision_max: int) -> list[Row]:
    rep = check_symmetry(pair)
    sign = "+1" if rep.b_plus_holds else ("-1" if rep.b_minus_holds else "none")
    note = f"(b-sign {sign}, predicted {rep.b_sign_predicted:+d})"
    if not rep.b_matches_prediction:
        note += " note: b-sign deviates from the stated rule"
    if rep.ok:
        return [(f"d={pair.ctx.d}", VERIFIED, note)]
    return [(f"d={pair.ctx.d}", FALSIFIED, f"(a-rule witness n={rep.a_witness}) {note}")]


def _modulus_row(d: int, verdicts_by_index: dict[int, str], var: str, note: str = "") -> list[Row]:
    """One modulus's row over its indices: falsified at those that failed, else
    unresolved at those left open, else verified over min..max."""
    bad = [i for i, v in verdicts_by_index.items() if v == FALSIFIED]
    open_ = [i for i, v in verdicts_by_index.items() if v == UNRESOLVED]
    if bad:
        return [(f"d={d}", FALSIFIED, f"(at {var}={bad}){note}")]
    if open_:
        return [(f"d={d}", UNRESOLVED, f"(at {var}={open_}){note}")]
    return [(f"d={d}", VERIFIED, f"({var}={min(verdicts_by_index)}..{max(verdicts_by_index)}){note}")]


def _suite_bounds(pair: KraitchikPair, precision_max: int) -> list[Row]:
    verdicts = {r.n: r.verdict for r in coefficient_bounds_pass(pair)}
    return _modulus_row(pair.ctx.d, verdicts, "n")


def _suite_corollary(pair: KraitchikPair, precision_max: int) -> list[Row]:
    reports = explicit_bound_pass(pair, precision_max)
    disc_bad = [r.n for r in reports if r.verdict_disc_radicand != r.verdict]
    note = f" note: sqrt(D)-variant differs at n={disc_bad}" if disc_bad else ""
    return _modulus_row(pair.ctx.d, {r.n: r.verdict for r in reports}, "n", note)


def _suite_ratio(pair: KraitchikPair, precision_max: int) -> list[Row]:
    return [
        (f"d={pair.ctx.d} x={rep.x}", rep.verdict, "")
        for rep in ratio_table(pair, default_sample_points(pair), precision_max)
    ]


def _suite_gauss_oracle(d: int) -> list[Row]:
    """Closed-form power sums against validated enclosures; needs no pair.

    The residue sum is the same for every k of one orbit (``orbit_representatives``),
    so each orbit's sum is enclosed once, at its least k.  Every k still has its own
    closed form tested against that enclosure, once per distinct closed form."""
    ctx = DiscriminantContext.for_modulus(d)
    reps = orbit_representatives(d)
    boxes = {rep: residue_sum_enclosure(d, rep) for rep in set(reps)}

    @cache
    def verdict(rep: int, p: int, q: int) -> str:
        box = boxes[rep]
        wide = box.width_mantissa() * 10**9 > 1 << box.bits  # wider than 1e-9, exactly
        return VERIFIED if not wide and quad_in_enclosure(p, q, ctx.D, box) else FALSIFIED

    verdicts = {k: verdict(reps[k % d], *power_sum_doubled(ctx, k)) for k in range(1, d + 1)}
    return _modulus_row(d, verdicts, "k")


def _suite_symfunc(mmax: int) -> list[Row]:
    rows = []
    falling = [1]
    for m in range(1, mmax + 1):
        # independent expansion of X(X-1)...(X-m+1) in integers, one factor X - (m-1) at a time
        falling = [hi - (m - 1) * lo for hi, lo in zip([0] + falling, falling + [0])]
        rows.append((f"m={m}", VERIFIED if pm_polynomial(m) == falling else FALSIFIED, ""))
    rng = random.Random(20250809)
    mismatches = 0
    for _ in range(50):
        # the draws n/q with q <= 4, times 12: e_m and p_k are homogeneous, so each comparison keeps its verdict
        values = [rng.randint(-6, 6) * 12 // rng.randint(1, 4) for _ in range(rng.randint(0, 6))]
        es = newton_elementary(power_sums_of(values, len(values)))
        mismatches += sum(es[m] != elementary_brute(values, m) for m in range(len(values) + 1))
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
# pm_polynomial(m) enumerates all p(m) partitions, which grows like exp(pi*sqrt(2m/3)):
# about 5 ms at m = 32 and 11 ms at m = 36 (Python 3.11, best of 7, in process, 2-core host);
# the whole suite at m <= 32 takes about 32 ms
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
    if not _checked_moduli(lo, hi, "hi"):
        raise argparse.ArgumentTypeError(f"range {text!r} contains no odd squarefree modulus")
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


def cmd_compute(args) -> int:
    if args.d > MAX_MODULUS:
        print(f"invalid d={args.d}: too large (need d <= {MAX_MODULUS})", file=sys.stderr)
        return 1
    try:
        DiscriminantContext.for_modulus(args.d)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 1
    pair = psi_xi(args.d)
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
        pair = psi_xi(d)
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
            # imported here, so that a one-process run does not pay ~20 ms for the import
            from concurrent.futures import ProcessPoolExecutor

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
    except IdentityGateError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
