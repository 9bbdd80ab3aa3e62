"""The repository benchmark: construct / certify / sweep, timed from outside.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload construct --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # every workload in turn

Each run starts fresh interpreters (worker.py): a few that only set up, for a
median ``setup_s``, then one that sets up and measures.  The report names every
metric with its unit, the percentile behind ``case_tail_ms`` with its sample
count, the share of failed cases, and a fingerprint of the machine and the
source.  The last line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; with ``--trace 0`` the metrics
are the end-to-end ones, with ``--trace 1`` the per-module ones (tracer.py).

A case is one ``compute`` on construct, all checks of one d on certify and one
``verify <suite>`` on sweep.  Exit code 0 means the run finished; whether the
program's outputs were right is ``correct`` in the JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("construct", "certify", "sweep")

TAIL_BEYOND = 10  # the tail is the highest percentile with this many samples beyond it
MIN_SETUPS, MAX_SETUPS, SETUP_BUDGET_S = 3, 7, 3.0
RUN_LIMIT_S = 170.0  # the workers of one workload must be done by then

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("case_p50_ms", "ms"),
    ("case_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def hd_quantile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: a Beta-weighted mean of the order statistics.

    It uses every sample, so it moves far less from run to run than the
    single order statistic at rank q*n does.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    if b <= 0:
        return xs[-1]
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    steps = 64  # midpoint rule on each [(i-1)/n, i/n]
    weights = []
    for i in range(n):
        ts = ((i + (j + 0.5) / steps) / n for j in range(steps))
        weights.append(sum(math.exp((a - 1) * math.log(t) + (b - 1) * math.log1p(-t) - log_beta) for t in ts))
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, n) at the highest percentile with TAIL_BEYOND samples above it.

    That percentile is rank n - TAIL_BEYOND as a share of n; the value is its
    Harrell-Davis estimate.  With too few samples for any such rank the tail
    is the maximum, reported as percentile 100.
    """
    n = len(values)
    rank = n - TAIL_BEYOND
    if rank < 1:
        return max(values), 100.0, n
    return hd_quantile(values, rank / n), 100.0 * rank / n, n


def fingerprint(seed: int, backend: str) -> dict:
    files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        digest.update(f.relative_to(ROOT).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "mpmath_backend": backend,
        "git_commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "src_lines": lines,
        "seed": seed,
    }


def worker(workload: str, seed: int, seconds: float, trace: int, deadline: float, setup_only=False) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    env = {k: v for k, v in os.environ.items() if k != "KRAITCHIK_PRECISION_MAX"}
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    setups = []
    if not trace:
        while len(setups) < MIN_SETUPS - 1 or (len(setups) < MAX_SETUPS - 1 and sum(setups) < SETUP_BUDGET_S):
            setups.append(worker(workload, seed, seconds, trace, deadline, setup_only=True)["setup_s"])
    res = worker(workload, seed, seconds, trace, deadline)
    setups.append(res["setup_s"])
    raw_setup = res["raw_setup_s"]

    # per case, the median over passes; the tail is taken over distinct cases
    per_case = [statistics.median(v) * 1000 for v in res["latencies"].values()]
    tail_ms, tail_pct, n_cases = tail(per_case)
    e2e = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(res["pass_walls"]),
        "case_p50_ms": hd_quantile(per_case, 0.5),
        "case_tail_ms": tail_ms,
        "peak_rss_mb": res["peak_rss_mb"],
    }
    metrics = res["layers"] if trace else {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END}

    print(f"workload {workload}  seed {seed}  seconds {seconds:g}  trace {trace}")
    print(f"fingerprint {json.dumps(fingerprint(seed, res['mpmath_backend']))}")
    passes = len(res["pass_walls"])
    notes = {
        "setup_s": f"median of {len(setups)} set-ups; first one {raw_setup:.4f} s before rescaling",
        "wall_s": f"median of {passes} pass(es) over {n_cases} cases; timed {res['timed_s']:.1f} s, "
        f"{res['raw_case_s']:.1f} s of it in cases before rescaling",
        "case_p50_ms": f"{n_cases} cases, each the median of its passes; Harrell-Davis median",
        "case_tail_ms": f"p{tail_pct:.0f} of {n_cases} cases"
        + (f" ({TAIL_BEYOND} beyond it)" if n_cases > TAIL_BEYOND else " (fewer than 11: the maximum)"),
        "peak_rss_mb": "ru_maxrss of the measured process",
    }
    if trace:
        for name, m in metrics.items():
            print(f"  {name:<40} {m['value']:>14.6g} {m['unit']}")
    else:
        for name, unit in END_TO_END:
            print(f"  {name:<16} {e2e[name]:>12.4f} {unit:<3} {notes[name]}")
    fail_frac = res["failed"] / res["attempted"] if res["attempted"] else 1.0
    print(f"  fail_frac        {fail_frac:>12.4f}     {res['failed']} of {res['attempted']} checked outputs wrong")
    for err in res["errors"]:
        print(f"  error: {err}")
    return {"correct": res["failed"] == 0 and res["attempted"] > 0,
            "attempted": res["attempted"], "failed": res["failed"], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "kraitchik" / "__init__.py").is_file():
        print(f"error: no kraitchik sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: run_workload(w, args.seed, args.seconds, args.trace) for w in names}
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
