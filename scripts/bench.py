#!/usr/bin/env python3
"""Write a BENCH_<n>.json entry: the benchmark on a parent commit against the working tree.

    python3 scripts/bench.py --parent HEAD --out BENCH_6.json

Both sides are unpacked with ``git archive`` into a temporary directory, so
each side runs its own ``perfbench/run.py`` (at its own default run length)
on its own sources, from the same kind of fresh tree: the parent from its
revision, the change from ``HEAD`` when the working tree is clean and from a
``git stash create`` commit of it otherwise.  Untracked ``.py`` files under
``src/``, ``tests/`` or ``perfbench/`` are in neither, so the script refuses
to run while any exist.  For each workload of ``BENCHMARK.json`` the two
sides run in ten pairs with the same seed (pair i uses seed i + 1),
alternating which side goes first, so that drift in the host's speed falls
on both.  The entry records, per workload and end-to-end metric, each side's
runs with their median and quartiles and the number of pairs in which the
change was better; per side it records the tier-1 wall time and the Python
line counts of ``src/`` and ``tests/`` (with their change-minus-parent
deltas, so an entry shows whether code was deleted or only moved into the
tests), and for the working tree its HEAD, its uncommitted paths (``git
status --porcelain``) and the revision unpacked, so the entry can be traced
to the code it measured.  Both sides must carry the same ``BENCHMARK.json``.
After the untraced pairs, each side runs each workload once more with
``--trace 1`` at seed 1, and the entry records every per-layer value of those
runs side by side.

The ``cli`` section times the program as a user starts it: fresh ``python -m
kraitchik`` processes in each tree, the sides alternating as above, each
``verify <suite>`` at its default range in 5 pairs, and ``verify symfunc
--dmax 32``, ``verify all --dmax 1001``, ``compute 6997 --format json`` and
``table 5..1000 --format json`` in 3 each.  Each run records its wall time,
exit code, stdout sha256 and whether it wrote bytecode under ``src/``; each
command records whether every run of both sides printed the same stdout, and
the script names on stderr each command whose stdout differs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10  # the fewest pairs a claimed gain is judged on
SOURCE_DIRS = ("src", "tests", "perfbench")
CLI_SUITES = ("identity", "symmetry", "bounds", "corollary", "ratio", "gauss-oracle", "symfunc")
# (arguments, pairs): every suite at its default range, then the symfunc collapse at its cap
# (SYMFUNC_MAX_M), the whole sweep and the largest constructions at the scale of the frontier
CLI_COMMANDS = tuple((("verify", suite), 5) for suite in CLI_SUITES) + (
    (("verify", "symfunc", "--dmax", "32"), 3),
    (("verify", "all", "--dmax", "1001"), 3),
    (("compute", "6997", "--format", "json"), 3),
    (("table", "5..1000", "--format", "json"), 3),
)
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"]


def unpack(rev: str, dest: Path) -> None:
    """The committed tree of ``rev`` written into ``dest``."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, check=True, capture_output=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout, check=True)


def line_counts(tree: Path) -> dict:
    """``src_lines`` and ``tests_lines``: newlines in the .py files under each directory."""
    return {
        f"{sub}_lines": sum(f.read_bytes().count(b"\n") for f in (tree / sub).rglob("*.py")) for sub in ("src", "tests")
    }


def line_deltas(parent: dict, change: dict) -> dict:
    """``<name>_delta`` = change minus parent for every ``*_lines`` count."""
    return {f"{k}_delta": change[k] - parent[k] for k in parent if k.endswith("_lines")}


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True).stdout


def working_tree_state() -> dict:
    """HEAD of the working tree and its uncommitted paths, one ``git status --porcelain`` line each."""
    return {"rev": git("rev-parse", "HEAD").strip(), "uncommitted": git("status", "--porcelain").splitlines()}


def change_source() -> str:
    """The revision whose tree is the working tree: ``HEAD`` when it is clean, else a
    ``git stash create`` commit of its tracked and staged files.  ValueError when an
    untracked ``.py`` file under SOURCE_DIRS would be left out of either."""
    others = git("ls-files", "--others", "--exclude-standard", "--", *SOURCE_DIRS).splitlines()
    untracked = [path for path in others if path.endswith(".py")]
    if untracked:
        raise ValueError(f"untracked Python files would not be measured: {', '.join(untracked)}")
    return git("stash", "create").strip() or "HEAD"


def run_once(tree: Path, workload: str, seed: int, trace: int = 0) -> dict:
    """The final JSON object of one ``perfbench/run.py`` run in ``tree``."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def bytecode(tree: Path) -> dict:
    """Each compiled file under ``tree/src`` with its modification time."""
    return {path: path.stat().st_mtime_ns for path in (tree / "src").rglob("*.pyc")}


def run_cli(tree: Path, args: tuple[str, ...]) -> dict:
    """One fresh ``python -m kraitchik`` process on ``tree``'s sources: its wall time, exit code and
    stdout sha256, and whether it wrote bytecode under ``src/``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    before = bytecode(tree)
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "kraitchik", *args], cwd=tree, env=env, capture_output=True)
    wall = time.perf_counter() - start
    return {
        "wall_s": round(wall, 4),
        "exit": proc.returncode,
        "stdout_sha256": hashlib.sha256(proc.stdout).hexdigest(),
        "wrote_bytecode": bytecode(tree) != before,
    }


def cli_entry(parent_runs: list[dict], change_runs: list[dict]) -> dict:
    """One command's entry from paired runs (parent_runs[i] pairs with change_runs[i])."""
    before, after = [r["wall_s"] for r in parent_runs], [r["wall_s"] for r in change_runs]
    return {
        "parent": {"wall_s": summarize(before), "runs": parent_runs},
        "change": {"wall_s": summarize(after), "runs": change_runs},
        "change_better_pairs": sum(a < b for b, a in zip(before, after)),
        "pairs": len(before),
        "same_stdout": len({r["stdout_sha256"] for r in parent_runs + change_runs}) == 1,
    }


def cli_section(sides: dict, commands=CLI_COMMANDS, run=run_cli) -> dict:
    """Each command of ``commands`` run in its number of pairs on the two trees of ``sides``,
    alternating which side goes first; keyed by the command line after ``kraitchik``."""
    section = {}
    for args, pairs in commands:
        runs = {"parent": [], "change": []}
        for i in range(pairs):
            for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                runs[side].append(run(sides[side], args))
        name = " ".join(args)
        section[name] = cli_entry(runs["parent"], runs["change"])
        if not section[name]["same_stdout"]:
            print(f"cli: stdout of '{name}' differs between runs", file=sys.stderr)
    return section


def tier1(tree: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    start = time.perf_counter()
    proc = subprocess.run(TIER1, cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    return {"wall_s": round(time.perf_counter() - start, 2), "summary": lines[-1] if lines else "", "exit": proc.returncode}


def summarize(values: list[float]) -> dict:
    """Median and quartiles (inclusive method) of one side's runs."""
    xs = sorted(values)
    if len(xs) == 1:
        q1 = med = q3 = xs[0]
    else:
        q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "runs": list(values)}


def aggregate(parent_runs: list[dict], change_runs: list[dict], end_to_end: list[dict]) -> dict:
    """One workload's entry from paired run results (parent_runs[i] pairs with change_runs[i])."""
    metrics = {}
    for spec in end_to_end:
        name, sign = spec["name"], (1 if spec["better"] == "lower" else -1)
        before = [r["metrics"][name]["value"] for r in parent_runs]
        after = [r["metrics"][name]["value"] for r in change_runs]
        p, c = summarize(before), summarize(after)
        metrics[name] = {
            "unit": spec["unit"],
            "better": spec["better"],
            "bound": spec["bound"],
            "parent": p,
            "change": c,
            "change_over_parent": c["median"] / p["median"] if p["median"] else None,
            "change_better_pairs": sum(sign * (a - b) < 0 for b, a in zip(before, after)),
            "pairs": len(before),
        }
    return {
        "failed": {"parent": [r["failed"] for r in parent_runs], "change": [r["failed"] for r in change_runs]},
        "metrics": metrics,
    }


def layers(parent_run: dict, change_run: dict) -> dict:
    """Each per-layer metric of a traced run pair as {unit, parent, change}; None on a side that lacks it."""
    names = list(parent_run["metrics"]) + [n for n in change_run["metrics"] if n not in parent_run["metrics"]]
    out = {}
    for name in names:
        p, c = parent_run["metrics"].get(name), change_run["metrics"].get(name)
        out[name] = {
            "unit": (p or c)["unit"],
            "parent": None if p is None else p["value"],
            "change": None if c is None else c["value"],
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", default="HEAD", help="git revision to compare against (default HEAD)")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    try:
        change_rev = change_source()
    except ValueError as exc:
        parser.error(str(exc))
    change_state = {**working_tree_state(), "unpacked": git("rev-parse", change_rev).strip()}

    with tempfile.TemporaryDirectory(prefix="bench-") as tmp:
        sides = {"parent": Path(tmp, "parent"), "change": Path(tmp, "change")}
        for side, rev in (("parent", args.parent), ("change", change_rev)):
            sides[side].mkdir()
            unpack(rev, sides[side])
        spec, parent_spec = (json.loads((sides[side] / "BENCHMARK.json").read_text()) for side in ("change", "parent"))
        if spec != parent_spec:
            parser.error(f"BENCHMARK.json differs between {args.parent} and the working tree")
        workloads = {}
        for workload in (w["name"] for w in spec["workloads"]):
            runs = {"parent": [], "change": []}
            for i in range(PAIRS):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for side in order:
                    runs[side].append(run_once(sides[side], workload, i + 1))
                print(f"{workload}: pair {i + 1}/{PAIRS} done", file=sys.stderr)
            workloads[workload] = aggregate(runs["parent"], runs["change"], spec["end_to_end"])
        for workload, entry in workloads.items():
            traced = {side: run_once(tree, workload, 1, trace=1) for side, tree in sides.items()}
            entry["layers"] = layers(traced["parent"], traced["change"])
            print(f"{workload}: traced pair done", file=sys.stderr)
        cli = cli_section(sides)
        trees = {side: {**line_counts(tree), "tier1": tier1(tree)} for side, tree in sides.items()}

    entry = {
        "parent_rev": git("rev-parse", args.parent).strip(),
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(), "platform": platform.platform()},
        "pairs": PAIRS,
        "parent": trees["parent"],
        "change": {**change_state, **trees["change"]},
        **line_deltas(trees["parent"], trees["change"]),
        "workloads": workloads,
        "cli": cli,
    }
    args.out.write_text(json.dumps(entry, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
