import concurrent.futures
import dataclasses
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kraitchik.cli as cli
import kraitchik.construct as construct
from kraitchik.cli import SUITES, main, row_dict, row_json
from kraitchik.construct import IdentityReport, psi_xi
from kraitchik.numtheory import odd_squarefree_range
from kraitchik.symfunc import pm_polynomial

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "golden" / "table_5_13.txt"
VERIFY_ALL_35 = ROOT / "golden" / "verify_all_35.txt"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_text(capsys):
    code, out, _ = run(capsys, "compute", "5")
    assert code == 0
    assert out == (
        "d = 5\nD = 5\nphi = 4\nd' = 2\n"
        "a = [2, 1, 2]\nb = [1, 0]\n"
        "psi = 2X^2+X+2\nxi = X\n"
    )


def test_compute_json(capsys):
    code, out, _ = run(capsys, "compute", "13", "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        "d": 13,
        "D": 13,
        "phi": 12,
        "a": [2, 1, 4, -1, 4, 1, 2],
        "b": [1, 0, 1, 0, 1, 0],
    }


@pytest.mark.parametrize(
    "d,diag", [("9", "not squarefree"), ("8", "even"), ("1", "too small")]
)
def test_compute_rejects_invalid(capsys, d, diag):
    code, out, err = run(capsys, "compute", d)
    assert code == 1
    assert err.startswith(f"invalid d={d}: {diag}")
    assert out == ""


def failing_identity(pair):
    return IdentityReport(pair.d, False, 0)


def refuse_to_build(d_or_ctx):
    raise AssertionError("no pair may be built past the size guard")


@pytest.mark.parametrize("argv", [("compute", "5"), ("table", "5..13")])
def test_rows_are_gated_by_the_identity(capsys, monkeypatch, argv):
    monkeypatch.setattr(construct, "verify_identity", failing_identity)
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == "internal error: identity fails at d=5\n"


@pytest.fixture
def identity_calls(monkeypatch):
    """The modulus of every identity check made, in call order, under every
    name the package binds ``verify_identity`` to."""
    calls = []
    real = construct.verify_identity

    def counting(pair):
        calls.append(pair.d)
        return real(pair)

    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "kraitchik":
            for attr, value in list(vars(mod).items()):
                if value is real:
                    monkeypatch.setattr(mod, attr, counting)
    return calls


def test_compute_runs_the_identity_gate_once(capsys, identity_calls):
    # psi_xi gates its own pair; a second check in the CLI would show as a second call
    code, _, err = run(capsys, "compute", "449")
    assert (code, err) == (0, "")
    assert identity_calls == [449]


@pytest.mark.parametrize("suite", ["identity", "all"])
def test_verify_checks_each_identity_once(capsys, identity_calls, suite):
    # the identity suite reports psi_xi's gate; checking the pair again would double the count
    _, _, err = run(capsys, "verify", suite, "--dmax", "75")
    assert err == ""
    assert identity_calls == odd_squarefree_range(5, 75)
    assert len(identity_calls) == 29


def load_regen_golden():
    spec = importlib.util.spec_from_file_location("regen_golden", ROOT / "scripts" / "regen_golden.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_regen_golden_refuses_a_failing_identity(capsys, monkeypatch):
    script = load_regen_golden()
    before = GOLDEN.read_bytes()
    monkeypatch.setattr(construct, "verify_identity", failing_identity)
    assert script.main([]) == 1
    assert "refusing: identity" in capsys.readouterr().err
    assert GOLDEN.read_bytes() == before


def test_regen_golden_checks_each_identity_once(tmp_path, monkeypatch, identity_calls):
    script = load_regen_golden()
    # main writes next to the script's parent; point that at a scratch tree
    monkeypatch.setattr(script, "__file__", str(tmp_path / "scripts" / "regen_golden.py"))
    (tmp_path / "golden").mkdir()
    assert script.main([]) == 0
    assert identity_calls == [5, 7, 11, 13]
    assert (tmp_path / "golden" / "table_5_13.txt").read_bytes() == GOLDEN.read_bytes()


@pytest.mark.parametrize("argv,code", [(["--help"], 0), (["--dmax", "13"], 2)])
def test_regen_golden_writes_nothing_for_arguments(tmp_path, monkeypatch, capsys, identity_calls, argv, code):
    # --help prints usage and an unknown argument is refused; neither builds nor writes a row
    script = load_regen_golden()
    monkeypatch.setattr(script, "__file__", str(tmp_path / "scripts" / "regen_golden.py"))
    (tmp_path / "golden").mkdir()
    with pytest.raises(SystemExit) as exc:
        script.main(argv)
    assert exc.value.code == code
    assert "usage: " in (capsys.readouterr().out if code == 0 else capsys.readouterr().err)
    assert identity_calls == []
    assert list((tmp_path / "golden").iterdir()) == []


@pytest.mark.parametrize("d", [cli.MAX_MODULUS + 1, cli.MAX_MODULUS + 2])
def test_compute_rejects_moduli_past_the_size_guard(capsys, monkeypatch, d):
    monkeypatch.setattr(cli, "psi_xi", refuse_to_build)
    code, out, err = run(capsys, "compute", str(d))
    assert code == 1
    assert out == ""
    assert err == f"invalid d={d}: too large (need d <= {cli.MAX_MODULUS})\n"


def test_table_past_the_size_guard_is_usage_error(capsys, monkeypatch):
    monkeypatch.setattr(cli, "psi_xi", refuse_to_build)
    with pytest.raises(SystemExit) as exc:
        main(["table", f"5..{cli.MAX_MODULUS + 1}"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"need hi <= {cli.MAX_MODULUS}" in captured.err


def test_table_past_the_work_cap_is_usage_error(capsys, monkeypatch):
    # every modulus is within MAX_MODULUS, but the range sums to far more work
    monkeypatch.setattr(cli, "psi_xi", refuse_to_build)
    with pytest.raises(SystemExit) as exc:
        main(["table", f"5..{cli.MAX_MODULUS}"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"need at most {cli.MAX_TABLE_WORK}" in captured.err


def test_table_at_the_work_cap_is_accepted():
    assert cli.build_parser().parse_args(["table", "5..1000"]).range == (5, 1000)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_table_streams_rows_until_the_gate_fails(capsys, monkeypatch, fmt):
    real = construct.verify_identity
    monkeypatch.setattr(construct, "verify_identity", lambda pair: failing_identity(pair) if pair.d == 11 else real(pair))
    code, out, err = run(capsys, "table", "5..13", "--format", fmt)
    assert code == 1
    assert err == "internal error: identity fails at d=11\n"
    _, full, _ = run(capsys, "table", "5..7", "--format", fmt)
    assert out == full
    if fmt == "json":
        assert [json.loads(line)["d"] for line in out.splitlines()] == [5, 7]


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_verify_reports_a_pair_the_gate_refuses(capsys, monkeypatch, jobs):
    real = construct.verify_identity
    monkeypatch.setattr(construct, "verify_identity", lambda pair: failing_identity(pair) if pair.d == 11 else real(pair))
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)  # a pool under --jobs 2 even on one core
    code, out, err = run(capsys, "verify", "symmetry", "--dmax", "13", "--jobs", jobs)
    assert (code, out, err) == (1, "", "internal error: identity fails at d=11\n")


def test_compute_large_modulus(capsys):
    code, out, _ = run(capsys, "compute", "149")
    assert code == 0
    lines = dict(l.split(" = ", 1) for l in out.strip().splitlines())
    assert lines["d'"] == "74"
    assert len(json.loads(lines["a"])) == 75
    assert len(json.loads(lines["b"])) == 74


def test_table_single(capsys):
    code, out, _ = run(capsys, "table", "5..5")
    assert code == 0
    assert len(out.splitlines()) == 2  # header + one row


def test_table_matches_golden_bytes(capsys):
    code, out, _ = run(capsys, "table", "5..13")
    assert code == 0
    assert out == GOLDEN.read_text()


def test_table_row_counts(capsys):
    code, out, _ = run(capsys, "table", "5..149")
    assert code == 0
    assert len(out.splitlines()) == 1 + len(odd_squarefree_range(5, 149))


def test_table_csv(capsys):
    code, out, _ = run(capsys, "table", "5..7", "--format", "csv")
    assert code == 0
    assert out.splitlines() == [
        "d,n,a_n,b_n",
        "5,0,2,",
        "5,1,1,1",
        "5,2,2,0",
        "7,0,2,",
        "7,1,1,1",
        "7,2,-1,1",
        "7,3,-2,0",
    ]


def test_json_round_trip(capsys, pairs_255):
    code, out, _ = run(capsys, "table", "5..255", "--format", "json")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == len(pairs_255)
    for line in lines:
        obj = json.loads(line)
        assert all(type(v) is int for v in obj["a"] + obj["b"])
        pair = pairs_255[obj["d"]]
        assert obj == row_dict(pair)
        assert json.dumps(obj, separators=(",", ":")) == row_json(pair)


def test_bad_range_rejected(capsys):
    for text in ("13..5", "nonsense"):
        assert run_usage_error(capsys, "table", text)[:2] == (2, "")
    # a table that lists no modulus must not pass, like verify --dmax 3
    for text in ("9..9", "4..4", "25..27"):
        for fmt in ("text", "json", "csv"):
            code, out, err = run_usage_error(capsys, "table", text, "--format", fmt)
            assert (code, out) == (2, "")
            assert f"range {text!r} contains no odd squarefree modulus" in err


def test_verify_identity_exit_zero(capsys):
    code, out, _ = run(capsys, "verify", "identity", "--dmax", "35")
    assert code == 0
    assert "identity d=35 verified" in out
    count = len(odd_squarefree_range(5, 35))
    assert out.strip().splitlines()[-1] == f"summary: verified={count} falsified=0 unresolved=0"


def test_verify_symmetry_notes_rule(capsys):
    code, out, _ = run(capsys, "verify", "symmetry", "--dmax", "21")
    assert code == 0
    assert "symmetry d=15 verified (b-sign -1, predicted -1)" in out


def test_verify_ratio_reports_the_counterexample(capsys):
    code, out, _ = run(capsys, "verify", "ratio", "--dmax", "7")
    assert code == 1  # the d=7, x=100 failure is real and must surface
    assert "ratio d=7 x=100 falsified" in out
    code, out, _ = run(capsys, "verify", "ratio", "--dmax", "5")
    assert code == 0


def test_ratio_suite_skips_x_on_the_gate():
    # 2G = 100 at d = 707: x = 100 is no point of the envelope, so it is no row either
    rows = cli._suite_ratio(psi_xi(707), 4096)
    assert rows == [("d=707 x=101", "verified", ""), ("d=707 x=105", "verified", "")]


def test_verify_unresolved_exit_two(capsys):
    # a ceiling below the 64-bit ladder start leaves every verdict unresolved
    code, out, _ = run(capsys, "verify", "corollary", "--dmax", "5", "--precision-max", "32")
    assert code == 2
    assert "unresolved" in out


def test_corollary_note_names_only_a_differing_variant(capsys, monkeypatch):
    # unresolved in both variants is no difference
    code, out, _ = run(capsys, "verify", "corollary", "--dmax", "35", "--precision-max", "32")
    assert code == 2 and "corollary d=35 unresolved" in out and "note" not in out
    real = cli.explicit_bound_pass

    def disc_falsified_at_2(pair, precision_max):
        reps = real(pair, precision_max)
        return [dataclasses.replace(r, verdict_disc_radicand="falsified") if r.n == 2 else r for r in reps]

    monkeypatch.setattr(cli, "explicit_bound_pass", disc_falsified_at_2)
    code, out, _ = run(capsys, "verify", "corollary", "--dmax", "5")
    assert out.splitlines()[0] == "corollary d=5 verified (n=1..2) note: sqrt(D)-variant differs at n=[2]"


def test_verify_symfunc(capsys):
    code, out, _ = run(capsys, "verify", "symfunc")
    assert code == 0
    assert "symfunc m=20 verified" in out


def test_verify_symfunc_catches_a_planted_fault(capsys, monkeypatch):
    # 7! * binom(X, 7) with [X^3] off by 1, the former 1/7!: that row alone must fail
    def planted(m):
        counts = pm_polynomial(m)
        if m == 7:
            counts[3] += 1
        return counts

    monkeypatch.setattr(cli, "pm_polynomial", planted)
    code, out, _ = run(capsys, "verify", "symfunc")
    assert code == 1
    *rows, summary = out.splitlines()
    assert rows[6] == "symfunc m=7 falsified"
    assert [row.split()[2] for row in rows] == ["verified"] * 6 + ["falsified"] + ["verified"] * 14  # m = 1..20, newton-vs-brute
    assert summary == "summary: verified=20 falsified=1 unresolved=0"


def test_verify_symfunc_catches_a_planted_newton_fault(capsys, monkeypatch):
    # e_2 of one multiset off by 1: the newton-vs-brute row alone must fail
    real = cli.newton_elementary
    planted = []

    def off_by_one(sums):
        es = real(sums)
        if len(es) > 2 and not planted:
            planted.append(len(es))
            es[2] += 1
        return es

    monkeypatch.setattr(cli, "newton_elementary", off_by_one)
    code, out, _ = run(capsys, "verify", "symfunc")
    assert planted and code == 1
    *rows, summary = out.splitlines()
    assert rows[-1] == "symfunc newton-vs-brute falsified (50 random multisets)"
    assert [row.split()[2] for row in rows[:-1]] == ["verified"] * 20
    assert summary == "summary: verified=20 falsified=1 unresolved=0"


def test_verify_gauss_oracle_small(capsys):
    code, out, _ = run(capsys, "verify", "gauss-oracle", "--dmax", "15")
    assert code == 0
    assert "gauss-oracle d=15 verified (k=1..15)" in out


def test_verify_json_format(capsys):
    code, out, _ = run(capsys, "verify", "identity", "--dmax", "7", "--format", "json")
    assert code == 0
    lines = [json.loads(l) for l in out.strip().splitlines()]
    assert lines[-1] == {"suite": "identity", "verified": 2, "falsified": 0, "unresolved": 0}


def test_verify_parallel_jobs_preserve_order(capsys):
    code, out, _ = run(capsys, "verify", "identity", "--dmax", "35", "--jobs", "2")
    assert code == 0
    ds = [int(l.split()[1].split("=")[1]) for l in out.splitlines() if l.startswith("identity")]
    assert ds == sorted(ds) == odd_squarefree_range(5, 35)


def run_usage_error(capsys, *argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


def test_verify_empty_range_is_usage_error(capsys):
    # no odd squarefree d in 5..3: a run that checks nothing must not pass
    code, out, err = run_usage_error(capsys, "verify", "identity", "--dmax", "3")
    assert code == 2
    assert out == ""
    assert "--dmax 3" in err


def test_verify_precision_at_the_cap_is_accepted(capsys):
    code, out, _ = run(capsys, "verify", "corollary", "--dmax", "5", "--precision-max", "65536")
    assert code == 0 and "corollary d=5 verified" in out


def test_precision_env_is_ignored(capsys, monkeypatch):
    # --precision-max is the ceiling's only source: a 32-bit ceiling here would leave d=5 unresolved
    monkeypatch.setenv("KRAITCHIK_PRECISION_MAX", "32")
    code, out, _ = run(capsys, "verify", "corollary", "--dmax", "5")
    assert code == 0 and "corollary d=5 verified" in out


@pytest.mark.parametrize("suite,dmax", [("identity", "1003"), ("identity", "100000"), ("all", "7001")])
def test_verify_dmax_past_the_caps_is_usage_error(capsys, monkeypatch, suite, dmax):
    # 5..1003 sums d'^2 past MAX_TABLE_WORK; 100000 and 7001 exceed MAX_MODULUS
    monkeypatch.setattr(cli, "psi_xi", refuse_to_build)
    code, out, err = run_usage_error(capsys, "verify", suite, "--dmax", dmax)
    assert code == 2
    assert out == ""
    assert "--dmax" in err and "Traceback" not in err


def test_verify_dmax_at_the_work_cap_is_accepted(capsys, monkeypatch):
    seen = []
    monkeypatch.setattr(cli, "_rows_for_d", lambda d, plan, precision_max: seen.append(d) or [[]])
    code, _, _ = run(capsys, "verify", "identity", "--dmax", "1001")
    assert code == 0
    assert seen == odd_squarefree_range(5, 1001)


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_verify_jobs_below_one_is_usage_error(capsys, jobs):
    code, out, err = run_usage_error(capsys, "verify", "identity", "--dmax", "7", "--jobs", jobs)
    assert code == 2
    assert out == ""
    assert "--jobs" in err


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records the worker count, maps in-process."""

    sizes: list = []

    def __init__(self, max_workers):
        RecordingPool.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


def test_importing_the_cli_loads_no_process_pool():
    # a fresh interpreter: --jobs 1, the default, never starts a pool, so it never imports one;
    # and the root table's cos/sin come from interval.py, so nothing imports mpmath
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    probe = "import sys, kraitchik.cli; print([m in sys.modules for m in ('concurrent.futures.process', 'mpmath')])"
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert proc.stdout == "[False, False]\n"


@pytest.mark.parametrize(
    "dmax,cores,want",
    [
        ("35", 4, [4]),  # 11 moduli: the cores bind
        ("7", 4, [2]),  # 2 moduli: the moduli bind
        ("5", 4, []),  # 1 modulus: no pool at all
        ("35", 1, []),  # 1 core: no pool at all
    ],
)
def test_verify_jobs_capped_at_cores_and_moduli(capsys, monkeypatch, dmax, cores, want):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)  # cli imports it when it needs it
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cores)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    code, out, _ = run(capsys, "verify", "identity", "--dmax", dmax, "--jobs", "100000")
    assert code == 0
    assert RecordingPool.sizes == want
    ds = [int(l.split()[1].split("=")[1]) for l in out.splitlines() if l.startswith("identity")]
    assert ds == odd_squarefree_range(5, int(dmax))


@pytest.mark.parametrize(
    "argv,flag",
    [
        (("identity", "--dmax", "0"), "--dmax 0"),
        (("all", "--dmax", "3"), "--dmax 3"),
        (("corollary", "--dmax", "7", "--precision-max", "0"), "--precision-max"),
        (("corollary", "--dmax", "7", "--precision-max", "-5"), "--precision-max"),
        (("symfunc", "--dmax", "0"), "--dmax"),
        (("corollary", "--dmax", "7", "--precision-max", "65537"), "--precision-max"),
        (("corollary", "--dmax", "7", "--precision-max", "1000000000"), "--precision-max"),
    ],
)
def test_verify_out_of_range_flags_are_usage_errors(capsys, argv, flag):
    code, out, err = run_usage_error(capsys, "verify", *argv)
    assert code == 2
    assert out == ""
    assert flag in err and "Traceback" not in err


def test_verify_symfunc_degree_is_capped(capsys, monkeypatch):
    # p(m) partitions per degree: the cap must refuse before any is enumerated
    def refuse(m):
        raise AssertionError(f"pm_polynomial({m}) called")

    monkeypatch.setattr(cli, "pm_polynomial", refuse)
    code, out, err = run_usage_error(capsys, "verify", "symfunc", "--dmax", "33")
    assert code == 2
    assert out == ""
    assert "--dmax" in err and "32" in err


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_verify_all_is_the_single_suites_joined(capsys, fmt):
    code, out, err = run(capsys, "verify", "all", "--dmax", "35", "--format", fmt)
    assert code == 1  # ratio d=7 x=100
    assert err == ""
    singles = [run(capsys, "verify", suite, "--dmax", "35", "--format", fmt)[1] for suite in SUITES[:-1]]
    singles.append(run(capsys, "verify", "symfunc", "--format", fmt)[1])  # --dmax bounds moduli, not m
    assert out == "".join(singles)


def test_verify_all_matches_golden_bytes(capsys):
    """Every suite's rows and summaries, byte for byte.  Regenerate, only after
    checking the new output by hand, with
    ``PYTHONPATH=src python -m kraitchik verify all --dmax 35 > golden/verify_all_35.txt``."""
    code, out, err = run(capsys, "verify", "all", "--dmax", "35")
    assert out.encode() == VERIFY_ALL_35.read_bytes()
    assert code == 1  # ratio d=7 x=100 falsified
    assert err == ""


def test_verify_all_builds_each_pair_once(capsys, monkeypatch):
    built = []
    psi_xi = cli.psi_xi

    def counting_psi_xi(d):
        built.append(d)
        return psi_xi(d)

    monkeypatch.setattr(cli, "psi_xi", counting_psi_xi)
    run(capsys, "verify", "all", "--dmax", "21")
    assert built == odd_squarefree_range(5, 21)
    built.clear()
    code, _, _ = run(capsys, "verify", "gauss-oracle", "--dmax", "21")
    assert code == 0
    assert built == []


def test_verify_all_jobs_print_the_same_bytes(capsys, monkeypatch):
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    serial = run(capsys, "verify", "all", "--dmax", "21", "--jobs", "1")
    assert run(capsys, "verify", "all", "--dmax", "21", "--jobs", "2") == serial


def test_verify_all_falsified_outranks_unresolved(capsys, monkeypatch):
    # a 32-bit ceiling leaves corollary unresolved; one falsified row must still give exit 1
    code, out, _ = run(capsys, "verify", "all", "--dmax", "5", "--precision-max", "32")
    assert code == 2 and "falsified=1" not in out
    monkeypatch.setitem(cli._PAIR_SUITES, "identity", lambda pair, precision_max: [("d=5", "falsified", "")])
    code, out, _ = run(capsys, "verify", "all", "--dmax", "5", "--precision-max", "32")
    assert code == 1
    assert "identity d=5 falsified" in out and "corollary d=5 unresolved" in out
