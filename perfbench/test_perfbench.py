"""Tests of the benchmark's own arithmetic: python3 -m pytest -q perfbench"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYER_METRICS, Tracer  # noqa: E402

from kraitchik import bounds, cli, construct, poly, ratio  # noqa: E402


def _fake_clock():
    now = [0.0]
    return now, (lambda: now[0])


def test_self_time_subtracts_only_direct_children():
    now, clock = _fake_clock()
    t = Tracer(clock=clock)

    def leaf():
        now[0] += 2.0

    traced_leaf = t.wrap("leaf", leaf)

    def mid():
        now[0] += 1.0
        traced_leaf()
        traced_leaf()
        now[0] += 0.5

    traced_mid = t.wrap("mid", mid)
    with t.span("outer"):
        now[0] += 3.0
        traced_mid()
    assert t.spans["leaf"] == [2, 4.0, 4.0]
    assert t.spans["mid"] == [1, 5.5, 1.5]
    assert t.spans["outer"] == [1, 8.5, 3.0]


def test_span_closes_when_the_call_raises():
    now, clock = _fake_clock()
    t = Tracer(clock=clock)

    def boom():
        now[0] += 1.0
        raise ValueError("x")

    traced = t.wrap("boom", boom)
    with t.span("outer"):
        try:
            traced()
        except ValueError:
            pass
        now[0] += 1.0
    assert t.spans["boom"] == [1, 1.0, 1.0]
    assert t.spans["outer"] == [1, 2.0, 1.0]
    assert t._open == []


def test_tail_percentile_leaves_ten_samples_beyond_it():
    for n, pct in ((20, 50.0), (100, 90.0), (1000, 99.0), (11, 100.0 / 11)):
        _, got, count = run.tail([float(x) for x in range(n)])
        assert (got, count) == (pct, n)
        assert n - round(pct * n / 100) == 10


def test_tail_with_too_few_samples_is_the_maximum():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
    assert run.tail([float(x) for x in range(10)]) == (9.0, 100.0, 10)


def test_harrell_davis_quantile():
    assert abs(run.hd_quantile([5.0] * 9, 0.5) - 5.0) < 1e-9
    xs = [float(x) for x in range(1, 102)]
    assert abs(run.hd_quantile(xs, 0.5) - 51.0) < 1e-6  # symmetric sample
    assert abs(run.hd_quantile(xs, 0.9) - 91.0) < 0.5
    # one wild sample moves it much less than it moves the order statistic it replaces
    spiked = xs[:50] + [1000.0] + xs[51:]
    assert abs(run.hd_quantile(spiked, 0.5) - 51.0) < 1.0
    assert run.hd_quantile([1.0, 2.0], 1.0) == 2.0


def test_rescale_takes_out_the_probe_and_scales_by_its_speed():
    nominal = worker.REF_NOMINAL_S
    samples = [(0.0, 2 * nominal), (1.0, 2 * nominal), (2.0, nominal)]
    # two samples inside: their time is removed and their mean speed applies
    got = worker.rescale(samples, 0.5, 2.5)
    assert abs(got - (2.0 - 3 * nominal) / 1.5) < 1e-12
    # no sample inside: the last one before the window sets the speed
    assert abs(worker.rescale(samples, 2.1, 2.2) - 0.1) < 1e-12
    assert abs(worker.rescale(samples, 0.2, 0.7) - 0.25) < 1e-12


def _certify_verdicts(d):
    pair = construct.psi_xi(d)
    dp = pair.ctx.dprime
    coefficient = [bounds.check_coefficient_bounds(pair, n).verdict for n in range(dp + 1)]
    explicit = [bounds.check_explicit_bound(pair, n).verdict for n in range(1, dp + 1)]
    rows = ratio.ratio_table(pair, ratio.default_sample_points(pair))
    return coefficient, explicit, rows


def test_certify_failures_rise_when_an_expected_verdict_is_wrong():
    coefficient, explicit, rows = _certify_verdicts(7)
    right = {(7, 100)}
    assert workloads.certify_failures(7, coefficient, explicit, rows, right) == 0
    assert workloads.certify_failures(7, coefficient, explicit, rows, set()) == 1
    both_wrong = {(7, rows[0].x)}  # expects x=5 falsified and x=100 verified
    assert workloads.certify_failures(7, coefficient, explicit, rows, both_wrong) == 2
    assert workloads.certify_failures(7, ["unresolved"] + coefficient[1:], explicit, rows, right) == 1


def test_sweep_and_construct_checks_catch_wrong_outputs():
    summary = "ratio d=7 x=100 falsified\nsummary: verified=176 falsified=1 unresolved=0\n"
    assert not workloads.sweep_failed(1, summary, 1, (176, 1, 0))
    assert workloads.sweep_failed(0, summary, 1, (176, 1, 0))
    assert workloads.sweep_failed(1, summary, 1, (177, 0, 0))
    assert workloads.sweep_failed(1, "", 1, (176, 1, 0))
    code, out = workloads.run_cli(["compute", "7", "--format", "json"])
    assert not workloads.construct_failed(code, out, workloads.row_digest(out))
    assert workloads.construct_failed(code, out, workloads.row_digest(out + " "))
    assert workloads.construct_failed(1, out, workloads.row_digest(out))


def test_stored_expectations_cover_the_construct_pool():
    digests = workloads.load_expected()["construct_row_sha256"]
    pool = workloads.odd_squarefree_range(*workloads.CONSTRUCT_POOL)
    assert sorted(digests, key=int) == [str(d) for d in pool]
    cases = workloads.Construct(0).cases
    assert len(set(cases)) == workloads.CONSTRUCT_SAMPLE and set(cases) <= set(pool)


def test_tracer_counts_calls_and_restores_the_bindings():
    original = construct.psi_xi, cli.psi_xi, poly.DensePoly.__dict__["__mul__"], bounds.iv_add
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.psi_xi is not original[1]
        workloads.run_cli(["compute", "7", "--format", "json"])
        bounds.check_explicit_bound(construct.psi_xi(7), 1)
    finally:
        tracer.uninstall()
    assert (construct.psi_xi, cli.psi_xi, poly.DensePoly.__dict__["__mul__"], bounds.iv_add) == original
    layers = tracer.layer_metrics(1, 1.0, 1.5)
    assert [name for name in layers] == [name for name, _ in LAYER_METRICS]
    assert layers["construct.psi_xi.calls"]["value"] == 2
    assert layers["cli.pair_builds_per_modulus"]["value"] == 2
    assert layers["bounds.check_explicit_bound.calls"]["value"] == 1
    assert layers["interval.rungs"]["value"] >= 1
    assert layers["interval.first_rung_frac"]["value"] == 1
    assert layers["trace.overhead_s"]["value"] == 0.5
    assert layers["qfield.elems_created"]["value"] > 0
    doubled = tracer.layer_metrics(1, 1.0, 1.5, scale=2.0)
    assert doubled["construct.psi_xi.self_s"]["value"] == 2 * layers["construct.psi_xi.self_s"]["value"]
    assert doubled["construct.psi_xi.calls"] == layers["construct.psi_xi.calls"]


def test_benchmark_json_names_the_metrics_the_code_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(LAYER_METRICS)
    assert isinstance(spec["run_seconds"], int)
