"""Tests of the benchmark's own code: metric names, span arithmetic, the
correctness checks and the tracer's wrappers."""

import json
import os
import re

import numpy as np
import pytest

import reference
import tracing
import workloads
from onebitmimo import estimators, optimality, orthant, quantizer, simulate
from onebitmimo.simulate import MseSweepResult, SweepRow

BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "BENCHMARK.json")


def load_spec():
    with open(BENCHMARK, encoding="utf-8") as fh:
        return json.load(fh)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_metric_names_are_well_formed_and_unique():
    spec = load_spec()
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert all(re.fullmatch(r"[A-Za-z0-9_.-]+", n) for n in names)
    assert len(names) == len(set(names))


def test_layer_metrics_cover_the_per_layer_list():
    clock = FakeClock()
    tracer = tracing.Tracer(clock)
    with tracer.span(tracing.SWEEP_SPAN, trial_points=10):
        clock.now = 1.0
    metrics, checked, failures = tracing.layer_metrics(tracer.spans, 1)
    from_probe = {"import.s", "config.load.ms", "simulate.build_point.ms",
                  "estimators.blmmse_operator.ms", "trace.overhead"}
    assert set(metrics) | from_probe == {m["name"] for m in load_spec()["per_layer"]}
    assert (checked, failures) == (0, [])


def test_self_times_partition_wall_time():
    clock = FakeClock()
    tracer = tracing.Tracer(clock)
    with tracer.span("root"):              # 0 .. 10
        clock.now = 1.0
        with tracer.span("a"):             # 1 .. 4
            clock.now = 2.0
            with tracer.span("a.1"):       # 2 .. 3
                clock.now = 3.0
            clock.now = 4.0
        clock.now = 6.0
        with tracer.span("b"):             # 6 .. 9
            clock.now = 9.0
        clock.now = 10.0
    spans = tracer.spans
    assert [s.parent for s in spans] == [None, 0, 1, 0]
    selfs = tracing.self_times(spans)
    assert selfs == pytest.approx([4.0, 2.0, 1.0, 3.0])
    assert sum(selfs) == pytest.approx(spans[0].duration)


def test_self_time_counts_overlapping_children_once():
    spans = [tracing.Span("root", 0.0, None, {}), tracing.Span("x", 1.0, 0, {}),
             tracing.Span("y", 2.0, 0, {})]
    spans[0].end, spans[1].end, spans[2].end = 10.0, 5.0, 6.0
    assert tracing.self_times(spans)[0] == pytest.approx(5.0)


def test_largest_block_splits_uncoupled_coordinates():
    psi = np.eye(5)
    psi[0, 1] = psi[1, 0] = 0.3
    psi[2, 3] = psi[3, 2] = psi[3, 4] = psi[4, 3] = 0.2
    assert tracing.largest_block(psi) == 3


def test_wrappers_restore_module_attributes():
    modules = (simulate, estimators, orthant, quantizer, optimality)
    before = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    with pytest.raises(KeyError):
        with tracing.Tracer() as tracer:
            tracing.install(tracer)
            assert simulate.mmse_estimate is not before[(simulate.__name__, "mmse_estimate")]
            raise KeyError("leave the block early")
    after = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_wrapper_records_spans_through_module_globals():
    stats, model, rel_tol = workloads.build_estimate_point(0)
    b = workloads.observations(0, 1)[0]
    with tracing.Tracer() as tracer:
        tracing.install(tracer)
        with tracer.span(tracing.ESTIMATE_SPAN):
            workloads.estimate_once(stats, model, rel_tol, b)
    names = [s.name for s in tracer.spans]
    assert names.count("orthant.orthant_probability") == 7
    assert names.count("orthant.positive_orthant_mean") == 1
    selfs = tracing.self_times(tracer.spans)
    assert sum(selfs) == pytest.approx(tracer.spans[0].duration)


def _scalar_result(shift):
    rows = []
    for snr_db in (0.0, 10.0):
        want = workloads.analytic_scalar_mse(snr_db)
        for name in ("blmmse", "mmse"):
            rows.append(SweepRow(snr_db, name, want + shift, 0.01, 1000))
    return MseSweepResult(rows=rows, metadata={})


def test_sweep_check_flags_a_wrong_curve():
    assert workloads.check_sweep("scalar", _scalar_result(0.0)) == []
    assert len(workloads.check_sweep("scalar", _scalar_result(0.1))) == 4


def test_sweep_check_flags_mmse_above_blmmse():
    rows = [SweepRow(10.0, "blmmse", 0.30, 0.001, 1000), SweepRow(10.0, "mmse", 0.32, 0.001, 1000)]
    result = MseSweepResult(rows=rows, metadata={})
    assert len(workloads.check_sweep("general", result)) == 1


def test_exact_mse_check_flags_a_biased_sweep():
    data = reference.load()
    sigma = workloads.general_covariance(2)
    exact = {float(snr): reference.exact_mse(table, sigma)
             for snr, table in data["tables"]["sweep-general"].items()}
    assert exact[10.0]["mmse"] < exact[10.0]["blmmse"]
    rows = [SweepRow(10.0, name, exact[10.0][name], 0.001, 1000) for name in ("blmmse", "mmse")]
    assert workloads.check_sweep("general", MseSweepResult(rows, {}), exact) == []
    rows[0] = SweepRow(10.0, "blmmse", 1.1 * exact[10.0]["blmmse"], 0.001, 1000)
    assert len(workloads.check_sweep("general", MseSweepResult(rows, {}), exact)) == 1


def test_estimate_check_flags_a_scaled_estimate():
    data = reference.load()
    refs = data["tables"]["estimate-general"]["10"]
    stats, model, rel_tol = workloads.build_estimate_point(0)
    b = workloads.observations(0, 1)[0]
    obs, mmse, blmmse, verdict = workloads.estimate_once(stats, model, rel_tol, b)
    ref = refs[workloads.pattern_key(obs.r_real, obs.r_imag)]
    assert workloads.check_estimate(obs, mmse, blmmse, verdict, ref, rel_tol) == []
    wrong = estimators.Estimate(h_hat=1.1 * mmse.h_hat, estimator=mmse.estimator,
                                pr_r=mmse.pr_r)
    assert len(workloads.check_estimate(obs, wrong, blmmse, verdict, ref, rel_tol)) == 1


def test_reference_lookup_finds_the_package_problem():
    data = reference.load()
    lookup = reference.ProbabilityLookup(data, "estimate-general")
    omega = workloads.observation_covariance(3, 10.0)
    r_real, r_imag = np.array([1.0, -1.0, 1.0]), np.array([1.0, 1.0, -1.0])
    s = reference.orthant_problems(omega, r_real, r_imag)[0]
    want = data["tables"]["estimate-general"]["10"][workloads.pattern_key(r_real, r_imag)]
    assert lookup.find(3.0 * s) == want["probs"][0]
    assert lookup.find(np.eye(6)) is None
