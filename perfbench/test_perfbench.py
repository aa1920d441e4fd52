"""Tests of the benchmark itself: seeded inputs, trace plumbing, metric names."""

import dataclasses
import itertools
import json
import math
import sys
from array import array
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import clothofit  # noqa: E402
from clothofit import clothoid, fitter, gfresnel  # noqa: E402

from perfbench import run  # noqa: E402
from perfbench.checks import check_fit, check_output, oracle_check  # noqa: E402
from perfbench.tracing import Tracer, span_stats  # noqa: E402
from perfbench.workloads import WORKLOADS, fit  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

# Small traced passes keep these tests quick; counts per pass are what
# the full run repeats.
SMALL_TRACE = {"generic_fits": 60, "near_regime": 32, "spline_sampling": 3}


def _small(name):
    return dataclasses.replace(WORKLOADS[name], trace_ops=SMALL_TRACE[name])


def _head(name, seed, n=50):
    return list(itertools.islice(WORKLOADS[name].stream(seed), n))


def test_same_seed_same_inputs():
    for name in WORKLOADS:
        assert _head(name, 7) == _head(name, 7), name
        assert _head(name, 7) != _head(name, 8), name


def test_near_regime_exact_shapes_reduce_to_zero_a():
    poses = _head("near_regime", 3, 64)
    zero_sums = 0
    for pose in poses:
        rp = fitter.reduce_problem(clothofit.HermiteData(*pose))
        zero_sums += rp.phi0 + rp.phi1 == 0.0
    # two rounds of 32 shapes: each holds ten exact arcs and two exact lines
    assert zero_sums >= 24


def _traced_counts(name, seed):
    _, metrics, _ = run.traced_run(_small(name), seed, 0.0)
    return {k: v for k, v, _ in metrics
            if k.endswith("calls_per_op") or k.startswith("fitter.iterations")}


def test_traced_counts_repeat_exactly():
    for name in WORKLOADS:
        first = _traced_counts(name, 5)
        assert first == _traced_counts(name, 5), name
        assert first["gfresnel.eval_xy.calls_per_op"] > 0, name


def test_traced_counts_follow_the_workload():
    near = _traced_counts("near_regime", 2)
    assert near["fresnel.fresnel.calls_per_op"] == 0
    assert near["gfresnel.a_zero_exact.calls_per_op"] > 0
    assert near["gfresnel.r_lommel.calls_per_op"] > 0
    spline = _traced_counts("spline_sampling", 2)
    # sample(n) evaluates n - 1 poses, the fit one more for its end point
    assert spline["clothoid.point_at.calls_per_op"] == WORKLOADS["spline_sampling"].sample_n


def test_tracer_reaches_every_eval_xy_binding_and_restores():
    originals = (gfresnel.eval_xy, fitter.eval_xy, clothoid.eval_xy, clothofit.eval_xy,
                 clothoid.ClothoidCurve.point_at)
    tracer = Tracer()
    with tracer:
        assert fitter.eval_xy is not originals[1]
        tracer.run_op(0, fit, next(WORKLOADS["generic_fits"].stream(1)))
        tracer.run_op(1, gfresnel.eval_xy, 0.0, 1.0, 0.0, 1)
    assert (gfresnel.eval_xy, fitter.eval_xy, clothoid.eval_xy, clothofit.eval_xy,
            clothoid.ClothoidCurve.point_at) == originals
    calls = {b: c[0] for b, c in tracer.binding_calls.items()}
    for binding in ("clothofit.gfresnel:eval_xy", "clothofit.fitter:eval_xy",
                    "clothofit.clothoid:eval_xy"):
        assert calls[binding] >= 1, binding
    spans = tracer.take()
    eval_id = tracer.span_names.index("gfresnel.eval_xy")
    eval_spans = sum(1 for n in spans[0] if n == eval_id)
    assert eval_spans == sum(c for b, c in calls.items() if b.endswith(":eval_xy"))
    assert tracer.a_zero_calls[0] == 1


def test_tracer_skips_a_function_the_package_lost(monkeypatch):
    monkeypatch.delattr(fitter, "g_prime")
    tracer = Tracer()
    with tracer:
        tracer.run_op(0, fit, next(WORKLOADS["generic_fits"].stream(1)))
    stats = span_stats(tracer.take(), len(tracer.span_names))
    assert stats[tracer.span_names.index("fitter.g_prime")][0] == 0
    assert stats[tracer.span_names.index("fitter.build_clothoid")][0] == 1


def test_self_time_subtracts_children():
    # op [0, 100] > child [10, 40] > grandchild [20, 30], and child [50, 60]
    spans = (array("H", [0, 1, 2, 1]), array("q", [-1, 0, 1, 0]), array("q", [0] * 4),
             array("q", [0, 10, 20, 50]), array("q", [100, 40, 30, 60]))
    stats = span_stats(spans, 3)
    assert stats == [[1, 100, 60], [2, 40, 30], [1, 10, 10]]


def test_checks_reject_wrong_outputs():
    w = WORKLOADS["spline_sampling"]
    pose = next(w.stream(4))
    result, rows = w.op(pose)
    assert check_output(w, pose, (result, rows)) is None
    bent = dataclasses.replace(result, curve=dataclasses.replace(
        result.curve, kappa=result.curve.kappa * (1.0 + 1e-6)))
    assert check_fit(pose, bent) is not None
    assert oracle_check(pose, (bent, rows), lambda n: n - 1) is not None
    shifted = rows[:-2] + [(rows[-2][0] + 1e-6,) + rows[-2][1:], rows[-1]]
    assert oracle_check(pose, (result, shifted), lambda n: n - 2) is not None
    assert check_output(w, pose, ValueError("boom")) is not None


def _printed_metrics(capsys, trace):
    argv = ["--workload", "near_regime", "--seed", "1", "--seconds", "0.2",
            "--trace", str(trace)]
    if trace:
        real = run.WORKLOADS["near_regime"]
        run.WORKLOADS["near_regime"] = _small("near_regime")
    try:
        assert run.main(argv) == 0
    finally:
        if trace:
            run.WORKLOADS["near_regime"] = real
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return {k: v["unit"] for k, v in result["metrics"].items()}


def test_printed_metrics_match_benchmark_json(capsys):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        printed = _printed_metrics(capsys, trace)
        declared = {m["name"]: m["unit"] for m in BENCHMARK[key]}
        assert printed == declared, key
    assert {w["name"]: w["why"] for w in BENCHMARK["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()}
    for w in WORKLOADS.values():
        assert w.why.endswith("op_latency_tail_us is p%g" % w.tail_pct), w.name


def test_calibration_scales_by_the_reference_slices_around_an_operation():
    t = run.Timings()
    t.ref_us.extend(run.REF_NOMINAL_US * k for k in (1, 3, 2, 2, 1))
    # an operation before slice i is scaled by the slices i-2, i-1, i, i+1
    assert t.scales() == [1 / 2, 1 / 2, 1 / 2, 1 / 2, 3 / 5]


def test_percentile_is_nearest_rank():
    values = list(range(1, 1001))
    assert run.percentile(values, 99.9) == 999
    assert run.percentile(values, 50) == 500
    assert math.isclose(run.percentile([2.5], 99), 2.5)
