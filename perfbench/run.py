"""clothofit benchmark: one closed-loop caller on seeded, checked inputs.

Run from the repository root:

    python3 perfbench/run.py --workload generic_fits --seed 1 --seconds 30 --trace 0

One process drives the public API (`build_clothoid`, `ClothoidCurve.sample`)
in a closed loop: each operation starts after the previous one returns,
with no threads.  Inputs come from the seed (see workloads.py).  Every
output is checked (checks.py) outside the timed region, and a failed
check or an unexpected exception counts as a failed operation.

--trace 0 reports the end-to-end metrics, in calibrated time (below):
  fits_per_s          completed operations per second of time spent
                      inside them
  points_per_s        fits_per_s times the poses one operation yields
                      (the sampled n on spline_sampling; one fitted end
                      point on the fit-only workloads)
  op_latency_p50_us   median time of one operation
  op_latency_tail_us  the workload's tail percentile of the same, the
                      highest that keeps ten or more samples beyond it
  setup_s             median over SETUP_RUNS fresh interpreters, run
                      between operations, of the time to import clothofit
                      and fit the first input of the seed-0 stream
  peak_rss_mb         peak resident memory of this process after the
                      timed loop, before the quadrature oracle loads scipy

Calibrated time (calibration.py): after every REF_EVERY_MS of operation
time the run times one slice of a fixed reference kernel, and each
operation's wall time is scaled by REF_NOMINAL_US over the mean time of
the two slices before it and the two after it.  A setup child
times three slices of its own right after its setup and is scaled by
their median.  The wall-clock values and the median slice time are
printed too, as notes.

Every run also prints endpoint_error_max (largest endpoint_error /
max(1, L)) and failed_ratio (failed over attempted operations).  Both are
per-layer metrics of the traced run instead of end-to-end ones: the
failed ratio is 0 when all is well, and the largest rounding error of a
run varies too much from seed to seed to hold a regression bound.

--trace 1 runs a fixed list of the stream's first `trace_ops` operations
in alternating untraced and traced passes until --seconds have passed,
and reports per-layer metrics (tracing.py) and the tracing overhead.
The spans of the first traced pass are written to
.perfbench/spans-<workload>.csv.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

import argparse
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

if __name__ == "__main__":
    sys.path[:0] = [str(SRC), str(ROOT)]

from perfbench.calibration import REF_NOMINAL_US, reference_slice, time_slice  # noqa: E402
from perfbench.checks import check_output, oracle_check  # noqa: E402
from perfbench.tracing import OP, Tracer, span_stats, write_spans  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

WARMUP_S = 0.3
REF_EVERY_MS = 10
SETUP_RUNS = 25
ORACLE_MAX = 30
FAILURES_SHOWN = 10

# Child for setup_s: a fresh interpreter imports clothofit from the given
# source directory and fits the given pose, then times three
# reference slices for its calibration.
SETUP_CHILD = r"""
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import clothofit
clothofit.build_clothoid(clothofit.HermiteData(*map(float, sys.argv[3:9])))
setup = time.perf_counter() - t0
sys.path.insert(0, sys.argv[2])
from perfbench.calibration import time_slice
print(repr(setup), repr(sorted(time_slice() for _ in range(3))[1]))
"""

END_TO_END = (
    ("fits_per_s", "1/s"),
    ("points_per_s", "1/s"),
    ("op_latency_p50_us", "us"),
    ("op_latency_tail_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# Traced span name -> the kinds of per-layer metric reported for it.
_LAYERS = (
    ("fresnel.fresnel", ("calls_per_op", "us_per_call", "share")),
    ("gfresnel.eval_xy", ("calls_per_op", "us_per_call", "share")),
    ("gfresnel.a_large", ("calls_per_op", "us_per_call", "share")),
    ("gfresnel.a_small", ("calls_per_op", "us_per_call", "share")),
    ("gfresnel.r_lommel", ("calls_per_op", "us_per_call", "share")),
    ("fitter.build_clothoid", ("share", "self_share")),
    ("fitter.g_eval", ("calls_per_op",)),
    ("fitter.g_prime", ("calls_per_op",)),
    ("fitter.h_eval", ("calls_per_op",)),
    ("clothoid.point_at", ("calls_per_op", "us_per_call", "share")),
    ("clothoid.sample", ("share", "self_share")),
    ("clothoid.endpoint_residual", ("share",)),
)
_UNITS = {"calls_per_op": "count", "us_per_call": "us", "share": "ratio", "self_share": "ratio"}

PER_LAYER = tuple(
    ("%s.%s" % (span, kind), _UNITS[kind]) for span, kinds in _LAYERS for kind in kinds
) + (
    ("gfresnel.a_zero_exact.calls_per_op", "count"),
    ("gfresnel.eval_xy.regime_share_a_large", "ratio"),
    ("gfresnel.eval_xy.regime_share_a_small", "ratio"),
    ("gfresnel.eval_xy.regime_share_a_zero_exact", "ratio"),
    ("fitter.iterations_mean", "count"),
    ("fitter.iterations_max", "count"),
    ("endpoint_error_max", "ratio"),
    ("failed_ratio", "ratio"),
    ("trace.fits_per_s_untraced", "1/s"),
    ("trace.fits_per_s_traced", "1/s"),
    ("trace.overhead_pct", "%"),
)


def attempt(op, pose):
    """Run one operation; an exception becomes its output."""
    try:
        return op(pose)
    except Exception as exc:  # every unexpected exception is a failed operation
        return exc


class Tally:
    """Counts attempted and failed operations and keeps the oracle subsample.

    Every `stride`-th operation, from a seeded offset, is kept for the
    quadrature oracle, up to ORACLE_MAX of them.
    """

    def __init__(self, workload, seed):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.error_max = 0.0
        self._rng = random.Random("oracle-%d" % seed)
        self._offset = self._rng.randrange(workload.oracle_stride)
        self._kept = []

    def check(self, pose, output):
        """Check one output; True when it passed."""
        index = self.attempted
        self.attempted += 1
        reason = check_output(self.workload, pose, output)
        if reason is not None:
            self._fail(pose, reason)
            return False
        result = output[0]
        self.error_max = max(self.error_max, result.endpoint_error / max(1.0, result.curve.L))
        if (index % self.workload.oracle_stride == self._offset
                and len(self._kept) < ORACLE_MAX):
            self._kept.append((pose, output))
        return True

    def _fail(self, pose, reason):
        self.failed += 1
        if len(self.failures) < FAILURES_SHOWN:
            self.failures.append((pose, reason))

    def run_oracle(self):
        """Quadrature check of the kept subsample; breaches count as failures."""
        for pose, output in self._kept:
            reason = oracle_check(pose, output, self._rng.randrange)
            if reason is not None:
                self._fail(pose, "oracle: " + reason)
        return len(self._kept)


def percentile(sorted_values, pct):
    """Nearest-rank percentile of an ascending sequence."""
    # the 1e-9 keeps 99.9 * 1000 / 100 = 999.0000000000001 at rank 999
    rank = max(1, math.ceil(pct * len(sorted_values) / 100.0 - 1e-9))
    return sorted_values[rank - 1]


def setup_child(workload):
    """Command line of one setup_s child.

    It fits the first input of the workload's seed-0 stream, whatever the
    run's seed, so that setup_s does not move with the seed.
    """
    pose = next(workload.stream(0))
    return [sys.executable, "-I", "-c", SETUP_CHILD, str(SRC), str(ROOT)] + [
        repr(v) for v in pose]


def run_setup_child(argv):
    """(wall s, reference slice us) of one setup child."""
    done = subprocess.run(argv, capture_output=True, text=True, timeout=60, check=True)
    setup, ref = done.stdout.split()
    return float(setup), float(ref)


class Timings:
    """Wall-clock times of one timed loop and the reference slices among them."""

    def __init__(self):
        # compact per-operation arrays keep the harness's share of peak_rss_mb small
        self.op_us = array("f")     # wall time of each operation
        self.op_ref = array("I")    # index of the reference slice after it
        self.op_ok = bytearray()    # whether its output passed the check
        self.setups = []            # (setup child s, its own reference slice us)
        self.ref_us = array("d")    # wall time of each reference slice

    def scales(self):
        """Calibration factor by the index of the slice after an operation.

        The factor is REF_NOMINAL_US over the mean of the two slices
        before the operation and the two after it (fewer at the ends of
        the run): their mean follows the machine's speed during the
        operation more closely than one slice or a median does.
        """
        ref = self.ref_us
        return [REF_NOMINAL_US / statistics.fmean(ref[max(0, i - 2):i + 2])
                for i in range(len(ref))]


def measure(workload, seed, seconds, tally):
    """Closed-loop timed run; returns its Timings.

    Operations run until `seconds` of wall time have been spent inside
    them.  Each output is checked right after its operation, outside the
    timed interval, and then dropped, so that the live heap, and with it
    the cost of garbage collection, stays that of a caller who keeps only
    its current result.  A reference slice runs after every REF_EVERY_MS
    of operation time and once at the end, and the SETUP_RUNS setup
    children run spread evenly over the run, so that both meet the
    same machine conditions as the operations.
    """
    stream = workload.stream(seed)
    op = workload.op
    child = setup_child(workload)
    now = time.perf_counter_ns
    warm_end = now() + int(WARMUP_S * 1e9)
    while now() < warm_end:
        pose = next(stream)
        tally.check(pose, attempt(op, pose))
        reference_slice()
    t = Timings()
    busy = 0
    span = int(seconds * 1e9)
    ref_every = REF_EVERY_MS * 1000000
    while busy < span:
        if busy >= len(t.setups) * span // SETUP_RUNS:
            t.setups.append(run_setup_child(child))
        pose = next(stream)
        t0 = now()
        output = attempt(op, pose)
        t1 = now()
        busy += t1 - t0
        t.op_us.append((t1 - t0) / 1e3)
        t.op_ref.append(len(t.ref_us))
        t.op_ok.append(tally.check(pose, output))
        if busy >= len(t.ref_us) * ref_every:
            t.ref_us.append(time_slice())
    t.ref_us.append(time_slice())
    return t


def end_to_end_run(workload, seed, seconds):
    tally = Tally(workload, seed)
    t = measure(workload, seed, seconds, tally)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    oracle_n = tally.run_oracle()
    scale = t.scales()
    ok = [j for j, passed in enumerate(t.op_ok) if passed]
    lat = sorted(t.op_us[j] * scale[t.op_ref[j]] for j in ok)
    busy_s = sum(us * scale[i] for us, i in zip(t.op_us, t.op_ref)) / 1e6
    fits_per_s = len(lat) / busy_s
    values = {
        "fits_per_s": fits_per_s,
        "points_per_s": fits_per_s * workload.sample_n,
        "op_latency_p50_us": statistics.median(lat),
        "op_latency_tail_us": percentile(lat, workload.tail_pct),
        "setup_s": statistics.median(s * REF_NOMINAL_US / ref for s, ref in t.setups),
        "peak_rss_mb": peak_rss_mb,
    }
    beyond = sum(1 for v in lat if v > values["op_latency_tail_us"])
    notes = [
        "calibration: %d reference slices, median %.1f us against %g us nominal"
        % (len(t.ref_us), statistics.median(t.ref_us), REF_NOMINAL_US),
        "wall clock: fits_per_s %.6g, op_latency_p50_us %.6g, setup_s %.6g" % (
            len(lat) / (sum(t.op_us) / 1e6), statistics.median(t.op_us[j] for j in ok),
            statistics.median(s for s, _ in t.setups)),
        "latency samples %d, tail p%g with %d beyond; %d outputs checked by quadrature"
        % (len(lat), workload.tail_pct, beyond, oracle_n),
        "endpoint_error_max %.6g ratio" % tally.error_max,
        "failed_ratio %.6g ratio (%d of %d)"
        % (tally.failed / tally.attempted, tally.failed, tally.attempted),
    ]
    if beyond < 10:
        notes.append("warning: fewer than ten latency samples beyond the tail percentile")
    return tally, [(name, values[name], unit) for name, unit in END_TO_END], notes


def traced_run(workload, seed, seconds):
    """Alternate untraced and traced passes over a fixed list of operations."""
    tally = Tally(workload, seed)
    stream = workload.stream(seed)
    poses = [next(stream) for _ in range(workload.trace_ops)]
    op = workload.op
    now = time.perf_counter_ns
    tracer = Tracer()
    untraced_ns, traced_ns = [], []
    totals = {}
    first = None
    end = now() + int(seconds * 1e9)
    while True:
        t0 = now()
        outputs = [attempt(op, pose) for pose in poses]
        untraced_ns.append(now() - t0)
        for pose, output in zip(poses, outputs):
            tally.check(pose, output)
        with tracer:
            t0 = now()
            outputs = [tracer.run_op(i, attempt, op, pose) for i, pose in enumerate(poses)]
            traced_ns.append(now() - t0)
        spans = tracer.take()
        for nid, (calls, incl, own) in enumerate(span_stats(spans, len(tracer.span_names))):
            t = totals.setdefault(tracer.span_names[nid], [0, 0, 0])
            t[0] += calls
            t[1] += incl
            t[2] += own
        if first is None:
            first = spans, outputs
        for pose, output in zip(poses, outputs):
            tally.check(pose, output)
        if now() >= end:
            break
    spans, outputs = first
    oracle_n = tally.run_oracle()
    OUT_DIR.mkdir(exist_ok=True)
    span_path = OUT_DIR / ("spans-%s.csv" % workload.name)
    write_spans(span_path, spans, tracer.span_names)

    values = layer_metrics(totals, len(traced_ns) * len(poses), tracer.a_zero_calls[0])
    iterations = [o[0].iterations for o in outputs if not isinstance(o, Exception)] or [0]
    values["fitter.iterations_mean"] = statistics.mean(iterations)
    values["fitter.iterations_max"] = max(iterations)
    values["endpoint_error_max"] = tally.error_max
    values["failed_ratio"] = tally.failed / tally.attempted
    untraced_s = statistics.median(untraced_ns) / 1e9
    traced_s = statistics.median(traced_ns) / 1e9
    values["trace.fits_per_s_untraced"] = len(poses) / untraced_s
    values["trace.fits_per_s_traced"] = len(poses) / traced_s
    values["trace.overhead_pct"] = 100.0 * (traced_s / untraced_s - 1.0)
    notes = [
        "%d passes of %d operations; %d outputs checked by quadrature; spans of "
        "the first traced pass in %s" % (len(traced_ns), len(poses), oracle_n, span_path),
        "eval_xy calls by binding: " + ", ".join(
            "%s %d" % (b, c[0]) for b, c in sorted(tracer.binding_calls.items())
            if b.endswith(":eval_xy")),
    ]
    return tally, [(name, values[name], unit) for name, unit in PER_LAYER], notes


def layer_metrics(totals, n_ops, a_zero_calls):
    """Per-layer metrics from span totals name -> [calls, inclusive ns, self ns].

    calls_per_op counts calls per operation; us_per_call is the mean
    inclusive time of a call; share and self_share are the inclusive and
    self time over the time of the operations' root spans.
    """
    op_ns = totals[OP][1]
    values = {}
    for span, kinds in _LAYERS:
        calls, incl, own = totals[span]
        per = {
            "calls_per_op": calls / n_ops,
            "us_per_call": incl / calls / 1e3 if calls else 0.0,
            "share": incl / op_ns,
            "self_share": own / op_ns,
        }
        for kind in kinds:
            values["%s.%s" % (span, kind)] = per[kind]
    values["gfresnel.a_zero_exact.calls_per_op"] = a_zero_calls / n_ops
    # a_large and a_small split the eval_xy calls; a == 0 is part of a_small
    eval_calls = totals["gfresnel.eval_xy"][0] or 1
    values["gfresnel.eval_xy.regime_share_a_large"] = totals["gfresnel.a_large"][0] / eval_calls
    values["gfresnel.eval_xy.regime_share_a_small"] = totals["gfresnel.a_small"][0] / eval_calls
    values["gfresnel.eval_xy.regime_share_a_zero_exact"] = a_zero_calls / eval_calls
    return values


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None):
    args = _parse(argv)
    import clothofit
    here = Path(clothofit.__file__).resolve().parent
    if here != SRC / "clothofit":
        print("error: clothofit imported from %s, not %s" % (here, SRC), file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    run = traced_run if args.trace else end_to_end_run
    tally, metrics, notes = run(workload, args.seed, args.seconds)
    print("workload %s seed %d seconds %g trace %d"
          % (workload.name, args.seed, args.seconds, args.trace))
    for name, value, unit in metrics:
        print("%-44s %.6g %s" % (name, value, unit))
    for line in notes:
        print(line)
    for pose, reason in tally.failures:
        print("failed input %r: %s" % (pose, reason), file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, value, unit in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
