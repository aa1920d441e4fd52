"""Operation-level A/B timing of this checkout's package against another's.

    python tools/ab_bench.py --base DIR [--workload NAME ...] [--rounds N]

Loads `src/clothofit` of this checkout and of the checkout at DIR as two
packages, `clothofit_head` and `clothofit_base` (the package imports its
own modules relatively, so each copy runs only its own code), in one
interpreter.  Poses come from this checkout's perfbench/workloads.py
streams, read only: the first OPS poses of each workload's stream at
seed SEED.  An operation is a workload's: one `build_clothoid`
of `HermiteData(*pose)`, followed on spline_sampling by
`curve.sample(n)` at the workload's n.

Each round times every pose once on both sides, which take turns chunk
by chunk of CHUNK poses, with the garbage collector paused; the side
that starts alternates from round to round, and one untimed round warms
both up first.  Each operation is timed on its own.  For each workload
the tool prints each side's median over the rounds of the mean
microseconds per operation, with the median and (inclusive) quartiles of
the per-round ratio head/base (below 1: head is faster); then the same
for the workload's tail percentile (`tail_pct`, the one perfbench reports
as op_latency_tail_us; nearest rank, as perfbench/run.py takes it) of
each round's operation times.

Two copies of the same code (`--base .`), in five runs at the default 30
rounds of 640 poses on a shared 2-vCPU host under Python 3.11, read:

* the mean: median ratios between 0.99 and 1.02, quartiles within
  0.97..1.04, on all three workloads;
* spline_sampling's p98: medians 0.99..1.01, quartiles within 0.97..1.04;
* near_regime's p99: medians 0.96..1.02, quartiles within 0.85..1.14;
* generic_fits' p99.9, which is each round's slowest of its 640
  operations: medians 0.89..1.12, quartiles within 0.70..1.45.

A ratio inside its band says nothing.  This is a quick look beside a
change, not a gate: perfbench/run.py and the BENCH files it writes
remain the measurement that speed claims rest on.
"""

import argparse
import gc
import importlib.util
import statistics
import sys
import time
from itertools import islice
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.run import percentile  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

# Poses a side times before the other takes its turn.
CHUNK = 32

# Poses per round, and the seed of the streams they are drawn from.
OPS = 640
SEED = 7


def load_package(name, checkout):
    """Import checkout/src/clothofit under the module name `name`."""
    package_dir = Path(checkout).resolve() / "src" / "clothofit"
    spec = importlib.util.spec_from_file_location(
        name, package_dir / "__init__.py", submodule_search_locations=[str(package_dir)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def make_op(package, sample_n):
    """The workload's operation, run through `package`."""
    build, pose_type = package.build_clothoid, package.HermiteData
    if sample_n == 1:
        return lambda pose: build(pose_type(*pose))
    return lambda pose: build(pose_type(*pose)).curve.sample(sample_n)


def time_round(ops, chunks, first):
    """Microseconds of each operation on each side over one pass of the poses.

    The sides take turns chunk by chunk, `first` starting, so that a
    change in the host's load falls on both alike."""
    ns = ([], [])
    order = (first, 1 - first)
    clock = time.perf_counter_ns
    gc.collect()
    gc.disable()
    for chunk in chunks:
        for side in order:
            op, times = ops[side], ns[side]
            for pose in chunk:
                start = clock()
                op(pose)
                times.append(clock() - start)
        order = order[::-1]
    gc.enable()
    return [[t / 1e3 for t in times] for times in ns]


def _median_and_quartiles(ratios):
    q1, q2, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
    return "%.4f [%.4f, %.4f]" % (q2, q1, q3)


def compare(name, head, base, rounds):
    workload = WORKLOADS[name]
    poses = list(islice(workload.stream(SEED), OPS))
    chunks = [poses[i:i + CHUNK] for i in range(0, len(poses), CHUNK)]
    sides = [make_op(head, workload.sample_n), make_op(base, workload.sample_n)]
    time_round(sides, chunks, 0)
    # per round and side: mean and tail microseconds per operation
    means, tails = ([], []), ([], [])
    for i in range(rounds):
        for side, us in enumerate(time_round(sides, chunks, i % 2)):
            means[side].append(statistics.fmean(us))
            tails[side].append(percentile(sorted(us), workload.tail_pct))
    print("%s: head %.2f us/op, base %.2f us/op, ratio head/base %s; "
          "p%g head %.2f us, base %.2f us, ratio %s over %d rounds of %d ops"
          % (name, statistics.median(means[0]), statistics.median(means[1]),
             _median_and_quartiles([h / b for h, b in zip(*means)]), workload.tail_pct,
             statistics.median(tails[0]), statistics.median(tails[1]),
             _median_and_quartiles([h / b for h, b in zip(*tails)]), rounds, OPS))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="checkout to compare against")
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                        help="workload to time (repeatable; default: all)")
    parser.add_argument("--rounds", type=int, default=30, help="interleaved rounds")
    args = parser.parse_args(argv)
    if args.rounds < 2:
        parser.error("--rounds must be at least 2")
    head = load_package("clothofit_head", ROOT)
    base = load_package("clothofit_base", args.base)
    for name in args.workload or sorted(WORKLOADS):
        compare(name, head, base, args.rounds)


if __name__ == "__main__":
    main()
