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
both up first.  For each workload the tool prints each side's median
microseconds per operation over the rounds, and the median and
(inclusive) quartiles of the per-round ratio head/base (below 1: head is
faster).

Two copies of the same code (`--base .`), at the default 30 rounds of
640 poses on a shared 2-vCPU host under Python 3.11, read median ratios
between 0.98 and 1.02 with quartiles within 0.97..1.03, from run to run
of all three workloads; a ratio inside that band says nothing.
This is a quick look beside a change, not a gate: perfbench/run.py and
the BENCH files it writes remain the measurement that speed claims rest
on.
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
    """Microseconds per operation of each side over one pass of the poses.

    The sides take turns chunk by chunk, `first` starting, so that a
    change in the host's load falls on both alike."""
    ns = [0, 0]
    order = (first, 1 - first)
    gc.collect()
    gc.disable()
    for chunk in chunks:
        for side in order:
            op = ops[side]
            start = time.perf_counter_ns()
            for pose in chunk:
                op(pose)
            ns[side] += time.perf_counter_ns() - start
        order = order[::-1]
    gc.enable()
    n_poses = sum(len(chunk) for chunk in chunks)
    return [t / 1e3 / n_poses for t in ns]


def compare(name, head, base, rounds):
    workload = WORKLOADS[name]
    poses = list(islice(workload.stream(SEED), OPS))
    chunks = [poses[i:i + CHUNK] for i in range(0, len(poses), CHUNK)]
    sides = [make_op(head, workload.sample_n), make_op(base, workload.sample_n)]
    time_round(sides, chunks, 0)
    head_us, base_us, ratios = [], [], []
    for i in range(rounds):
        us = time_round(sides, chunks, i % 2)
        head_us.append(us[0])
        base_us.append(us[1])
        ratios.append(us[0] / us[1])
    q1, q2, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
    print("%s: head %.2f us/op, base %.2f us/op, ratio head/base %.4f [%.4f, %.4f] "
          "over %d rounds of %d ops"
          % (name, statistics.median(head_us), statistics.median(base_us), q2, q1, q3,
             rounds, OPS))


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
