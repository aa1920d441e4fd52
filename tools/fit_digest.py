"""SHA-256 digests of seeded fits and sampled rows, of CLI outputs and of evaluations.

    python tools/fit_digest.py

Fits four families of poses with the package in this checkout's src/
and hashes, as float.hex, each fit's kappa, kappa_prime, L, A, B,
residual_g, endpoint_error and iterations, then the rows of its
sample(SAMPLE_N), perfbench's 50 rows per fit.  A pose that raises a
FitError hashes the error's class name.  Three of the families are the benchmark's own streams,
imported from this checkout's perfbench/workloads.py and seeded with
SEED, so the digest fits the traffic that perfbench times:

* the first COUNT poses of `generic_stream`: random poses over the
  paper's angle domain;
* `cli.bench_near_line_case` and `bench_near_circle_case` at k = 1..10;
* the first NEAR_COUNT poses of `near_stream`: the near-line and
  near-circle shapes at scales 2^-8..2^8, rotated and translated, and
  exact lines and arcs (100 rounds of its 32 shapes);
* the first COUNT poses of `spline_stream`: consecutive waypoint pairs
  of planned paths.

Two checkouts whose digests agree made bit-identical fits and rows on
these poses, provided their perfbench streams agree too.  Prints the
digest, then the number of fits and rows.

A second line hashes, for each argument list in CLI_INVOCATIONS, the
exit code, stdout and stderr of `cli.main`: every subcommand, each
`--help`, and the error exits 2, 3 and 4.  The help text is laid out for
COLUMNS=80, and grid-stats' `elapsed_s` line, wall time, is dropped
before hashing.  argparse words its help differently across Python
versions, so compare this line between checkouts on one interpreter.

A third line hashes `eval_xy(a, b, c, k)` for k = 1 and 5 at EVAL_COUNT
seeded (a, b, c), and `r_lommel(j - 1/2, 1/2, b)` and `r_lommel(j + 1/2,
1/2, b)` at EVAL_COUNT seeded (j, b), the pairs `eval_xy_a_zero` seeds
its top order j with: j in 1..TOP_ORDER and |b| < j, with b = 0 among
them.  The (a, b, c) cover a = 0, 0 < |a| < EPSILON_A (log-uniform
over [1e-8, EPSILON_A), so every series order p = 1..4), and |a| just
above EPSILON_A on the completed square; |b| is 0 or log-uniform in
[1e-6, 1e2] and c uniform in [-pi, pi].  k = 1 and 5 are the two shapes
`eval_xy` computes (every k >= 2 returns the first k entries of the
k = 5 call), and the two the package asks for: the curve's end reads
k = 1, each solve iterate k = 5.  Prints the digest, then the number of
evaluations and of sums.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import random
import sys
import tempfile
from itertools import islice
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from clothofit import FitError, HermiteData, build_clothoid  # noqa: E402
from clothofit.cli import bench_near_circle_case, bench_near_line_case, main  # noqa: E402
from clothofit.gfresnel import EPSILON_A, eval_xy, r_lommel  # noqa: E402
from perfbench.workloads import SAMPLE_N, generic_stream, near_stream, spline_stream  # noqa: E402

SEED = 20131
COUNT = 15000
NEAR_COUNT = 3200
EVAL_COUNT = 4000
# the highest order eval_xy_a_zero seeds: 4p + 6 at k >= 2, p = 4
TOP_ORDER = 22

POSE = ["--x0", "-1e-3", "--y0", "0", "--theta0", "0.3",
        "--x1", "4", "--y1", "1", "--theta1", "-2.5E-1"]
LINE = ["--x0", "0", "--y0", "0", "--theta0", "0", "--x1", "3", "--y1", "0", "--theta1", "0"]
VERTICAL = ["--x0", "1", "--y0", "2", "--theta0", repr(math.pi / 2),
            "--x1", "1", "--y1", "7", "--theta1", repr(math.pi / 2)]
COINCIDENT = ["--x0", "1", "--y0", "1", "--theta0", "0.3",
              "--x1", "1", "--y1", "1", "--theta1", "0.7"]
EXCLUDED = ["--x0", "0", "--y0", "0", "--theta0", repr(math.pi),
            "--x1", "1", "--y1", "0", "--theta1", repr(-math.pi)]
# "{out}" stands for a fresh file path; that file's text is hashed too
CLI_INVOCATIONS = (
    ["--help"], ["fit", "--help"], ["sample", "--help"], ["svg", "--help"],
    ["bench", "--help"], ["grid-stats", "--help"],
    ["fit"] + POSE, ["fit"] + POSE + ["--guess", "linear"],
    ["fit"] + POSE + ["--guess", "quintic", "--out", "{out}"],
    ["sample"] + POSE + ["--n", "7"],
    ["sample"] + POSE + ["--n", "5", "--format", "json"],
    ["svg"] + POSE + ["--n", "20"], ["svg"] + LINE + ["--n", "3"],
    ["svg"] + VERTICAL + ["--n", "4", "--width", "300", "--height", "500"],
    ["bench"], ["bench", "--out", "{out}"],
    ["grid-stats", "--grid-n", "6"],
    ["grid-stats", "--grid-n", "5", "--guess", "quintic"],
    # exit 2: argparse, then the checks on values and on --out
    [], ["plot"], ["fit"], ["fit"] + POSE[:-1], ["fit"] + POSE + ["--guess", "cubic"],
    ["fit", "--x0", "zebra"] + POSE[2:], ["fit", "--x0", "nan"] + POSE[2:],
    ["fit"] + POSE + ["--tol", "1e-12"], ["sample"] + POSE + ["--n", "1"],
    ["svg"] + POSE + ["--width", "nan"], ["svg"] + POSE + ["--height", "-1"],
    ["grid-stats", "--grid-n", "1"],
    ["bench", "--out", "."],
    ["fit"] + COINCIDENT, ["sample"] + COINCIDENT,
    ["fit", "--x0", "0", "--y0", "0", "--theta0", "0.3", "--x1", "1e200", "--y1", "0",
     "--theta1", "-0.2"],
    ["fit"] + EXCLUDED, ["svg"] + EXCLUDED,
)


def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def poses():
    """The four families, in order."""
    yield from islice(generic_stream(SEED), COUNT)
    for k in range(1, 11):
        yield bench_near_line_case(k)
        yield bench_near_circle_case(k)
    yield from islice(near_stream(SEED), NEAR_COUNT)
    yield from islice(spline_stream(SEED), COUNT)


def digest():
    """(hex digest, fits, rows) over the four families."""
    h = hashlib.sha256()
    fits = rows = 0
    for pose in poses():
        try:
            fit = build_clothoid(HermiteData(*pose))
        except FitError as exc:
            h.update(type(exc).__name__.encode())
            continue
        c = fit.curve
        values = [c.kappa, c.kappa_prime, c.L, fit.A, fit.B, fit.residual_g,
                  fit.endpoint_error, float(fit.iterations)]
        sampled = c.sample(SAMPLE_N)
        for row in sampled:
            values.extend(row)
        h.update((" ".join(float(v).hex() for v in values) + "\n").encode())
        fits += 1
        rows += len(sampled)
    return h.hexdigest(), fits, rows


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def cli_digest():
    """(hex digest, invocations) over CLI_INVOCATIONS."""
    os.environ["COLUMNS"] = "80"
    h = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        for i, argv in enumerate(CLI_INVOCATIONS):
            path = os.path.join(tmp, "out%d" % i)
            code, out, err = _run_cli([a.replace("{out}", path) for a in argv])
            out = "".join(line for line in out.splitlines(keepends=True)
                          if not line.startswith("elapsed_s "))
            written = Path(path).read_text() if os.path.exists(path) else None
            h.update((json.dumps([argv, code, out, err, written]) + "\n").encode())
    return h.hexdigest(), len(CLI_INVOCATIONS)


def _signed(rng, x):
    return x if rng.random() < 0.5 else -x


def eval_arguments(rng, count):
    for _ in range(count):
        u = rng.random()
        if u < 0.1:
            a = 0.0
        elif u < 0.8:
            a = _signed(rng, _log_uniform(rng, 1e-8, EPSILON_A))
        else:
            a = _signed(rng, rng.uniform(EPSILON_A, 1.5 * EPSILON_A))
        b = 0.0 if rng.random() < 0.05 else _signed(rng, _log_uniform(rng, 1e-6, 1e2))
        yield a, b, rng.uniform(-math.pi, math.pi)


def eval_digest():
    """(hex digest, evaluations, sums) over the seeded eval_xy and r_lommel arguments."""
    rng = random.Random(SEED)
    h = hashlib.sha256()
    evaluations = sums = 0
    for a, b, c in eval_arguments(rng, EVAL_COUNT):
        for k in (1, 5):
            X, Y = eval_xy(a, b, c, k)
            h.update((" ".join(v.hex() for v in X + Y) + "\n").encode())
            evaluations += 1
    for _ in range(EVAL_COUNT):
        j = rng.randint(1, TOP_ORDER)
        b = 0.0 if rng.random() < 0.05 else rng.uniform(-j, j)
        values = (r_lommel(j - 0.5, 0.5, b), r_lommel(j + 0.5, 0.5, b))
        h.update((" ".join(v.hex() for v in values) + "\n").encode())
        sums += 2
    return h.hexdigest(), evaluations, sums


if __name__ == "__main__":
    print("%s  %d fits, %d rows" % digest())
    print("%s  %d cli invocations" % cli_digest())
    print("%s  %d evaluations, %d r_lommel sums" % eval_digest())
