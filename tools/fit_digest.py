"""One SHA-256 over every output of a seeded set of fits and sampled rows.

    python tools/fit_digest.py

Fits three families of poses with the package in this checkout's src/
and hashes, as float.hex, each fit's kappa, kappa_prime, L, A, B,
residual_g, endpoint_error and iterations, then the rows of its
sample(50).  A pose that raises a FitError hashes the error's class name.
The families:

* COUNT uniform angle pairs: chord-relative angles uniform in
  (-0.9999 pi, 0.9999 pi)^2, chord length log-uniform in [1e-2, 1e2],
  start point and chord direction uniform;
* `cli.bench_near_line_case` and `bench_near_circle_case` at k = 1..10;
* COUNT consecutive waypoint pairs of planned paths: a random walk of chord
  directions turning by up to 1 rad, log-uniform steps in [0.5, 5], the
  heading at a waypoint bisecting its chords plus N(0, 0.05) rad.

Two checkouts whose digests agree made bit-identical fits and rows on
these poses.  Prints the digest, then the number of fits and rows.
"""

import hashlib
import math
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from clothofit import FitError, HermiteData, build_clothoid  # noqa: E402
from clothofit.cli import bench_near_circle_case, bench_near_line_case  # noqa: E402

SEED = 20131
ANGLE_LIMIT = 0.9999 * math.pi
SAMPLE_N = 50
PATH_SEGMENTS = 32
COUNT = 15000


def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def uniform_poses(rng, count):
    for _ in range(count):
        phi0 = rng.uniform(-ANGLE_LIMIT, ANGLE_LIMIT)
        phi1 = rng.uniform(-ANGLE_LIMIT, ANGLE_LIMIT)
        r = _log_uniform(rng, 1e-2, 1e2)
        x0 = rng.uniform(-100.0, 100.0)
        y0 = rng.uniform(-100.0, 100.0)
        d = rng.uniform(-math.pi, math.pi)
        yield (x0, y0, d + phi0, x0 + r * math.cos(d), y0 + r * math.sin(d), d + phi1)


def regime_poses():
    for k in range(1, 11):
        yield bench_near_line_case(k)
        yield bench_near_circle_case(k)


def waypoint_poses(rng, count):
    while True:
        x = rng.uniform(-100.0, 100.0)
        y = rng.uniform(-100.0, 100.0)
        d = rng.uniform(-math.pi, math.pi)
        h = d + rng.gauss(0.0, 0.05)
        for _ in range(PATH_SEGMENTS):
            if count == 0:
                return
            count -= 1
            step = _log_uniform(rng, 0.5, 5.0)
            d_next = d + rng.uniform(-1.0, 1.0)
            nx = x + step * math.cos(d)
            ny = y + step * math.sin(d)
            nh = 0.5 * (d + d_next) + rng.gauss(0.0, 0.05)
            yield (x, y, h, nx, ny, nh)
            x, y, h, d = nx, ny, nh, d_next


def digest():
    """(hex digest, fits, rows) over the three families."""
    rng = random.Random(SEED)
    h = hashlib.sha256()
    fits = rows = 0
    for pose in (*uniform_poses(rng, COUNT), *regime_poses(), *waypoint_poses(rng, COUNT)):
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


if __name__ == "__main__":
    print("%s  %d fits, %d rows" % digest())
