"""Worst measured c of `ClothoidCurve.point_at`'s error contract, and its
error in units of L, on seeded curves far from a line.

    python tools/point_at_c.py [SEED:COUNT ...]    # default: 1301:24, 1302..1308:400

The curves are `_square_curves(seed, count)` from tests/test_clothoid.py
(|kappa_prime L^2| log-uniform in [EPSILON_A, 1e3], |kappa L| <= 3 or
<= 60, offsets 0 or up to 1e3); its completed-square test uses 1301:24.
The default run takes about five minutes on one core.
Each point is compared with 40-digit mpmath Fresnel integrals
(`clothoid_position_fresnel_mpmath` in tests/oracles.py), and c is the
larger coordinate error over eps (max(L, |s|) (1 + |eta|) + max(|x0|,
|y0|)), eta = -kappa^2/(2 kappa_prime), the bound of the contract in
the `clothofit.clothoid` docstring (c = 8 there).  For each SEED:COUNT
the tool prints the worst c

* on the completed square, over s in [-L, L): +-{1e-6, 1e-2, 0.5, 0.999,
  1.001, 1.5} h with |kappa_prime h^2| = EPSILON_A, +-{0.37, 0.9, 0.99} L,
  -L, and 8 s drawn uniform in [-L, L) per curve;
* at s = L, which `eval_xy` serves;
* past [-L, L), at s = +-{2, 5, 10} L;

then, with the offsets set to 0, the worst error over L of `point_at` at
4 s drawn uniform in (0, L) per curve, and of the rows of `sample(50)`
on the first SAMPLE_CURVES curves, on the square and at s = L, each
split into |kappa L| <= 3 and <= 60.  The draws of s use the seed
SEED + 1000.
"""

import math
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from clothofit import ClothoidCurve  # noqa: E402
from clothofit.gfresnel import EPSILON_A  # noqa: E402
from oracles import clothoid_position_fresnel_mpmath  # noqa: E402
from test_clothoid import _square_curves  # noqa: E402

EPS = 2.0 ** -52
DEFAULT = ("1301:24",) + tuple(f"{seed}:400" for seed in range(1302, 1309))
SAMPLE_CURVES = 150


def _error(curve, s):
    xr, yr = clothoid_position_fresnel_mpmath(curve.x0, curve.y0, curve.theta0,
                                              curve.kappa, curve.kappa_prime, s)
    x, y = curve.point_at(s)
    return float(max(abs(x - xr), abs(y - yr)))


def measure(seed, count):
    """Worst c per region and worst L-scaled errors over _square_curves(seed, count)."""
    rng = np.random.default_rng(seed + 1000)
    worst = dict.fromkeys(("c square", "c at L", "c past", "point/L |kL|<=3",
                           "point/L |kL|<=60", "row/L square |kL|<=3", "row/L square |kL|<=60",
                           "row/L at L |kL|<=3", "row/L at L |kL|<=60"), 0.0)
    for i, curve in enumerate(_square_curves(seed, count)):
        L = curve.L
        eta = -curve.kappa ** 2 / (2.0 * curve.kappa_prime)
        h = math.sqrt(EPSILON_A / abs(curve.kappa_prime))
        inside = ([f * h for f in (1e-6, 1e-2, 0.5, 0.999, 1.001, 1.5)]
                  + [f * L for f in (0.37, 0.9, 0.99)])
        inside += [-s for s in inside] + [-L] + [float(v) for v in rng.uniform(-L, L, 8)]
        past = [f * L for f in (2.0, 5.0, 10.0, -2.0, -5.0, -10.0)]
        for key, points in (("c square", inside), ("c at L", [L]), ("c past", past)):
            for s in points:
                bound = EPS * (max(L, abs(s)) * (1.0 + abs(eta))
                               + max(abs(curve.x0), abs(curve.y0)))
                worst[key] = max(worst[key], _error(curve, s) / bound)
        bare = ClothoidCurve(0.0, 0.0, curve.theta0, curve.kappa, curve.kappa_prime, L)
        turn = "|kL|<=3" if abs(curve.kappa * L) <= 3.0 else "|kL|<=60"
        for s in rng.uniform(0.0, L, 4):
            key = "point/L " + turn
            worst[key] = max(worst[key], _error(bare, float(s)) / L)
        if i < SAMPLE_CURVES:
            rows = bare.sample(50)
            for j in range(1, 50):
                s = j * (L / 49) if j < 49 else L
                xr, yr = clothoid_position_fresnel_mpmath(0.0, 0.0, curve.theta0, curve.kappa,
                                                          curve.kappa_prime, s)
                key = ("row/L at L " if j == 49 else "row/L square ") + turn
                e = float(max(abs(rows[j][0] - xr), abs(rows[j][1] - yr)))
                worst[key] = max(worst[key], e / L)
    return worst


def main(argv):
    for arg in argv or DEFAULT:
        seed, count = (int(v) for v in arg.split(":"))
        worst = measure(seed, count)
        print(f"seed {seed}, {count} curves: "
              + ", ".join(f"{k} {v:.3g}" for k, v in worst.items()))


if __name__ == "__main__":
    main(sys.argv[1:])
