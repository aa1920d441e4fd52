"""Seeded operation streams for the benchmark workloads.

A workload turns a seed into an endless stream of operation inputs and
runs one operation on an input through clothofit's public API.  An input
is a tuple of six floats (x0, y0, theta0, x1, y1, theta1): the program
receives only these generated numbers, never the seed.  The same seed
always yields the same stream, because `random.Random` is seeded once
per stream and nothing else draws from it.
"""

import math
import random
from dataclasses import dataclass

import clothofit

# The paper's angle-grid domain for the chord-relative angles.
ANGLE_LIMIT = 0.9999 * math.pi

# Poses per sampled segment on spline_sampling.
SAMPLE_N = 50

# Segments per planned path on spline_sampling; a new path then starts
# elsewhere, so coordinates stay bounded however long the run.
PATH_SEGMENTS = 32

# Scales 2^-k of the near-line and near-circle families.
NEAR_SCALES = range(1, 11)


# An operation returns (fit result, sampled rows or None).  It calls
# through the package attribute at call time, so the tracer's patch of
# `clothofit.build_clothoid` sees it.
def fit(pose):
    """One fit: the operation of the fit-only workloads."""
    return clothofit.build_clothoid(clothofit.HermiteData(*pose)), None


def fit_and_sample(pose):
    """One fit followed by sampling SAMPLE_N poses along the curve."""
    result = clothofit.build_clothoid(clothofit.HermiteData(*pose))
    return result, result.curve.sample(SAMPLE_N)


def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def generic_stream(seed):
    """Random poses over the paper's angle domain.

    Chord-relative angles are uniform in (-ANGLE_LIMIT, ANGLE_LIMIT)^2,
    the chord length is log-uniform in [1e-2, 1e2], the start point is
    uniform in a 200 x 200 box and the chord direction uniform.
    """
    rng = random.Random(seed)
    while True:
        phi0 = rng.uniform(-ANGLE_LIMIT, ANGLE_LIMIT)
        phi1 = rng.uniform(-ANGLE_LIMIT, ANGLE_LIMIT)
        r = _log_uniform(rng, 1e-2, 1e2)
        rot = rng.uniform(-math.pi, math.pi)
        x0 = rng.uniform(-100.0, 100.0)
        y0 = rng.uniform(-100.0, 100.0)
        yield (x0, y0, rot + phi0,
               x0 + r * math.cos(rot), y0 + r * math.sin(rot), rot + phi1)


def near_line_shape(k):
    """Almost straight: tangents within 0.02 * 2^-k of a 100-long chord."""
    return (0.0, 0.0, 0.01 * 2.0 ** -k, 100.0, 0.0, -0.02 * 2.0 ** -k)


def near_circle_shape(k):
    """Almost a quarter circle of radius 100, off by 1e-4 * 2^-k rad."""
    return (0.0, -100.0, 0.00011 * 2.0 ** -k,
            -100.0, 0.0, 1.5 * math.pi - 0.0001 * 2.0 ** -k)


def _similarity(pose, scale, rot, tx, ty):
    """Rotate by rot, scale, then translate by (tx, ty)."""
    x0, y0, t0, x1, y1, t1 = pose
    c = math.cos(rot)
    s = math.sin(rot)
    return (tx + scale * (c * x0 - s * y0), ty + scale * (s * x0 + c * y0), t0 + rot,
            tx + scale * (c * x1 - s * y1), ty + scale * (s * x1 + c * y1), t1 + rot)


def _chord_relative(theta, varphi):
    """theta - varphi wrapped into [-pi, pi], with the fitter's arithmetic."""
    phi = theta - varphi
    while phi > math.pi:
        phi -= 2.0 * math.pi
    while phi < -math.pi:
        phi += 2.0 * math.pi
    return phi


def _exact_arc(rng, x0, y0, x1, y1, straight):
    """Tangents making phi0 = -phi1 exactly (phi0 = phi1 = 0 if straight).

    Exactness is checked with the same floating-point steps the fitter
    uses to reduce a pose, so the solve starts at A = 0 and evaluates the
    integrals at a == 0.  Candidates that round off the symmetry are
    redrawn from the same stream.
    """
    varphi = math.atan2(y1 - y0, x1 - x0)
    if straight:
        return (x0, y0, varphi, x1, y1, varphi)
    while True:
        phi = rng.uniform(-ANGLE_LIMIT, ANGLE_LIMIT)
        t0 = varphi + phi
        t1 = varphi - phi
        if _chord_relative(t0, varphi) == -_chord_relative(t1, varphi):
            return (x0, y0, t0, x1, y1, t1)


def near_stream(seed):
    """The near-line and near-circle families plus exact lines and arcs.

    Each round shuffles 32 shapes: the two families at ten scales each,
    ten exact arcs with phi0 = -phi1 uniform over the angle domain, and
    two exact lines.  Every 32 operations thus hold the same mix, and
    its median operation falls among the arcs, whose cost varies
    smoothly with phi0, rather than in the gap between the cheap
    near-line and the dear near-circle fits.  Each shape gets its own
    scale (2^-8 .. 2^8), rotation and translation.
    """
    rng = random.Random(seed)
    shapes = [("line", k) for k in NEAR_SCALES] + [("circle", k) for k in NEAR_SCALES]
    shapes += [("exact_arc", 0)] * 10 + [("exact_line", 0)] * 2
    while True:
        rng.shuffle(shapes)
        for kind, k in shapes:
            scale = 2.0 ** rng.uniform(-8.0, 8.0)
            rot = rng.uniform(-math.pi, math.pi)
            tx = scale * rng.uniform(-100.0, 100.0)
            ty = scale * rng.uniform(-100.0, 100.0)
            if kind == "line":
                yield _similarity(near_line_shape(k), scale, rot, tx, ty)
            elif kind == "circle":
                yield _similarity(near_circle_shape(k), scale, rot, tx, ty)
            else:
                r = 100.0 * scale
                x1 = tx + r * math.cos(rot)
                y1 = ty + r * math.sin(rot)
                yield _exact_arc(rng, tx, ty, x1, y1, kind == "exact_line")


def spline_stream(seed):
    """Consecutive waypoint pairs of planned paths.

    A path is a random walk of chord directions (each turns by up to
    1 rad from the last) with log-uniform steps in [0.5, 5]; the heading
    at a waypoint bisects its incoming and outgoing chords, plus
    N(0, 0.05) rad of noise.  Each operation is one segment.
    """
    rng = random.Random(seed)
    while True:
        x = rng.uniform(-100.0, 100.0)
        y = rng.uniform(-100.0, 100.0)
        d = rng.uniform(-math.pi, math.pi)
        h = d + rng.gauss(0.0, 0.05)
        for _ in range(PATH_SEGMENTS):
            step = _log_uniform(rng, 0.5, 5.0)
            d_next = d + rng.uniform(-1.0, 1.0)
            nx = x + step * math.cos(d)
            ny = y + step * math.sin(d)
            nh = 0.5 * (d + d_next) + rng.gauss(0.0, 0.05)
            yield (x, y, h, nx, ny, nh)
            x, y, h, d = nx, ny, nh, d_next


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    stream: object       # seed -> iterator of pose tuples
    op: object           # pose -> (FitResult, rows or None)
    sample_n: int        # poses an operation yields
    tail_pct: float      # percentile reported as op_latency_tail_us
    trace_ops: int       # operations per pass of a traced run
    oracle_stride: int   # every oracle_stride-th operation is checked by quadrature


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="generic_fits",
            why="random poses over the paper's angle domain: large-|a| eval_xy and "
                "fresnel set the median, rare small-|a| fits the tail; "
                "op_latency_tail_us is p99.9",
            stream=generic_stream, op=fit, sample_n=1, tail_pct=99.9,
            trace_ops=1000, oracle_stride=97,
        ),
        Workload(
            name="near_regime",
            why="near-line and near-circle families, exact lines and arcs: the "
                "small-|a| series and r_lommel do the work, fresnel none; "
                "op_latency_tail_us is p99",
            stream=near_stream, op=fit, sample_n=1, tail_pct=99.0,
            trace_ops=64, oracle_stride=7,
        ),
        Workload(
            name="spline_sampling",
            why="planner waypoint chains, each segment fitted then sampled at "
                "n=%d: many k=1 point_at calls per fit; op_latency_tail_us is p98"
                % SAMPLE_N,
            stream=spline_stream, op=fit_and_sample, sample_n=SAMPLE_N, tail_pct=98.0,
            trace_ops=16, oracle_stride=5,
        ),
    )
}
