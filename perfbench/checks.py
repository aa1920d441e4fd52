"""Correctness checks on operation outputs, run outside the timed region.

Every operation gets the cheap checks: finite curve parameters, the
start pose reproduced, the end tangent angle_at(L) equal to theta1
modulo 2 pi, and the endpoint error within ENDPOINT_TOL * max(1, L).
Sampled rows are counted and their last pose compared with the target.
A seeded subsample is also compared with an independent quadrature of
the curve's defining integrals (scipy), which shares no code with
clothofit.  A check returns None when the output passes and a reason
string when it does not.
"""

import math
import warnings

ENDPOINT_TOL = 1e-12
ANGLE_TOL = 1e-9
ORACLE_TOL = 1e-10


def _angle_gap(a, b):
    return abs(math.remainder(a - b, 2.0 * math.pi))


def check_fit(pose, result):
    x0, y0, t0, x1, y1, t1 = pose
    c = result.curve
    params = (c.kappa, c.kappa_prime, c.L, result.endpoint_error)
    if not all(math.isfinite(v) for v in params) or not c.L > 0.0:
        return "non-finite or non-positive curve parameters %r" % (params,)
    if (c.x0, c.y0, c.theta0) != (x0, y0, t0):
        return "start pose not reproduced"
    scale = max(1.0, c.L)
    if not result.endpoint_error <= ENDPOINT_TOL * scale:
        return "endpoint_error %.3e > %.0e * max(1, L)" % (result.endpoint_error, ENDPOINT_TOL)
    if not _angle_gap(c.angle_at(c.L), t1) <= ANGLE_TOL * max(1.0, abs(t1)):
        return "end tangent %.17g != theta1 %.17g" % (c.angle_at(c.L), t1)
    return None


def check_rows(pose, result, rows, n):
    """Rows of curve.sample(n) after a passing fit."""
    c = result.curve
    if len(rows) != n:
        return "sample returned %d rows, expected %d" % (len(rows), n)
    if rows[0] != (c.x0, c.y0, c.theta0, c.kappa):
        return "first sampled row is not the start pose"
    if not all(math.isfinite(v) for row in rows for v in row):
        return "non-finite sampled pose"
    x, y, theta, _ = rows[-1]
    gap = math.hypot(x - pose[3], y - pose[4])
    if not gap <= ENDPOINT_TOL * max(1.0, c.L):
        return "last sampled point %.3e from the target" % gap
    if not _angle_gap(theta, pose[5]) <= ANGLE_TOL * max(1.0, abs(pose[5])):
        return "last sampled heading off theta1"
    return None


def check_output(workload, pose, output):
    """All cheap checks for one operation output (or raised exception)."""
    if isinstance(output, Exception):
        return "raised %s: %s" % (type(output).__name__, output)
    result, rows = output
    reason = check_fit(pose, result)
    if reason is None and rows is not None:
        reason = check_rows(pose, result, rows, workload.sample_n)
    return reason


def _quad(f, s):
    from scipy.integrate import IntegrationWarning, quad
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        value, _ = quad(f, 0.0, s, epsabs=1e-15, epsrel=1e-13, limit=500)
    return value


def reference_point(curve, s):
    """(x, y) at arc length s by adaptive quadrature of the phase."""
    t0, k, kp = curve.theta0, curve.kappa, curve.kappa_prime
    return (curve.x0 + _quad(lambda u: math.cos(t0 + u * (k + 0.5 * kp * u)), s),
            curve.y0 + _quad(lambda u: math.sin(t0 + u * (k + 0.5 * kp * u)), s))


def oracle_check(pose, output, pick):
    """Quadrature check of one output; pick(n) chooses a sampled row."""
    result, rows = output
    c = result.curve
    tol = ORACLE_TOL * max(1.0, c.L)
    points = [(c.L, pose[3], pose[4], "end point vs target")]
    if rows is not None:
        i = pick(len(rows))
        step = c.L / (len(rows) - 1)
        points.append((i * step, rows[i][0], rows[i][1], "sampled row %d" % i))
    for s, x, y, what in points:
        rx, ry = reference_point(c, s)
        gap = math.hypot(x - rx, y - ry)
        if not gap <= tol:
            return "%s: %.3e from quadrature (tol %.1e)" % (what, gap, tol)
    return None
