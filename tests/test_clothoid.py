import math

import numpy as np
import pytest

from clothofit import ClothoidCurve, HermiteData, build_clothoid

from oracles import clothoid_position_reference


LINE = ClothoidCurve(x0=1.0, y0=2.0, theta0=0.5, kappa=0.0, kappa_prime=0.0, L=3.0)
CIRCLE = ClothoidCurve(x0=0.0, y0=0.0, theta0=0.0, kappa=1.0, kappa_prime=0.0,
                       L=2.0 * math.pi)


def test_validation():
    with pytest.raises(ValueError):
        ClothoidCurve(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        ClothoidCurve(0.0, 0.0, math.nan, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        LINE.point_at(math.nan)
    with pytest.raises(ValueError):
        LINE.sample(1)


def test_point_at_start_is_exact():
    assert LINE.point_at(0.0) == (1.0, 2.0)
    assert CIRCLE.point_at(0.0) == (0.0, 0.0)


def test_point_at_on_a_line():
    x, y = LINE.point_at(2.0)
    assert x == pytest.approx(1.0 + 2.0 * math.cos(0.5), rel=1e-14)
    assert y == pytest.approx(2.0 + 2.0 * math.sin(0.5), rel=1e-14)


def test_point_at_on_unit_circle():
    x, y = CIRCLE.point_at(math.pi)
    assert x == pytest.approx(0.0, abs=1e-13)
    assert y == pytest.approx(2.0, rel=1e-13)


def test_point_at_extrapolates():
    x, y = LINE.point_at(5.0)   # beyond L, allowed
    assert x == pytest.approx(1.0 + 5.0 * math.cos(0.5), rel=1e-14)
    assert y == pytest.approx(2.0 + 5.0 * math.sin(0.5), rel=1e-14)


def test_angle_and_curvature():
    assert LINE.angle_at(0.0) == 0.5
    assert LINE.curvature_at(0.0) == 0.0
    curve = ClothoidCurve(0.0, 0.0, 0.0, 0.5, 0.25, 4.0)
    assert curve.angle_at(2.0) == pytest.approx(1.5, rel=1e-15)
    assert curve.curvature_at(2.0) == pytest.approx(1.0, rel=1e-15)


def test_fitted_end_tangent():
    fit = build_clothoid(
        HermiteData(5.0, 4.0, math.pi / 3.0, 5.0, 6.0, 7.0 * math.pi / 6.0))
    gap = (fit.curve.angle_at(fit.curve.L) - 7.0 * math.pi / 6.0) % (2.0 * math.pi)
    assert min(gap, 2.0 * math.pi - gap) <= 1e-10


def test_sample_line_two_points():
    rows = LINE.sample(2)
    assert rows[0] == (1.0, 2.0, 0.5, 0.0)
    x, y, theta, kappa = rows[1]
    assert x == pytest.approx(1.0 + 3.0 * math.cos(0.5), rel=1e-14)
    assert y == pytest.approx(2.0 + 3.0 * math.sin(0.5), rel=1e-14)
    assert theta == 0.5
    assert kappa == 0.0


def test_sample_endpoints_match_point_at():
    curve = build_clothoid(HermiteData(0.0, 0.0, 0.4, 3.0, 1.0, -0.2)).curve
    rows = curve.sample(2)
    assert rows[0][:2] == curve.point_at(0.0)
    assert rows[1][:2] == pytest.approx(curve.point_at(curve.L), abs=1e-15)


def test_sample_circle_radius():
    # unit circle centered at (0, 1): every sample is at distance 1
    rows = CIRCLE.sample(101)
    for x, y, _, kappa in rows:
        assert math.hypot(x - 0.0, y - 1.0) == pytest.approx(1.0, abs=1e-10)
        assert kappa == 1.0


def test_endpoint_residual():
    line_data = HermiteData(0.0, 0.0, 0.0, 2.0, 0.0, 0.0)
    fit = build_clothoid(line_data)
    assert fit.curve.endpoint_residual(line_data) <= 1e-15

    ref = HermiteData(5.0, 4.0, math.pi / 3.0, 5.0, 6.0, 7.0 * math.pi / 6.0)
    assert build_clothoid(ref).curve.endpoint_residual(ref) <= 1e-12

    near_line = HermiteData(0.0, 0.0, 0.01 * 0.5, 100.0, 0.0, -0.02 * 0.5)
    assert build_clothoid(near_line).curve.endpoint_residual(near_line) <= 1e-12


def test_unit_speed():
    # difference quotient of position approaches the unit tangent
    h = 1e-6
    curve = build_clothoid(HermiteData(0.0, 0.0, 1.1, 2.0, -1.0, 2.4)).curve
    for s in (0.0, 0.3 * curve.L, 0.7 * curve.L, curve.L):
        xp, yp = curve.point_at(s + h)
        xm, ym = curve.point_at(s - h)
        theta = curve.angle_at(s)
        assert (xp - xm) / (2.0 * h) == pytest.approx(math.cos(theta), abs=1e-5)
        assert (yp - ym) / (2.0 * h) == pytest.approx(math.sin(theta), abs=1e-5)


def test_position_against_quadrature():
    rng = np.random.default_rng(43)
    for _ in range(25):
        curve = ClothoidCurve(
            x0=float(rng.uniform(-5.0, 5.0)),
            y0=float(rng.uniform(-5.0, 5.0)),
            theta0=float(rng.uniform(-math.pi, math.pi)),
            kappa=float(rng.uniform(-2.0, 2.0)),
            kappa_prime=float(rng.uniform(-3.0, 3.0)),
            L=float(rng.uniform(0.1, 5.0)),
        )
        s = float(rng.uniform(0.0, curve.L))
        xq, yq = clothoid_position_reference(
            curve.x0, curve.y0, curve.theta0, curve.kappa, curve.kappa_prime, s)
        x, y = curve.point_at(s)
        assert x == pytest.approx(xq, abs=1e-11 * max(1.0, s))
        assert y == pytest.approx(yq, abs=1e-11 * max(1.0, s))


def test_point_at_large_turning_against_quadrature():
    # kappa L = 60 turns the curve about ten times; eval_xy sees b = 60
    curve = ClothoidCurve(0.0, 0.0, 0.0, 1.0, 1e-8, 60.0)
    xq, yq = clothoid_position_reference(0.0, 0.0, 0.0, 1.0, 1e-8, 60.0)
    x, y = curve.point_at(60.0)
    assert abs(x - xq) <= 1e-12 * curve.L
    assert abs(y - yq) <= 1e-12 * curve.L
