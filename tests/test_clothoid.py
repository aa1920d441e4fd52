import cmath
import copy
import dataclasses
import gc
import math
import pickle
import re
import tracemalloc
from decimal import Decimal

import numpy as np
import pytest

from clothofit import ClothoidCurve, HermiteData, build_clothoid, clothoid
from clothofit.clothoid import _TAYLOR_TURN as TAYLOR_TURN
from clothofit.gfresnel import EPSILON_A, LOMMEL_REL_TOL

from oracles import (clothoid_position_fresnel_mpmath, clothoid_position_mpmath,
                     clothoid_position_reference)

EPS = 2.0 ** -52
# c of point_at's error contract (module docstring of clothofit.clothoid)
CONTRACT_C = 8.0


LINE = ClothoidCurve(x0=1.0, y0=2.0, theta0=0.5, kappa=0.0, kappa_prime=0.0, L=3.0)
CIRCLE = ClothoidCurve(x0=0.0, y0=0.0, theta0=0.0, kappa=1.0, kappa_prime=0.0,
                       L=2.0 * math.pi)


def test_validation():
    with pytest.raises(ValueError):
        ClothoidCurve(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    # the curve's completed square (s < L), like eval_xy's at s = L, names
    # its phase limit
    for s in (0.1, 1.0):
        with pytest.raises(ValueError, match="1e[+]150"):
            ClothoidCurve(0.0, 0.0, 0.0, 1e155, 1.0, 1.0).point_at(s)
    with pytest.raises(ValueError):
        ClothoidCurve(0.0, 0.0, math.nan, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        LINE.point_at(math.nan)
    # a finite s whose kappa_prime s^2 or kappa s overflows has no point, on
    # a curve with a square (the first) as on one without rows (the second):
    # past [-L, L) both are checked before eval_xy, and the error names s,
    # not the arguments it would have become
    for curve in (ClothoidCurve(0.0, 0.0, 0.0, 0.0, 1.0, 1.0),
                  ClothoidCurve(0.0, 0.0, 0.0, 1e200, 0.0, 1.0)):
        for s in (1e200, -1e200):
            with pytest.raises(ValueError, match=r"point_at: .* s = -?1e\+200$"):
                curve.point_at(s)
    # a field that does not fit in a float is named, as HermiteData names
    # it: a numpy.float32 (its points would be float32), a Decimal (it would
    # fail unnamed in point_at) and an int past the float range
    for name, value, rule in (("x0", np.float32(0.3), "a float, int or Fraction"),
                              ("kappa", Decimal(1), "a float, int or Fraction"),
                              ("L", 10 ** 400, "finite")):
        with pytest.raises(ValueError, match="^ClothoidCurve: %s must be %s$" % (name, rule)):
            ClothoidCurve(**dict(dataclasses.asdict(LINE), **{name: value}))
    # the count and the type are refused with one message: np.int64(50)
    # is a count of 50, but not an int
    for n in (1, np.int64(50), 2.0):
        with pytest.raises(ValueError, match=r"^sample: n must be an int >= 2, got %s$"
                           % re.escape(repr(n))):
            LINE.sample(n)


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


def _end_pose(curve, s):
    return curve.point_at(s) + (curve.angle_at(s), curve.curvature_at(s))


def test_sample_endpoints_match_point_at():
    # the last row is at s = L itself; (n - 1) (L/(n - 1)) rounds away from
    # L for about one L in eight at n = 50
    curve = build_clothoid(HermiteData(0.0, 0.0, 0.4, 3.0, 1.0, -0.2)).curve
    rows = curve.sample(2)
    assert rows[0] == _end_pose(curve, 0.0)
    assert rows[1] == _end_pose(curve, curve.L)
    # every row is the pose point_at, angle_at and curvature_at give at its
    # s, bit for bit
    rng = np.random.default_rng(1401)
    cases = []
    for _ in range(120):
        L = float(rng.uniform(0.1, 10.0))
        n = int(rng.integers(2, 60))
        # |kappa_prime L^2| up to 5 on both sides of the switch at EPSILON_A
        cases.append((ClothoidCurve(0.3, -1.2, 0.7, float(rng.uniform(-2.0, 2.0)) / L,
                                    float(rng.uniform(-5.0, 5.0)) / (L * L), L), n))
    # a near-line curve and a line take their row polynomial on every row but
    # the last
    near_line = ClothoidCurve(0.3, -1.2, 0.7, 0.2, 0.05, 1.5)
    assert abs(near_line.kappa_prime * near_line.L ** 2) < EPSILON_A
    cases += [(near_line, 50), (LINE, 37)]
    rounded_away = 0
    for curve, n in cases:
        L = curve.L
        rows = curve.sample(n)
        assert len(rows) == n
        for i, row in enumerate(rows):
            s = i * (L / (n - 1)) if i < n - 1 else L
            assert row == _end_pose(curve, s), (L, n, i)
        rounded_away += (n - 1) * (L / (n - 1)) != L
    assert rounded_away > 0


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


def _square_curves():
    """Seeded curves far from a line, |kappa_prime L^2| >= EPSILON_A."""
    rng = np.random.default_rng(1301)
    curves = []
    for i in range(24):
        L = float(10.0 ** rng.uniform(-1.0, 1.0))
        if i < 4:
            # near circles: |kappa/kappa_prime| = |kappa L|/|kappa_prime L^2| L >= 300 L
            a = 1.0001 * EPSILON_A
            b = float(rng.uniform(45.0, 60.0))
        else:
            a = float(10.0 ** rng.uniform(math.log10(1.0001 * EPSILON_A), 3.0))
            b = float(rng.uniform(-3.0, 3.0) if i % 2 else rng.uniform(-60.0, 60.0))
        a *= float(rng.choice((-1.0, 1.0)))
        b *= float(rng.choice((-1.0, 1.0)))
        x0, y0 = (float(v) for v in rng.uniform(-1e3, 1e3, 2) * rng.choice((0.0, 1.0), 2))
        curves.append(ClothoidCurve(x0, y0, float(rng.uniform(-math.pi, math.pi)),
                                    b / L, a / (L * L), L))
    return curves


def test_point_at_on_the_completed_square_against_mpmath():
    # every s in [-L, L) on a curve with |kappa_prime L^2| >= EPSILON_A comes
    # from the curve's completed square, and every other s from eval_xy:
    # points on both sides of |kappa_prime s^2| = EPSILON_A (s = +-h) out to
    # |s| = 10 L must meet the docstring's contract, and a square with sigma
    # = sign kappa_prime flipped, or with eta's sign flipped, must not
    pytest.importorskip("mpmath")
    for curve in _square_curves():
        assert curve.point_at(0.0) == (curve.x0, curve.y0)
        L = curve.L
        eta = -curve.kappa ** 2 / (2.0 * curve.kappa_prime)
        turn = cmath.exp(1j * (curve.theta0 + eta))
        flips = {"sigma": 0, "eta": 0}
        h = math.sqrt(EPSILON_A / abs(curve.kappa_prime))
        rows = ([f * h for f in (1e-6, 1e-2, 0.5, 0.999, 1.001, 1.5)]
                + [f * L for f in (0.37, 0.9, 0.99, 2.0, 5.0, 10.0)])
        for s in rows + [-s for s in rows]:
            bound = CONTRACT_C * EPS * (max(L, abs(s)) * (1.0 + abs(eta))
                                        + max(abs(curve.x0), abs(curve.y0)))
            x, y = curve.point_at(s)
            xr, yr = clothoid_position_fresnel_mpmath(curve.x0, curve.y0, curve.theta0,
                                                      curve.kappa, curve.kappa_prime, s)
            assert abs(x - xr) <= bound and abs(y - yr) <= bound, (curve, s)
            # d = sigma (pi/r) T [dC + i sigma dS] with T = e^{i(theta0 + eta)}:
            # flipping sigma gives -T conj(d/T), flipping eta d e^{-2 i eta}
            d = complex(x - curve.x0, y - curve.y0)
            for name, wrong in (("sigma", -turn * (d / turn).conjugate()),
                                ("eta", d * cmath.exp(-2j * eta))):
                if max(abs(curve.x0 + wrong.real - xr), abs(curve.y0 + wrong.imag - yr)) > bound:
                    flips[name] += 1
        assert flips["sigma"] >= 1 and flips["eta"] >= 1, (curve, flips)


def _series_curves():
    """Seeded curves on the series, |kappa_prime L^2| < EPSILON_A: near lines
    (|kappa L| <= 0.5) and near circles (|kappa L| up to 6), then the row
    polynomial's edges, |kappa L| = _TAYLOR_TURN with |kappa_prime L^2| just
    under EPSILON_A in all four sign pairs, and two curves just past the
    bound, at |kappa L| = 6."""
    rng = np.random.default_rng(2501)
    curves = []
    for i in range(8):
        L = float(10.0 ** rng.uniform(-1.0, 1.0))
        a = float(10.0 ** rng.uniform(-8.0, math.log10(EPSILON_A)) * rng.choice((-1.0, 1.0)))
        b = float(rng.uniform(-0.5, 0.5) if i % 2 else rng.uniform(-6.0, 6.0))
        x0, y0 = (float(v) for v in rng.uniform(-1e3, 1e3, 2) * rng.choice((0.0, 1.0), 2))
        curves.append(ClothoidCurve(x0, y0, float(rng.uniform(-math.pi, math.pi)),
                                    b / L, a / (L * L), L))
    # L a power of two, so that kappa L and kappa_prime L^2 are exact
    a = math.nextafter(EPSILON_A, 0.0)
    for i, L in enumerate((4.0, 0.25, 2.0, 0.5)):
        x0, y0 = (float(v) for v in rng.uniform(-1e3, 1e3, 2))
        curves.append(ClothoidCurve(x0, y0, float(rng.uniform(-math.pi, math.pi)),
                                    (-1.0) ** i * TAYLOR_TURN / L,
                                    (-1.0) ** (i // 2) * a / (L * L), L))
    for sign in (1.0, -1.0):
        curves.append(ClothoidCurve(0.0, 0.0, float(rng.uniform(-math.pi, math.pi)),
                                    sign * 6.0, sign * 0.9 * EPSILON_A, 1.0))
    return curves


def test_series_rows_against_mpmath():
    # near-line and near-circle curves take eval_xy's small-|a| series, or
    # with |kappa L| <= _TAYLOR_TURN the row polynomial on [-L, L): sampled
    # rows, points across [-L, L) and points out to |s| = 10 L, each while
    # |kappa_prime s^2| < EPSILON_A, must meet the docstring's contract with
    # eta counted as 0
    pytest.importorskip("mpmath")
    rng = np.random.default_rng(2502)
    on_polynomial = 0
    for curve in _series_curves():
        L = curve.L
        n = int(rng.integers(50, 400))
        rows = curve.sample(n)
        step = L / (n - 1)
        cases = [(i * step if i < n - 1 else L, rows[i][:2])
                 for i in [0, n - 1, *map(int, rng.integers(1, n - 1, 16))]]
        across = [-L, math.nextafter(L, 0.0), *map(float, rng.uniform(-L, L, 8))]
        reach = min(10.0 * L, 0.999 * math.sqrt(EPSILON_A / abs(curve.kappa_prime)))
        cases += [(s, curve.point_at(s))
                  for s in across + list(map(float, rng.uniform(-reach, reach, 6)))]
        on_polynomial += _caches(curve) == "polynomial"
        assert _caches(curve) == ("polynomial" if abs(curve.kappa * L) <= TAYLOR_TURN else None)
        for s, (x, y) in cases:
            assert abs(curve.kappa_prime * s * s) < EPSILON_A
            bound = CONTRACT_C * EPS * (max(L, abs(s)) + max(abs(curve.x0), abs(curve.y0)))
            xr, yr = clothoid_position_mpmath(curve.x0, curve.y0, curve.theta0,
                                              curve.kappa, curve.kappa_prime, s)
            assert abs(x - xr) <= bound and abs(y - yr) <= bound, (curve, s)
    assert on_polynomial >= 8


def test_row_polynomial_keeps_the_terms_its_tolerance_asks_for():
    # the coefficients c_n/(n + 1) of F(s)/s in t = s/L, against the same
    # recurrence in 40-digit mpmath: each kept one is right, the loop stops at
    # the first n with c_n and c_{n+1} both at most LOMMEL_REL_TOL, and the
    # omitted tail is at most 4 LOMMEL_REL_TOL, as `_build_rows` states
    mpmath = pytest.importorskip("mpmath")
    for curve in _series_curves():
        L = curve.L
        b, a = curve.kappa * L, curve.kappa_prime * L * L
        if abs(b) > TAYLOR_TURN:
            continue
        curve.point_at(0.5 * L)
        taylor = curve._rows[1][::-1]
        with mpmath.workdps(40):
            c = [mpmath.mpf(0), mpmath.expj(curve.theta0)]
            for n in range(1, len(taylor) + 60):
                c.append(1j * (b * c[-1] + a * c[-2]) / n)
            c = c[1:]
            first = next(n for n in range(1, len(c)) if max(abs(c[n]), abs(c[n + 1]))
                         <= LOMMEL_REL_TOL)
            assert len(taylor) == first, (curve, len(taylor), first)
            for n, (dx, dy) in enumerate(taylor):
                d = c[n] / (n + 1)
                assert abs(dx - d.real) <= 4 * EPS and abs(dy - d.imag) <= 4 * EPS, (curve, n)
            tail = sum(abs(c[n]) / (n + 1) for n in range(first, len(c)))
            assert tail <= 4 * LOMMEL_REL_TOL, (curve, tail)


def test_mpmath_references_agree_and_quadrature_stops_at_its_limit():
    # the exact Fresnel reference against the independent Gauss-Legendre
    # rule wherever the rule holds (the phase turns by <= 100 rad), and the
    # rule refuses the turns where it would be silently wrong
    pytest.importorskip("mpmath")
    rng = np.random.default_rng(1801)
    for _ in range(12):
        L = float(10.0 ** rng.uniform(-1.0, 1.0))
        a = float(10.0 ** rng.uniform(-3.0, 2.0) * rng.choice((-1.0, 1.0)))
        fields = (float(rng.uniform(-5.0, 5.0)), float(rng.uniform(-5.0, 5.0)),
                  float(rng.uniform(-math.pi, math.pi)), float(rng.uniform(-40.0, 40.0)) / L,
                  a / (L * L))
        s = float(rng.uniform(-1.0, 1.0)) * L
        for q, e in zip(clothoid_position_mpmath(*fields, s),
                        clothoid_position_fresnel_mpmath(*fields, s)):
            assert abs(q - e) <= 1e-25 * L
    # kappa_prime L^2 = -24.6, kappa L = -2.78 at s = -10 L turns 1229 rad
    with pytest.raises(ValueError, match="100 rad"):
        clothoid_position_mpmath(0.0, 0.0, 0.3, -2.78, -24.6, -10.0)


def test_rows_take_the_square_and_the_end_takes_eval_xy(monkeypatch):
    # on a curve with EPSILON_A <= |kappa_prime L^2| < inf every row but the
    # end s = L comes from the curve's square; the end is eval_xy's, the
    # integrals a fit solved for, and a fit's point_at(L) never builds the
    # square.  A near-line curve with |kappa L| <= _TAYLOR_TURN takes its rows
    # from its row polynomial and its end from eval_xy; one past the bound
    # keeps eval_xy for every row and builds no cache.  A point past [-L, L)
    # is eval_xy's on every curve
    calls = []
    real = clothoid.eval_xy

    def counted(a, b, c, k):
        calls.append((a, b, c, k))
        return real(a, b, c, k)

    monkeypatch.setattr(clothoid, "eval_xy", counted)
    fields = dict(x0=0.3, y0=-1.2, theta0=0.7, kappa=0.9, kappa_prime=-2.5, L=2.0)
    curve = ClothoidCurve(**fields)
    rows = curve.sample(50)
    assert calls == [(-10.0, 1.8, 0.7, 1)] and _caches(curve) == "square"
    # a point past [-L, L) is one eval_xy call, leaves the square as it was,
    # and equals a fresh curve's point, which builds no rows, bit for bit
    square = curve._rows
    for s in (5.0, -3.0):
        calls.clear()
        point = curve.point_at(s)
        assert calls == [(-2.5 * s * s, 0.9 * s, 0.7, 1)] and curve._rows is square
        fresh = ClothoidCurve(**fields)
        assert fresh.point_at(s) == point and _caches(fresh) is None
    # s in [-L, 0) reads the rows too: s = -L on a fresh curve builds its
    # square and makes no eval_xy call
    start = ClothoidCurve(**fields)
    calls.clear()
    assert start.point_at(-2.0) == curve.point_at(-2.0)
    assert calls == [] and _caches(start) == "square"
    end = ClothoidCurve(**fields)
    calls.clear()
    assert end.point_at(2.0) == rows[-1][:2]
    assert len(calls) == 1 and _caches(end) is None
    near_line = ClothoidCurve(**dict(fields, kappa_prime=0.03))
    calls.clear()
    near_line.sample(50)
    assert calls == [(0.12, 1.8, 0.7, 1)]
    assert _caches(near_line) == "polynomial"
    past_the_bound = ClothoidCurve(**dict(fields, kappa=3.0, kappa_prime=0.03))
    calls.clear()
    past_the_bound.sample(50)
    assert len(calls) == 49 and _caches(past_the_bound) is None


def _caches(curve):
    """The kind of rows the curve keeps: "square" (its first entry sigma =
    +-1.0), "polynomial" (its first entry None), or None before any."""
    rows = vars(curve).get("_rows")
    if rows is None:
        return None
    assert rows[0] is None or rows[0] in (1.0, -1.0), rows
    return "polynomial" if rows[0] is None else "square"


def test_square_cache_is_invisible():
    # a curve on its completed square, and a near-line curve on its row
    # polynomial
    square = dict(x0=0.3, y0=-1.2, theta0=0.7, kappa=0.9, kappa_prime=-2.5, L=2.0)
    for fields, cache in ((square, "square"), (dict(square, kappa_prime=0.03), "polynomial")):
        first, sampled, twin = (ClothoidCurve(**fields) for _ in range(3))
        points = (0.0, 1e-3, -0.05, -2.0, 0.2, 1.5, 2.0)   # the cache below s = L, eval_xy at L
        before = [first.point_at(s) for s in points]
        assert _caches(first) == cache
        rows = sampled.sample(41)
        assert _caches(sampled) == cache and _caches(twin) is None
        assert sampled == twin and hash(sampled) == hash(twin) and repr(sampled) == repr(twin)
        assert dataclasses.replace(sampled) == twin
        assert _caches(dataclasses.replace(sampled)) is None
        assert dataclasses.replace(sampled, L=3.0) == ClothoidCurve(**dict(fields, L=3.0))
        # a curve pickles and copies as its six fields: equal bytes whether
        # or not it has rows, and a copy or an unpickled curve keeps none
        assert pickle.dumps(sampled) == pickle.dumps(twin) == pickle.dumps(first)
        for copied in (pickle.loads(pickle.dumps(sampled)), copy.copy(sampled),
                       copy.deepcopy(sampled)):
            assert copied == twin and _caches(copied) is None
        # no dependence on call order: points first, rows first, or neither
        assert [sampled.point_at(s) for s in points] == before
        assert [first.point_at(s) for s in points] == before
        assert [twin.point_at(s) for s in points] == before
        assert first.sample(41) == rows == twin.sample(41)
        assert [pickle.loads(pickle.dumps(sampled)).point_at(s) for s in points] == before


def test_point_at_leaves_a_near_line_curve_no_larger():
    # the rows are read from a plain attribute, so point_at on a curve that
    # has none (a near-line curve past the row polynomial's bound, kappa L =
    # 6), where `_build_rows` runs on each call and keeps nothing, allocates
    # nothing that outlives the call (reading __dict__, or calling vars(),
    # would give each curve an instance dict)
    fields = dict(x0=0.3, y0=-1.2, theta0=0.7, kappa=3.0, kappa_prime=0.03, L=2.0)
    curves = [ClothoidCurve(**fields) for _ in range(2000)]
    ClothoidCurve(**fields).point_at(1.0)   # the first call may fill caches
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for curve in curves:
            curve.point_at(0.5 * curve.L)
        gc.collect()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert after - before < len(curves), (after - before) / len(curves)


def test_fits_never_build_the_square():
    # the fit's point_at(L) is the curve's end, which eval_xy takes: a fit
    # builds neither the square nor the row polynomial
    for data in (HermiteData(0.0, 0.0, 0.3, 4.0, 1.0, -0.25),
                 HermiteData(0.0, 0.0, 0.01 * 0.5, 100.0, 0.0, -0.02 * 0.5)):
        curve = build_clothoid(data).curve
        assert _caches(curve) is None


def test_square_scales_to_the_ends_of_the_double_range():
    # kappa^2 overflows at L = 1e-153, kappa L = 15; the square is built from
    # kappa L and kappa_prime L^2, so it scales like the curve itself
    unit = ClothoidCurve(0.0, 0.0, 0.3, 15.0, 3.0, 1.0).sample(50)
    for L in (2e-154, 1e-153, 1e150):
        rows = ClothoidCurve(0.0, 0.0, 0.3, 15.0 / L, 3.0 / (L * L), L).sample(50)
        for (x, y, _, _), (xu, yu, _, _) in zip(rows, unit):
            assert abs(x / L - xu) <= 1e-14 and abs(y / L - yu) <= 1e-14


def test_overflowing_curve_stays_off_the_square():
    # kappa_prime L^2 = inf from finite fields: the square would read z = inf,
    # so the curve keeps the series, exact at s = 0 and accurate near it
    curve = ClothoidCurve(0.0, 0.0, 0.0, 1.0, 1e300, 1e10)
    assert curve.point_at(0.0) == (0.0, 0.0)
    s = 1e-160
    x, y = curve.point_at(s)
    # x = s - O(s^5), y = kappa s^2/2 + kappa_prime s^3/6 + O(s^5), whose
    # first term (5e-321) is below y's rounding
    assert math.isclose(x, s, rel_tol=1e-15)
    assert math.isclose(y, 1e300 * s * s * s / 6.0, rel_tol=1e-14)
    with pytest.raises(ValueError):
        curve.point_at(1e5)   # kappa_prime s^2 overflows
    assert _caches(curve) is None
