import dataclasses
import gc
import math
import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from clothofit import (
    ClothoidCurve,
    ConvergenceError,
    DegenerateInputError,
    ExcludedAngleError,
    FitError,
    FitResult,
    HermiteData,
    ReducedProblem,
    SingularDerivativeError,
    build_clothoid,
    cli,
    fitter,
    reduce_problem,
    solve_A,
)
from clothofit.fitter import a_max_bound, g_prime, initial_guess

from oracles import bisection_root, g_eval, h_eval, xy_reference


def make_rp(phi0, phi1):
    return ReducedProblem(r=1.0, phi0=phi0, phi1=phi1)


# ------------------------------------------------------------ normalize

def normalize_angle(phi):
    """phi0 of a chord along +x, whose chord angle is 0.0: the heading
    normalized into [-pi, pi], with nothing subtracted."""
    return reduce_problem(HermiteData(0.0, 0.0, phi, 1.0, 0.0, 0.0)).phi0


def test_normalize_angle_examples():
    assert normalize_angle(0.0) == 0.0
    assert normalize_angle(1.5 * math.pi) == pytest.approx(-0.5 * math.pi, abs=1e-15)
    assert normalize_angle(-3.0 * math.pi) == pytest.approx(-math.pi, abs=1e-15)
    # boundary convention: +/-pi are fixed points
    assert normalize_angle(math.pi) == math.pi
    assert normalize_angle(-math.pi) == -math.pi
    with pytest.raises(ValueError):
        normalize_angle(math.inf)


def test_normalize_angle_reduces_large_angles_exactly():
    # a remainder by the double 2 pi is off by 3.9e-13 at 1e4 and returns
    # an unrelated angle at 1e300; the reference reduces by the true 2 pi
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(400):
        two_pi = 2 * mpmath.pi
        for phi in (1e4, -1e4, 1e8, 1e300, -1e300):
            x = mpmath.mpf(phi)
            ref = x - two_pi * mpmath.nint(x / two_pi)
            assert abs(normalize_angle(phi) - ref) <= 1e-15, phi


def test_large_headings_fit_within_the_endpoint_bound():
    # theta - varphi must not drop varphi's bits below ulp(theta)
    for theta in (1e4, 1e8, 1e12, 1e300):
        fit = build_clothoid(HermiteData(0.0, 0.0, theta, 4.0, 1.0, theta - 0.8))
        assert fit.endpoint_error <= 1e-12, theta


# ------------------------------------------------------------ reduction

def test_reduce_straight_chord():
    rp = reduce_problem(HermiteData(0.0, 0.0, 0.0, 1.0, 0.0, 0.0))
    assert rp.r == 1.0
    assert rp.phi0 == 0.0 and rp.phi1 == 0.0 and rp.delta == 0.0


def test_reduce_reference_case():
    rp = reduce_problem(
        HermiteData(5.0, 4.0, math.pi / 3.0, 5.0, 6.0, 7.0 * math.pi / 6.0))
    assert rp.r == pytest.approx(2.0, rel=1e-15)
    assert rp.phi0 == pytest.approx(-math.pi / 6.0, abs=1e-15)
    assert rp.phi1 == pytest.approx(2.0 * math.pi / 3.0, abs=1e-15)
    assert rp.delta == rp.phi1 - rp.phi0


def test_reduce_coincident_endpoints():
    with pytest.raises(DegenerateInputError):
        reduce_problem(HermiteData(1.0, 1.0, 0.3, 1.0, 1.0, 0.7))


def test_hermite_data_validation():
    pose = dict(x0=5.0, y0=4.0, theta0=1.0, x1=5.0, y1=6.0, theta1=3.5)
    for name in pose:
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="^HermiteData: %s must be finite$" % name):
                HermiteData(**dict(pose, **{name: value}))
    # the largest magnitudes pass, of either sign and mixed
    big = 1.7e308
    for values in ((big,) * 6, (-big,) * 6, (big, -big, big, -big, -big, big)):
        assert dataclasses.astuple(HermiteData(*values)) == values


def test_reduced_problem_invariants():
    with pytest.raises(ValueError):
        ReducedProblem(r=0.0, phi0=0.0, phi1=0.0)
    with pytest.raises(ValueError):
        ReducedProblem(r=1.0, phi0=4.0, phi1=0.0)
    # NaN fails every comparison, so it must fail the range test too
    with pytest.raises(ValueError, match="phi0, phi1"):
        ReducedProblem(r=1.0, phi0=math.nan, phi1=0.0)
    with pytest.raises(ValueError, match="phi0, phi1"):
        ReducedProblem(r=1.0, phi0=0.0, phi1=math.nan)


# ------------------------------------------------------------ g, g', h

def test_g_vanishes_for_symmetric_angles():
    assert g_eval(0.0, make_rp(0.0, 0.0)) == 0.0
    for phi in (0.2, -0.7, 2.0):
        assert abs(g_eval(0.0, make_rp(-phi, phi))) < 1e-14


def test_g_against_quadrature():
    rp = make_rp(0.1, 0.3)
    _, yq = xy_reference(2.0, rp.delta - 1.0, 0.1, 0)
    assert g_eval(1.0, rp) == pytest.approx(yq, abs=1e-12)


def test_g_prime_at_origin():
    # derivative of the linearized defect (phi0 + phi1)/2 - A/6
    assert g_prime(0.0, make_rp(0.0, 0.0)) == pytest.approx(-1.0 / 6.0, rel=1e-14)


def test_g_prime_is_momentum_difference():
    rp = make_rp(-0.5, 0.5)
    x1, _ = xy_reference(0.0, rp.delta, rp.phi0, 1)
    x2, _ = xy_reference(0.0, rp.delta, rp.phi0, 2)
    assert g_prime(0.0, rp) == pytest.approx(x2 - x1, abs=1e-12)


def test_g_prime_matches_finite_differences():
    rng = np.random.default_rng(5)
    for _ in range(100):
        A = float(rng.uniform(-8.0, 8.0))
        phi0 = float(rng.uniform(-math.pi, math.pi))
        phi1 = float(rng.uniform(-math.pi, math.pi))
        rp = make_rp(phi0, phi1)
        h = 1e-6 * max(1.0, abs(A))
        fd = (g_eval(A + h, rp) - g_eval(A - h, rp)) / (2.0 * h)
        gp = g_prime(A, rp)
        assert abs(gp - fd) / max(1e-12, abs(fd)) < 1e-6


def test_h_examples():
    assert h_eval(0.0, make_rp(0.0, 0.0)) == 1.0
    assert h_eval(0.0, make_rp(-0.5 * math.pi, 0.5 * math.pi)) == pytest.approx(
        2.0 / math.pi, rel=1e-14)
    rp = make_rp(0.4, -1.1)
    xq, _ = xy_reference(1.6, rp.delta - 0.8, rp.phi0, 0)
    assert h_eval(0.8, rp) == pytest.approx(xq, abs=1e-12)


# ------------------------------------------------------------ guess

def test_initial_guess_values():
    assert initial_guess(0.0, 0.0, "linear") == 0.0
    assert initial_guess(0.1, 0.2, "linear") == pytest.approx(0.9, rel=1e-15)
    with pytest.raises(ValueError):
        initial_guess(0.1, 0.1, "septic")


def test_an_unknown_guess_is_rejected_before_any_evaluation(monkeypatch):
    # initial_guess holds the one check of the guess, and the solve calls it
    # before its first evaluation
    calls = []
    real = fitter.eval_xy
    monkeypatch.setattr(fitter, "eval_xy", lambda *args: calls.append(args) or real(*args))
    data = HermiteData(5.0, 4.0, math.pi / 3.0, 5.0, 6.0, 7.0 * math.pi / 6.0)
    message = re.escape("guess must be one of %s, got 'septic'" % (fitter.GUESS_VARIANTS,))
    for attempt in (lambda: build_clothoid(data, guess="septic"),
                    lambda: solve_A(reduce_problem(data), guess="septic"),
                    lambda: initial_guess(0.4, 1.2, guess="septic")):
        with pytest.raises(ValueError, match=message):
            attempt()
    assert calls == []
    # the chord is checked before the guess
    with pytest.raises(DegenerateInputError):
        build_clothoid(HermiteData(1.0, 1.0, 0.3, 1.0, 1.0, 0.7), guess="septic")
    assert calls == []
    # the patched eval_xy does see a fit's evaluations
    build_clothoid(data, guess="linear")
    assert calls


def test_guess_vanishes_on_antisymmetric_pairs():
    for variant in fitter.GUESS_VARIANTS:
        for phi in (0.3, 1.2, 3.0):
            assert initial_guess(-phi, phi, variant) == 0.0


def test_surface_coefficients_regenerate_from_the_solver():
    # the stored surface is the unweighted least-squares fit of A/(phi0 +
    # phi1) by u^i v^j, i + j <= 8, over the roots on a 121x121 grid of
    # f = phi/pi in [-0.9999, 0.9999]; the roots come from the quintic
    # guess, so the fit does not rest on the surface it regenerates
    fs = np.linspace(-0.9999, 0.9999, 121)
    rows, targets = [], []
    for f0 in fs:
        for f1 in fs:
            phi0, phi1 = math.pi * float(f0), math.pi * float(f1)
            if abs(phi0 + phi1) < 1e-9:
                continue
            A, _ = solve_A(make_rp(phi0, phi1), "quintic")
            u, v = f0 * f1, f0 * f0 + f1 * f1
            rows.append([u ** i * v ** j for i in range(9) for j in range(9 - i)])
            targets.append(A / (phi0 + phi1))
    coef, *_ = np.linalg.lstsq(np.array(rows), np.array(targets), rcond=None)
    stored = np.array(fitter.SURFACE_GUESS_COEFFICIENTS)
    assert np.max(np.abs(coef - stored)) <= 1e-10
    # initial_guess's Horner form evaluates that polynomial
    for f0, f1 in ((0.3, 0.5), (-0.9, 0.2)):
        u, v = f0 * f1, f0 * f0 + f1 * f1
        terms = [u ** i * v ** j for i in range(9) for j in range(9 - i)]
        expected = math.pi * (f0 + f1) * float(np.dot(terms, stored))
        assert initial_guess(math.pi * f0, math.pi * f1, "surface") == pytest.approx(
            expected, rel=1e-14)


# ------------------------------------------------------------ bracket

def test_a_max_examples():
    assert a_max_bound(0.0, math.pi) == pytest.approx(
        math.pi * (2.0 + math.sqrt(3.0)), rel=1e-15)
    assert a_max_bound(-0.5 * math.pi, 0.5 * math.pi) == pytest.approx(math.pi, rel=1e-15)

    # the paper's form |delta| + 2 theta (1 + sqrt(1 + |delta|/theta)), or
    # its limit |delta| at theta_max = 0, within 4 ulp: theta_max just
    # above 0, then seeded pairs
    def paper_form(phi0, phi1):
        delta = abs(phi1 - phi0)
        theta = max(0.5 * math.pi + math.copysign(1.0, phi1) * phi0,
                    0.5 * math.pi + math.copysign(1.0, phi0) * phi1)
        if theta <= 0.0:
            return delta
        return delta + 2.0 * theta * (1.0 + math.sqrt(1.0 + delta / theta))

    rng = np.random.default_rng(29)
    pairs = [(-0.5 * math.pi + 1e-9, 0.5 * math.pi)]
    pairs += [tuple(float(x) for x in rng.uniform(-0.999 * math.pi, 0.999 * math.pi, 2))
              for _ in range(200)]
    for phi0, phi1 in pairs:
        expected = paper_form(phi0, phi1)
        assert abs(a_max_bound(phi0, phi1) - expected) <= 4.0 * math.ulp(expected), (phi0, phi1)
    with pytest.raises(ExcludedAngleError):
        a_max_bound(math.pi, -math.pi)
    with pytest.raises(ExcludedAngleError):
        a_max_bound(-math.pi, math.pi)


def test_returned_root_is_inside_bracket():
    rng = np.random.default_rng(13)
    for _ in range(300):
        phi0 = float(rng.uniform(-0.9999 * math.pi, 0.9999 * math.pi))
        phi1 = float(rng.uniform(-0.9999 * math.pi, 0.9999 * math.pi))
        A, _ = solve_A(make_rp(phi0, phi1))
        assert abs(A) <= a_max_bound(phi0, phi1) + 1e-9


# ------------------------------------------------------------ solve

def test_solve_trivial_line():
    A, iterations = solve_A(make_rp(0.0, 0.0))
    assert A == 0.0
    assert iterations <= 1


def test_solve_circle_pair():
    A, _ = solve_A(make_rp(-0.4, 0.4))
    assert abs(A) <= 1e-10


def test_solve_matches_bisection_oracle():
    rng = np.random.default_rng(17)
    for _ in range(40):
        phi0 = float(rng.uniform(-0.95 * math.pi, 0.95 * math.pi))
        phi1 = float(rng.uniform(-0.95 * math.pi, 0.95 * math.pi))
        rp = make_rp(phi0, phi1)
        A, _ = solve_A(rp, fitter.DEFAULT_GUESS)
        a_max = a_max_bound(phi0, phi1)
        seed = initial_guess(phi0, phi1, fitter.DEFAULT_GUESS)
        A_ref = bisection_root(lambda x: g_eval(x, rp), -a_max, a_max, seed)
        assert A == pytest.approx(A_ref, abs=1e-8)


def test_solve_reports_non_convergence(monkeypatch):
    # from the linear guess the reference pose takes two evaluated
    # steps; the default guess stops on its first evaluation
    monkeypatch.setattr(fitter, "_MAX_ITER", 1)
    rp = reduce_problem(
        HermiteData(5.0, 4.0, math.pi / 3.0, 5.0, 6.0, 7.0 * math.pi / 6.0))
    with pytest.raises(ConvergenceError) as info:
        solve_A(rp, "linear")
    assert info.value.iterations == 1
    assert info.value.residual > 1e-12
    assert math.isfinite(info.value.A)


def test_generic_fits_make_one_evaluation(monkeypatch):
    # poses drawn as the generic benchmark draws them: chord-relative
    # angles uniform over the domain, chord log-uniform in [1e-2, 1e2],
    # random start point and chord direction.  The degree-8 surface lands
    # within Halley's step stop, so nearly every fit stops on its first
    # evaluation and takes its one step unevaluated
    real = fitter.eval_xy
    calls = [0]

    def counting(a, b, c, k):
        calls[0] += 1
        return real(a, b, c, k)

    monkeypatch.setattr(fitter, "eval_xy", counting)
    rng = np.random.default_rng(43)
    lim = 0.9999 * math.pi
    counts = []
    for _ in range(2000):
        phi0, phi1 = rng.uniform(-lim, lim, 2)
        r = math.exp(rng.uniform(math.log(1e-2), math.log(1e2)))
        rot = rng.uniform(-math.pi, math.pi)
        x0, y0 = rng.uniform(-100.0, 100.0, 2)
        calls[0] = 0
        build_clothoid(HermiteData(
            float(x0), float(y0), float(rot + phi0),
            float(x0 + r * math.cos(rot)), float(y0 + r * math.sin(rot)),
            float(rot + phi1)))
        counts.append(calls[0])
    assert max(counts) <= 2
    assert sum(counts) / len(counts) <= 1.01


def _bend_derivative(monkeypatch, slope):
    """Make every k = 5 evaluation in the solver report g'(A) = Re J1 =
    X_2 - X_1 = slope."""
    real = fitter.eval_xy

    def bent(a, b, c, k):
        X, Y = real(a, b, c, k)
        if k == 5:
            X[2] = X[1] + slope
        return X, Y

    monkeypatch.setattr(fitter, "eval_xy", bent)


def test_vanishing_derivative_raises(monkeypatch):
    _bend_derivative(monkeypatch, 0.0)
    rp = make_rp(0.4, 1.2)
    with pytest.raises(SingularDerivativeError) as info:
        solve_A(rp)
    assert info.value.A == initial_guess(0.4, 1.2)
    assert info.value.iterations == 0
    assert info.value.residual == abs(g_eval(info.value.A, rp))
    assert info.value.residual > 1e-12


def test_newton_escape_raises_convergence_error(monkeypatch):
    # a tiny but nonzero slope throws the step far outside the bracket: with
    # |g g''| > g'^2 the solve takes Newton's g/g', not Halley's step
    _bend_derivative(monkeypatch, 1e-9)
    rp = make_rp(0.4, 1.2)
    with pytest.raises(ConvergenceError) as info:
        solve_A(rp)
    assert not isinstance(info.value, SingularDerivativeError)
    assert info.value.A == initial_guess(0.4, 1.2)
    assert info.value.iterations == 0
    assert info.value.residual > 1e-12


def test_bracket_is_formed_only_for_a_long_step(monkeypatch):
    # a step within 2 max(|delta|, 1) cannot leave the bracket 2 max(A_max,
    # 1), so A_max is computed only for a step past it.  At (0.4, 1.2) the
    # two are 2 and 25.3: a first step to A = 10, in between, is taken, and
    # the next one escapes
    bounds = []
    real_bound = fitter.a_max_bound

    def counting(phi0, phi1):
        bounds.append((phi0, phi1))
        return real_bound(phi0, phi1)

    monkeypatch.setattr(fitter, "a_max_bound", counting)
    # A = 0.59 here, well inside 2 max(0.8, 1); the default guess stops on
    # its first evaluation, the linear guess takes one evaluated step
    assert solve_A(make_rp(0.5, -0.3), "linear")[1] == 1
    build_clothoid(HermiteData(0.0, 0.0, 0.5, 1.0, 0.0, -0.3), "linear")
    assert bounds == []
    rp = make_rp(0.4, 1.2)
    assert 2.0 * max(abs(rp.delta), 1.0) == 2.0
    assert 25.0 < 2.0 * real_bound(0.4, 1.2) < 26.0
    A0 = initial_guess(0.4, 1.2)
    _, Y = fitter.eval_xy(2.0 * A0, rp.delta - A0, rp.phi0, 5)
    _bend_derivative(monkeypatch, Y[0] / (A0 - 10.0))
    with pytest.raises(ConvergenceError) as info:
        solve_A(rp)
    assert not isinstance(info.value, SingularDerivativeError)
    assert info.value.iterations == 1
    assert info.value.A == pytest.approx(10.0, abs=1e-9)
    assert bounds == [(0.4, 1.2), (0.4, 1.2)]


def test_each_fit_evaluates_each_point_once(monkeypatch):
    # h comes from the last evaluated iterate, so no fit asks for the same
    # (a, b, c) twice; every solver evaluation is one k = 5 Halley
    # iterate, and the last step is not evaluated
    real = fitter.eval_xy
    seen = []
    orders = []

    def recording(a, b, c, k):
        seen.append((a, b, c))
        orders.append(k)
        return real(a, b, c, k)

    monkeypatch.setattr(fitter, "eval_xy", recording)
    cases = [data for _, data in cli.BENCH_TESTS]
    cases += [cli.bench_near_line_case(k) for k in range(1, 11)]
    cases += [cli.bench_near_circle_case(k) for k in range(1, 11)]
    for data in cases:
        seen.clear()
        orders.clear()
        fit = build_clothoid(HermiteData(*data))
        assert seen, data
        assert len(set(seen)) == len(seen), data
        assert set(orders) == {5}, data
        assert len(orders) == fit.iterations + 1, data


# ------------------------------------------------------------ build

def test_build_straight_line():
    fit = build_clothoid(HermiteData(0.0, 0.0, 0.0, 1.0, 0.0, 0.0))
    assert fit.curve.kappa == 0.0
    assert fit.curve.kappa_prime == 0.0
    assert fit.curve.L == 1.0
    assert fit.endpoint_error == 0.0
    assert fit.B == fit.curve.kappa * fit.curve.L


def test_build_unit_semicircle():
    fit = build_clothoid(HermiteData(0.0, 0.0, 0.5 * math.pi, 2.0, 0.0, -0.5 * math.pi))
    assert fit.curve.L == pytest.approx(math.pi, rel=1e-14)
    assert fit.curve.kappa == pytest.approx(-1.0, rel=1e-14)
    assert abs(fit.curve.kappa_prime) < 1e-14
    assert fit.endpoint_error < 1e-13


def test_build_reference_case():
    fit = build_clothoid(
        HermiteData(5.0, 4.0, math.pi / 3.0, 5.0, 6.0, 7.0 * math.pi / 6.0))
    assert fit.iterations <= 5
    assert fit.endpoint_error <= 1e-12
    assert fit.curve.L > 0.0
    rp = reduce_problem(
        HermiteData(5.0, 4.0, math.pi / 3.0, 5.0, 6.0, 7.0 * math.pi / 6.0))
    # residual_g is read before the last step; the returned A is a root
    assert abs(g_eval(fit.A, rp)) <= 1e-15
    assert fit.B == rp.delta - fit.A


def _worst_relative_error(guess, n):
    # angles uniform in (-0.9999 pi, 0.9999 pi)^2 on a unit chord
    lim = 0.9999 * math.pi
    angles = np.random.default_rng(5).uniform(-lim, lim, size=(n, 2))
    worst = 0.0
    for theta0, theta1 in angles:
        fit = build_clothoid(HermiteData(0.0, 0.0, float(theta0), 1.0, 0.0, float(theta1)), guess)
        worst = max(worst, fit.endpoint_error / fit.curve.L)
    return worst


def test_fits_reach_machine_accuracy():
    # the step stop leaves an unevaluated last Halley step of at most
    # 2e-6 max(1, |A|), whose error, with the second-order length update,
    # is rounding level from every guess (8.9e-15, 9.9e-15 and 8.8e-15)
    for variant in fitter.GUESS_VARIANTS:
        assert _worst_relative_error(variant, 5000) <= 2e-14, variant


def test_fits_near_the_excluded_corners_reach_machine_accuracy():
    # phi0 = +/-(pi - e0), phi1 = -/+(pi - e1) with e log-uniform in
    # [1e-9, 1e-1]: L grows as the corner nears, and the step stop must
    # still leave only a rounding-level last step.  These fits reach
    # 9.3e-16
    rng = np.random.default_rng(47)
    worst = 0.0
    for _ in range(2000):
        sign = 1.0 if rng.uniform() < 0.5 else -1.0
        e0, e1 = 10.0 ** rng.uniform(-9.0, -1.0, 2)
        theta0 = sign * (math.pi - float(e0))
        theta1 = -sign * (math.pi - float(e1))
        fit = build_clothoid(HermiteData(0.0, 0.0, theta0, 1.0, 0.0, theta1))
        worst = max(worst, fit.endpoint_error / fit.curve.L)
    assert worst <= 3e-15


def test_build_excluded_corner():
    with pytest.raises(ExcludedAngleError):
        build_clothoid(HermiteData(0.0, 0.0, math.pi, 1.0, 0.0, -math.pi))


def test_excluded_corner_tolerance_edges(monkeypatch):
    # phi0 = -phi1 within 1e-12 of +/-pi is a corner; 2e-12 from it is not
    for sign in (1.0, -1.0):
        phi = sign * (math.pi - 0.5e-12)
        with pytest.raises(ExcludedAngleError):
            fitter._reject_corner(phi, -phi)
        with pytest.raises(ExcludedAngleError):
            build_clothoid(HermiteData(0.0, 0.0, phi, 1.0, 0.0, -phi))
        phi = sign * (math.pi - 2e-12)
        fitter._reject_corner(phi, -phi)
        assert math.isfinite(a_max_bound(phi, -phi))
        assert build_clothoid(HermiteData(0.0, 0.0, phi, 1.0, 0.0, -phi)).curve.L > 1e12
    # the check follows the tolerance wherever it is set
    monkeypatch.setattr(fitter, "_EXCLUDED_CORNER_TOL", 0.2)
    for sign in (1.0, -1.0):
        phi = sign * (math.pi - 0.15)
        with pytest.raises(ExcludedAngleError):
            fitter._reject_corner(phi, -phi)


def test_build_degenerate():
    with pytest.raises(DegenerateInputError):
        build_clothoid(HermiteData(2.0, 3.0, 0.1, 2.0, 3.0, 0.2))


def test_build_rejects_unrepresentable_chord_scales():
    # kappa_prime = 2A/L^2 needs L^2 to be a finite normal double: below
    # it the division failed or overflowed, above it kappa_prime read 0
    for r in (1e-320, 1e-300, 1e155, 1e200):
        with pytest.raises(DegenerateInputError, match="chord length"):
            build_clothoid(HermiteData(0.0, 0.0, 0.3, r, 0.0, -0.2))
    # L^2 is a normal double here, but 2A/L^2 overflows
    with pytest.raises(DegenerateInputError, match="chord length"):
        build_clothoid(HermiteData(0.0, 0.0, 1.2, 1.5e-154, 0.0, 1.5))
    with pytest.raises(DegenerateInputError, match="chord length inf"):
        build_clothoid(HermiteData(-1e308, 0.0, 0.3, 1e308, 0.0, -0.2))


def _seeded_fits(seed, n):
    """n fits each of generic, near-line and near-circle poses."""
    rng = np.random.default_rng(seed)
    lim = 0.9999 * math.pi
    for _ in range(n):
        x0, y0 = rng.uniform(-10.0, 10.0, 2)
        r = float(rng.uniform(0.1, 10.0))
        phi = float(rng.uniform(-0.99 * math.pi, 0.99 * math.pi))
        pairs = (rng.uniform(-lim, lim, 2),             # generic
                 rng.uniform(-1e-3, 1e-3, 2),           # |A| < 6e-3: near line
                 (phi, -phi + rng.uniform(-1e-6, 1e-6)))  # |A| < 3e-6: near circle
        for phi0, phi1 in pairs:
            yield build_clothoid(HermiteData(
                float(x0), float(y0), float(phi0), float(x0) + r, float(y0), float(phi1)))


def _fields(obj):
    return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}


def test_fitter_built_objects_match_public_ones():
    # build_clothoid makes its curve without running its constructor;
    # nothing may tell it, or the result holding it, from publicly built ones
    square_curves = 0
    for fit in _seeded_fits(47, 20):
        curve = fit.curve
        public = ClothoidCurve(**_fields(curve))
        result = FitResult(**dict(_fields(fit), curve=public))
        assert type(curve) is ClothoidCurve and type(fit) is FitResult
        assert list(vars(curve).items()) == list(vars(public).items())
        assert list(vars(fit).items()) == list(vars(result).items())
        for built, twin in ((curve, public), (fit, result)):
            assert built == twin and twin == built
            assert hash(built) == hash(twin) and repr(built) == repr(twin)
            assert dataclasses.replace(built) == twin
        with pytest.raises(ValueError, match="L must be positive"):
            dataclasses.replace(curve, L=-1.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            curve.L = 2.0
        # sampling builds the square on generic curves; it stays invisible
        assert curve.sample(9) == public.sample(9)
        square_curves += "_square" in vars(curve)
        assert curve == public and hash(curve) == hash(public) and repr(curve) == repr(public)
        assert fit == result and hash(fit) == hash(result)
    assert square_curves == 20


def _kept_bytes(build, inputs):
    """Bytes that build(x) keeps allocated over all x in inputs, and the
    outputs.  The list holding them is made before tracing starts, and full
    collections empty the interpreter's free lists on both sides, so that
    neither the list nor blocks parked on a free list count."""
    kept = [None] * len(inputs)
    gc.collect()
    tracemalloc.start()
    try:
        for i, x in enumerate(inputs):
            kept[i] = build(x)
        gc.collect()
        return tracemalloc.get_traced_memory()[0], kept
    finally:
        tracemalloc.stop()


def test_fitter_built_objects_hold_no_more_memory_than_public_ones():
    # the curve built without its constructor keeps no instance dict that a
    # public one lacks: kept fits hold no more bytes than public twins of
    # them on equal floats, each copied into a new object as the fit made
    # its own (on 3.11, 424 B per fit either way; a dict written through
    # __dict__ costs 64 B more per object)
    lim = 0.9999 * math.pi
    rng = np.random.default_rng(53)
    poses = [HermiteData(0.0, 0.0, float(theta0), 1.0, 0.0, float(theta1))
             for theta0, theta1 in rng.uniform(-lim, lim, size=(2000, 2))]

    def copy(v):
        return -(-v)  # an equal float in a new object

    def twin(fit):
        c = fit.curve
        curve = ClothoidCurve(c.x0, c.y0, c.theta0, copy(c.kappa), copy(c.kappa_prime),
                              copy(c.L))
        return FitResult(curve, copy(fit.A), copy(fit.B), fit.iterations,
                         copy(fit.residual_g), copy(fit.endpoint_error))

    # the first instances a path builds can take larger attribute storage
    # while the interpreter settles the class's layout: both paths run once
    # before either is measured
    fits = [build_clothoid(pose) for pose in poses]
    assert [twin(fit) for fit in fits] == fits
    fit_bytes, _ = _kept_bytes(build_clothoid, poses)
    twin_bytes, _ = _kept_bytes(twin, fits)
    assert fit_bytes <= twin_bytes, (fit_bytes / len(fits), twin_bytes / len(fits))


def test_fits_check_each_value_once(monkeypatch):
    # HermiteData checks the pose; the fit runs neither ReducedProblem's nor
    # ClothoidCurve's checks again, while their public constructors do
    checks = []
    for cls in (ReducedProblem, ClothoidCurve):
        def counting(self, real=cls.__post_init__, name=cls.__name__):
            checks.append(name)
            real(self)

        monkeypatch.setattr(cls, "__post_init__", counting)
    data = HermiteData(5.0, 4.0, math.pi / 3.0, 5.0, 6.0, 7.0 * math.pi / 6.0)
    for pose in (data, HermiteData(*cli.bench_near_line_case(3)),
                 HermiteData(*cli.bench_near_circle_case(3))):
        build_clothoid(pose)
    assert checks == []
    rp = reduce_problem(data)
    curve = ClothoidCurve(**_fields(build_clothoid(data).curve))
    assert checks == ["ReducedProblem", "ClothoidCurve"]
    with pytest.raises(ValueError, match="phi0, phi1"):
        dataclasses.replace(rp, phi0=4.0)
    with pytest.raises(ValueError, match="kappa must be finite"):
        dataclasses.replace(curve, kappa=math.inf)
    # a pose that skipped HermiteData's checks is not checked again: its NaN
    # reaches eval_xy, which rejects it
    for field in ("theta0", "x1"):
        pose = SimpleNamespace(**dict(_fields(data), **{field: math.nan}))
        with pytest.raises(ValueError, match="eval_xy: a, b, c must be finite"):
            build_clothoid(pose)
    # the excluded corner is rejected before the solve evaluates anything
    calls = []
    real = fitter.eval_xy
    monkeypatch.setattr(fitter, "eval_xy", lambda *args: calls.append(args) or real(*args))
    with pytest.raises(ExcludedAngleError):
        build_clothoid(HermiteData(0.0, 0.0, math.pi, 1.0, 0.0, -math.pi))
    assert calls == []


def test_unchecked_non_finite_poses_never_fit():
    # HermiteData is the one check of the pose; an object that skipped it,
    # with NaN or an infinity in any one field, still ends in an error
    data = HermiteData(5.0, 4.0, math.pi / 3.0, 5.0, 6.0, 7.0 * math.pi / 6.0)
    for field in _fields(data):
        for value in (math.nan, math.inf, -math.inf):
            pose = SimpleNamespace(**dict(_fields(data), **{field: value}))
            with pytest.raises((ValueError, FitError)):
                build_clothoid(pose)


# ------------------------------------------------------------ symmetry

def test_reversal_and_mirror_symmetries():
    # g(A) = -g_rev(-A) = -g_mir(-A), h(A) = h_rev(-A) = h_mir(-A), where
    # the reversed problem swaps endpoints (angles -phi1, -phi0) and the
    # mirrored problem flips across the chord (angles -phi0, -phi1)
    rng = np.random.default_rng(29)
    for _ in range(100):
        A = float(rng.uniform(-8.0, 8.0))
        phi0 = float(rng.uniform(-math.pi, math.pi))
        phi1 = float(rng.uniform(-math.pi, math.pi))
        rp = make_rp(phi0, phi1)
        rev = ReducedProblem(1.0, -phi1, -phi0)
        mir = ReducedProblem(1.0, -phi0, -phi1)
        assert g_eval(A, rp) == pytest.approx(-g_eval(-A, rev), abs=1e-12)
        assert g_eval(A, rp) == pytest.approx(-g_eval(-A, mir), abs=1e-12)
        assert h_eval(A, rp) == pytest.approx(h_eval(-A, rev), abs=1e-12)
        assert h_eval(A, rp) == pytest.approx(h_eval(-A, mir), abs=1e-12)


def test_endpoint_identity_random_data():
    rng = np.random.default_rng(31)
    for _ in range(150):
        x0, y0, x1, y1 = rng.uniform(-10.0, 10.0, 4)
        r = math.hypot(x1 - x0, y1 - y0)
        if r < 1e-3:
            continue
        t0, t1 = rng.uniform(-0.99 * math.pi, 0.99 * math.pi, 2)
        fit = build_clothoid(HermiteData(float(x0), float(y0), float(t0),
                                         float(x1), float(y1), float(t1)))
        assert fit.endpoint_error <= 1e-10 * r
        angle_gap = (fit.curve.angle_at(fit.curve.L) - t1) % (2.0 * math.pi)
        assert min(angle_gap, 2.0 * math.pi - angle_gap) <= 1e-10


def test_rigid_motion_equivariance():
    rng = np.random.default_rng(37)
    base = HermiteData(1.0, -2.0, 0.7, 4.0, 1.0, -1.1)
    ref = build_clothoid(base)
    for _ in range(25):
        alpha = float(rng.uniform(-math.pi, math.pi))
        tx, ty = rng.uniform(-5.0, 5.0, 2)
        ca, sa = math.cos(alpha), math.sin(alpha)

        def move(x, y):
            return ca * x - sa * y + tx, sa * x + ca * y + ty

        mx0, my0 = move(base.x0, base.y0)
        mx1, my1 = move(base.x1, base.y1)
        fit = build_clothoid(HermiteData(mx0, my0, base.theta0 + alpha,
                                         mx1, my1, base.theta1 + alpha))
        assert fit.curve.kappa == pytest.approx(ref.curve.kappa, abs=1e-10)
        assert fit.curve.kappa_prime == pytest.approx(ref.curve.kappa_prime, abs=1e-10)
        assert fit.curve.L == pytest.approx(ref.curve.L, abs=1e-10)
        assert fit.A == pytest.approx(ref.A, abs=1e-10)
        assert fit.iterations == ref.iterations


def test_scaling_covariance():
    base = HermiteData(1.0, -2.0, 0.7, 4.0, 1.0, -1.1)
    ref = build_clothoid(base)
    for lam in (1e-150, 0.25, 3.0, 40.0, 1e150):
        fit = build_clothoid(HermiteData(base.x0 * lam, base.y0 * lam, base.theta0,
                                         base.x1 * lam, base.y1 * lam, base.theta1))
        assert fit.curve.L == pytest.approx(lam * ref.curve.L, rel=1e-10)
        assert fit.curve.kappa == pytest.approx(ref.curve.kappa / lam, rel=1e-10)
        assert fit.curve.kappa_prime == pytest.approx(
            ref.curve.kappa_prime / lam ** 2, rel=1e-10)
        assert fit.A == pytest.approx(ref.A, abs=1e-10)


def test_circles_and_lines_share_the_generic_path():
    # no case split: antisymmetric chord angles must come out with
    # kappa_prime ~ 0 through the ordinary solve
    rng = np.random.default_rng(41)
    for _ in range(50):
        phi = float(rng.uniform(-0.99 * math.pi, 0.99 * math.pi))
        r = float(rng.uniform(0.5, 20.0))
        fit = build_clothoid(HermiteData(0.0, 0.0, phi, r, 0.0, -phi))
        # |g| sits below the residual floor, so the solve takes no last
        # step from rounding noise and A stays exactly zero
        assert fit.A == 0.0
        assert fit.curve.kappa_prime == 0.0
