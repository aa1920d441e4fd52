"""Acceptance suite: every release-gating check at its pinned tolerance.

Run with `pytest tests/test_acceptance.py -s` to see one summary line per
criterion.  Criterion 3 solves 65536 fits and takes some seconds; the
full 1024x1024 reproduction is available separately via
`clothofit grid-stats --grid-n 1024 --guess quintic`.
"""

import math
import time

import numpy as np
import pytest

from clothofit import (
    HermiteData,
    ReducedProblem,
    build_clothoid,
    eval_xy,
)
from clothofit.cli import (
    BENCH_TESTS,
    bench_near_circle_case,
    bench_near_line_case,
    _grid_histogram,
)
from clothofit.fitter import g_prime
from clothofit.gfresnel import EPSILON_A, eval_xy_a_large, eval_xy_a_small

from oracles import g_eval, h_eval, xy_reference


def report(line):
    print("\n" + line, flush=True)


def make_rp(phi0, phi1):
    return ReducedProblem(r=1.0, phi0=phi0, phi1=phi1)


def test_criterion_1_reference_fits():
    worst_iter = 0
    worst_err = 0.0
    worst_time = 0.0
    for name, data in BENCH_TESTS:
        hd = HermiteData(*data)
        fit = build_clothoid(hd)
        assert fit.iterations <= 5, name
        assert fit.endpoint_error <= 1e-12, name
        elapsed = min(
            _timed(lambda: build_clothoid(hd)) for _ in range(5))
        assert elapsed < 1e-3, "%s took %.3f ms" % (name, elapsed * 1e3)
        worst_iter = max(worst_iter, fit.iterations)
        worst_err = max(worst_err, fit.endpoint_error)
        worst_time = max(worst_time, elapsed)
    report("ACCEPTANCE 1 (reference fits 1-6): PASS  "
           "max_iterations=%d  max_endpoint_error=%.2e  max_time=%.3fms"
           % (worst_iter, worst_err, worst_time * 1e3))


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def test_criterion_2_near_line_and_near_circle():
    worst_iter = 0
    worst_err = 0.0
    worst_time = {"line": 0.0, "circle": 0.0}
    for k in range(1, 11):
        for family, case in (("line", bench_near_line_case(k)),
                             ("circle", bench_near_circle_case(k))):
            hd = HermiteData(*case)
            fit = build_clothoid(hd)
            assert fit.iterations <= 4, (case, fit.iterations)
            assert fit.endpoint_error <= 1e-12, (case, fit.endpoint_error)
            worst_iter = max(worst_iter, fit.iterations)
            worst_err = max(worst_err, fit.endpoint_error)
            elapsed = min(
                _timed(lambda: build_clothoid(hd)) for _ in range(5))
            assert elapsed < 1e-3, "%s took %.3f ms" % (case, elapsed * 1e3)
            worst_time[family] = max(worst_time[family], elapsed)
    report("ACCEPTANCE 2 (near-line/near-circle families, k=1..10): PASS  "
           "max_iterations=%d  max_endpoint_error=%.2e  "
           "max_time near-line=%.3fms near-circle=%.3fms"
           % (worst_iter, worst_err, worst_time["line"] * 1e3,
              worst_time["circle"] * 1e3))


def test_criterion_3_guess_quality_distribution():
    t0 = time.perf_counter()
    hist = _grid_histogram(256, "quintic")
    elapsed = time.perf_counter() - t0
    total = 256 * 256
    assert sum(hist.values()) == total
    max_iter = max(hist)
    at_most_3 = sum(count for it, count in hist.items() if it <= 3) / total
    assert max_iter <= 4, hist
    assert at_most_3 >= 0.95, hist
    assert elapsed < 30.0, "grid took %.1f s" % elapsed
    report("ACCEPTANCE 3 (256x256 quintic-guess distribution): PASS  "
           "max_iterations=%d  share<=3: %.2f%%  elapsed=%.1fs"
           % (max_iter, 100.0 * at_most_3, elapsed))


def test_criterion_4_oracle_equivalence():
    rng = np.random.default_rng(101)
    eps = EPSILON_A
    cases = []
    for _ in range(900):
        cases.append((float(rng.uniform(-100.0, 100.0)),
                      float(rng.uniform(-10.0, 10.0)),
                      float(rng.uniform(-math.pi, math.pi)),
                      int(rng.integers(1, 4))))
    for _ in range(100):   # regime boundary, |a| within +/-0.1% of the switch
        a = float(rng.choice([-1.0, 1.0]) * eps * (1.0 + rng.uniform(-1e-3, 1e-3)))
        cases.append((a,
                      float(rng.uniform(-10.0, 10.0)),
                      float(rng.uniform(-math.pi, math.pi)),
                      int(rng.integers(1, 4))))
    worst = 0.0
    for a, b, c, k in cases:
        X, Y = eval_xy(a, b, c, k)
        for j in range(k):
            xq, yq = xy_reference(a, b, c, j)
            err = max(abs(X[j] - xq), abs(Y[j] - yq))
            worst = max(worst, err)
            assert err <= 1e-10, (a, b, c, j, err)
    report("ACCEPTANCE 4 (1000-case quadrature equivalence): PASS  "
           "worst_abs_error=%.2e" % worst)


def test_criterion_5_derivative_check():
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(500):
        A = float(rng.uniform(-8.0, 8.0))
        phi0 = float(rng.uniform(-math.pi, math.pi))
        delta = float(rng.uniform(-2.0 * math.pi, 2.0 * math.pi))
        phi1 = phi0 + delta
        # keep phi1 representable inside the reduced-problem range
        if abs(phi1) > math.pi:
            phi1 = math.copysign(math.pi, phi1)
            delta = phi1 - phi0
        rp = make_rp(phi0, phi1)
        h = 1e-6 * max(1.0, abs(A))
        fd = (g_eval(A + h, rp) - g_eval(A - h, rp)) / (2.0 * h)
        rel = abs(g_prime(A, rp) - fd) / max(1e-12, abs(fd))
        worst = max(worst, rel)
        assert rel <= 1e-6, (A, phi0, phi1, rel)
    report("ACCEPTANCE 5 (derivative vs finite differences, 500 cases): PASS  "
           "worst_rel_error=%.2e" % worst)


def test_criterion_6_symmetry_suite():
    rng = np.random.default_rng(107)
    worst = 0.0
    for _ in range(500):
        A = float(rng.uniform(-8.0, 8.0))
        phi0 = float(rng.uniform(-math.pi, math.pi))
        phi1 = float(rng.uniform(-math.pi, math.pi))
        rp = make_rp(phi0, phi1)
        rev = ReducedProblem(1.0, -phi1, -phi0)
        mir = ReducedProblem(1.0, -phi0, -phi1)
        errs = (
            abs(g_eval(A, rp) + g_eval(-A, rev)),
            abs(h_eval(A, rp) - h_eval(-A, rev)),
            abs(h_eval(A, rp) - h_eval(-A, mir)),
        )
        worst = max(worst, *errs)
        assert max(errs) <= 1e-12, (A, phi0, phi1, errs)
    report("ACCEPTANCE 6 (reversal/mirror symmetries, 500 cases): PASS  "
           "worst_abs_error=%.2e" % worst)


def test_criterion_7_special_cases():
    rng = np.random.default_rng(109)
    worst_A = 0.0
    worst_kpL2 = 0.0
    for _ in range(100):
        phi = float(rng.uniform(-0.999 * math.pi, 0.999 * math.pi))
        r = float(rng.uniform(0.2, 50.0))
        fit = build_clothoid(HermiteData(0.0, 0.0, phi, r, 0.0, -phi))
        kpL2 = abs(fit.curve.kappa_prime) * fit.curve.L ** 2
        worst_A = max(worst_A, abs(fit.A))
        worst_kpL2 = max(worst_kpL2, kpL2)
        assert abs(fit.A) <= 1e-9
        assert kpL2 <= 1e-8
    line = build_clothoid(HermiteData(0.0, 0.0, 0.0, 2.5, 0.0, 0.0))
    assert abs(line.curve.kappa) <= 1e-14
    assert abs(line.curve.kappa_prime) <= 1e-14
    assert abs(line.curve.L - 2.5) <= 1e-14
    report("ACCEPTANCE 7 (circle/line special cases): PASS  "
           "worst|A|=%.2e  worst kappa'*L^2=%.2e" % (worst_A, worst_kpL2))


def test_criterion_8_regime_boundary_agreement():
    eps = EPSILON_A
    bound = (0.5 * eps) ** 10 * math.cosh(eps)   # series remainder at p = 5
    rng = np.random.default_rng(113)
    worst = 0.0
    for sign in (1.0, -1.0):
        a = sign * eps
        for _ in range(100):
            b = float(rng.uniform(-2.0 * math.pi, 2.0 * math.pi))
            Xs, Ys = eval_xy_a_small(a, b, 0.0, 3, 5)
            Xl, Yl = eval_xy_a_large(a, b, 0.0, 3)
            for j in range(3):
                err = max(abs(Xs[j] - Xl[j]), abs(Ys[j] - Yl[j]))
                worst = max(worst, err)
                assert err <= 1e-11, (a, b, j, err)
    report("ACCEPTANCE 8 (paths agree at |a|=epsilon_a, p=5): PASS  "
           "worst_abs_gap=%.2e (series remainder bound %.2e)" % (worst, bound))
