import importlib
import math
import sys

import numpy as np
import pytest
import scipy.special

from clothofit import fresnel, fresnel_momenta

from oracles import momenta_reference


def test_zero_argument():
    assert fresnel(0.0) == (0.0, 0.0)


def test_unit_argument_frozen():
    # correctly rounded doubles of C(1), S(1)
    c, s = fresnel(1.0)
    assert c == pytest.approx(0.7798934003768228, rel=1e-14)
    assert s == pytest.approx(0.4382591473903548, rel=1e-14)


def test_odd_symmetry_exact():
    for t in (1.0, 0.3, 2.7, 11.0):
        c, s = fresnel(t)
        cn, sn = fresnel(-t)
        assert cn == -c and sn == -s


def test_limits_at_infinity():
    assert fresnel(1e15) == (0.5, 0.5)
    # order 0 needs no phase, so arguments whose square overflows still work
    for t in (1e200, sys.float_info.max):
        assert fresnel(t) == (0.5, 0.5)
        assert fresnel(-t) == (-0.5, -0.5)
        assert fresnel_momenta(-t, 0).C == (-0.5,)
    c, s = fresnel(500.0)
    assert c == pytest.approx(0.5, abs=1e-3)
    assert s == pytest.approx(0.5, abs=1e-3)


def test_non_finite_rejected():
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError):
            fresnel(bad)
        with pytest.raises(ValueError):
            fresnel_momenta(bad, 2)


def test_accuracy_against_scipy():
    # scipy.special.fresnel returns (S, C) in the same normalization;
    # an independent implementation, so agreement pins both.
    ts = np.concatenate([
        np.linspace(1e-3, 10.0, 797),
        [1.6, 1.6000000001, 1.5999999999],   # series/asymptotic switch
    ])
    for t in ts:
        c, s = fresnel(float(t))
        sr, cr = scipy.special.fresnel(t)
        assert c == pytest.approx(cr, rel=1e-14, abs=1e-16)
        assert s == pytest.approx(sr, rel=1e-14, abs=1e-16)


def test_accuracy_against_mpmath():
    # 30-digit oracle at kernel precision, weighted to both sides of the
    # series/asymptotic switch at 1.6.  The momenta references use the
    # exact integration-by-parts forms in mpmath arithmetic.
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    rng = np.random.default_rng(1305)
    ts = np.concatenate([10.0 ** rng.uniform(-3.0, 1.0, 200),
                         rng.uniform(1.4, 1.6, 100), rng.uniform(1.6, 1.8, 100)])
    momenta_abs = (1e-15, 1e-15, 2e-15, 1e-14)
    for t in ts:
        t = float(t)
        tm = mpmath.mpf(t)
        cr, sr = mpmath.fresnelc(tm), mpmath.fresnels(tm)
        c, s = fresnel(t)
        assert abs(c - cr) <= 2e-15 * abs(cr)
        assert abs(s - sr) <= 2e-15 * abs(sr)
        u = mpmath.pi / 2 * tm * tm
        sin_u, cos_u = mpmath.sin(u), mpmath.cos(u)
        c1, s1 = sin_u / mpmath.pi, (1 - cos_u) / mpmath.pi
        ref = [(cr, sr), (c1, s1),
               ((tm * sin_u - sr) / mpmath.pi, (cr - tm * cos_u) / mpmath.pi),
               ((tm * tm * sin_u - 2 * s1) / mpmath.pi, (2 * c1 - tm * tm * cos_u) / mpmath.pi)]
        m = fresnel_momenta(t, 3)
        for k in range(4):
            assert abs(m.C[k] - ref[k][0]) <= momenta_abs[k], (t, k)
            assert abs(m.S[k] - ref[k][1]) <= momenta_abs[k], (t, k)


def test_series_tables_regenerate_from_mpmath():
    # the stored pairs are the Chebyshev interpolants at 12 first-kind
    # nodes on w = u^2 in [0, ((pi/2) 1.6^2)^2] of the Maclaurin series of
    # C/t and S/(t u), solved in 50 digits and rounded to doubles
    mpmath = pytest.importorskip("mpmath")
    table = importlib.import_module("clothofit.fresnel")._CS_SS
    n = len(table)
    with mpmath.workdps(50):
        w_max = (mpmath.pi / 2 * mpmath.mpf("1.6") ** 2) ** 2
        ws = [w_max / 2 * (1 + mpmath.cos(mpmath.pi * (j + 0.5) / n)) for j in range(n)]
        vandermonde = mpmath.matrix([[w ** i for i in range(n)] for w in ws])
        for col, odd in ((0, 0), (1, 1)):
            # C/t: (-1)^m w^m / ((2m)! (4m+1)); S/(t u): / ((2m+1)! (4m+3))
            ys = [mpmath.fsum((-1) ** m * w ** m
                              / (mpmath.factorial(2 * m + odd) * (4 * m + 1 + 2 * odd))
                              for m in range(60)) for w in ws]
            coef = mpmath.lu_solve(vandermonde, mpmath.matrix(ys))
            for i in range(n):
                ref = float(coef[i])
                stored = table[n - 1 - i][col]
                assert abs(stored - ref) <= 2 * math.ulp(ref), (col, i, stored, ref)


def test_series_branch_dense_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        for i in range(1, 1601):
            t = i / 1000.0
            c, s = fresnel(t)
            cr, sr = mpmath.fresnelc(t), mpmath.fresnels(t)
            assert abs(c - cr) <= 1e-15 * cr, (t, c, float(cr))
            assert abs(s - sr) <= 1e-15 * sr, (t, s, float(sr))


def test_continuity_across_the_series_switch():
    below = fresnel(1.6)
    above = fresnel(math.nextafter(1.6, 2.0))
    for lo, hi in zip(below, above):
        assert abs(hi - lo) <= 4 * math.ulp(lo), (below, above)


def test_asymptotic_branch_matches_separate_horner_sums():
    # the one-pass sum over the padded rows must equal four plain Horner
    # sums over the Cephes tables bit for bit
    kernel = importlib.import_module("clothofit.fresnel")

    def polevl(x, coef):
        r = 0.0
        for c in coef:
            r = r * x + c
        return r

    rng = np.random.default_rng(916)
    for t in 1.6 * 10.0 ** rng.uniform(0.0, 13.0, 2000):  # below the 1e14 limit
        x = float(t)
        if x == 1.6:
            continue
        pix2 = math.pi * (x * x)
        u = 1.0 / (pix2 * pix2)
        f = 1.0 - u * polevl(u, kernel._FN) / polevl(u, kernel._FD)
        g = polevl(u, kernel._GN) / (polevl(u, kernel._GD) * pix2)
        s, c = kernel._phase_sincos(x)
        ref = (0.5 + (f * s - g * c) / (math.pi * x), 0.5 - (f * c + g * s) / (math.pi * x))
        assert fresnel(x) == ref, x
        assert fresnel(-x) == (-ref[0], -ref[1]), x


def test_first_sine_momentum_without_cancellation():
    # S_1 = (1 - cos u)/pi cancels as t -> 0; the kernel must hold it to
    # full relative accuracy there and across both branches
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        for t in (1e-6, 1e-4, 1e-2, 0.7, 3.0, 12.3):
            u = mpmath.pi / 2 * mpmath.mpf(t) ** 2
            ref = 2 * mpmath.sin(u / 2) ** 2 / mpmath.pi
            s1 = fresnel_momenta(t, 1).S[1]
            assert abs(s1 - ref) <= 1e-15 * ref, (t, s1, float(ref))


def test_third_sine_momentum_without_cancellation():
    # S_3 = (2/pi^2)(sin u - u cos u) cancels as t -> 0 as well
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        for t in (1e-6, 1e-4, 1e-2, 0.3, 0.7, 3.0):
            u = mpmath.pi / 2 * mpmath.mpf(t) ** 2
            ref = 2 * (mpmath.sin(u) - u * mpmath.cos(u)) / mpmath.pi ** 2
            s3 = fresnel_momenta(t, 3).S[3]
            assert abs(s3 - ref) <= 1e-15 * ref, (t, s3, float(ref))


def test_accuracy_large_arguments():
    # beyond |t| = 10 the contract is absolute: check against mpmath,
    # which evaluates with exact phase reduction
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    for t in (10.5, 15.0, 36.0, 72.0, 150.0, 300.0, 1234.5, 3e4, 2e5, 1e7):
        c, s = fresnel(t)
        assert c == pytest.approx(float(mpmath.fresnelc(t)), abs=1e-14)
        assert s == pytest.approx(float(mpmath.fresnels(t)), abs=1e-14)


def test_integrals_stay_positive_for_positive_t():
    for t in np.linspace(1e-4, 20.0, 500):
        c, s = fresnel(float(t))
        assert c > 0.0
        assert s >= 0.0


def test_momenta_zero_argument():
    m = fresnel_momenta(0.0, 2)
    assert m.C == (0.0, 0.0, 0.0)
    assert m.S == (0.0, 0.0, 0.0)


def test_momenta_unit_argument_closed_form():
    m = fresnel_momenta(1.0, 1)
    assert m.C[1] == pytest.approx(1.0 / math.pi, rel=1e-15)
    assert m.S[1] == pytest.approx(1.0 / math.pi, rel=1e-15)


def test_momenta_against_quadrature_at_0p7():
    m = fresnel_momenta(0.7, 2)
    for k in range(3):
        ck, sk = momenta_reference(0.7, k)
        assert m.C[k] == pytest.approx(ck, abs=1e-12)
        assert m.S[k] == pytest.approx(sk, abs=1e-12)


def test_momenta_order_validation():
    for bad in (-1, 4, 1.5, True, False):
        with pytest.raises(ValueError):
            fresnel_momenta(1.0, bad)


def test_momenta_phase_limit():
    # orders >= 1 need (pi/2) t^2 in two doubles, which overflows past 1e150
    m = fresnel_momenta(-1e150, 3)
    assert all(math.isfinite(v) for v in m.C + m.S)
    for t in (1.2e150, 1e152, -1.35e154, 1e200):
        with pytest.raises(ValueError, match="1e150"):
            fresnel_momenta(t, 1)


def test_momenta_random_sample_against_quadrature():
    rng = np.random.default_rng(42)
    for t in rng.uniform(-5.0, 5.0, 60):
        m = fresnel_momenta(float(t), 3)
        for k in range(4):
            ck, sk = momenta_reference(float(t), k)
            assert m.C[k] == pytest.approx(ck, abs=1e-11)
            assert m.S[k] == pytest.approx(sk, abs=1e-11)


def test_third_order_recurrence_consistency():
    # index-3 entries come from the recurrence over (C_1, S_1)
    for t in (0.4, 1.3, -2.2, 3.7):
        m = fresnel_momenta(t, 3)
        c3, s3 = momenta_reference(t, 3)
        assert m.C[3] == pytest.approx(c3, abs=1e-11)
        assert m.S[3] == pytest.approx(s3, abs=1e-11)


def test_momenta_odd_even_symmetry():
    # C_k(-t) = (-1)^(k+1) C_k(t), same for S_k
    for t in (0.3, 1.1, 2.9, 4.2):
        mp_ = fresnel_momenta(t, 3)
        mn = fresnel_momenta(-t, 3)
        for k in range(4):
            sign = (-1.0) ** (k + 1)
            assert mn.C[k] == pytest.approx(sign * mp_.C[k], abs=1e-15)
            assert mn.S[k] == pytest.approx(sign * mp_.S[k], abs=1e-15)


def test_momenta_derivative_by_central_differences():
    # d/dt C_k = t^k cos(pi t^2 / 2), d/dt S_k = t^k sin(pi t^2 / 2)
    h = 1e-5
    rng = np.random.default_rng(7)
    for t in rng.uniform(-3.0, 3.0, 25):
        t = float(t)
        mp_ = fresnel_momenta(t + h, 3)
        mn = fresnel_momenta(t - h, 3)
        ph = 0.5 * math.pi * t * t
        for k in range(4):
            dc = (mp_.C[k] - mn.C[k]) / (2.0 * h)
            ds = (mp_.S[k] - mn.S[k]) / (2.0 * h)
            assert dc == pytest.approx(t ** k * math.cos(ph), abs=1e-7)
            assert ds == pytest.approx(t ** k * math.sin(ph), abs=1e-7)
