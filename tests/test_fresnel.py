import importlib
import math
import sys

import numpy as np
import pytest
import scipy.special

from clothofit import fresnel


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
    # C and S need no phase, so arguments whose square overflows still work
    for t in (1e200, sys.float_info.max):
        assert fresnel(t) == (0.5, 0.5)
        assert fresnel(-t) == (-0.5, -0.5)
    c, s = fresnel(500.0)
    assert c == pytest.approx(0.5, abs=1e-3)
    assert s == pytest.approx(0.5, abs=1e-3)
    # below the phase limit the oscillation about 1/2, of amplitude
    # 1/(pi t), is still far above the rounding of 1/2 itself: plain 1/2
    # errs by 3.2e-15 at 1e14, the asymptotic form by 2e-17
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        for t in (1.0000001e14, 1.7e14, 3e14, 1e15, 1e16):
            for arg in (t, -t):
                c, s = fresnel(arg)
                tm = mpmath.mpf(arg)
                assert abs(c - mpmath.fresnelc(tm)) <= 1e-16, arg
                assert abs(s - mpmath.fresnels(tm)) <= 1e-16, arg


def test_non_finite_rejected():
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError):
            fresnel(bad)


def test_accuracy_against_scipy():
    # scipy.special.fresnel returns (S, C) in the same normalization;
    # an independent implementation, so agreement pins both.
    ts = np.concatenate([
        np.linspace(1e-3, 10.0, 797),
        [1.0, 1.0000000001, 0.9999999999],   # switch between the series pieces
        [1.6, 1.6000000001, 1.5999999999],   # series/asymptotic switch
    ])
    for t in ts:
        c, s = fresnel(float(t))
        sr, cr = scipy.special.fresnel(t)
        assert c == pytest.approx(cr, rel=1e-14, abs=1e-16)
        assert s == pytest.approx(sr, rel=1e-14, abs=1e-16)


def test_accuracy_against_mpmath():
    # 30-digit oracle at kernel precision, weighted to both sides of the
    # switch between the series pieces at 1 and of the series/asymptotic
    # switch at 1.6
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    rng = np.random.default_rng(1305)
    ts = np.concatenate([10.0 ** rng.uniform(-3.0, 1.0, 200), rng.uniform(0.9, 1.1, 100),
                         rng.uniform(1.4, 1.6, 100), rng.uniform(1.6, 1.8, 100)])
    for t in ts:
        t = float(t)
        tm = mpmath.mpf(t)
        cr, sr = mpmath.fresnelc(tm), mpmath.fresnels(tm)
        c, s = fresnel(t)
        assert abs(c - cr) <= 2e-15 * abs(cr)
        assert abs(s - sr) <= 2e-15 * abs(sr)


def test_kernel_phase_against_mpmath():
    # the large-|a| path of eval_xy forms its orders 1 and 2 from the sin u
    # and cos u, u = (pi/2) t^2, that the kernel returns beside C and S.
    # Past |t| = 1e8 the double-double pi/2 costs ~6e-33 t^2 of phase
    mpmath = pytest.importorskip("mpmath")
    core = importlib.import_module("clothofit.fresnel")._fresnel_core
    rng = np.random.default_rng(1306)
    ts = np.concatenate([10.0 ** rng.uniform(-3.0, 8.0, 300),
                         rng.uniform(1.4, 1.8, 100), [1e-3, 1.6, 1e8]])
    with mpmath.workdps(40):
        for t in np.concatenate([ts, -ts]):
            t = float(t)
            u = mpmath.pi / 2 * mpmath.mpf(t) ** 2
            _, _, sin_u, cos_u = core(t)
            assert abs(sin_u - mpmath.sin(u)) <= 1e-15, t
            assert abs(cos_u - mpmath.cos(u)) <= 1e-15, t
    # the phase fits in two doubles up to |t| = 1e150 and is None past it
    for t in (1e150, -1e150):
        assert all(math.isfinite(v) for v in core(t))
    for t in (math.nextafter(1e150, math.inf), -math.nextafter(1e150, math.inf), 1e200):
        assert core(t)[2:] == (None, None), t


# the series pieces: each table, the number of its Chebyshev nodes and the
# |t| range it serves
SERIES_PIECES = (("_CS_SS_UNIT", 8, 0.0, "1"), ("_CS_SS", 12, 1.0, "1.6"))


def _check_series_table(mpmath, table, n, t_max):
    """The stored pairs are the Chebyshev interpolants at n first-kind nodes
    on w = u^2 in [0, ((pi/2) t_max^2)^2] of the Maclaurin series of C/t and
    S/(t u), solved in 50 digits and rounded to doubles, within 2 ulp."""
    assert len(table) == n
    with mpmath.workdps(50):
        w_max = (mpmath.pi / 2 * mpmath.mpf(t_max) ** 2) ** 2
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
                assert abs(stored - ref) <= 2 * math.ulp(ref), (t_max, col, i, stored, ref)


def test_series_tables_regenerate_from_mpmath():
    # both pieces: 8 nodes up to t = 1, 12 up to t = 1.6
    mpmath = pytest.importorskip("mpmath")
    kernel = importlib.import_module("clothofit.fresnel")
    for name, n, _, t_max in SERIES_PIECES:
        _check_series_table(mpmath, getattr(kernel, name), n, t_max)


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
    # the step from t to the next double across each switch, less the
    # integrals' own change cos u dt and sin u dt over it: at t = 1, where
    # S' = 1, that change alone is 4 ulp of S
    for t in (1.0, 1.6):
        dt = math.nextafter(t, 2.0) - t
        u = 0.5 * math.pi * t * t
        below = fresnel(t)
        above = fresnel(t + dt)
        for lo, hi, slope in zip(below, above, (math.cos(u), math.sin(u))):
            assert abs(hi - lo - slope * dt) <= 4 * math.ulp(lo), (t, below, above)


def test_series_branch_matches_a_horner_loop_over_the_table():
    # on each piece, lo < |t| <= hi, the unrolled sums must equal a plain
    # Horner loop over that piece's table, the one
    # test_series_tables_regenerate_from_mpmath checks, bit for bit
    kernel = importlib.import_module("clothofit.fresnel")
    rng = np.random.default_rng(1601)
    for name, _, lo, hi in SERIES_PIECES:
        hi = float(hi)
        ts = rng.uniform(lo, hi, 2000) * rng.choice([-1.0, 1.0], 2000)
        for t in np.concatenate([ts, [hi, -hi]]).tolist():
            x = abs(t)
            if not lo < x <= hi:
                continue
            u = 0.5 * math.pi * x * x
            w = u * u
            cc = sv = 0.0
            for p, q in getattr(kernel, name):
                cc = cc * w + p
                sv = sv * w + q
            ref = (cc * x, sv * (x * u))
            if t < 0.0:
                ref = (-ref[0], -ref[1])
            assert fresnel(t) == ref, (name, t)


def test_asymptotic_branch_matches_separate_horner_sums():
    # the unrolled sums must equal four plain Horner sums over the Cephes
    # tables bit for bit
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
