import math

import numpy as np
import pytest

import clothofit.gfresnel
from clothofit import ClothoidCurve, eval_xy, fresnel
from clothofit.gfresnel import (
    EPSILON_A,
    _series_order,
    eval_xy_a_large,
    eval_xy_a_small,
    eval_xy_a_zero,
    r_lommel,
)

from oracles import lommel_partial_sum, xy_reference, xy_zero_recurrence


# ---------------------------------------------------------------- config

def test_default_config_valid():
    # the order picked at the switch truncates the series below 1e-17
    assert EPSILON_A > 0
    n = 2 * _series_order(EPSILON_A) + 2
    assert (0.5 * EPSILON_A) ** n / math.factorial(n) <= 1e-17


# ---------------------------------------------------------------- Lommel

def test_lommel_single_term():
    assert r_lommel(2.5, 0.5, 0.0) == pytest.approx(1.0 / 12.0, rel=1e-15)


def test_lommel_against_long_sum():
    assert r_lommel(1.5, 1.5, 1.0) == pytest.approx(
        lommel_partial_sum(1.5, 1.5, 1.0, 50), rel=1e-14)
    assert r_lommel(3.5, 0.5, 2.5) == pytest.approx(
        lommel_partial_sum(3.5, 0.5, 2.5, 50), rel=1e-13)


def test_lommel_end_to_end_through_zero_path():
    # the (7/2, 1/2) order pair feeds X_2(0, 2.5)
    X, _ = eval_xy_a_zero(2.5, 2)
    xq, _ = xy_reference(0.0, 2.5, 0.0, 2)
    assert X[2] == pytest.approx(xq, abs=1e-12)


def test_lommel_singular_pair_rejected():
    with pytest.raises(ValueError):
        r_lommel(0.5, 1.5, 1.0)


# ---------------------------------------------------------------- a == 0

def test_zero_path_b_zero():
    X, Y = eval_xy_a_zero(0.0, 2)
    assert X == [1.0, 0.5, 1.0 / 3.0]
    assert Y == [0.0, 0.0, 0.0]


def test_zero_path_b_pi():
    X, Y = eval_xy_a_zero(math.pi, 1)
    assert abs(X[0]) < 1e-15
    assert Y[0] == pytest.approx(2.0 / math.pi, rel=1e-15)


def test_zero_path_against_quadrature():
    for b in (2.4, -3.0, 6.2, 1e-4, 10.0):
        X, Y = eval_xy_a_zero(b, 6)
        for j in range(7):
            xq, yq = xy_reference(0.0, b, 0.0, j)
            assert X[j] == pytest.approx(xq, abs=1e-12), (b, j)
            assert Y[j] == pytest.approx(yq, abs=1e-12), (b, j)


def test_zero_path_high_orders():
    X, Y = eval_xy_a_zero(-4.1, 30)
    for j in (10, 20, 30):
        xq, yq = xy_reference(0.0, -4.1, 0.0, j)
        assert X[j] == pytest.approx(xq, abs=1e-12)
        assert Y[j] == pytest.approx(yq, abs=1e-12)


def test_zero_path_matches_recurrence_for_low_orders():
    # the upward recurrence is usable as an oracle only for small j
    for b in (1.5, -2.5, 3.0):
        X, Y = eval_xy_a_zero(b, 3)
        Xr, Yr = xy_zero_recurrence(b, 3)
        for j in range(4):
            assert X[j] == pytest.approx(Xr[j], abs=1e-10)
            assert Y[j] == pytest.approx(Yr[j], abs=1e-10)


def test_zero_path_taylor_branch():
    # tiny |b|, where (1 - cos b)/b would cancel: the half-angle form
    # of Y_0 keeps full accuracy, and b = 0 is exact
    for b in (1e-4, -3e-4, 0.0):
        X, Y = eval_xy_a_zero(b, 1)
        xq, yq = xy_reference(0.0, b, 0.0, 0)
        assert X[0] == pytest.approx(xq, abs=1e-15)
        assert Y[0] == pytest.approx(yq, abs=1e-15)


# ---------------------------------------------------------------- |a| large

def test_large_path_pure_fresnel_case():
    # a = pi, b = 0 reduces the phase to the plain Fresnel integrand
    X, Y = eval_xy_a_large(math.pi, 0.0, 0.0, 1)
    c1, s1 = fresnel(1.0)
    assert X[0] == c1
    assert Y[0] == s1


@pytest.mark.parametrize("a,b", [(50.0, 3.0), (-50.0, 3.0)])
def test_large_path_against_quadrature(a, b):
    X, Y = eval_xy_a_large(a, b, 0.0, 3)
    for j in range(3):
        xq, yq = xy_reference(a, b, 0.0, j)
        assert X[j] == pytest.approx(xq, abs=1e-11)
        assert Y[j] == pytest.approx(yq, abs=1e-11)


def test_large_path_rejects_zero():
    with pytest.raises(ValueError):
        eval_xy_a_large(0.0, 1.0, 0.0, 2)


def test_square_completion_rejects_zero():
    # The square completion divides by a and takes sigma from its sign;
    # neither zero may slip through as a sign.
    for a in (0.0, -0.0):
        with pytest.raises(ValueError):
            eval_xy_a_large(a, 1.0, 0.0, 1)


# ---------------------------------------------------------------- |a| small

def test_small_path_collapses_to_zero_path_at_a_zero():
    Xz, Yz = eval_xy_a_zero(1.0, 0)
    X, Y = eval_xy_a_small(0.0, 1.0, 1, 5)
    assert X[0] == Xz[0]
    assert Y[0] == Yz[0]


def test_small_path_against_quadrature():
    X, Y = eval_xy_a_small(1e-3, 0.8, 3, 5)
    for j in range(3):
        xq, yq = xy_reference(1e-3, 0.8, 0.0, j)
        assert X[j] == pytest.approx(xq, abs=1e-13)
        assert Y[j] == pytest.approx(yq, abs=1e-13)


def test_small_path_agrees_with_momenta_path():
    # just inside the regime switch both paths must coincide; the momenta
    # path loses (b/a)^3 * eps absolute accuracy as a shrinks, which is
    # exactly why the switch sits at epsilon_a
    a = 0.99 * EPSILON_A
    Xs, Ys = eval_xy_a_small(a, -2.0, 3, 5)
    Xl, Yl = eval_xy_a_large(a, -2.0, 0.0, 3)
    for j in range(3):
        assert Xs[j] == pytest.approx(Xl[j], abs=1e-11)
        assert Ys[j] == pytest.approx(Yl[j], abs=1e-11)


def test_small_path_deep_in_regime_against_quadrature():
    X, Y = eval_xy_a_small(9.9e-3, -2.0, 3, 5)
    for j in range(3):
        xq, yq = xy_reference(9.9e-3, -2.0, 0.0, j)
        assert X[j] == pytest.approx(xq, abs=1e-13)
        assert Y[j] == pytest.approx(yq, abs=1e-13)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_series_builds_only_the_orders_it_needs(monkeypatch, k):
    # orders up to |b| come from the upward recurrence, each order above it
    # from four Lommel sums: a == 0 needs orders 1..k-1, and |a| = 1e-5 one
    # series group, which reads orders up to k + 5
    calls = []

    def counting_r_lommel(mu, nu, b):
        calls.append((mu, nu))
        return r_lommel(mu, nu, b)

    monkeypatch.setattr(clothofit.gfresnel, "r_lommel", counting_r_lommel)
    for b, at_zero, at_small in ((2.3, 0, 4 * (k + 3)), (0.5, 4 * (k - 1), 4 * (k + 5))):
        del calls[:]
        eval_xy(0.0, b, 0.4, k)
        assert len(calls) == at_zero, b
        del calls[:]
        eval_xy(1e-5, b, 0.4, k)
        assert len(calls) == at_small, b


def _largest_abs_a_of_order(p):
    # first omitted factor (a/2)^(2p+2)/(2p+2)! == 1e-17, then to the last
    # double that still gets order p
    n = 2 * p + 2
    a = 2.0 * (1e-17 * math.factorial(n)) ** (1.0 / n)
    while _series_order(a) > p:
        a = math.nextafter(a, 0.0)
    while _series_order(math.nextafter(a, math.inf)) == p:
        a = math.nextafter(a, math.inf)
    return a


def test_series_orders_against_mpmath():
    # every series order at its largest |a|, where its truncation is
    # worst, plus a = 0 and the regime switch; the two tiny b are where
    # (1 - cos b)/b loses digits to cancellation
    mpmath = pytest.importorskip("mpmath")
    edges = [_largest_abs_a_of_order(p) for p in (1, 2, 3)]
    edge = 0.9999 * EPSILON_A
    assert _series_order(edge) == 4
    a_values = [0.0] + [s * a for a in edges + [edge] for s in (1.0, -1.0)]
    with mpmath.workdps(30):
        for a in a_values:
            for b in (-2.0 * math.pi, -2.5, -2e-3, 1.25e-3, 0.7, 3.1, 2.0 * math.pi):
                X, Y = eval_xy(a, b, 0.0, 3)
                for j in range(3):
                    ref = mpmath.quad(
                        lambda t: t ** j * mpmath.expj(a / 2 * t * t + b * t),
                        [0, 1])
                    assert X[j] == pytest.approx(float(ref.real), abs=1e-14), (a, b, j)
                    assert Y[j] == pytest.approx(float(ref.imag), abs=1e-14), (a, b, j)


def test_large_b_against_mpmath():
    # |b| up to 100 on the a = 0 and small-|a| paths: orders up to |b| come
    # from the upward recurrence, those above it from the Lommel sums, so
    # b = 2 -+ 1e-9 and 7.0 sit where the split moves
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        for a in (0.0, 1e-5, -1e-5, 0.1, -0.1):
            for b in (100.0, -100.0, -57.3, 30.0, -30.0, 15.0, 3.3, 0.7,
                      2.0 - 1e-9, 2.0 + 1e-9, 7.0):
                X, Y = eval_xy(a, b, 0.3, 3)
                ha, mb, mc = mpmath.mpf(a) / 2, mpmath.mpf(b), mpmath.mpf(0.3)
                for j in range(3):
                    ref = mpmath.quad(
                        lambda t: t ** j * mpmath.expj((ha * t + mb) * t + mc),
                        [0, 1], method="gauss-legendre")
                    assert abs(X[j] - ref.real) <= 1e-14, (a, b, j)
                    assert abs(Y[j] - ref.imag) <= 1e-14, (a, b, j)


# ---------------------------------------------------------------- dispatch

def test_eval_xy_trivial_cases():
    X, Y = eval_xy(0.0, 0.0, 0.0, 1)
    assert X == [1.0]
    assert Y == [0.0]
    X, Y = eval_xy(0.0, 0.0, 0.5 * math.pi, 1)
    assert abs(X[0]) < 1e-15
    assert Y[0] == pytest.approx(1.0, rel=1e-15)


def test_eval_xy_against_quadrature():
    X, Y = eval_xy(1.3, -0.7, 0.4, 3)
    for j in range(3):
        xq, yq = xy_reference(1.3, -0.7, 0.4, j)
        assert X[j] == pytest.approx(xq, abs=1e-11)
        assert Y[j] == pytest.approx(yq, abs=1e-11)


def test_eval_xy_validation():
    with pytest.raises(ValueError):
        eval_xy(math.nan, 0.0, 0.0, 1)
    with pytest.raises(ValueError):
        eval_xy(0.0, math.inf, 0.0, 1)
    for bad_k in (0, 4, 2.0, True):
        with pytest.raises(ValueError):
            eval_xy(1.0, 1.0, 1.0, bad_k)


def test_large_path_phase_limit():
    # the completed square and the momenta both need a phase that fits in
    # doubles; past 1e150 a ValueError names the limit (no math domain error
    # or NaN)
    for call in (lambda: eval_xy(0.2, 1e160, 0.0, 2),
                 lambda: eval_xy(0.2, 1e150, 0.0, 2),
                 lambda: ClothoidCurve(0.0, 0.0, 0.0, 1e160, 1.0, 1.0).point_at(1.0)):
        with pytest.raises(ValueError, match=r"1e\+?150"):
            call()
    X, Y = eval_xy(0.2, 1e149, 0.0, 3)
    assert all(math.isfinite(v) for v in X + Y)


def test_rotation_identity():
    # c up to 1e16 as well: math.cos/sin reduce any finite c exactly, so
    # eval_xy must never round c together with another angle
    rng = np.random.default_rng(11)
    for i in range(140):
        a = float(rng.uniform(-60.0, 60.0))
        b = float(rng.uniform(-6.0, 6.0))
        if i < 100:
            c = float(rng.uniform(-math.pi, math.pi))
        else:
            c = float(rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(6.0, 16.0))
        X0, Y0 = eval_xy(a, b, 0.0, 3)
        X, Y = eval_xy(a, b, c, 3)
        cc, sc = math.cos(c), math.sin(c)
        for j in range(3):
            assert X[j] == pytest.approx(X0[j] * cc - Y0[j] * sc, abs=1e-15)
            assert Y[j] == pytest.approx(X0[j] * sc + Y0[j] * cc, abs=1e-15)


def test_folded_phase_against_mpmath():
    # the large-|a| path turns by e^{i eta} e^{i c} instead of rotating the
    # c = 0 result; hold every entry to 30-digit quadrature
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(7)
    with mpmath.workdps(30):
        for _ in range(12):
            a = float(rng.choice((-1.0, 1.0)) * rng.uniform(1.0, 100.0))
            b = float(rng.uniform(-20.0, 20.0))
            c = float(rng.uniform(-math.pi, math.pi))
            X, Y = eval_xy(a, b, c, 3)
            for j in range(3):
                ref = mpmath.quad(
                    lambda t: t ** j * mpmath.expj(a / 2 * t * t + b * t + c),
                    mpmath.linspace(0, 1, 5), method="gauss-legendre")
                assert abs(X[j] - ref.real) <= 1e-13, (a, b, c, j)
                assert abs(Y[j] - ref.imag) <= 1e-13, (a, b, c, j)


def test_random_sample_against_quadrature_and_bound():
    rng = np.random.default_rng(19)
    for _ in range(200):
        a = float(rng.uniform(-100.0, 100.0))
        b = float(rng.uniform(-10.0, 10.0))
        c = float(rng.uniform(-math.pi, math.pi))
        k = int(rng.integers(1, 4))
        X, Y = eval_xy(a, b, c, k)
        for j in range(k):
            xq, yq = xy_reference(a, b, c, j)
            assert X[j] == pytest.approx(xq, abs=1e-10), (a, b, c, j)
            assert Y[j] == pytest.approx(yq, abs=1e-10), (a, b, c, j)
            assert abs(X[j]) <= 1.0 / (j + 1) + 1e-14
            assert abs(Y[j]) <= 1.0 / (j + 1) + 1e-14


def test_regime_continuity_at_threshold():
    eps = EPSILON_A
    rng = np.random.default_rng(23)
    for factor in (1.0 - 1e-3, 1.0 + 1e-3):
        for _ in range(100):
            a = math.copysign(eps * factor, rng.uniform(-1.0, 1.0))
            b = float(rng.uniform(-2.0 * math.pi, 2.0 * math.pi))
            Xs, Ys = eval_xy_a_small(a, b, 3, _series_order(a))
            Xl, Yl = eval_xy_a_large(a, b, 0.0, 3)
            for j in range(3):
                assert Xs[j] == pytest.approx(Xl[j], abs=1e-10)
                assert Ys[j] == pytest.approx(Yl[j], abs=1e-10)
