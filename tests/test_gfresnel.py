import math
import re

import numpy as np
import pytest

import clothofit.gfresnel
from clothofit import (ClothoidCurve, HermiteData, build_clothoid, cli, eval_xy, fitter,
                       fresnel)
from clothofit.gfresnel import (
    EPSILON_A,
    _series_order,
    eval_xy_a_large,
    eval_xy_a_small,
    eval_xy_a_zero,
    r_lommel,
)

from oracles import (lommel_partial_sum, lommel_relative_stop, moments_mpmath, xy_reference,
                     xy_zero_recurrence)


# ---------------------------------------------------------------- switch

def test_series_order_at_the_switch():
    # the order picked at the switch truncates the series below 1e-17
    assert EPSILON_A > 0
    n = 2 * _series_order(EPSILON_A) + 2
    assert (0.5 * EPSILON_A) ** n / math.factorial(n) <= 1e-17


# ---------------------------------------------------------------- Lommel

def test_lommel_single_term():
    # at b = 0 only the first term, 1/(n+1), is left, exactly rounded
    for n in range(1, 41):
        for b in (0.0, -0.0):
            assert r_lommel(n, b) == complex(1.0 / (n + 1), 0.0), (n, b)


def test_lommel_against_long_sum():
    # K_n(b) = n w_{n-1/2,1/2}(b) - i b w_{n+1/2,1/2}(b): its even and odd
    # terms are the two reduced Lommel series, summed here term by term
    for n, b in ((1, 0.9), (2, -1.0), (3, 2.5), (10, -7.3), (25, 24.0)):
        ref = complex(n * lommel_partial_sum(n - 0.5, 0.5, b, 80),
                      -b * lommel_partial_sum(n + 0.5, 0.5, b, 80))
        assert r_lommel(n, b) == pytest.approx(ref, rel=1e-14), (n, b)


def test_lommel_against_mpmath():
    # K_n(b) = 1F1(1; n+2; -ib)/(n+1) to 30 digits, for every order up to
    # 40 and |b| up to just below n, where the terms shrink most slowly
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(32)
    with mpmath.workdps(30):
        for n in range(1, 41):
            bs = [(1.0 - 2.0 ** -40) * n, -math.nextafter(n, 0.0), 1e-3]
            bs += [float(b) for b in n * rng.uniform(-1.0, 1.0, 8)]
            for b in bs:
                K = r_lommel(n, b)
                ref = mpmath.hyp1f1(1, n + 2, mpmath.mpc(0, -b)) / (n + 1)
                assert abs(K.real - ref.real) <= 2.5e-16, (n, b)
                assert abs(K.imag - ref.imag) <= 2.5e-16, (n, b)


def test_lommel_end_to_end_through_zero_path():
    # at b = 2.5 order 3 is the first above |b|: r_lommel(3, 2.5) seeds it
    I = eval_xy_a_zero(2.5, 3)
    xq, yq = xy_reference(0.0, 2.5, 0.0, 3)
    assert I[3].real == pytest.approx(xq, abs=1e-12)
    assert I[3].imag == pytest.approx(yq, abs=1e-12)


@pytest.mark.parametrize("n, b", [(0, 0.0), (-1, 0.5), (2.0, 1.0), (True, 0.5), (3, 3.0),
                                  (3, -3.0), (1, 1e3), (11, 2000.0), (3, math.inf),
                                  (3, -math.inf), (3, math.nan)])
def test_lommel_rejects_outside_its_range(n, b):
    # one check: n an int >= 1 and |b| < n, which NaN and inf fail; inside
    # it every term is smaller than the one before, so the sum is finite
    with pytest.raises(ValueError, match=r"^r_lommel: needs an int n >= 1 and \|b\| < n, "
                       r"got %s, %s$" % (re.escape(repr(n)), re.escape(repr(b)))):
        r_lommel(n, b)


def _hex_pair(z):
    return z.real.hex(), z.imag.hex()


def test_lommel_stops_where_the_relative_rule_did():
    # r_lommel stops at the first step that leaves both halves unchanged;
    # the former rule added terms until each fell to 1e-17 of its sum.
    # The terms keep shrinking past the stop, and both return the same
    # doubles, signed zeros included
    rng = np.random.default_rng(30)
    for n in range(1, 41):
        bs = [0.0, -0.0, 5e-324, -5e-324, -1e-300, 1e-9, -1e-4]
        bs += [float(b) for b in n * rng.uniform(-1.0, 1.0, 100)]
        for b in bs:
            assert _hex_pair(r_lommel(n, b)) == _hex_pair(lommel_relative_stop(n, b)), (n, b)


# ---------------------------------------------------------------- a == 0

def test_zero_path_b_zero(monkeypatch):
    I = eval_xy_a_zero(0.0, 2)
    assert [v.real for v in I] == [1.0, 0.5, 1.0 / 3.0]
    assert [v.imag for v in I] == [0.0, 0.0, 0.0]
    # I_j(0, 0) = 1/(j+1), exactly rounded at every order and either sign
    # of zero, with no Kummer seed
    calls = []
    real_r_lommel = clothofit.gfresnel.r_lommel

    def recording(n, b):
        calls.append((n, b))
        return real_r_lommel(n, b)

    monkeypatch.setattr(clothofit.gfresnel, "r_lommel", recording)
    for b in (0.0, -0.0):
        for k in range(200):
            I = eval_xy_a_zero(b, k)
            assert I == [complex(1.0 / (j + 1), 0.0) for j in range(k + 1)], (b, k)
    assert calls == []


def test_zero_path_b_pi():
    I = eval_xy_a_zero(math.pi, 1)
    assert abs(I[0].real) < 1e-15
    assert I[0].imag == pytest.approx(2.0 / math.pi, rel=1e-15)


def test_zero_path_against_quadrature():
    for b in (2.4, -3.0, 6.2, 1e-4, 10.0):
        I = eval_xy_a_zero(b, 6)
        for j in range(7):
            xq, yq = xy_reference(0.0, b, 0.0, j)
            assert I[j].real == pytest.approx(xq, abs=1e-12), (b, j)
            assert I[j].imag == pytest.approx(yq, abs=1e-12), (b, j)


def test_zero_path_high_orders():
    # the last two seed their top order just above |b|, where its sums
    # converge most slowly
    for b, k in ((-4.1, 30), (39.999, 40), (-99.999, 100)):
        I = eval_xy_a_zero(b, k)
        for j in (k // 3, 2 * k // 3, k):
            xq, yq = xy_reference(0.0, b, 0.0, j)
            assert I[j].real == pytest.approx(xq, abs=1e-12), (b, j)
            assert I[j].imag == pytest.approx(yq, abs=1e-12), (b, j)


def test_zero_path_downward_chain_against_mpmath():
    # orders above |b| come from the top order's Lommel seed and the
    # downward recurrence; hold all 21 orders to 30-digit quadrature, on
    # both sides of the split at |b| = 2 and 20 and far from it.  One
    # 96-node Gauss-Legendre rule integrates every order (it agrees with
    # the 192-node rule to 1e-30 up to |b| = 100)
    mpmath = pytest.importorskip("mpmath")
    from mpmath.calculus.quadrature import GaussLegendre
    with mpmath.workdps(30):
        rule = GaussLegendre(mpmath.mp).get_nodes(0, 1, 6, mpmath.mp.prec)
        for b in (0.0, 1e-9, -0.7, 0.999, 2.0 - 1e-9, 2.0 + 1e-9, 7.0, -14.986,
                  19.99, 20.01, -57.3, 100.0):
            I = eval_xy_a_zero(b, 20)
            weighted = [w * mpmath.expj(b * t) for t, w in rule]
            for j in range(21):
                ref = mpmath.fsum(f * t ** j for (t, _), f in zip(rule, weighted))
                assert abs(I[j].real - ref.real) <= 1e-15, (b, j)
                assert abs(I[j].imag - ref.imag) <= 1e-15, (b, j)


def test_zero_path_matches_recurrence_for_low_orders():
    # the upward recurrence is usable as an oracle only for small j
    for b in (1.5, -2.5, 3.0):
        I = eval_xy_a_zero(b, 3)
        Xr, Yr = xy_zero_recurrence(b, 3)
        for j in range(4):
            assert I[j].real == pytest.approx(Xr[j], abs=1e-10)
            assert I[j].imag == pytest.approx(Yr[j], abs=1e-10)


def test_zero_path_taylor_branch():
    # tiny |b|, where (1 - cos b)/b would cancel: the half-angle form
    # of Y_0 keeps full accuracy, and b = 0 is exact
    for b in (1e-4, -3e-4, 0.0):
        I = eval_xy_a_zero(b, 1)
        xq, yq = xy_reference(0.0, b, 0.0, 0)
        assert I[0].real == pytest.approx(xq, abs=1e-15)
        assert I[0].imag == pytest.approx(yq, abs=1e-15)


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
    Iz = eval_xy_a_zero(1.0, 0)
    X, Y = eval_xy_a_small(0.0, 1.0, 0.0, 1, 5)
    assert X[0] == Iz[0].real
    assert Y[0] == Iz[0].imag


def test_small_path_against_quadrature():
    X, Y = eval_xy_a_small(1e-3, 0.8, 0.0, 3, 5)
    for j in range(3):
        xq, yq = xy_reference(1e-3, 0.8, 0.0, j)
        assert X[j] == pytest.approx(xq, abs=1e-13)
        assert Y[j] == pytest.approx(yq, abs=1e-13)


def test_small_path_agrees_with_momenta_path():
    # just inside the regime switch both paths must coincide; the momenta
    # path loses (b/a)^3 * eps absolute accuracy as a shrinks, which is
    # exactly why the switch sits at epsilon_a
    a = 0.99 * EPSILON_A
    Xs, Ys = eval_xy_a_small(a, -2.0, 0.0, 3, 5)
    Xl, Yl = eval_xy_a_large(a, -2.0, 0.0, 3)
    for j in range(3):
        assert Xs[j] == pytest.approx(Xl[j], abs=1e-11)
        assert Ys[j] == pytest.approx(Yl[j], abs=1e-11)


def test_small_path_deep_in_regime_against_quadrature():
    X, Y = eval_xy_a_small(9.9e-3, -2.0, 0.0, 3, 5)
    for j in range(3):
        xq, yq = xy_reference(9.9e-3, -2.0, 0.0, j)
        assert X[j] == pytest.approx(xq, abs=1e-13)
        assert Y[j] == pytest.approx(yq, abs=1e-13)


@pytest.mark.parametrize("k", [1, 2, 5])
def test_series_builds_only_the_orders_it_needs(monkeypatch, k):
    # orders up to |b| come from the upward recurrence, those above it from
    # the downward recurrence seeded by one Kummer sum at the top order
    # read: 0 at k = 1 and 4 for every k >= 2 at a == 0, and 4p + 2 = 6
    # or 4p + 6 = 10 at |a| = 1e-5 (p = 1)
    calls = []

    def counting_r_lommel(n, b):
        calls.append(n)
        return r_lommel(n, b)

    monkeypatch.setattr(clothofit.gfresnel, "r_lommel", counting_r_lommel)
    for b in (2.3, 0.5):
        for a, top in ((0.0, 0 if k == 1 else 4), (1e-5, 6 if k == 1 else 10)):
            del calls[:]
            eval_xy(a, b, 0.4, k)
            assert calls == ([top] if top > int(abs(b)) else []), (a, b)


def test_series_sums_exactly_2p_plus_2_terms():
    # at |a| = 1 even the first omitted term is far above rounding, so a
    # loop with one term too few or too many misses the truncated sum
    # sum_{m=0}^{2p+1} (ia/2)^m/m! I_{j+2m}(0, b), turned by e^{ic}, with
    # I_n(0, b) = 1F1(n+1; n+2; ib)/(n+1); k = 1 sums order 0 alone, and
    # every k >= 2 all five, of which it returns the first k
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        for p in (1, 2, 4):
            for a in (1.0, -1.0):
                for b in (-2.5, 0.7, 3.1):
                    refs = [mpmath.expj(0.4) * mpmath.fsum(
                        mpmath.mpc(0, a / 2) ** m / mpmath.factorial(m)
                        * mpmath.hyp1f1(j + 2 * m + 1, j + 2 * m + 2, 1j * b)
                        / (j + 2 * m + 1)
                        for m in range(2 * p + 2)) for j in range(5)]
                    for k in (1, 2, 3, 4, 5):
                        X, Y = eval_xy_a_small(a, b, 0.4, k, p)
                        assert len(X) == len(Y) == k
                        for j, ref in enumerate(refs[:k]):
                            case = (p, a, b, k, j)
                            assert X[j] == pytest.approx(float(ref.real), abs=1e-15), case
                            assert Y[j] == pytest.approx(float(ref.imag), abs=1e-15), case


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
    for bad_k in (0, 6, 2.0, True):
        with pytest.raises(ValueError):
            eval_xy(1.0, 1.0, 1.0, bad_k)
    for bad in (math.nan, math.inf, -math.inf):
        for args in ((bad, 0.5, 0.3), (0.01, bad, 0.3), (0.01, 0.5, bad)):
            with pytest.raises(ValueError, match="^eval_xy: a, b, c must be finite"):
                eval_xy(*args, 5)
    # the largest magnitudes pass the check wherever the other limits allow
    # them: b on the series path, a at k = 1 with a small b, c everywhere,
    # also where a + b + c would overflow
    big = 1e308
    for s in (1.0, -1.0):
        cases = [(s * big, 0.7, 0.3, 1), (s * big, 0.0, s * big, 1)]
        cases += [(a, s * big, c, k) for a in (0.0, 1e-3) for c in (0.3, s * big)
                  for k in (1, 5)]
        cases += [(a, 0.7, s * big, k) for a in (0.0, 1e-3, 0.5) for k in (1, 5)]
        for a, b, c, k in cases:
            X, Y = eval_xy(a, b, c, k)
            assert len(X) == len(Y) == k
            assert all(math.isfinite(v) for v in X + Y), (a, b, c, k)


def test_orders_3_and_4_against_mpmath(monkeypatch):
    # the solver reads g'' and h'' from J2 = I_4 - 2 I_3 + I_2 of one k = 5
    # call: orders 3 and 4 within 1e-8 and J2 within 1e-6 relative of
    # 30-digit mpmath, at the points fits visit (generic poses from the
    # default and linear guesses, near-line and near-circle poses), on
    # both sides of the switch, and at a = 0; there every k = 2..4 call
    # is that k = 5 call cut to k entries
    pytest.importorskip("mpmath")
    visited = []
    real = fitter.eval_xy
    monkeypatch.setattr(fitter, "eval_xy",
                        lambda a, b, c, k: visited.append((a, b, c)) or real(a, b, c, k))
    rng = np.random.default_rng(61)
    lim = 0.9999 * math.pi
    for guess in ("surface", "linear"):
        for phi0, phi1 in rng.uniform(-lim, lim, size=(10, 2)):
            build_clothoid(HermiteData(0.0, 0.0, float(phi0), 1.0, 0.0, float(phi1)), guess)
    for k in (2, 5, 9):
        build_clothoid(HermiteData(*cli.bench_near_line_case(k)))
        build_clothoid(HermiteData(*cli.bench_near_circle_case(k)))
    switch = [(float(s * EPSILON_A * f), float(rng.uniform(-2.0, 2.0) * math.pi),
               float(rng.uniform(-math.pi, math.pi)))
              for s in (1.0, -1.0) for f in (0.98, 0.995, 1.0, 1.005, 1.02)]
    zero = [(0.0, 0.0, 0.3), (-0.0, -0.0, -2.0), (0.0, 1e-7, 0.3), (0.0, 0.7, 1.1),
            (0.0, -1.0, 0.2), (0.0, -1.9, -0.4), (0.0, 2.5, -1.3), (0.0, 3.5, 0.0),
            (0.0, -30.0, 2.5)]
    cases = visited + switch + zero
    assert any(abs(a) < EPSILON_A for a, _, _ in visited)
    for a, b, c in cases:
        X, Y = eval_xy(a, b, c, 5)
        ref = moments_mpmath(a, b, c, 5)
        assert len(X) == len(Y) == 5
        for j in (3, 4):
            assert abs(X[j] - ref[j].real) <= 1e-8, (a, b, c, j)
            assert abs(Y[j] - ref[j].imag) <= 1e-8, (a, b, c, j)
        J2 = complex(X[4] - 2.0 * X[3] + X[2], Y[4] - 2.0 * Y[3] + Y[2])
        J2_ref = complex(ref[4] - 2 * ref[3] + ref[2])
        assert abs(J2 - J2_ref) <= 1e-6 * abs(J2_ref), (a, b, c)
        # every k >= 2 returns the first k entries of the k = 5 call, bit
        # for bit (signed zeros too), on both paths and at a = 0
        for k in (2, 3, 4):
            Xk, Yk = eval_xy(a, b, c, k)
            assert ([v.hex() for v in Xk + Yk]
                    == [v.hex() for v in X[:k] + Y[:k]]), (a, b, c, k)


def test_large_path_phase_limit():
    # the completed square and the momenta both need a phase that fits in
    # doubles; past 1e150 a ValueError names the limit (no math domain error
    # or NaN).  eval_xy and a curve's points short of s = L share one
    # square, so the check holds for both signs of a and kappa_prime, at
    # the curve's end (eval_xy) and before it (the curve's square) alike
    for call in (lambda: eval_xy(0.2, 1e160, 0.0, 2),
                 lambda: eval_xy(0.2, 1e150, 0.0, 2),
                 lambda: eval_xy(-0.2, 1e160, 0.0, 1),
                 lambda: eval_xy(-0.2, -1e160, 0.0, 2),
                 lambda: ClothoidCurve(0.0, 0.0, 0.0, 1e160, 1.0, 1.0).point_at(1.0),
                 lambda: ClothoidCurve(0.0, 0.0, 0.0, 1e160, -1.0, 1.0).point_at(1.0),
                 lambda: ClothoidCurve(0.0, 0.0, 0.0, 1e160, 1.0, 1.0).point_at(0.1),
                 lambda: ClothoidCurve(0.0, 0.0, 0.0, -1e160, -1.0, 1.0).point_at(0.1)):
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
            Xs, Ys = eval_xy_a_small(a, b, 0.0, 3, _series_order(a))
            Xl, Yl = eval_xy_a_large(a, b, 0.0, 3)
            for j in range(3):
                assert Xs[j] == pytest.approx(Xl[j], abs=1e-10)
                assert Ys[j] == pytest.approx(Yl[j], abs=1e-10)
