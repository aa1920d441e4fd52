"""Independent reference computations used by the test suite.

Everything here deliberately avoids the library's own evaluation paths:
adaptive (scipy) and 30-digit Gauss-Legendre (mpmath) quadrature of the
defining integrals, 40-digit mpmath Fresnel integrals, the reduced Lommel
series (the two halves of Kummer's sum) as long partial sums with
explicitly built coefficient products, Kummer's sum under the former
relative stop rule, the (unstable) upward recurrence for the
zero-quadratic-phase integrals, and plain bisection for roots.
The exceptions are g_eval and h_eval: k = 1 evaluations of g and h
through `eval_xy`, where the fitter reads both from one k = 5 evaluation.
"""

import math
import warnings

from scipy.integrate import IntegrationWarning, quad

from clothofit import eval_xy


def quad_tight(f, lo, hi):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        value, _ = quad(f, lo, hi, epsabs=1e-14, epsrel=1e-14, limit=500)
    return value


def xy_reference(a, b, c, j):
    """X_j(a, b, c), Y_j(a, b, c) by adaptive quadrature."""
    x = quad_tight(lambda t: t ** j * math.cos(0.5 * a * t * t + b * t + c), 0.0, 1.0)
    y = quad_tight(lambda t: t ** j * math.sin(0.5 * a * t * t + b * t + c), 0.0, 1.0)
    return x, y


def g_eval(A, rp):
    """Transverse closure defect g(A) = Y_0(2A, delta - A, phi0)."""
    return eval_xy(2.0 * A, rp.delta - A, rp.phi0, 1)[1][0]


def h_eval(A, rp):
    """Chord-aligned projection h(A) = X_0(2A, delta - A, phi0)."""
    return eval_xy(2.0 * A, rp.delta - A, rp.phi0, 1)[0][0]


def lommel_partial_sum(mu, nu, b, n_terms=50):
    """Reduced Lommel series summed term by term from explicit products."""
    total = 0.0
    for n in range(n_terms):
        alpha = 1.0
        for m in range(1, n + 2):
            alpha *= (mu + 2 * m - 1) ** 2 - nu ** 2
        total += (-b * b) ** n / alpha
    return total


def lommel_relative_stop(n, b, rel_tol=1e-17):
    """Kummer's sum K_n(b) = sum_m (-ib)^m / (n+1)_{m+1} by `r_lommel`'s
    recurrences, each half (the real even terms, the imaginary odd ones)
    summed on its own until a term is at most rel_tol of its partial sum:
    the stop rule the two Lommel sums had before they stopped at the first
    term that leaves the sum unchanged.  For n >= 1 and |b| < n."""
    nb2 = -(b * b)
    halves = []
    # the real half steps by -b^2/(d (d+1)), the imaginary by
    # -b^2/((d+1)(d+2)), d = n + 2, n + 4, ...
    for first, d in ((1.0 / (n + 1), n + 2.0), (-b / ((n + 1) * (n + 2)), n + 3.0)):
        term = total = first
        while abs(term) > rel_tol * abs(total):
            term *= nb2 / (d * (d + 1.0))
            total += term
            d += 2.0
        halves.append(total)
    return complex(*halves)


def xy_zero_recurrence(b, k):
    """X_j(0, b), Y_j(0, b) for j = 0..k via the upward recurrence.

    Accurate only for small j and |b| not tiny; kept as a cross-check of
    the Lommel-based path, never used in production.
    """
    if b == 0.0:
        raise ValueError("recurrence needs b != 0")
    X = [math.sin(b) / b]
    Y = [(1.0 - math.cos(b)) / b]
    for j in range(1, k + 1):
        X.append((math.sin(b) - j * Y[j - 1]) / b)
        Y.append((j * X[j - 1] - math.cos(b)) / b)
    return X, Y


def clothoid_position_reference(x0, y0, theta0, kappa, kappa_prime, s):
    """Curve point by quadrature of the defining arc-length integrals."""
    x = x0 + quad_tight(
        lambda u: math.cos(theta0 + kappa * u + 0.5 * kappa_prime * u * u), 0.0, s)
    y = y0 + quad_tight(
        lambda u: math.sin(theta0 + kappa * u + 0.5 * kappa_prime * u * u), 0.0, s)
    return x, y


def bisection_root(g, lo, hi, seed, n_scan=512, width=1e-13):
    """Root of g by bisection on the sign-changing subinterval nearest seed."""
    step = (hi - lo) / n_scan
    best = None
    prev_a = lo
    prev_g = g(prev_a)
    for i in range(1, n_scan + 1):
        cur_a = lo + i * step
        cur_g = g(cur_a)
        if prev_g == 0.0:
            return prev_a
        if prev_g * cur_g < 0.0:
            mid = 0.5 * (prev_a + cur_a)
            if best is None or abs(mid - seed) < abs(0.5 * (best[0] + best[1]) - seed):
                best = (prev_a, cur_a, prev_g)
        prev_a, prev_g = cur_a, cur_g
    if best is None:
        raise AssertionError("no sign change found in [%g, %g]" % (lo, hi))
    a_lo, a_hi, g_lo = best
    while a_hi - a_lo > width:
        mid = 0.5 * (a_lo + a_hi)
        g_mid = g(mid)
        if g_mid == 0.0:
            return mid
        if g_lo * g_mid < 0.0:
            a_hi = mid
        else:
            a_lo, g_lo = mid, g_mid
    return 0.5 * (a_lo + a_hi)


_GL_RULE = []


def _gl_rule(mpmath):
    """The 96-node Gauss-Legendre rule on [0, 1] at 30 digits, built once."""
    from mpmath.calculus.quadrature import GaussLegendre

    if not _GL_RULE:
        with mpmath.workdps(30):
            _GL_RULE.extend(GaussLegendre(mpmath.mp).get_nodes(0, 1, 6, mpmath.mp.prec))
    return _GL_RULE


def moments_mpmath(a, b, c, k):
    """I_j(a, b, c) = int_0^1 tau^j e^{i(a/2 tau^2 + b tau + c)} dtau for
    j = 0..k-1 as 30-digit mpmath complex numbers, by the Gauss-Legendre
    rule of `clothoid_position_mpmath`: exact to 30 digits while the phase
    turns by at most about 100 radians, |a|/2 + |b| <= 100, beyond which a
    ValueError is raised."""
    import mpmath

    if abs(a) / 2 + abs(b) > 100.0:
        raise ValueError("moments_mpmath: the phase turns by more than 100 rad")
    rule = _gl_rule(mpmath)
    with mpmath.workdps(30):
        ha, mb, mc = mpmath.mpf(a) / 2, mpmath.mpf(b), mpmath.mpf(c)
        terms = [(t, w * mpmath.expj((ha * t + mb) * t + mc)) for t, w in rule]
        return [mpmath.fsum(t ** j * e for t, e in terms) for j in range(k)]


def clothoid_position_mpmath(x0, y0, theta0, kappa, kappa_prime, s):
    """Curve point in 30-digit mpmath: Gauss-Legendre quadrature (96 nodes)
    of the defining arc-length integral, exact to 30 digits while the
    phase turns by at most about 100 radians over [0, s].  Beyond that,
    |kappa s| + |kappa_prime s^2|/2 > 100, the rule would be silently wrong
    and a ValueError is raised instead."""
    import mpmath

    turn = abs(kappa * s) + 0.5 * abs(kappa_prime * s * s)
    if turn > 100.0:
        raise ValueError("clothoid_position_mpmath: the phase turns by %g > 100 rad "
                         "over [0, s]" % turn)
    rule = _gl_rule(mpmath)
    with mpmath.workdps(30):
        s = mpmath.mpf(s)
        k, kp = mpmath.mpf(kappa) * s, mpmath.mpf(kappa_prime) * s * s / 2
        I = s * mpmath.fsum(w * mpmath.expj(theta0 + t * (k + kp * t)) for t, w in rule)
        return mpmath.mpf(x0) + I.real, mpmath.mpf(y0) + I.imag


def clothoid_position_fresnel_mpmath(x0, y0, theta0, kappa, kappa_prime, s):
    """Curve point in 40-digit mpmath from the Fresnel integrals C and S
    (mpmath's fresnelc, fresnels) on the completed square, kappa_prime != 0.

    With sigma = sign kappa_prime, zeta = sqrt(|kappa_prime|/pi),
    w = zeta kappa/kappa_prime and eta = -kappa^2/(2 kappa_prime), the phase
    theta0 + kappa u + kappa_prime u^2/2 is theta0 + eta + sigma (pi/2)
    (zeta u + w)^2, so the point is (x0, y0) plus e^{i(theta0 + eta)}/zeta
    [dC + i sigma dS], dC = C(w + zeta s) - C(w) and dS likewise.  Exact
    for any turn of the phase: no quadrature rule, and 40 digits absorb
    what dC, dS and the rounding of eta lose to cancellation.
    """
    import mpmath

    if kappa_prime == 0.0:
        raise ValueError("clothoid_position_fresnel_mpmath: kappa_prime = 0 has no square")
    with mpmath.workdps(40):
        k, kp, s = mpmath.mpf(kappa), mpmath.mpf(kappa_prime), mpmath.mpf(s)
        sigma = 1 if kappa_prime > 0.0 else -1
        zeta = mpmath.sqrt(abs(kp) / mpmath.pi)
        w = zeta * k / kp
        t = w + zeta * s
        dC = mpmath.fresnelc(t) - mpmath.fresnelc(w)
        dS = mpmath.fresnels(t) - mpmath.fresnels(w)
        I = mpmath.expj(mpmath.mpf(theta0) - k * k / (2 * kp)) / zeta * mpmath.mpc(dC, sigma * dS)
        return mpmath.mpf(x0) + I.real, mpmath.mpf(y0) + I.imag
