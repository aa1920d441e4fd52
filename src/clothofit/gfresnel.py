"""Generalized Fresnel integrals with a quadratic phase.

The target quantities are

    X_k(a, b, c) = int_0^1 tau^k cos(a/2 tau^2 + b tau + c) dtau,
    Y_k(a, b, c) = int_0^1 tau^k sin(a/2 tau^2 + b tau + c) dtau,

for k = 0, 1, 2.  Three regimes keep full double accuracy everywhere:

* |a| >= EPSILON_A: complete the square and reduce to Fresnel momenta
  differences (`eval_xy_a_large`), turned by e^{i eta} e^{i c} with
  eta = -b^2/(2a).  Exact for any a != 0, but the scale factor
  1/z^(k+1) with z ~ sqrt(|a|) amplifies rounding as a -> 0.
* |a| < EPSILON_A: an alternating series in powers of (a/2)^2 over the
  a = 0 integrals (`eval_xy_a_small`) at c = 0, rotated by c in
  `eval_xy`.  Its order p comes from |a|: the lowest whose first
  omitted factor is below LOMMEL_REL_TOL (1e-17), p = 1 for
  |a| < 2.5e-4 and at most p = 4 below EPSILON_A.  a == 0 exactly
  skips the series and takes the closed form directly.
* a = 0: closed form (`eval_xy_a_zero`).  Order 0 is sin b / b and the
  half-angle form 2 sin^2(b/2) / b of (1 - cos b) / b, which does not
  cancel for any b.  Orders 1..floor(|b|) follow by the upward
  recurrence in k, stable there because each step scales the error by
  k/|b| <= 1.  Orders above |b| use reduced Lommel series, whose terms
  shrink from the first one there; each sum stops once its terms fall
  below LOMMEL_REL_TOL of the partial sum.

No other threshold or fallback: LOMMEL_REL_TOL alone sets the precision.
"""

import math

from .fresnel import _PHASE_LIMIT, _fresnel_core

__all__ = [
    "EPSILON_A",
    "LOMMEL_REL_TOL",
    "eval_xy",
    "eval_xy_a_large",
    "eval_xy_a_small",
    "eval_xy_a_zero",
    "r_lommel",
]

# epsilon_a splits the momenta path from the series path.  It must be
# large enough that the momenta path is well conditioned at the boundary
# (its error grows like (b/a)^3 * eps_machine for the k = 2 entries) and
# small enough that the series order `_series_order` picks below it
# stays low: p = 4 brings the first omitted factor
# (EPSILON_A/2)^(2p+2)/(2p+2)! under LOMMEL_REL_TOL.
EPSILON_A = 0.15
# What "negligible" means for a double result of magnitude <= 1: Lommel
# series terms are summed until they fall below this fraction of the
# partial sum, and the small-|a| series stops once its next group's
# factor falls below it.
LOMMEL_REL_TOL = 1e-17


def r_lommel(mu: float, nu: float, b: float) -> float:
    """Reduced Lommel series w_{mu,nu}(b) = sum_n (-b^2)^n / alpha_{n+1}.

    alpha_n(mu, nu) = prod_{m=1..n} ((mu + 2m - 1)^2 - nu^2).  Terms are
    accumulated until they fall below LOMMEL_REL_TOL of the partial sum,
    i.e. until they stop changing the double result.  `eval_xy_a_zero`
    calls it only for orders j > |b|, where mu ~ j makes every term
    smaller than the one before; at larger |b| the alternating terms grow
    first and the sum cancels.

    Requires (mu + 2m - 1)^2 != nu^2 for all m >= 1; the half-integer
    order pairs used by `eval_xy_a_zero` always satisfy this.
    """
    den = (mu + nu + 1.0) * (mu - nu + 1.0)
    if den == 0.0:
        raise ValueError("r_lommel: singular order pair (mu=%g, nu=%g)" % (mu, nu))
    term = 1.0 / den
    total = term
    b2 = b * b
    rel_tol = LOMMEL_REL_TOL
    n = 1
    while abs(term) > rel_tol * abs(total):
        term *= -b2 / ((2.0 * n + mu - nu + 1.0) * (2.0 * n + mu + nu + 1.0))
        total += term
        n += 1
        if n > 1000:
            raise ValueError(
                "r_lommel: series did not settle (mu=%g, nu=%g, b=%g)" % (mu, nu, b)
            )
    return total


def eval_xy_a_zero(b: float, k: int):
    """X_j(0, b) and Y_j(0, b) for j = 0..k.

    Order zero is elementary: sin b / b and 2 sin^2(b/2) / b, the
    half-angle form of (1 - cos b) / b, free of its cancellation at small
    |b|.  Orders j = 1..min(k, floor(|b|)) follow from the upward
    recurrence I_j = (e^{ib} - j I_{j-1}) / (ib), I_j = X_j + i Y_j, i.e.

        X_j = (sin b - j Y_{j-1}) / b,   Y_j = (j X_{j-1} - cos b) / b,

    stable while j <= |b|.  Orders above |b| use the Lommel closed form

        X_j = [j A w_{j+1/2,3/2} + B w_{j+3/2,1/2} + cos b] / (1+j)
        Y_j = [C w_{j+3/2,3/2} + sin b] / (2+j) + D w_{j+1/2,1/2}

    with A = b sin b, D = sin b - b cos b, B = b D, C = -b^2 sin b.
    k may be large here (the small-a series needs orders up to k + 4p + 1).
    b must be finite and k a non-negative int; `eval_xy` checks its inputs.
    """
    sb = math.sin(b)
    cb = math.cos(b)
    if b == 0.0:
        X = [1.0]
        Y = [0.0]
    else:
        sh = math.sin(0.5 * b)
        X = [sb / b]
        Y = [2.0 * sh * sh / b]
    # each recurrence step scales the error by j/|b| <= 1
    m = min(k, int(abs(b)))
    for j in range(1, m + 1):
        X.append((sb - j * Y[j - 1]) / b)
        Y.append((j * X[j - 1] - cb) / b)
    if m == k:
        return X, Y
    A = b * sb
    D = sb - b * cb
    B = b * D
    C = -b * b * sb
    for j in range(m + 1, k + 1):
        Xj = (j * A * r_lommel(j + 0.5, 1.5, b)
              + B * r_lommel(j + 1.5, 0.5, b) + cb) / (1.0 + j)
        Yj = (C * r_lommel(j + 1.5, 1.5, b) + sb) / (2.0 + j) \
            + D * r_lommel(j + 0.5, 0.5, b)
        X.append(Xj)
        Y.append(Yj)
    return X, Y


def eval_xy_a_large(a: float, b: float, c: float, k: int):
    """X_0..X_{k-1}, Y_0..Y_{k-1} of X_j(a, b, c), Y_j(a, b, c) via Fresnel integrals.

    Completing the square, (pi/2) sigma (tau z + omega_minus)^2 + eta
    == (a/2) tau^2 + b tau for every tau, maps the integrals onto momenta
    differences between omega_plus = omega_minus + z and omega_minus,
    turned by e^{i eta} e^{i c}.  One Fresnel kernel call per end gives
    C, S, sin and cos there, from which orders 1 and 2 follow:
    dC_1 = (sin u_+ - sin u_-)/pi, dS_1 = (cos u_- - cos u_+)/pi.
    The formula is exact for any a != 0 but should only be used away from
    a = 0, where the 1/z^(j+1) factors amplify rounding (z ~ sqrt(|a|));
    `eval_xy` handles the switch and checks the inputs.
    """
    if a == 0.0:
        raise ValueError("eval_xy_a_large: a = 0 belongs to the series path")
    if abs(b) > _PHASE_LIMIT:
        raise ValueError("eval_xy_a_large: the phase b^2/(2a) needs |b| <= %g, got %r"
                         % (_PHASE_LIMIT, b))
    sigma = 1.0 if a > 0.0 else -1.0
    z = sigma * math.sqrt(abs(a) / math.pi)
    wm = b / math.sqrt(math.pi * abs(a))
    wp = wm + z
    cm, sm, sin_m, cos_m = _fresnel_core(wm)
    cp, sp, sin_p, cos_p = _fresnel_core(wp)
    # eta and c turn separately: eta + c would round c's phase to ulp(c)
    eta = -b * b / (2.0 * a)
    ce0, se0 = math.cos(eta), math.sin(eta)
    cc, sc = math.cos(c), math.sin(c)
    ce = ce0 * cc - se0 * sc
    se = se0 * cc + ce0 * sc
    sce = sigma * ce
    sse = sigma * se
    dC0 = cp - cm
    dS0 = sp - sm
    X = [(ce * dC0 - sse * dS0) / z]
    Y = [(se * dC0 + sce * dS0) / z]
    if k > 1:
        if sin_m is None or sin_p is None:
            raise ValueError("eval_xy_a_large: orders >= 1 need |b|, |b + a| <= %g "
                             "sqrt(pi |a|), got %r, %r" % (_PHASE_LIMIT, a, b))
        dC1 = (sin_p - sin_m) / math.pi
        dS1 = (cos_m - cos_p) / math.pi
        dc = dC1 - wm * dC0
        ds = dS1 - wm * dS0
        z2 = z * z
        X.append((ce * dc - sse * ds) / z2)
        Y.append((se * dc + sce * ds) / z2)
        if k > 2:
            dc = (wp * sin_p - wm * sin_m - dS0) / math.pi + wm * (wm * dC0 - 2.0 * dC1)
            ds = (dC0 - wp * cos_p + wm * cos_m) / math.pi + wm * (wm * dS0 - 2.0 * dS1)
            z3 = z2 * z
            X.append((ce * dc - sse * ds) / z3)
            Y.append((se * dc + sce * ds) / z3)
    return X, Y


def eval_xy_a_small(a: float, b: float, k: int, p: int):
    """X_0..X_{k-1}, Y_0..Y_{k-1} of X_j(a, b), Y_j(a, b) by series around a = 0.

    Sums p + 1 groups of the alternating expansion

        X_j(a, b) = sum_n (-1)^n/(2n)! (a/2)^(2n)
                    [ X_{4n+j}(0,b) - a Y_{4n+j+2}(0,b) / (2(2n+1)) ]

    (and the mirror image for Y) over the a = 0 values.  Since
    |X_j(0,b)|, |Y_j(0,b)| <= 1, the truncation error is about the first
    omitted factor (|a|/2)^(2p+2)/(2p+2)!; `eval_xy` picks the smallest p
    that brings it below LOMMEL_REL_TOL.  a == 0 returns the closed form
    `eval_xy_a_zero(b, k - 1)` without building the higher orders.
    p must be a positive int; `eval_xy` checks the rest.
    """
    if a == 0.0:
        return eval_xy_a_zero(b, k - 1)
    X0, Y0 = eval_xy_a_zero(b, k + 4 * p + 1)
    half_a = 0.5 * a
    X = [X0[j] - half_a * Y0[j + 2] for j in range(k)]
    Y = [Y0[j] + half_a * X0[j + 2] for j in range(k)]
    t = 1.0
    a2 = a * a
    for n in range(1, p + 1):
        # ratio of consecutive (a/2)^(2n)/(2n)! factors
        t *= -a2 / (8.0 * n * (2 * n - 1))
        s = a / (4.0 * n + 2.0)
        base = 4 * n
        for j in range(k):
            X[j] += t * (X0[base + j] - s * Y0[base + j + 2])
            Y[j] += t * (Y0[base + j] + s * X0[base + j + 2])
    return X, Y


def _series_order(a: float) -> int:
    """Lowest series order p >= 1 whose first omitted factor
    (|a|/2)^(2p+2)/(2p+2)! is at most LOMMEL_REL_TOL (p <= 4 for
    |a| < EPSILON_A)."""
    x = 0.25 * a * a
    term = x * x / 24.0
    p = 1
    while term > LOMMEL_REL_TOL:
        p += 1
        term *= x / ((2 * p + 1) * (2 * p + 2))
    return p


def eval_xy(a: float, b: float, c: float, k: int):
    """X_0..X_{k-1}, Y_0..Y_{k-1} of the phase-offset integrals X_j(a,b,c), Y_j(a,b,c).

    Dispatches on |a| against EPSILON_A.  The large-|a| path takes c into
    its completed square.  Below EPSILON_A the series (order
    `_series_order(a)`) gives the c = 0 values, rotated here by c:

        X_j(a,b,c) = X_j(a,b) cos c - Y_j(a,b) sin c
        Y_j(a,b,c) = X_j(a,b) sin c + Y_j(a,b) cos c

    Parameters
    ----------
    a, b, c : float
        Quadratic, linear and constant phase coefficients (radians).  For
        |a| >= EPSILON_A the completed square needs |b| <= 1e150, and
        k >= 2 also |b| and |b + a| <= 1e150 sqrt(pi |a|).
    k : int
        Number of orders wanted (1..3): entries j = 0..k-1.
    """
    if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(c)):
        raise ValueError("eval_xy: a, b, c must be finite, got %r, %r, %r" % (a, b, c))
    if type(k) is not int or not 1 <= k <= 3:
        raise ValueError("k must be an int in 1..3 (number of orders), got %r" % (k,))
    if abs(a) >= EPSILON_A:
        return eval_xy_a_large(a, b, c, k)
    Xh, Yh = eval_xy_a_small(a, b, k, _series_order(a))
    cc = math.cos(c)
    sc = math.sin(c)
    X = [x * cc - y * sc for x, y in zip(Xh, Yh)]
    Y = [x * sc + y * cc for x, y in zip(Xh, Yh)]
    return X, Y
