"""Generalized Fresnel integrals with a quadratic phase.

The target quantities are the real and imaginary parts of

    I_k(a, b, c) = int_0^1 tau^k e^{i (a/2 tau^2 + b tau + c)} dtau
                 = X_k(a, b, c) + i Y_k(a, b, c),

for k = 0..4.  Three regimes keep full double accuracy everywhere;
orders 3 and 4, which only the solver's second derivatives read, lose
more on the large-|a| path (`eval_xy_a_large`):

* |a| >= EPSILON_A: complete the square (`_completed_square`, which
  `ClothoidCurve.point_at` shares for a curve's points short of its
  end) and reduce to differences of the Fresnel momenta (`eval_xy_a_large`)

      C_k(t) = int_0^t u^k cos(pi/2 u^2) du,   S_k(t) likewise with sin

  (C_0, S_0 are `fresnel`'s C, S) between the square's two ends, turned
  by e^{i eta} e^{i c} with eta = -b^2/(2a), in real arithmetic.  Exact
  for any a != 0, but the scale factor 1/z^(k+1) with z ~ sqrt(|a|)
  amplifies rounding as a -> 0.
* |a| < EPSILON_A: the single sum
  I_j(a, b) = sum_m (ia/2)^m/m! I_{j+2m}(0, b) over the a = 0
  integrals (`eval_xy_a_small`): one loop over its first 2p + 2 terms
  steps the running factor (ia/2)^m/m! and adds each term to one complex
  accumulator per order (order 0 alone at k = 1, all five otherwise),
  and each order is turned by e^{i c} at the end.  Its order p comes
  from |a|: the lowest whose first omitted factor (|a|/2)^(2p+2)/(2p+2)!
  is below LOMMEL_REL_TOL (1e-17), p = 1 for |a| < 2.5e-4 and at most
  p = 4 below EPSILON_A.  a == 0 exactly skips the series and turns the
  closed form directly.
* a = 0: closed form (`eval_xy_a_zero`), one complex I_j per order.
  b = 0 returns I_j = 1/(j+1) directly, with no Kummer seed; an exact
  line evaluates there on every solve iterate.  Otherwise order 0 is
  sin b / b + i 2 sin^2(b/2) / b, the half-angle form of
  (1 - cos b) / b, which does not cancel for any b.  Orders
  1..floor(|b|) follow by the upward recurrence in k, each from the one
  before it, stable there because each step scales the error by
  k/|b| <= 1.  Above |b| the top order n comes from Kummer's series
  e^{ib}/(n+1) sum_m (-ib)^m/(n+2)_m, summed as two reduced Lommel
  series (`r_lommel`: its even and its odd terms) whose terms shrink
  from the first one there (each sum stops at the first term that
  leaves it unchanged).  The orders between follow by the downward
  recurrence, stable because each step scales the error by |b|/k < 1;
  both recurrences write their orders into one list in place.

No other threshold or fallback: LOMMEL_REL_TOL alone sets the series
order, and the Lommel sums run until their terms no longer change them.
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
# What "negligible" means for a double result of magnitude <= 1: the
# small-|a| series stops once its first omitted factor falls below it
# (`_series_order`).  The Lommel sums, after which it is named, no longer
# read it: they stop at the first term that leaves them unchanged.
LOMMEL_REL_TOL = 1e-17


def r_lommel(mu: float, nu: float, b: float) -> float:
    """Reduced Lommel series w_{mu,nu}(b) = sum_n (-b^2)^n / alpha_{n+1}.

    alpha_n(mu, nu) = prod_{m=1..n} ((mu + 2m - 1)^2 - nu^2).  Terms are
    added up to the first one that leaves the double sum unchanged.  Each
    term is the one before times
    -b^2 / ((2n + mu - nu + 1) (2n + mu + nu + 1)); where mu + 1 > |nu|
    the terms that start to shrink keep shrinking, so every later one
    stays below half an ulp of the sum: the sum is the one that adding
    terms until one is at most 1e-17 of it gives, with fewer terms.  The
    2n is a float counter added to mu - nu + 1 and mu + nu + 1, exact
    arithmetic for the half-integer pairs it is called with:
    `eval_xy_a_zero` calls it twice, with (mu, nu) = (j - 1/2, 1/2) and
    (j + 1/2, 1/2), for the even and odd halves of Kummer's series at the
    top order j it builds, and only when j exceeds |b|, where mu ~ j makes
    every term smaller than the one before; at larger |b| the alternating
    terms grow first and the sum cancels.

    Requires (mu + 2m - 1)^2 != nu^2 for all m >= 1; the pairs used by
    `eval_xy_a_zero` satisfy this because j >= 1 there.  Raises
    ValueError at a singular first pair and when the sum is not finite:
    far above mu the terms overflow before they shrink (b = 1e3 at
    mu = nu = 1/2).  A sum that stays finite there can still have
    cancelled to noise (b = 300 at mu = nu = 1/2); that is not detected.
    """
    minus = mu - nu + 1.0
    plus = mu + nu + 1.0
    den = plus * minus
    if den == 0.0:
        raise ValueError("r_lommel: singular order pair (mu=%g, nu=%g)" % (mu, nu))
    term = total = 1.0 / den
    nb2 = -(b * b)
    t = 2.0
    prev = 0.0
    # until a term leaves the sum unchanged; two comparisons, not one !=,
    # so that a NaN sum ends the loop too
    while prev < total or total < prev:
        prev = total
        term *= nb2 / ((t + minus) * (t + plus))
        total += term
        t += 2.0
    if not math.isfinite(total):
        raise ValueError("r_lommel: the sum is not finite at (mu, nu, b) = (%r, %r, %r)"
                         % (mu, nu, b))
    return total


def eval_xy_a_zero(b: float, k: int):
    """I_j(0, b) = X_j(0, b) + i Y_j(0, b) for j = 0..k, as complex.

    b = 0 (either sign) returns I_j = 1/(j+1) directly, exactly rounded,
    with no Kummer seed and no recurrence.  Otherwise order zero is
    elementary: sin b / b + i 2 sin^2(b/2) / b, whose
    imaginary part is the half-angle form of (1 - cos b) / b, free of its
    cancellation at small |b|.  Orders j = 1..min(k, floor(|b|)) follow
    from the upward recurrence

        I_j = (e^{ib} - j I_{j-1}) / (ib),

    stable while j <= |b|.  If k > |b|, Kummer's series gives the top
    order j = k,

        I_j = e^{ib}/(j+1) sum_m (-ib)^m/(j+2)_m
            = e^{ib} [ j w_{j-1/2,1/2}(b) - i b w_{j+1/2,1/2}(b) ],

    its even and odd terms being the two reduced Lommel sums, since
    alpha_{m+1}(j-1/2, 1/2) = j (j+1) (j+2)_{2m} and
    alpha_{m+1}(j+1/2, 1/2) = (j+1) (j+2) (j+3)_{2m}.  The orders down
    to floor(|b|) + 1 follow from the downward recurrence

        I_{j-1} = (e^{ib} - ib I_j) / j,

    stable because every step has j > |b|.
    k may be large here (the small-a series needs orders up to 4p + 6).
    b must be finite and k a non-negative int; `eval_xy` checks its inputs.
    """
    if b == 0.0:
        return [complex(1.0 / (j + 1), 0.0) for j in range(k + 1)]
    sb = math.sin(b)
    sh = math.sin(0.5 * b)
    v = complex(sb / b, 2.0 * sh * sh / b)
    I = [v] * (k + 1)
    e = complex(math.cos(b), sb)
    ib = complex(0.0, b)
    # each recurrence step scales the error by j/|b| <= 1
    m = min(k, int(abs(b)))
    for j in range(1, m + 1):
        v = (e - j * v) / ib
        I[j] = v
    if m < k:
        v = I[k] = e * complex(k * r_lommel(k - 0.5, 0.5, b), -b * r_lommel(k + 0.5, 0.5, b))
        # each step down scales the error by |b|/j < 1
        for j in range(k, m + 1, -1):
            v = I[j - 1] = (e - ib * v) / j
    return I


def _completed_square(a: float, b: float, c: float):
    """Complete the square of the phase (a/2) tau^2 + b tau + c, a != 0.

    With sigma = sign a, z = sigma sqrt(|a|/pi), w = b/sqrt(pi |a|) and
    eta = -b^2/(2a), (a/2) tau^2 + b tau == sigma (pi/2) (tau z + w)^2
    + eta for every tau, so u = tau z + w gives

        int_0^T e^{i((a/2) tau^2 + b tau + c)} dtau
            = e^{i eta} e^{i c} / z [dC + i sigma dS],

    dC = C(w + z T) - C(w) and dS likewise: `eval_xy_a_large` takes
    T = 1, a curve's `point_at` T = s/L at (kappa_prime L^2, kappa L,
    theta0).  Returns sigma, z, w, the turn e^{i eta} e^{i c} as two
    reals, and `_fresnel_core(w)`: C(w), S(w), sin u, cos u.  Exact for
    any a != 0; the phase needs |b| <= 1e150.
    """
    if a == 0.0:
        raise ValueError("completed square: a = 0 belongs to the series path")
    if abs(b) > _PHASE_LIMIT:
        raise ValueError("completed square: the phase b^2/(2a) needs |b| <= %g, got %r"
                         % (_PHASE_LIMIT, b))
    sigma = 1.0 if a > 0.0 else -1.0
    z = sigma * math.sqrt(abs(a) / math.pi)
    w = b / math.sqrt(math.pi * abs(a))
    # eta and c turn separately: eta + c would round c's phase to ulp(c)
    eta = -b * b / (2.0 * a)
    ce0, se0 = math.cos(eta), math.sin(eta)
    cc, sc = math.cos(c), math.sin(c)
    return (sigma, z, w, ce0 * cc - se0 * sc, se0 * cc + ce0 * sc) + _fresnel_core(w)


def eval_xy_a_large(a: float, b: float, c: float, k: int):
    """X_0..X_{k-1}, Y_0..Y_{k-1} of X_j(a, b, c), Y_j(a, b, c) via Fresnel integrals.

    The completed square (`_completed_square`) maps the integrals onto
    momenta differences between omega_minus = w and omega_plus = w + z,
    turned by e^{i eta} e^{i c}.  One Fresnel kernel call per end gives
    C, S, sin and cos there, from which orders 1 and 2 follow:
    dC_1 = (sin u_+ - sin u_-)/pi, dS_1 = (cos u_- - cos u_+)/pi.
    Orders 3 and 4 follow, with no further kernel call, from the shifted
    momenta P_j = int_w^{w+z} (u - w)^j cos or sin((pi/2) u^2) du, which
    order j of the square turns and divides by z^(j+1):

        Pc_{j+2} = (z^(j+1) sin u_+ - (j+1) Ps_j)/pi - w Pc_{j+1},
        Ps_{j+2} = ((j+1) Pc_j - z^(j+1) cos u_+)/pi - w Ps_{j+1}.

    k = 1 computes order 0 alone, and every k >= 2 all five orders, of
    which it returns the first k.  The formula is exact for any a != 0
    but should only be used away from a = 0, where the 1/z^(j+1) factors
    amplify rounding (z ~ sqrt(|a|)); order j >= 3 rounds to about
    eps |w|^j / |z|^(j+1), w = b/sqrt(pi |a|).  Next to the switch, with
    |b| <= 2 pi as on the fitter's iterates there, orders 3 and 4 are
    within 5e-10 of mpmath; at (a, b) = (0.2, 60) order 4 is off by
    1.9e-6.  `eval_xy` handles the switch and checks the inputs.
    """
    sigma, z, wm, ce, se, cm, sm, sin_m, cos_m = _completed_square(a, b, c)
    wp = wm + z
    cp, sp, sin_p, cos_p = _fresnel_core(wp)
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
        pc = (wp * sin_p - wm * sin_m - dS0) / math.pi + wm * (wm * dC0 - 2.0 * dC1)
        ps = (dC0 - wp * cos_p + wm * cos_m) / math.pi + wm * (wm * dS0 - 2.0 * dS1)
        z2 = z * z
        z3 = z2 * z
        # P_3 and P_4 by the recurrence, from dc, ds (P_1) and pc, ps (P_2)
        pc3 = (z2 * sin_p - 2.0 * ds) / math.pi - wm * pc
        ps3 = (2.0 * dc - z2 * cos_p) / math.pi - wm * ps
        pc4 = (z3 * sin_p - 3.0 * ps) / math.pi - wm * pc3
        ps4 = (3.0 * pc - z3 * cos_p) / math.pi - wm * ps3
        z4 = z3 * z
        z5 = z4 * z
        X += [(ce * dc - sse * ds) / z2, (ce * pc - sse * ps) / z3,
              (ce * pc3 - sse * ps3) / z4, (ce * pc4 - sse * ps4) / z5]
        Y += [(se * dc + sce * ds) / z2, (se * pc + sce * ps) / z3,
              (se * pc3 + sce * ps3) / z4, (se * pc4 + sce * ps4) / z5]
    return X[:k], Y[:k]


def eval_xy_a_small(a: float, b: float, c: float, k: int, p: int):
    """X_0..X_{k-1}, Y_0..Y_{k-1} of X_j(a, b, c), Y_j(a, b, c) by series around a = 0.

    Sums the first 2p + 2 terms of the expansion of e^{i a tau^2/2},

        I_j(a, b) = sum_m (ia/2)^m/m! I_{j+2m}(0, b),

    over the complex a = 0 values, I_j = X_j + i Y_j: one loop over the
    terms steps the running factor (ia/2)^m/m! and updates one complex
    accumulator per order, so k = 1 sums order 0 alone, reading the even
    orders up to 4p + 2, and every k >= 2 sums all five, reading orders
    up to 4p + 6, and returns the first k.  The terms m >= 1 are summed
    apart and added to I_j(0, b) last, so only that addition rounds at
    the scale of the result; each order is then turned by e^{ic} and
    split into X_j and Y_j.
    Since |I_j(0,b)| <= 1, the truncation error is about the first
    omitted factor (|a|/2)^(2p+2)/(2p+2)!; `eval_xy` picks the smallest p
    that brings it below LOMMEL_REL_TOL.  a == 0 turns the closed form
    `eval_xy_a_zero(b, 0)`, or `eval_xy_a_zero(b, 4)` for every k >= 2,
    without building the higher orders.
    p must be a positive int; `eval_xy` checks the rest.
    """
    turn = complex(math.cos(c), math.sin(c))
    # the top order returned: order 0 alone, or all five
    top = 0 if k == 1 else 4
    if a == 0.0:
        I = eval_xy_a_zero(b, top)
    else:
        I = eval_xy_a_zero(b, top + 4 * p + 2)
        ia = complex(0.0, a)
        t = 1.0
        d0 = d1 = d2 = d3 = d4 = 0j
        # n = 2m, so t runs through (ia/2)^m/m!
        if k == 1:
            for n in range(2, 4 * p + 4, 2):
                t *= ia / n
                d0 += t * I[n]
            I = [I[0] + d0]
        else:
            for n in range(2, 4 * p + 4, 2):
                t *= ia / n
                d0 += t * I[n]
                d1 += t * I[n + 1]
                d2 += t * I[n + 2]
                d3 += t * I[n + 3]
                d4 += t * I[n + 4]
            I = (I[0] + d0, I[1] + d1, I[2] + d2, I[3] + d3, I[4] + d4)
    if k == 1:
        v = turn * I[0]
        return [v.real], [v.imag]
    v0, v1, v2, v3, v4 = turn * I[0], turn * I[1], turn * I[2], turn * I[3], turn * I[4]
    return ([v0.real, v1.real, v2.real, v3.real, v4.real][:k],
            [v0.imag, v1.imag, v2.imag, v3.imag, v4.imag][:k])


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
    its completed square; the series path (order `_series_order(a)`)
    turns its c = 0 sum by e^{ic}.

    Parameters
    ----------
    a, b, c : float
        Quadratic, linear and constant phase coefficients (radians).  For
        |a| >= EPSILON_A the completed square needs |b| <= 1e150, and
        k >= 2 also |b| and |b + a| <= 1e150 sqrt(pi |a|).
    k : int
        Number of orders wanted (1..5): entries j = 0..k-1.  k = 1
        computes order 0 alone; for every k >= 2 the entries are the
        first k of the k = 5 call, bit for bit.  Orders 3 and 4 lose
        more on the large-|a| path (`eval_xy_a_large`).
    """
    if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(c)):
        raise ValueError("eval_xy: a, b, c must be finite, got %r, %r, %r" % (a, b, c))
    if type(k) is not int or not 1 <= k <= 5:
        raise ValueError("k must be an int in 1..5 (number of orders), got %r" % (k,))
    if abs(a) >= EPSILON_A:
        return eval_xy_a_large(a, b, c, k)
    return eval_xy_a_small(a, b, c, k, _series_order(a))
