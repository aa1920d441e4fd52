"""Single-segment clothoid fit through two poses (G1 Hermite data).

The three scalar conditions (end position and end tangent) collapse to a
scalar root find.  With r the chord length and phi0, phi1 the tangent
angles relative to the chord (normalized), the unknown
A = kappa_prime L^2 / 2 solves

    g(A) := Y_0(2A, delta - A, phi0) = 0,     delta = phi1 - phi0,

after which L = r / X_0(2A, delta - A, phi0), kappa = (delta - A)/L and
kappa_prime = 2A/L^2.  Halley's method starts from a fitted polynomial
initial guess, named by a plain `guess` argument (one of GUESS_VARIANTS,
DEFAULT_GUESS unless the caller names another) that `initial_guess`
alone checks.  Each iterate is one evaluation of X_k, Y_k (k = 0..4) at
A: it gives g, g', g'', h = X_0, h' and h''.  The step is Halley's
dA = 2 g g'/(2 g'^2 - g g''), or Newton's g/g' where |g g''| > g'^2.
Halley's error is about C dA^3 (C <= 3.3 measured), so the solve has one
stop: once |dA| is at most 2e-6 max(1, |A|), that last step is taken
from those values without evaluating it.  The default guess, a degree-8
surface, lands within that stop on 99.1% of a 256x256 grid of the angle
range and one evaluated step from it on the rest: most fits make one
evaluation.  The returned root is the one root of g with h > 0 in the
paper's interval sign(phi0 + phi1) [0, A_max], A_max from `a_max_bound`.
A step that leaves twice [-A_max, A_max], or a vanishing derivative,
ends the solve with a `ConvergenceError`; neither has occurred on any
angle pair tried.  The excluded corners are
rejected before the first evaluation, and every evaluated step is held
to the bracket.

The public constructors and functions check their input.  The fit
path checks each value once: `HermiteData` is the one check of the pose,
and `build_clothoid` reduces it to three floats without a
`ReducedProblem`, and builds its `ClothoidCurve` from values it has
already found finite without running its constructor.  `FitResult`,
which checks nothing, is built by its own constructor.  A duck-typed
pose that skipped `HermiteData` gets no second check: a NaN in it ends
in `eval_xy`'s ValueError, an infinite heading in `math.sin`'s, and an
infinite coordinate in a `DegenerateInputError`.
"""

import math
import sys
from dataclasses import dataclass

from .clothoid import ClothoidCurve
from .errors import (
    ConvergenceError,
    DegenerateInputError,
    ExcludedAngleError,
    InternalConsistencyError,
    SingularDerivativeError,
    _check_fields,
)
from .gfresnel import eval_xy

__all__ = [
    "HermiteData",
    "ReducedProblem",
    "FitResult",
    "GUESS_VARIANTS",
    "DEFAULT_GUESS",
    "reduce_problem",
    "initial_guess",
    "a_max_bound",
    "solve_A",
    "build_clothoid",
]

# Angular tolerance for rejecting the corners phi0 = -phi1 = +/-pi, where
# the segment length diverges.
_EXCLUDED_CORNER_TOL = 1e-12

# Below this g is rounding noise, and so is a step taken from it: the
# solve skips its last step, so exact lines and arcs keep A = 0.0.
_RESIDUAL_FLOOR = 1e-15

# The solve also stops once the Halley step |dA| is below this times
# max(1, |A|): the unevaluated last step then errs by about C dA^3,
# C <= 3.3, which is rounding level.
_STEP_FLOOR = 2e-6

# |g'| below this is treated as a vanishing derivative.
_DERIVATIVE_FLOOR = 1e-30

# Evaluated steps before the solve gives up with a ConvergenceError.
_MAX_ITER = 100


@dataclass(frozen=True)
class HermiteData:
    """Two endpoints with tangent angles: the fitting input."""

    x0: float
    y0: float
    theta0: float
    x1: float
    y1: float
    theta1: float

    def __post_init__(self):
        # one test of all six fields, their sum from 0.0, which must be a
        # finite float: a non-finite field makes it non-finite, a field that
        # does not add to a float raises TypeError (a Decimal, which the
        # fit's arithmetic would reject later, unnamed) or keeps the sum in
        # its own type (a numpy.float32, in which the fit would run), and an
        # int or Fraction past the float range raises OverflowError.  Only a
        # failed test runs `_check_fields`, which names the bad field, the
        # last kind as not finite; finite fields whose sum overflows pass it
        try:
            total = 0.0 + self.x0 + self.y0 + self.theta0 + self.x1 + self.y1 + self.theta1
            if isinstance(total, float) and math.isfinite(total):
                return
        except (TypeError, OverflowError):
            pass
        _check_fields(self)


@dataclass(frozen=True)
class ReducedProblem:
    """Chord-frame form of the fitting input.

    r is the chord length; phi0, phi1 the tangent angles relative to the
    chord, normalized into [-pi, pi].
    """

    r: float
    phi0: float
    phi1: float

    def __post_init__(self):
        if not self.r > 0.0:
            raise ValueError("ReducedProblem: r must be positive")
        if not (abs(self.phi0) <= math.pi and abs(self.phi1) <= math.pi):
            raise ValueError("ReducedProblem: phi0, phi1 must lie in [-pi, pi]")

    @property
    def delta(self) -> float:
        """Total turning phi1 - phi0."""
        return self.phi1 - self.phi0


# Least-squares coefficients of the quintic guess surface.
QUINTIC_GUESS_COEFFICIENTS = (2.989696, 0.71622, -0.458969, -0.502821, 0.26106, -0.045854)

# Least-squares fit of A/(phi0 + phi1) by the 45 monomials u^i v^j,
# i + j <= 8, in u = f0 f1 and v = f0^2 + f1^2 (f = phi/pi), ordered by i
# then j.  The roots come from the quintic-guess solve on a 121x121 grid
# of f in [-0.9999, 0.9999], skipping |phi0 + phi1| < 1e-9; the worst
# residual of the fit is 9.9e-6, and the first evaluation already meets
# the step stop on 99.1% of a 256x256 grid.  The values are that
# least-squares solution refined in extended precision: np.linalg.lstsq
# reproduces them within 1.2e-11, another solver (QR) within 2.4e-10.
SURFACE_GUESS_COEFFICIENTS = (
    2.999999832188139, -0.5639593339227786, -0.02824373603342472,
    0.04160744933532112, -0.009847072166866712, 0.020590118082906127,
    -0.026415433837316572, 0.014918063402019042, -0.003351550145754509,
    0.8459731353350639, 0.12118028131577495, -0.030534969429679457,
    0.01884622667169532, -0.05418339809781686, 0.06418541739957256,
    -0.03379240933143252, 0.006840937988685491, -0.20211584922334808,
    -0.2225246808416106, 0.027386432719236534, -0.011740873545413364,
    0.039126487182053665, -0.04015747347494401, 0.015105013214726263,
    0.24517248639972475, -0.03194728378370878, 0.1686175550357935,
    -0.18516295118191703, 0.09205475509521714, -0.018448344795702107,
    -0.028338636613530168, -0.2575381863098261, 0.20018551414674576,
    0.014920004712217397, -0.06161755668910897, 0.16069516713197202,
    -0.2273153689681195, 0.10717493090451762, 0.02961448086927524,
    0.12874942581247148, -0.32421806789796415, 0.18705706050776286,
    0.16989082823345514, -0.23975422481282618, 0.08618829393090435,
)

GUESS_VARIANTS = ("linear", "quintic", "surface")

# The guess the solve starts from unless the caller names another.
DEFAULT_GUESS = "surface"


@dataclass(frozen=True)
class FitResult:
    """Fitted curve plus solver diagnostics.

    A = kappa_prime L^2 / 2 is the root found, B = delta - A = kappa L.

    Attributes
    ----------
    iterations : int
        Evaluated Halley steps before the solve stopped, 0 for most
        fits from the default guess.  The solve makes iterations + 1
        evaluations; its last step is taken without one and is not
        counted.
    residual_g : float
        |g| at the last evaluated iterate, where the step stop (|dA| <=
        2e-6 max(1, |A|)) ended the solve.  A is one Halley step past
        that iterate, where |g| is rounding level.
    endpoint_error : float
        Distance from the curve's point_at(L), its own evaluation, to the
        requested end point (x1, y1): an independent check of the fit.
    """

    curve: ClothoidCurve
    A: float
    B: float
    iterations: int
    residual_g: float
    endpoint_error: float


def _reduce_exactly(phi: float) -> float:
    """phi for |phi| <= 4 pi, else its remainder by the true 2 pi in [-pi, pi].

    math.sin and math.cos reduce any finite argument exactly, so
    atan2(sin phi, cos phi) is within an ulp of pi of the true remainder,
    where a remainder by the double 2 pi would be off by about
    phi / (2 pi) * 2.4e-16.
    """
    if abs(phi) > 4.0 * math.pi:
        return math.atan2(math.sin(phi), math.cos(phi))
    return phi


def _wrap(phi: float) -> float:
    """Shift phi into [-pi, pi] by multiples of the double 2 pi."""
    if abs(phi) > 4.0 * math.pi:
        # exact remainder first; the loops below then take at most one step
        phi = math.fmod(phi, 2.0 * math.pi)
    while phi > math.pi:
        phi -= 2.0 * math.pi
    while phi < -math.pi:
        phi += 2.0 * math.pi
    return phi


def _chord_frame(data):
    """(r, phi0, phi1) of `reduce_problem`, as three floats."""
    dx = data.x1 - data.x0
    dy = data.y1 - data.y0
    r = math.hypot(dx, dy)
    if r == 0.0:
        raise DegenerateInputError("coincident endpoints: chord length is zero")
    varphi = math.atan2(dy, dx)
    phi0 = _wrap(_reduce_exactly(data.theta0) - varphi)
    phi1 = _wrap(_reduce_exactly(data.theta1) - varphi)
    return r, phi0, phi1


def reduce_problem(data: HermiteData) -> ReducedProblem:
    """Rewrite the Hermite data in the chord frame.

    A heading beyond 4 pi is reduced exactly before the chord angle is
    subtracted, so that none of the chord angle's bits are lost to the
    heading's magnitude.  Any other difference, at most 5 pi, is wrapped
    by the double 2 pi.
    """
    return ReducedProblem(*_chord_frame(data))


def g_prime(A: float, rp: ReducedProblem) -> float:
    """dg/dA = X_2 - X_1 at (2A, delta - A, phi0).

    Differentiating the phase A tau^2 + (delta - A) tau + phi0 in A
    brings down tau^2 - tau, hence the second minus first momentum.
    """
    X, _ = eval_xy(2.0 * A, rp.delta - A, rp.phi0, 3)
    return X[2] - X[1]


def initial_guess(phi0: float, phi1: float, guess: str = DEFAULT_GUESS) -> float:
    """Starting value for the solve; guess names one of GUESS_VARIANTS.

    'linear' is 3 (phi0 + phi1), from linearizing g.  'quintic' is a
    least-squares fit of the root surface in the scaled angles phi/pi
    that lands within the solve's basin essentially everywhere.
    'surface', the default, fits A/(phi0 + phi1) by a degree-8 polynomial
    in f0 f1 and f0^2 + f1^2 (f = phi/pi), within 9.9e-6 of the roots,
    summed by one unrolled Horner expression: close enough that the first
    evaluation usually meets Halley's step stop.  This is the one check
    of the guess: any other name raises a ValueError.
    """
    if guess == "linear":
        return 3.0 * (phi0 + phi1)
    f0 = phi0 / math.pi
    f1 = phi1 / math.pi
    if guess == "quintic":
        d1, d2, d3, d4, d5, d6 = QUINTIC_GUESS_COEFFICIENTS
        prod = f0 * f1
        sq = f0 * f0 + f1 * f1
        return (phi0 + phi1) * (
            d1 + prod * (d2 + d3 * prod) + sq * (d4 + d5 * prod)
            + d6 * (f0 ** 4 + f1 ** 4)
        )
    if guess == "surface":
        (e00, e01, e02, e03, e04, e05, e06, e07, e08, e10, e11, e12, e13, e14,
         e15, e16, e17, e20, e21, e22, e23, e24, e25, e26, e30, e31, e32, e33,
         e34, e35, e40, e41, e42, e43, e44, e50, e51, e52, e53, e60, e61, e62,
         e70, e71, e80) = SURFACE_GUESS_COEFFICIENTS
        u = f0 * f1
        v = f0 * f0 + f1 * f1
        # Horner in u over Horner sums in v; the u brackets all close at the end
        return (phi0 + phi1) * (
            e00 + v * (e01 + v * (e02 + v * (e03 + v * (e04 + v * (e05 + v * (
                e06 + v * (e07 + v * e08)))))))
            + u * (e10 + v * (e11 + v * (e12 + v * (e13 + v * (e14 + v * (
                e15 + v * (e16 + v * e17))))))
            + u * (e20 + v * (e21 + v * (e22 + v * (e23 + v * (e24 + v * (e25 + v * e26)))))
            + u * (e30 + v * (e31 + v * (e32 + v * (e33 + v * (e34 + v * e35))))
            + u * (e40 + v * (e41 + v * (e42 + v * (e43 + v * e44)))
            + u * (e50 + v * (e51 + v * (e52 + v * e53))
            + u * (e60 + v * (e61 + v * e62)
            + u * (e70 + v * e71 + u * e80))))))))
    raise ValueError("guess must be one of %s, got %r" % (GUESS_VARIANTS, guess))


def _reject_corner(phi0, phi1):
    """Raise ExcludedAngleError on the corners phi0 = -phi1 = +/-pi."""
    tol = _EXCLUDED_CORNER_TOL
    # |phi0| >= pi - tol holds at both corners and spares the common pose the rest
    if abs(phi0) >= math.pi - tol and (
            abs(phi0 - math.pi) <= tol and abs(phi1 + math.pi) <= tol
            or abs(phi0 + math.pi) <= tol and abs(phi1 - math.pi) <= tol):
        raise ExcludedAngleError(
            "tangent angles opposite and parallel to the chord: no finite-length "
            "interpolant exists (phi0=%.17g, phi1=%.17g)" % (phi0, phi1)
        )


def a_max_bound(phi0: float, phi1: float) -> float:
    """A_max of the paper's interval sign(phi0 + phi1) [0, A_max], which
    isolates the returned root.

    The tests check, on uniform and on corner-biased angle pairs, that g
    has exactly one sign change with h = X_0 > 0 on that half-interval and
    that the solve returns it.  Where |phi0 + phi1| <= 1e-15 the root is
    within rounding of A = 0 (|A| <= 2e-15 tested) and its sign is
    rounding; at phi0 + phi1 = 0 the solve returns A = 0.0.  The mirror
    half, -sign(phi0 + phi1) [0, A_max], can hold a second root with
    h > 0: scans find one on 50 of 400 uniform pairs, and on 160 of 600
    pairs half of which lie within 1e-1 of the corners.

    The paper's A_max = |delta| + 2 theta_max (1 + sqrt(1 + |delta|/theta_max)),
    written without the division as

        A_max = |delta| + 2 (theta_max + sqrt(theta_max (theta_max + |delta|))),
        theta_max = max(0, pi/2 + sign(phi1) phi0, pi/2 + sign(phi0) phi1),

    so theta_max = 0 gives A_max = |delta| with no branch.  Taking the
    larger of the two signed combinations covers all four angle orderings
    (the reductions that swap or mirror the endpoints exchange the roles
    of phi0 and phi1).  The corners phi0 = -phi1 = +/-pi are rejected.
    """
    _reject_corner(phi0, phi1)
    delta = abs(phi1 - phi0)
    sg0 = math.copysign(1.0, phi0) if phi0 != 0.0 else 0.0
    sg1 = math.copysign(1.0, phi1) if phi1 != 0.0 else 0.0
    theta_max = max(0.0, 0.5 * math.pi + sg1 * phi0, 0.5 * math.pi + sg0 * phi1)
    return delta + 2.0 * (theta_max + math.sqrt(theta_max * (theta_max + delta)))


def _solve(phi0, phi1, guess):
    """Halley iteration on g; returns (A, iterations, |g|, h(A)).

    Each iterate makes one k = 5 evaluation at A.  Its moments
    J_m = int_0^1 (tau^2 - tau)^m e^{i phi(tau)} dtau, J0 = I_0,
    J1 = I_2 - I_1 and J2 = I_4 - 2 I_3 + I_2, give g = Im J0,
    g' = Re J1, g'' = -Im J2, h = Re J0, h' = -Im J1 and h'' = -Re J2.
    The step is Halley's dA = 2 g g'/(2 g'^2 - g g''), or Newton's g/g'
    where |g g''| > g'^2, far from the root.  Once |dA| <=
    _STEP_FLOOR max(1, |A|), that last step is taken without evaluating
    it: A - dA is returned with h - dA h' + dA^2/2 h'', its length to
    second order, so the fit needs no further evaluation.  `iterations`
    counts the evaluated steps (the solve makes iterations + 1
    evaluations) and |g| is read at the last evaluated iterate.  Each
    evaluated step reads A_max from `a_max_bound` and escapes if it lands
    beyond 2 max(A_max, 1).
    """
    A = initial_guess(phi0, phi1, guess)
    _reject_corner(phi0, phi1)
    delta = phi1 - phi0
    iterations = 0
    while True:
        X, Y = eval_xy(2.0 * A, delta - A, phi0, 5)
        g = Y[0]
        gp = X[2] - X[1]
        if abs(gp) < _DERIVATIVE_FLOOR:
            raise SingularDerivativeError(
                "g'(A) vanished at A=%.17g (|g| = %g)" % (A, abs(g)),
                A=A, iterations=iterations, residual=abs(g),
            )
        # g g'', g'' = -Im J2; Halley's step, or Newton's where g g'' would
        # shrink its denominator
        ggpp = g * (2.0 * Y[3] - Y[4] - Y[2])
        dA = g / gp if abs(ggpp) > gp * gp else 2.0 * g * gp / (2.0 * gp * gp - ggpp)
        if abs(dA) <= _STEP_FLOOR * max(1.0, abs(A)):
            break
        if iterations >= _MAX_ITER:
            raise ConvergenceError(
                "the step did not reach rounding level in %d iterations (|g| = %g)"
                % (_MAX_ITER, abs(g)),
                A=A, iterations=iterations, residual=abs(g),
            )
        escape = 2.0 * max(a_max_bound(phi0, phi1), 1.0)
        if abs(A - dA) > escape:
            raise ConvergenceError(
                "the step from A=%.17g left the root bracket |A| <= %.17g" % (A, escape),
                A=A, iterations=iterations, residual=abs(g),
            )
        A -= dA
        iterations += 1
    h = X[0]
    if abs(g) > _RESIDUAL_FLOOR:
        A -= dA
        h += dA * (Y[2] - Y[1] + 0.5 * dA * (2.0 * X[3] - X[4] - X[2]))
    return A, iterations, abs(g), h


def solve_A(rp: ReducedProblem, guess: str = DEFAULT_GUESS):
    """Root of g(A) = 0 for a reduced problem; returns (A, iterations).

    Halley's method starts from `initial_guess(rp.phi0, rp.phi1, guess)`,
    which rejects an unknown guess before anything is evaluated.

    The solve stops once the Halley step is at most 2e-6 max(1, |A|),
    where one more step lands at rounding level.
    `iterations` is the number of evaluated steps before it stopped (0
    for most poses from the default guess); the last, unevaluated step
    is already in A.
    """
    return _solve(rp.phi0, rp.phi1, guess)[:2]


def _prechecked_curve(x0, y0, theta0, kappa, kappa_prime, L):
    """A ClothoidCurve of values the caller has already checked, built
    without running __init__ and so without __post_init__'s checks.  Its
    fields are set one by one in field order, as the constructor sets
    them, so that it keeps no instance dict a public one lacks."""
    curve = object.__new__(ClothoidCurve)
    set_field = object.__setattr__
    set_field(curve, "x0", x0)
    set_field(curve, "y0", y0)
    set_field(curve, "theta0", theta0)
    set_field(curve, "kappa", kappa)
    set_field(curve, "kappa_prime", kappa_prime)
    set_field(curve, "L", L)
    return curve


def build_clothoid(data: HermiteData, guess: str = DEFAULT_GUESS) -> FitResult:
    """Fit one clothoid segment through the Hermite data.

    Parameters
    ----------
    data : HermiteData
        Start and end poses, checked finite by `HermiteData`, the one
        check of the pose.  Endpoints must not coincide, and the
        chord-relative angles must not sit on an excluded corner.  Any
        object with the six fields is read the same way, unchecked: a
        NaN in it ends in `eval_xy`'s ValueError ("a, b, c must be
        finite"), not in a fit.
    guess : str
        Initial guess variant, one of GUESS_VARIANTS; `initial_guess`
        rejects any other with a ValueError, after the chord check and
        before the first evaluation.

    Returns
    -------
    FitResult
        Curve (start pose, kappa, kappa_prime, L > 0) and diagnostics.
        Lines and circles fall out of the same computation with
        kappa_prime = 0; no case split is involved.  The root A is the
        one sign change of g with h = X_0 > 0 in the paper's interval
        sign(phi0 + phi1) [0, A_max] of `a_max_bound` (within rounding of
        0 where |phi0 + phi1| <= 1e-15), and it moves continuously over
        the angle square.  Among the roots with h > 0 in [-A_max, A_max]
        it has the largest h = r/L, the shortest curve (tested within a
        relative 1e-6).

    The corners are rejected before the first evaluation, and every
    evaluated step is held to the root bracket.  The fit skips the
    checks it has already made: it works on the chord-frame floats
    without a `ReducedProblem`, and builds the curve from values it has
    found finite, with L > 0, without running the `ClothoidCurve`
    constructor.  That constructor, `reduce_problem` and
    `solve_A` keep every check; `FitResult`, which has none, is built by
    its own constructor.
    """
    r, phi0, phi1 = _chord_frame(data)
    A, iterations, residual, h = _solve(phi0, phi1, guess)
    if h <= 0.0:
        raise InternalConsistencyError(
            "X_0 <= 0 at the computed root (A=%.17g): spurious solution" % A
        )
    L = r / h
    if not (sys.float_info.min <= L * L < math.inf and abs(2.0 * A / (L * L)) < math.inf):
        raise DegenerateInputError(
            "chord length %.17g is out of scale: kappa_prime = 2A/L^2 needs L^2 "
            "(L = %.17g) to be a finite normal double and the quotient (A = %.17g) "
            "to be finite" % (r, L, A)
        )
    B = phi1 - phi0 - A
    kappa = B / L
    kappa_prime = 2.0 * A / (L * L)
    curve = _prechecked_curve(data.x0, data.y0, data.theta0, kappa, kappa_prime, L)
    return FitResult(curve, A, B, iterations, residual, curve.endpoint_residual(data))
