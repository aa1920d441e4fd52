"""Single-segment clothoid fit through two poses (G1 Hermite data).

The three scalar conditions (end position and end tangent) collapse to a
scalar root find.  With r the chord length and phi0, phi1 the tangent
angles relative to the chord (normalized), the unknown
A = kappa_prime L^2 / 2 solves

    g(A) := Y_0(2A, delta - A, phi0) = 0,     delta = phi1 - phi0,

after which L = r / X_0(2A, delta - A, phi0), kappa = (delta - A)/L and
kappa_prime = 2A/L^2.  Newton starts from a fitted polynomial initial
guess, named by a plain `guess` argument (one of GUESS_VARIANTS,
DEFAULT_GUESS unless the caller names another) that `initial_guess`
alone checks.  Each iterate is one evaluation of X_k, Y_k (k = 0..2) at
A: it gives g, g', h = X_0 and h'.  The solve has one stop: once the
Newton step dA = g/g' is at most 1e-8 max(1, |A|), that last step is
taken from those values without evaluating it.  With the default
surface guess a 256x256 grid of the angle range needs at most two
evaluated steps before that last one, and one on 99.5% of it: most fits
make two evaluations.  The relevant root lies inside [-A_max, A_max]
given by `a_max_bound`.  A Newton step that leaves twice that bracket,
or a vanishing derivative, ends the solve with a `ConvergenceError`;
neither has occurred on any angle pair tried.  The excluded corners are
rejected before the first evaluation, but the bracket itself is formed
only for a step that lands beyond 2 max(|delta|, 1): A_max >= |delta|,
so a step inside that range cannot leave it.

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
)
from .gfresnel import eval_xy

__all__ = [
    "HermiteData",
    "ReducedProblem",
    "FitResult",
    "QUINTIC_GUESS_COEFFICIENTS",
    "SURFACE_GUESS_COEFFICIENTS",
    "GUESS_VARIANTS",
    "DEFAULT_GUESS",
    "reduce_problem",
    "g_prime",
    "initial_guess",
    "a_max_bound",
    "solve_A",
    "build_clothoid",
]

# Angular tolerance for rejecting the corners phi0 = -phi1 = +/-pi, where
# the segment length diverges.
_EXCLUDED_CORNER_TOL = 1e-12

# Below this g is rounding noise, and so is a Newton step taken from it:
# the solve skips its last step, so exact lines and arcs keep A = 0.0.
_RESIDUAL_FLOOR = 1e-15

# The solve also stops once the Newton step |dA| is below this times
# max(1, |A|): the unevaluated last step then errs by about
# |g''/2g'| dA^2, which is rounding level.
_STEP_FLOOR = 1e-8

# |g'| below this is treated as a vanishing derivative.
_DERIVATIVE_FLOOR = 1e-30

# Evaluated Newton steps before the solve gives up with a ConvergenceError.
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
        for name in ("x0", "y0", "theta0", "x1", "y1", "theta1"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError("HermiteData: %s must be finite" % name)


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

# Least-squares fit of A/(phi0 + phi1) by the 15 monomials u^i v^j,
# i + j <= 4, in u = f0 f1 and v = f0^2 + f1^2 (f = phi/pi), ordered by i
# then j.  The roots come from the quintic-guess solve on a 121x121 grid
# of f in [-0.9999, 0.9999], skipping |phi0 + phi1| < 1e-9; the worst
# residual of the fit is 2.2e-3.
SURFACE_GUESS_COEFFICIENTS = (
    2.9997699357420613, -0.5597989356659947, -0.04655247712489689,
    0.06928838496092776, -0.017361420822210632,
    0.8413558637426737, 0.14521918581119722, -0.06948041416468714,
    0.020402468466841482,
    -0.19282922111233214, -0.2483296508062434, 0.04459856591382696,
    0.2555446855031779, 0.030794591009160405,
    -0.12170944428974421,
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
        Evaluated Newton steps before the solve stopped.  The solve
        makes iterations + 1 evaluations; its last step is taken without
        one and is not counted.
    residual_g : float
        |g| at the last evaluated iterate, where the step stop (|dA| <=
        1e-8 max(1, |A|)) ended the solve.  A is one Newton step past
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
    """Starting value for the Newton solve; guess names one of GUESS_VARIANTS.

    'linear' is 3 (phi0 + phi1), from linearizing g.  'quintic' is a
    least-squares fit of the root surface in the scaled angles phi/pi
    that lands within Newton's quadratic basin essentially everywhere.
    'surface', the default, fits A/(phi0 + phi1) by a degree-4 polynomial
    in f0 f1 and f0^2 + f1^2 (f = phi/pi), close enough that one
    evaluated step usually meets the step stop.  This is the one check
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
        (e00, e01, e02, e03, e04, e10, e11, e12, e13,
         e20, e21, e22, e30, e31, e40) = SURFACE_GUESS_COEFFICIENTS
        u = f0 * f1
        v = f0 * f0 + f1 * f1
        return (phi0 + phi1) * (
            e00 + v * (e01 + v * (e02 + v * (e03 + v * e04)))
            + u * (e10 + v * (e11 + v * (e12 + v * e13))
                   + u * (e20 + v * (e21 + v * e22)
                          + u * (e30 + v * e31 + u * e40)))
        )
    raise ValueError("guess must be one of %s, got %r" % (GUESS_VARIANTS, guess))


def _reject_corner(phi0, phi1):
    """Raise ExcludedAngleError on the corners phi0 = -phi1 = +/-pi."""
    tol = _EXCLUDED_CORNER_TOL
    if (abs(phi0 - math.pi) <= tol and abs(phi1 + math.pi) <= tol
            or abs(phi0 + math.pi) <= tol and abs(phi1 - math.pi) <= tol):
        raise ExcludedAngleError(
            "tangent angles opposite and parallel to the chord: no finite-length "
            "interpolant exists (phi0=%.17g, phi1=%.17g)" % (phi0, phi1)
        )


def a_max_bound(phi0: float, phi1: float) -> float:
    """Half-width of the interval that brackets the relevant root of g.

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
    """Newton iteration on g; returns (A, iterations, |g|, h(A)).

    Each iterate makes one k = 3 evaluation at A, which gives g = Y_0,
    g' = X_2 - X_1, h = X_0 and h' = -(Y_2 - Y_1).  Once |dA| <=
    _STEP_FLOOR max(1, |A|), the last Newton step dA = g/g' is taken
    without evaluating it: A - dA is returned with h + dA (Y_2 - Y_1),
    its length to first order, so the fit needs no further
    evaluation.  `iterations` counts the evaluated steps (the solve makes
    iterations + 1 evaluations) and |g| is read at the last evaluated
    iterate.  A step escapes beyond 2 max(A_max, 1); `a_max_bound` is
    called only for a step beyond 2 max(|delta|, 1) <= 2 max(A_max, 1).
    """
    A = initial_guess(phi0, phi1, guess)
    _reject_corner(phi0, phi1)
    delta = phi1 - phi0
    iterations = 0
    while True:
        X, Y = eval_xy(2.0 * A, delta - A, phi0, 3)
        g = Y[0]
        gp = X[2] - X[1]
        if abs(gp) < _DERIVATIVE_FLOOR:
            raise SingularDerivativeError(
                "g'(A) vanished at A=%.17g (|g| = %g)" % (A, abs(g)),
                A=A, iterations=iterations, residual=abs(g),
            )
        dA = g / gp
        if abs(dA) <= _STEP_FLOOR * max(1.0, abs(A)):
            break
        if iterations >= _MAX_ITER:
            raise ConvergenceError(
                "Newton step did not reach rounding level in %d iterations (|g| = %g)"
                % (_MAX_ITER, abs(g)),
                A=A, iterations=iterations, residual=abs(g),
            )
        if abs(A - dA) > 2.0 * max(abs(delta), 1.0):
            escape = 2.0 * max(a_max_bound(phi0, phi1), 1.0)
            if abs(A - dA) > escape:
                raise ConvergenceError(
                    "Newton step from A=%.17g left the root bracket |A| <= %.17g"
                    % (A, escape),
                    A=A, iterations=iterations, residual=abs(g),
                )
        A -= dA
        iterations += 1
    h = X[0]
    if abs(g) > _RESIDUAL_FLOOR:
        A -= dA
        h += dA * (Y[2] - Y[1])
    return A, iterations, abs(g), h


def solve_A(rp: ReducedProblem, guess: str = DEFAULT_GUESS):
    """Root of g(A) = 0 for a reduced problem; returns (A, iterations).

    Newton starts from `initial_guess(rp.phi0, rp.phi1, guess)`, which
    rejects an unknown guess before anything is evaluated.

    The solve stops once the Newton step is at most 1e-8 max(1, |A|),
    where one more step lands at rounding level.
    `iterations` is the number of evaluated Newton steps before it
    stopped; the last, unevaluated step is already in A.
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
        kappa_prime = 0; no case split is involved.

    The corners are rejected before the first evaluation; the root
    bracket is formed only if a Newton step lands beyond 2 max(|delta|,
    1).  The fit skips the checks it has already made: it works on the
    chord-frame floats without a `ReducedProblem`, and builds the curve
    from values it has found finite, with L > 0, without running the
    `ClothoidCurve` constructor.  That constructor, `reduce_problem` and
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
