"""Clothoid curve: a plane curve whose curvature is affine in arc length.

A curve is determined by its start pose (x0, y0, theta0), the start
curvature kappa, the curvature rate kappa_prime and the length L:

    x(s) = x0 + int_0^s cos(theta0 + kappa u + kappa_prime/2 u^2) du
    y(s) = y0 + int_0^s sin(...) du

kappa_prime = 0 gives a circular arc, kappa = kappa_prime = 0 a straight
segment; both evaluate through the same code path.

`point_at(s)` takes one of two paths, by the curve's own
A = kappa_prime L^2:

* EPSILON_A <= |A| < inf: every s != L comes from the curve's completed
  square, the one `gfresnel._completed_square` that `eval_xy` shares,
  taken at (A, kappa L, theta0), built once on first use and kept on the
  instance in the plain attribute `_square` (not a dataclass field, so
  equality, hash, repr and `dataclasses.replace` ignore it; a curve
  without it reads the class's None, and no instance dict is read or
  made), then one Fresnel kernel call per point.  Once the square is
  built, an s in [-L, L) goes straight to it without the checks on s,
  which cannot fail there;
* |A| < EPSILON_A, or A overflowing to inf (where the square would read
  z = inf): `eval_xy(kappa_prime s^2, kappa s, theta0, 1)` for every s,
  its small-|a| series wherever |kappa_prime s^2| < EPSILON_A, which
  keeps near-line and near-circle curves fully accurate.

The curve's own end, s = L, takes `eval_xy(A, kappa L, theta0, 1)` on
either path, on purpose: these are the integrals the fitter's Newton
solve drove to its target, so `endpoint_residual` checks the fit
independently of the square, and a fit never builds the square.

Error contract: with eta = -kappa^2/(2 kappa_prime) and eps = 2^-52,
each coordinate of point_at(s) is within

    c eps (max(L, |s|) (1 + |eta|) + max(|x0|, |y0|)),    c = 8,

of the exact point; where `eval_xy` takes its series (|kappa_prime s^2| <
EPSILON_A on the second path) within the same bound with eta replaced
by 0.  Against 40-digit mpmath (`tests/oracles.py`) over 400 seeded
curves with |kappa L| <= 60, EPSILON_A <= |kappa_prime L^2| <= 1e3 and
|s| <= 10 L the worst c measured is 1.8 on the completed square and 1.1
at s = L, and 1.5 on the series over as many near-line twins.  Rounding
eta costs eps |eta| of phase over a displacement of length |s| <= L, and
differencing C and S at t(s) and t(0) costs about eps
sqrt(pi/|kappa_prime|) <= 4.6 eps L.
"""

import math
from dataclasses import dataclass

from .fresnel import _fresnel_core
from .gfresnel import EPSILON_A, _completed_square, eval_xy

__all__ = ["ClothoidCurve"]


@dataclass(frozen=True)
class ClothoidCurve:
    """Start pose (x0, y0, theta0), curvature kappa, curvature rate
    kappa_prime and length L.

    The constructor, and with it `dataclasses.replace`, rejects a field
    that is not finite and an L that is not positive.  `build_clothoid`
    builds its curves without running that check, from values it has
    already found to pass it.
    """

    x0: float
    y0: float
    theta0: float
    kappa: float
    kappa_prime: float
    L: float

    def __post_init__(self):
        for name in ("x0", "y0", "theta0", "kappa", "kappa_prime", "L"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError("ClothoidCurve: %s must be finite" % name)
        if not self.L > 0.0:
            raise ValueError("ClothoidCurve: L must be positive, got %r" % (self.L,))

    def point_at(self, s: float):
        """Position at arc length s.

        On a curve with EPSILON_A <= |kappa_prime L^2| < inf every s != L
        comes from the curve's completed square (built on first use and
        kept in the plain attribute `_square`, which reads None until then;
        no instance dict is read): one Fresnel kernel call at
        t(s) = w + (z/L) s, differenced against t(0) = w.  Once the square
        is built, an s in [-L, L) skips the checks on s: |kappa_prime s^2|
        and |kappa s| are at most the curve's own, which the square has
        passed.  Every other point, the curve's end s = L included, is
        x0 + s X_0(kappa_prime s^2, kappa s, theta0) plus the matching sine
        integral from `eval_xy`, whose small-|a| series keeps near-line and
        near-circle curves fully accurate.  point_at(L) is thus the end the fitter
        solved for, and a fit never builds the square.

        s outside [0, L] extrapolates along the same spiral (the defining
        integrals are entire) while kappa_prime s^2 and kappa s stay
        finite; an s that overflows either raises a ValueError naming s
        (|s| past ~1.3e154 at kappa_prime = 1) on both paths.  The
        completed square's phase limit (`eval_xy`) applies too: |kappa L|
        <= 1e150 on the curve's square, and |kappa s| <= 1e150 where
        `eval_xy` completes its own.  point_at(0) is (x0, y0) exactly.
        Each coordinate is within c eps (max(L, |s|) (1 + |eta|) +
        max(|x0|, |y0|)) of the exact point, eta = -kappa^2/(2
        kappa_prime), c = 8; eta counts as 0 on the series (module
        docstring).
        """
        L = self.L
        # a built square means EPSILON_A <= |kappa_prime L^2| < inf and |kappa L|
        # <= 1e150, so on [-L, L) kappa_prime s^2 and kappa s are finite and
        # the checks below have nothing to find; the end s = L always takes them
        square = self._square if -L <= s < L else None
        if square is None:
            if not math.isfinite(s):
                raise ValueError("point_at: s must be finite, got %r" % (s,))
            kappa_prime = self.kappa_prime
            a = kappa_prime * s * s
            b = self.kappa * s
            if not (math.isfinite(a) and math.isfinite(b)):
                raise ValueError("point_at: kappa_prime s^2 or kappa s overflows at s = %r"
                                 % (s,))
            # s == L first: a fit's point_at(L) pays one comparison for the square
            if s == L or not EPSILON_A <= abs(kappa_prime * L * L) < math.inf:
                X, Y = eval_xy(a, b, self.theta0, 1)
                return self.x0 + s * X[0], self.y0 + s * Y[0]
            square = self._build_square()
        sigma, z_per_L, w, c0, s0, ux, uy = square
        c, sv, _, _ = _fresnel_core(w + z_per_L * s)
        dc = c - c0
        ds = sigma * (sv - s0)
        return self.x0 + (ux * dc - uy * ds), self.y0 + (uy * dc + ux * ds)

    # None until `_build_square` keeps the square on the instance;
    # unannotated, so not a dataclass field
    _square = None

    def _build_square(self):
        """Build, keep and return the curve's completed square:
        `_completed_square` at (kappa_prime L^2, kappa L, theta0), in units
        of L so that every factor stays finite over the range of curves the
        fitter builds.  It holds sigma, z/L, w, C(w), S(w) and its turn
        scaled by L/z, as two reals, and is kept in the plain attribute
        `_square`, set once here past the frozen dataclass's guard."""
        sigma, z, w, ce, se, c0, s0, _, _ = _completed_square(
            self.kappa_prime * self.L * self.L, self.kappa * self.L, self.theta0)
        scale = self.L / z
        square = (sigma, z / self.L, w, c0, s0, scale * ce, scale * se)
        object.__setattr__(self, "_square", square)
        return square

    def angle_at(self, s: float) -> float:
        """Tangent angle theta0 + kappa s + kappa_prime s^2 / 2."""
        return self.theta0 + s * (self.kappa + 0.5 * self.kappa_prime * s)

    def curvature_at(self, s: float) -> float:
        """Curvature kappa + kappa_prime s."""
        return self.kappa + self.kappa_prime * s

    def sample(self, n: int):
        """n poses (x, y, theta, kappa) at uniform arc length over [0, L].

        The first row is the exact start pose and the last row is at
        s = L exactly, so it equals point_at(L), angle_at(L) and
        curvature_at(L).  Each row after the first is one `point_at` call,
        so a row takes the path and meets the error contract of `point_at`
        at its s: on a curve with EPSILON_A <= |kappa_prime L^2| < inf
        every row but the last shares the curve's completed square, and
        the last row is `eval_xy`'s, the end the fitter solved for.
        """
        if not isinstance(n, int) or n < 2:
            raise ValueError("sample: need at least 2 points, got %r" % (n,))
        theta0, kappa, kappa_prime, L = self.theta0, self.kappa, self.kappa_prime, self.L
        point_at = self.point_at
        rows = [(self.x0, self.y0, theta0, kappa)]
        step = L / (n - 1)
        for i in range(1, n):
            # (n - 1) step need not round to L
            s = i * step if i < n - 1 else L
            x, y = point_at(s)
            # angle_at(s) and curvature_at(s) inlined, the same expressions and bits
            rows.append((x, y, theta0 + s * (kappa + 0.5 * kappa_prime * s),
                         kappa + kappa_prime * s))
        return rows

    def endpoint_residual(self, data) -> float:
        """Distance from the curve end point_at(L) to the target (x1, y1)."""
        x, y = self.point_at(self.L)
        return math.hypot(x - data.x1, y - data.y1)
