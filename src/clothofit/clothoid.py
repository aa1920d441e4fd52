"""Clothoid curve: a plane curve whose curvature is affine in arc length.

A curve is determined by its start pose (x0, y0, theta0), the start
curvature kappa, the curvature rate kappa_prime and the length L:

    x(s) = x0 + int_0^s cos(theta0 + kappa u + kappa_prime/2 u^2) du
    y(s) = y0 + int_0^s sin(...) du

kappa_prime = 0 gives a circular arc, kappa = kappa_prime = 0 a straight
segment; both evaluate through the same code path.
"""

import math
from dataclasses import dataclass

from .gfresnel import eval_xy

__all__ = ["ClothoidCurve"]


@dataclass(frozen=True)
class ClothoidCurve:
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

        Evaluates x0 + s X_0(kappa_prime s^2, kappa s, theta0) and the
        matching sine integral, so near-line and near-circle curves stay
        fully accurate.  s outside [0, L] extrapolates along the same
        spiral (the defining integrals are entire); no error is raised.
        """
        if not math.isfinite(s):
            raise ValueError("point_at: s must be finite, got %r" % (s,))
        X, Y = eval_xy(self.kappa_prime * s * s, self.kappa * s, self.theta0, 1)
        return self.x0 + s * X[0], self.y0 + s * Y[0]

    def angle_at(self, s: float) -> float:
        """Tangent angle theta0 + kappa s + kappa_prime s^2 / 2."""
        return self.theta0 + s * (self.kappa + 0.5 * self.kappa_prime * s)

    def curvature_at(self, s: float) -> float:
        """Curvature kappa + kappa_prime s."""
        return self.kappa + self.kappa_prime * s

    def sample(self, n: int):
        """n poses (x, y, theta, kappa) at uniform arc length over [0, L].

        The first row is the exact start pose.
        """
        if not isinstance(n, int) or n < 2:
            raise ValueError("sample: need at least 2 points, got %r" % (n,))
        rows = [(self.x0, self.y0, self.theta0, self.kappa)]
        step = self.L / (n - 1)
        for i in range(1, n):
            s = i * step
            x, y = self.point_at(s)
            rows.append((x, y, self.angle_at(s), self.curvature_at(s)))
        return rows

    def endpoint_residual(self, data) -> float:
        """Distance from the curve end point_at(L) to the target (x1, y1)."""
        x, y = self.point_at(self.L)
        return math.hypot(x - data.x1, y - data.y1)
