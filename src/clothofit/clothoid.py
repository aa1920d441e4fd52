"""Clothoid curve: a plane curve whose curvature is affine in arc length.

A curve is determined by its start pose (x0, y0, theta0), the start
curvature kappa, the curvature rate kappa_prime and the length L:

    x(s) = x0 + int_0^s cos(theta0 + kappa u + kappa_prime/2 u^2) du
    y(s) = y0 + int_0^s sin(...) du

kappa_prime = 0 gives a circular arc, kappa = kappa_prime = 0 a straight
segment; both evaluate through the same code path.

`point_at(s)` follows one rule: an s in [-L, L) reads the curve's rows
when it has them, and every other s, the curve's end s = L and the
points past [-L, L) included, takes `eval_xy(kappa_prime s^2, kappa s,
theta0, 1)`, as does every s on a curve without rows.  `_build_rows`
alone picks the kind of rows, by the curve's own A = kappa_prime L^2 and
b = kappa L; it builds them once on first use and keeps them on the
instance in the plain attribute `_rows` (not a dataclass field, so
equality, hash, repr and `dataclasses.replace` ignore it; a curve
without it reads the class's None, and no instance dict is read or
made):

* EPSILON_A <= |A| < inf: the curve's completed square, the one
  `gfresnel._completed_square` that `eval_xy` shares, taken at (A, b,
  theta0), then one Fresnel kernel call per point;
* |A| < EPSILON_A and |b| <= _TAYLOR_TURN (2), a near line: the curve's
  row polynomial, the Taylor coefficients of F(s)/s in t = s/L,
  F(s) = (x(s) - x0) + i (y(s) - y0), then one Horner sum per point,
  times s;
* any other curve (|A| < EPSILON_A with |b| > 2, or A overflowing to
  inf, where the square would read z = inf): no rows, and nothing kept.

`eval_xy` takes its small-|a| series wherever |kappa_prime s^2| <
EPSILON_A, which keeps near-line and near-circle curves fully accurate.
An s in [-L, L) on the rows skips the checks on s, which cannot fail
there.  The end s = L is `eval_xy(A, b, theta0, 1)` on every curve, on
purpose: these are the integrals the fitter's solve drove to its target,
so `endpoint_residual` checks the fit independently of the rows, and a
fit builds none.  A curve pickles and copies as its six fields, without
its rows.

Error contract: with eta = -kappa^2/(2 kappa_prime) and eps = 2^-52,
each coordinate of point_at(s) is within

    c eps (max(L, |s|) (1 + |eta|) + max(|x0|, |y0|)),    c = 8,

of the exact point; on the row polynomial, and where `eval_xy` takes
its series (|kappa_prime s^2| < EPSILON_A), within the same bound with
eta replaced by 0.  Against 40-digit mpmath (`tests/oracles.py`) over
400 seeded curves with |kappa L| <= 60 and EPSILON_A <= |kappa_prime
L^2| <= 1e3 the worst c measured is 1.6 on the completed square across
[-L, L), 1.6 at s = L and 1.4 on `eval_xy` past [-L, L) out to |s| =
10 L, and 1.5 on the series over as many near-line twins.  On the
square, rounding eta costs eps |eta| of phase over a displacement of
length |s| <= L, and differencing C and S at t(s) and t(0) costs about
eps sqrt(pi/|kappa_prime|) <= 4.6 eps L.
On the row polynomial the worst c against 30-digit mpmath quadrature is
0.90 over 800 seeded near-line curves with |kappa L| <= 2 (half of them
at |kappa L| = 2, a third at |kappa_prime L^2| just under EPSILON_A),
|x0|, |y0| <= 1e3, and s at -L, near L and across [-L, L)
(`_TAYLOR_TURN` has the figures past the bound).
"""

import math
from dataclasses import dataclass

from .errors import _check_fields
from .fresnel import _fresnel_core
from .gfresnel import EPSILON_A, LOMMEL_REL_TOL, _completed_square, eval_xy

__all__ = ["ClothoidCurve"]

# The largest |kappa L| whose near-line curve takes its rows from its row
# polynomial (`_build_rows`).  The Horner sum's terms grow like
# |kappa L|^n/n! before they shrink, and its rounding with them: against
# 30-digit mpmath quadrature, over seeded near lines with |kappa L| up to the
# value (half of them at it) and s across [-L, L), the worst c of point_at's
# contract measured 0.90 at 2 (800 curves), 1.4 at 3, 3.4 at 4 and 10.6 at 6
# (300 each), against the contract's c = 8.
_TAYLOR_TURN = 2.0


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
        _check_fields(self)
        if not self.L > 0.0:
            raise ValueError("ClothoidCurve: L must be positive, got %r" % (self.L,))

    def point_at(self, s: float):
        """Position at arc length s, by the module docstring's one rule.

        An s in [-L, L) takes `rows = self._rows or self._build_rows()`:
        the rows once kept, or the kind `_build_rows` picks, builds and
        keeps on first use (no instance dict is read).  On the completed
        square an s is one Fresnel kernel call at t(s) = w + (z/L) s,
        differenced against t(0) = w; on the row polynomial it is s times
        one Horner sum in s/L; one test of the rows' first entry picks
        which.  Such an s skips the checks on s: |kappa_prime s^2| and
        |kappa s| are at most the curve's own, which the rows have passed.
        Every other s, the curve's end s = L and the points past [-L, L)
        included, and every s on a curve without rows, is checked and is
        x0 + s X_0(kappa_prime s^2, kappa s, theta0) plus the matching sine
        integral from `eval_xy`, whose small-|a| series keeps near-line and
        near-circle curves fully accurate.  point_at(L) is thus the end the
        fitter solved for, and a fit builds no rows.  The same s gives the
        same bits whatever was called before it.

        s outside [0, L] extrapolates along the same spiral (the defining
        integrals are entire) while kappa_prime s^2 and kappa s stay
        finite; an s that overflows either raises a ValueError naming s
        (|s| past ~1.3e154 at kappa_prime = 1) on every path.  The
        completed square's phase limit (`eval_xy`) applies too: |kappa L|
        <= 1e150 on the curve's square, and |kappa s| <= 1e150 where
        `eval_xy` completes its own.  point_at(0) is (x0, y0) exactly.
        Each coordinate is within c eps (max(L, |s|) (1 + |eta|) +
        max(|x0|, |y0|)) of the exact point, eta = -kappa^2/(2
        kappa_prime), c = 8; eta counts as 0 on the row polynomial and on
        the series (module docstring).
        """
        L = self.L
        if -L <= s < L:
            rows = self._rows or self._build_rows()
            if rows is not None:
                if rows[0] is None:
                    t = s / L
                    px = py = 0.0
                    for dx, dy in rows[1]:
                        px = px * t + dx
                        py = py * t + dy
                    return self.x0 + s * px, self.y0 + s * py
                sigma, z_per_L, w, c0, s0, ux, uy = rows
                c, sv, _, _ = _fresnel_core(w + z_per_L * s)
                dc = c - c0
                ds = sigma * (sv - s0)
                return self.x0 + (ux * dc - uy * ds), self.y0 + (uy * dc + ux * ds)
        if not math.isfinite(s):
            raise ValueError("point_at: s must be finite, got %r" % (s,))
        a = self.kappa_prime * s * s
        b = self.kappa * s
        if not (math.isfinite(a) and math.isfinite(b)):
            raise ValueError("point_at: kappa_prime s^2 or kappa s overflows at s = %r" % (s,))
        X, Y = eval_xy(a, b, self.theta0, 1)
        return self.x0 + s * X[0], self.y0 + s * Y[0]

    # None until `_build_rows` keeps the curve's rows on the instance;
    # unannotated, so not a dataclass field
    _rows = None

    def _build_rows(self):
        """The one place that picks the curve's kind, by its own
        A = kappa_prime L^2 and b = kappa L: build, keep and return its
        rows, in the plain attribute `_rows`, set once here past the frozen
        dataclass's guard, or return None and keep nothing on any other
        curve (|A| < EPSILON_A with |b| > _TAYLOR_TURN, or A = inf).
        `point_at` calls it for an s in [-L, L) while no rows are kept, so
        on a curve without rows it runs, and allocates nothing, at each
        such s.

        For EPSILON_A <= |A| < inf, the completed square: `_completed_square`
        at (A, b, theta0), in units of L so that every factor stays finite
        over the range of curves the fitter builds, kept as sigma = +-1.0,
        z/L, w, C(w), S(w) and its turn scaled by L/z, as two reals.

        For |A| < EPSILON_A and |b| <= _TAYLOR_TURN, the row polynomial,
        kept as (None, coefficients).  With t = s/L the curve's
        e^{i(theta0 + b t + (A/2) t^2)} = sum_n c_n t^n has c_0 = e^{i theta0}
        and (n + 1) c_{n+1} = i (b c_n + A c_{n-1}), so F(s) = (x(s) - x0) +
        i (y(s) - y0) = s sum_n c_n/(n + 1) t^n.  The coefficients
        c_n/(n + 1) are kept highest degree first, as (real, imaginary)
        pairs for two real Horner sums in t.  The loop keeps c_n until it
        meets the first n at which c_n and c_{n+1} are both at most
        LOMMEL_REL_TOL: past there every coefficient is at most 0.72 of the
        larger of the two before it (|b| + |A| < 2.15 against n >= 3), so
        the omitted tail adds at most 4 LOMMEL_REL_TOL, 0.2 eps, to F(s)/s
        for |t| <= 1."""
        L = self.L
        A = self.kappa_prime * L * L
        b = self.kappa * L
        if EPSILON_A <= abs(A) < math.inf:
            sigma, z, w, ce, se, c0, s0, _, _ = _completed_square(A, b, self.theta0)
            scale = L / z
            rows = (sigma, z / L, w, c0, s0, scale * ce, scale * se)
        elif abs(A) < EPSILON_A and abs(b) <= _TAYLOR_TURN:
            ib, ia = complex(0.0, b), complex(0.0, A)
            c_prev, c = 0j, complex(math.cos(self.theta0), math.sin(self.theta0))
            coefficients = []
            n = 1
            while True:
                c_next = (ib * c + ia * c_prev) / n
                if abs(c) <= LOMMEL_REL_TOL and abs(c_next) <= LOMMEL_REL_TOL:
                    break
                d = c / n
                coefficients.append((d.real, d.imag))
                c_prev, c, n = c, c_next, n + 1
            # from the list, not a generator: a tuple grown as it is built
            # leaves the heap fragmented, and the process larger, curve after
            # curve
            coefficients.reverse()
            rows = (None, tuple(coefficients))
        else:
            return None
        object.__setattr__(self, "_rows", rows)
        return rows

    def __reduce__(self):
        """Pickle and copy a curve as its six fields: no rows, and the
        constructor's check runs again on the way back."""
        return type(self), (self.x0, self.y0, self.theta0, self.kappa, self.kappa_prime, self.L)

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
        so a row follows `point_at`'s one rule and meets its error
        contract: every row but the last lies in [-L, L) and reads the
        curve's rows, of the kind `_build_rows` picks, or `eval_xy` on a
        curve without rows; the last row is always `eval_xy`'s, the end
        the fitter solved for.
        """
        if not isinstance(n, int) or n < 2:
            raise ValueError("sample: n must be an int >= 2, got %r" % (n,))
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
