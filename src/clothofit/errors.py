"""Exception types raised by the fitting pipeline.

The CLI maps these onto distinct exit codes, so keep the hierarchy flat
and stable: DegenerateInputError (3), ExcludedAngleError (4),
ConvergenceError and its SingularDerivativeError subclass (5), and any
other FitError, such as InternalConsistencyError (6).
"""

__all__ = [
    "FitError",
    "DegenerateInputError",
    "ExcludedAngleError",
    "ConvergenceError",
    "SingularDerivativeError",
    "InternalConsistencyError",
]


class FitError(Exception):
    """Base class for all fitting failures."""


class DegenerateInputError(FitError):
    """Coincident endpoints, or a chord length whose square over- or
    underflows, so that kappa_prime = 2A/L^2 cannot be represented."""


class ExcludedAngleError(FitError):
    """Angle pair at an excluded corner (phi0 = -phi1 = +/-pi).

    There the interpolant length grows without bound and no finite
    solution exists.
    """


class ConvergenceError(FitError):
    """The solve ran out of iterations or left the root bracket.

    Carries the last iterate so callers can inspect how far the solve got.
    """

    def __init__(self, message, A=None, iterations=None, residual=None):
        super().__init__(message)
        self.A = A
        self.iterations = iterations
        self.residual = residual


class SingularDerivativeError(ConvergenceError):
    """The solve hit a vanishing derivative g'(A).

    Every step, Halley's or Newton's, divides by g'(A), the last one
    included, so this can also end a solve whose |g| is already at
    rounding level.
    """


class InternalConsistencyError(FitError):
    """A converged root violated an analytic guarantee (h(A) <= 0).

    This indicates a spurious root rather than bad user input.
    """
