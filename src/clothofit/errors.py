"""Exception types raised by the fitting pipeline.

The CLI maps these onto distinct exit codes, so keep the hierarchy flat
and stable: DegenerateInputError (3), ExcludedAngleError (4),
ConvergenceError and its SingularDerivativeError subclass (5), and any
other FitError, such as InternalConsistencyError (6).

`_check_fields` is the one check of a record's numeric fields: the
ValueError that `HermiteData` and `ClothoidCurve` raise for a bad field.
"""

import math

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


def _check_fields(record):
    """Raise a ValueError naming the first field of the dataclass `record`
    that is not finite, or that does not add to a float.

    Each field plus 0.0 must be a finite Python float (a subclass such as
    numpy.float64 counts).  A non-finite field, or an int or Fraction past
    the float range (OverflowError), is named as not finite.  A field that
    raises TypeError (a Decimal), or that keeps the sum in its own type (a
    numpy.float32, in which the arithmetic would run), is named as not a
    float, int or Fraction.  The message starts with the record's class
    name.  Returns None when every field passes; stored values are never
    changed."""
    try:
        for name in record.__dataclass_fields__:
            value = getattr(record, name) + 0.0
            if not isinstance(value, float):
                raise TypeError
            if not math.isfinite(value):
                raise OverflowError
    except OverflowError:
        raise ValueError("%s: %s must be finite" % (type(record).__name__, name)) from None
    except TypeError:
        raise ValueError("%s: %s must be a float, int or Fraction"
                         % (type(record).__name__, name)) from None
