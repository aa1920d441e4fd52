"""clothofit: G1 Hermite interpolation with a single clothoid segment.

Fit a clothoid (Euler spiral) through two poses by reducing the problem
to one scalar root find, backed by an accurate evaluator for Fresnel
integrals and the generalized quadratic-phase integrals they combine
into.

Typical use::

    from clothofit import HermiteData, build_clothoid

    fit = build_clothoid(HermiteData(0, 0, 0.3, 4, 1, -0.5))
    x, y = fit.curve.point_at(0.5 * fit.curve.L)
"""

from .clothoid import ClothoidCurve
from .errors import (
    ConvergenceError,
    DegenerateInputError,
    ExcludedAngleError,
    FitError,
    InternalConsistencyError,
    SingularDerivativeError,
)
from .fresnel import fresnel
from .fitter import (
    FitResult,
    HermiteData,
    ReducedProblem,
    build_clothoid,
    reduce_problem,
    solve_A,
)
from .gfresnel import eval_xy

__version__ = "0.1.0"

__all__ = [
    "ClothoidCurve",
    "ConvergenceError",
    "DegenerateInputError",
    "ExcludedAngleError",
    "FitError",
    "FitResult",
    "HermiteData",
    "InternalConsistencyError",
    "ReducedProblem",
    "SingularDerivativeError",
    "build_clothoid",
    "eval_xy",
    "fresnel",
    "reduce_problem",
    "solve_A",
]
