"""Solvers for Urysohn integral equations with Green's-function-type kernels.

The package discretises x(s) - int_0^1 k(s, t, x(t)) dt = f(s) by the
Nystrom method and by a discrete Galerkin method on piecewise polynomials,
forms the superconvergent iterated solution, and provides Richardson
extrapolation with convergence-order reporting.
"""

from .basis import bbar, bernoulli, j_k, j_square_integral, lambda_r, legendre
from .errors import (
    ConvergenceError,
    DomainError,
    EvaluationError,
    GridMismatchError,
    PrecisionError,
    SingularOperatorError,
    UnknownProblemError,
)
from .extrapolate import (
    ConvergenceReport,
    LevelResult,
    PointValues,
    convergence_study,
    estimate_order,
    richardson,
)
from .galerkin import (
    GalerkinSolution,
    iterated_eval,
    partition_point_errors,
    solve_discrete_galerkin,
)
from .nystrom import GridFunction, NystromSolution, apply_km, km_prime_apply, solve_nystrom
from .problems import (
    UrysohnProblem,
    available_problems,
    get_problem,
    hammerstein_problem,
    kernel_eval,
    register_problem,
    residual_check,
    sinh_greens_branches,
)
from .projection import (
    PiecewiseLegendre, discrete_inner_product, evaluate_piecewise, minimal_rho, project
)
from .quadrature import CompositeGrid, QuadratureRule, build_grid, gauss_rule, integrate_composite

__version__ = "0.1.0"

__all__ = [
    "QuadratureRule",
    "CompositeGrid",
    "gauss_rule",
    "build_grid",
    "integrate_composite",
    "legendre",
    "lambda_r",
    "j_k",
    "bernoulli",
    "bbar",
    "j_square_integral",
    "PiecewiseLegendre",
    "discrete_inner_product",
    "project",
    "evaluate_piecewise",
    "UrysohnProblem",
    "kernel_eval",
    "residual_check",
    "sinh_greens_branches",
    "hammerstein_problem",
    "get_problem",
    "available_problems",
    "register_problem",
    "GridFunction",
    "NystromSolution",
    "apply_km",
    "km_prime_apply",
    "solve_nystrom",
    "GalerkinSolution",
    "minimal_rho",
    "solve_discrete_galerkin",
    "iterated_eval",
    "partition_point_errors",
    "PointValues",
    "LevelResult",
    "ConvergenceReport",
    "richardson",
    "estimate_order",
    "convergence_study",
    "DomainError",
    "EvaluationError",
    "PrecisionError",
    "ConvergenceError",
    "SingularOperatorError",
    "GridMismatchError",
    "UnknownProblemError",
]
