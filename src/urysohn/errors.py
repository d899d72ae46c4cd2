"""Exception types shared across the package."""

from __future__ import annotations

__all__ = [
    "DomainError",
    "EvaluationError",
    "PrecisionError",
    "ConvergenceError",
    "SingularOperatorError",
    "GridMismatchError",
    "UnknownProblemError",
]


class DomainError(ValueError):
    """An abscissa outside [0, 1], an integer argument -- a count, degree,
    index or order -- that is not an integer or is out of range, or a solve
    whose planned bytes exceed physical memory."""


class EvaluationError(ValueError):
    """A user-supplied callable produced a non-finite or mis-shaped value.

    The offending abscissa, when known, is stored in ``node``.
    """

    def __init__(self, message, node=None):
        super().__init__(message)
        self.node = node


class PrecisionError(ValueError):
    """The quadrature rule is too weak for the requested polynomial degree.

    Raised when the guard ``2*rho - 1 >= 3*r`` fails, i.e. the basic Gauss
    rule cannot integrate products of basis polynomials exactly.
    """


class ConvergenceError(RuntimeError):
    """Newton iteration failed to converge.

    ``residual_norms`` holds the sup-norm residual after each iteration so
    the failure mode (stagnation, divergence, non-finite step) is visible.
    """

    def __init__(self, message, residual_norms=None):
        super().__init__(message)
        self.residual_norms = list(residual_norms or [])


class SingularOperatorError(ConvergenceError):
    """The Newton step matrix I - A is numerically singular.

    This happens when 1 is (numerically) an eigenvalue of the linearised
    integral operator, i.e. the problem violates the invertibility
    assumption at the current iterate.
    """


class GridMismatchError(ValueError):
    """Two point sets that must be nested or identical are not."""


class UnknownProblemError(KeyError):
    """Requested problem name is not in the registry."""
