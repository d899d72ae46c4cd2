"""Solvers for Urysohn integral equations with Green's-function-type kernels.

The package discretises x(s) - int_0^1 k(s, t, x(t)) dt = f(s) by the
Nystrom method and by a discrete Galerkin method on piecewise polynomials,
forms the superconvergent iterated solution, and provides Richardson
extrapolation with convergence-order reporting.

Public names are declared in each module's ``__all__``; the package
re-exports them all, and its ``__all__`` is those lists joined in the
order of the modules' names.
"""

from . import basis, errors, extrapolate, galerkin, nystrom, problems, projection, quadrature
from .basis import *  # noqa: F403
from .errors import *  # noqa: F403
from .extrapolate import *  # noqa: F403
from .galerkin import *  # noqa: F403
from .nystrom import *  # noqa: F403
from .problems import *  # noqa: F403
from .projection import *  # noqa: F403
from .quadrature import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    name
    for module in (basis, errors, extrapolate, galerkin, nystrom, problems, projection, quadrature)
    for name in module.__all__
]
