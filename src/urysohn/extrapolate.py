"""Richardson extrapolation at partition points and convergence studies.

At the partition points the iterated Galerkin error has the expansion
(z_S - phi)(t_i) = C(t_i) * h**(2r) + O(h**(2r+2)), so combining the
solutions on meshes h and h/2 with weights (2**(2r), -1)/(2**(2r) - 1)
cancels the leading term and yields an O(h**(2r+2)) approximation.  The
convergence study runs a ladder of doubling n values, each solved by
:func:`solve_discrete_galerkin` with the same ``p`` argument (None, the
default, lets the solver take p = n**r per level) and, above the first
level, started from the z_S of the level below, records the errors
eps_S and eps_EX at each level's partition points, and estimates the
observed orders between successive levels.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError
from .galerkin import _plan, iterated_eval, solve_discrete_galerkin
from .nystrom import _inner_solve, _newton_controls, _NewtonTrace
from .problems import UrysohnProblem
from .quadrature import _count, _frozen_array, values_on

__all__ = [
    "PointValues",
    "LevelResult",
    "ConvergenceReport",
    "richardson",
    "estimate_order",
    "convergence_study",
]

ORDER_FLOOR = 1e-14


@dataclass(frozen=True, eq=False)
class PointValues:
    """Finite values sampled at the coarse partition points 0 = t_0 < ... < t_n = 1."""

    points: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        pts = _frozen_array(self.points, (np.size(self.points),), "points (1-d)")
        vals = _frozen_array(self.values, pts.shape, "values (one per point)")
        if pts.size < 2 or np.any(np.diff(pts) <= 0):
            raise ValueError("points must be strictly increasing with at least 2 entries")
        if abs(pts[0]) > 1e-15 or abs(pts[-1] - 1.0) > 1e-15:
            raise ValueError("points must start at 0 and end at 1")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "values", vals)


def richardson(coarse: PointValues, fine: PointValues, r: int) -> PointValues:
    """Extrapolate values on meshes n and 2n to cancel the h**(2r) term.

    Returns (2**(2r) * fine - coarse) / (2**(2r) - 1) at the coarse
    points; the fine values are restricted to the even-indexed points,
    which must coincide with the coarse ones.
    """
    r = _count(r, "r")
    if fine.points.size != 2 * coarse.points.size - 1:
        raise GridMismatchError(
            f"fine grid has {fine.points.size} points, expected "
            f"{2 * coarse.points.size - 1} for a doubled mesh"
        )
    shared = fine.points[::2]
    drift = np.max(np.abs(shared - coarse.points))
    if drift > 1e-14:
        raise GridMismatchError(f"fine grid misaligned with coarse by {drift:.2e}")
    weight = float(2 ** (2 * r))
    values = (weight * fine.values[::2] - coarse.values) / (weight - 1.0)
    return PointValues(points=coarse.points, values=values)


def estimate_order(e_coarse: float, e_fine: float):
    """Observed order log2(e_coarse / e_fine); None below the error floor.

    Errors at or below 1e-14 sit in floating-point noise, so no order can
    be claimed there and the estimate is reported as absent (None).  An
    error that is negative or not finite raises ValueError.
    """
    for e in (e_coarse, e_fine):
        if not 0.0 <= e < np.inf:
            raise ValueError(f"errors must be finite and >= 0, got {e!r}")
    if e_coarse <= ORDER_FLOOR or e_fine <= ORDER_FLOOR:
        return None
    return float(np.log2(e_coarse / e_fine))


@dataclass(frozen=True, eq=False)
class LevelResult(_NewtonTrace):
    """Errors and orders for one ladder level at its partition points.

    ``order_s[i]`` is the observed order of eps_S between this level and
    the next at point i (None where either error is below the floor or no
    next level exists); ``eps_ex``/``order_ex`` likewise for the
    extrapolated values, needing one and two further levels respectively.
    ``residual_norms`` is the level's Newton trace; ``points``, ``m`` = n*p,
    ``newton_iterations`` and ``final_residual_norm`` are derived.
    """

    n: int
    p: int
    rho: int
    z_s: np.ndarray
    eps_s: np.ndarray
    order_s: tuple
    eps_ex: np.ndarray | None
    order_ex: tuple | None
    residual_norms: tuple
    wall_time: float

    @property
    def m(self) -> int:
        """Fine subinterval count n*p."""
        return self.n * self.p

    @property
    def points(self) -> np.ndarray:
        """Partition points i/n for i = 0..n, where the errors are taken."""
        return np.arange(self.n + 1) / self.n


@dataclass(frozen=True, eq=False)
class ConvergenceReport:
    """Ladder study output: one LevelResult per n, coarsest first."""

    problem: str
    r: int
    levels: tuple

    def level_for(self, n: int) -> LevelResult:
        for level in self.levels:
            if level.n == n:
                return level
        raise KeyError(f"no level with n={n} in report")


def _orders_between(eps_coarse: np.ndarray, eps_fine_shared: np.ndarray) -> tuple:
    return tuple(
        estimate_order(ec, ef) for ec, ef in zip(eps_coarse.tolist(), eps_fine_shared.tolist())
    )


def convergence_study(
    problem: UrysohnProblem,
    r: int,
    n_list,
    p: int | None = None,
    rho: int | None = None,
    tol: float = 1e-12,
    max_iter: int = 50,
) -> ConvergenceReport:
    """Solve on a ladder of meshes and report errors and observed orders.

    Parameters
    ----------
    problem : UrysohnProblem
        Must carry an exact solution.
    r : int
        Local polynomial order.
    n_list : sequence of int
        Each entry must double the previous one whenever the ladder has
        more than one level (orders and extrapolation need nested
        partition points).
    p, rho, tol, max_iter :
        Passed to :func:`solve_discrete_galerkin` at every level; p
        defaults to n**r per level.

    The first level starts Newton from P_n f; each later level starts from
    the z_S of the level below, evaluated at its nodes and projected
    (nested iteration).  By mesh independence that start lies in the
    level's quadratic basin: on ``rpk-aks`` with r = 1 the levels take 5,
    3, 3, ... Newton iterations, where starts from P_n f take 5 each, and a
    warm level stops one quadratic step past the tolerance, at a residual
    of 1e-16 to 4e-15, so its z_S lies within 1e-14 relative of a
    ``tol=1e-14`` solve.  ``LevelResult.wall_time`` includes the
    evaluation of that start.

    Before the first level the ladder checks ``tol`` and ``max_iter``, then
    the solver's size plan of the last level, exact at any factor rank: a
    ladder whose top level does not fit in physical memory raises
    DomainError at once, before f or any factor is called.
    """
    ns = []
    for n in n_list:
        try:
            whole = int(n) == n and not isinstance(n, bool)
        except (TypeError, ValueError, OverflowError):  # None, nan, inf
            whole = False
        if not whole:
            raise ValueError(f"n_list entries must be integers, got {n!r}")
        ns.append(int(n))
    if not ns:
        raise ValueError("n_list must not be empty")
    if any(b != 2 * a for a, b in zip(ns, ns[1:])):
        raise ValueError(f"each n must double the previous one, got {ns}")
    if problem.exact is None:
        raise ValueError(f"problem {problem.name!r} has no exact solution")
    _newton_controls(tol, max_iter)
    _plan(problem, ns[-1], r, p, rho)

    solved = []
    z_s = []
    initial = None  # P_n f on the first level, then z_S of the level below
    for n in ns:
        start = time.perf_counter()
        args = (problem, n, r, p, rho, tol, max_iter, initial)
        sol = _inner_solve(f"level n={n} failed", solve_discrete_galerkin, *args)
        wall = time.perf_counter() - start
        pts = sol.grid.partition_points
        solved.append((sol, wall))
        z_s.append(PointValues(points=pts, values=iterated_eval(sol, pts)))
        initial = functools.partial(iterated_eval, sol)

    count = len(ns)
    eps_s = [np.abs(values_on(problem.exact, z.points) - z.values) for z in z_s]
    eps_ex: list = [None] * count
    for i in range(count - 1):
        extrap = richardson(z_s[i], z_s[i + 1], r)
        eps_ex[i] = np.abs(values_on(problem.exact, extrap.points) - extrap.values)

    levels = []
    for i, (sol, wall) in enumerate(solved):
        order_s = (None,) * z_s[i].points.size
        if i + 1 < count:
            order_s = _orders_between(eps_s[i], eps_s[i + 1][::2])
        order_ex = None
        if i + 2 < count:
            order_ex = _orders_between(eps_ex[i], eps_ex[i + 1][::2])
        levels.append(
            LevelResult(
                n=sol.grid.n,
                p=sol.grid.p,
                rho=sol.grid.rule.npoints,
                z_s=z_s[i].values,
                eps_s=eps_s[i],
                order_s=order_s,
                eps_ex=eps_ex[i],
                order_ex=order_ex,
                residual_norms=sol.residual_norms,
                wall_time=wall,
            )
        )
    return ConvergenceReport(problem=problem.name, r=r, levels=tuple(levels))
