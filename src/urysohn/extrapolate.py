"""Richardson extrapolation at partition points and convergence studies.

At the partition points the iterated Galerkin error has the expansion
(z_S - phi)(t_i) = C(t_i) * h**(2r) + O(h**(2r+2)), so combining the
solutions on meshes h and h/2 with weights (2**(2r), -1)/(2**(2r) - 1)
cancels the leading term and yields an O(h**(2r+2)) approximation.  The
convergence study runs a ladder of doubling n values, records the errors
eps_S and eps_EX at each level's partition points, and estimates the
observed orders between successive levels.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, GridMismatchError
from .galerkin import iterated_eval, solve_discrete_galerkin
from .problems import UrysohnProblem
from .quadrature import values_on

__all__ = [
    "PointValues",
    "LevelResult",
    "ConvergenceReport",
    "richardson",
    "estimate_order",
    "refinement_for",
    "convergence_study",
]

ORDER_FLOOR = 1e-14


@dataclass(frozen=True)
class PointValues:
    """Values sampled at the coarse partition points 0 = t_0 < ... < t_n = 1."""

    points: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        if pts.ndim != 1 or pts.shape != vals.shape:
            raise ValueError("points and values must be 1-d arrays of equal length")
        if pts.size < 2 or np.any(np.diff(pts) <= 0):
            raise ValueError("points must be strictly increasing with at least 2 entries")
        if abs(pts[0]) > 1e-15 or abs(pts[-1] - 1.0) > 1e-15:
            raise ValueError("points must start at 0 and end at 1")
        for field_name, arr in (("points", pts), ("values", vals)):
            arr = arr.copy()
            arr.setflags(write=False)
            object.__setattr__(self, field_name, arr)


def richardson(coarse: PointValues, fine: PointValues, r: int) -> PointValues:
    """Extrapolate values on meshes n and 2n to cancel the h**(2r) term.

    Returns (2**(2r) * fine - coarse) / (2**(2r) - 1) at the coarse
    points; the fine values are restricted to the even-indexed points,
    which must coincide with the coarse ones.
    """
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
    be claimed there and the estimate is reported as absent (None).
    """
    if e_coarse <= ORDER_FLOOR or e_fine <= ORDER_FLOOR:
        return None
    return float(np.log2(e_coarse / e_fine))


def refinement_for(n: int, r: int, p_rule) -> int:
    """Resolve a refinement rule to the fine-interval count p for given n.

    Accepted forms: "pow" (p = n**r, the default) and "fixed:<p>".
    """
    if p_rule is None or p_rule == "pow":
        return n**r
    if isinstance(p_rule, str) and p_rule.startswith("fixed:"):
        try:
            p = int(p_rule.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"bad refinement rule {p_rule!r}") from None
        if p < 1:
            raise ValueError(f"refinement p must be >= 1, got {p}")
        return p
    raise ValueError(f"unknown refinement rule {p_rule!r} (use 'pow' or 'fixed:<p>')")


@dataclass(frozen=True)
class LevelResult:
    """Errors and orders for one ladder level at its partition points.

    ``order_s[i]`` is the observed order of eps_S between this level and
    the next at point i (None where either error is below the floor or no
    next level exists); ``eps_ex``/``order_ex`` likewise for the
    extrapolated values, needing one and two further levels respectively.
    """

    n: int
    p: int
    m: int
    rho: int
    points: np.ndarray
    z_s: np.ndarray
    eps_s: np.ndarray
    order_s: tuple
    eps_ex: np.ndarray | None
    order_ex: tuple | None
    newton_iterations: int
    final_residual_norm: float
    wall_time: float


@dataclass(frozen=True)
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
    p_rule="pow",
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
        Strictly increasing; each entry must double the previous one
        whenever the ladder has more than one level (orders and
        extrapolation need nested partition points).
    p_rule : see :func:`refinement_for`.
    rho : int, optional
        Gauss points per fine subinterval (default minimal for r).
    tol, max_iter : Newton control passed to the solver.
    """
    ns = [int(n) for n in n_list]
    if not ns:
        raise ValueError("n_list must not be empty")
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError(f"n_list must be strictly increasing, got {ns}")
    if any(b != 2 * a for a, b in zip(ns, ns[1:])):
        raise ValueError(f"each n must double the previous one, got {ns}")
    if problem.exact is None:
        raise ValueError(f"problem {problem.name!r} has no exact solution")

    solved = []
    z_s = []
    for n in ns:
        p = refinement_for(n, r, p_rule)
        start = time.perf_counter()
        try:
            sol = solve_discrete_galerkin(
                problem, n, r, p=p, rho=rho, tol=tol, max_iter=max_iter
            )
        except ConvergenceError as exc:
            raise type(exc)(
                f"level n={n} failed: {exc}", residual_norms=exc.residual_norms
            ) from exc
        wall = time.perf_counter() - start
        pts = sol.grid.partition_points
        solved.append((sol, wall))
        z_s.append(PointValues(points=pts, values=iterated_eval(sol, pts)))

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
                m=sol.grid.m,
                rho=sol.grid.rule.npoints,
                points=z_s[i].points,
                z_s=z_s[i].values,
                eps_s=eps_s[i],
                order_s=order_s,
                eps_ex=eps_ex[i],
                order_ex=order_ex,
                newton_iterations=sol.newton_iterations,
                final_residual_norm=sol.final_residual_norm,
                wall_time=wall,
            )
        )
    return ConvergenceReport(problem=problem.name, r=r, levels=tuple(levels))
