"""Nystrom discretisation of the Urysohn operator and its Newton solver.

The integral operator is replaced by the composite quadrature sum

    K_m(x)(s) = sum_b W_b * k(s, node_b, x(node_b)),

so the unknown is the vector of values at the quadrature nodes.  Values
anywhere in [0, 1] come from the natural extension x(s) = f(s) + K_m(x)(s).
The kernel is evaluated with the correct branch on each side of t = s via
:func:`urysohn.problems.kernel_eval`, which is what limits the attainable
accuracy to O(fine_h**2): the diagonal kink sits inside quadrature panels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, SingularOperatorError
from .problems import UrysohnProblem, kernel_eval
from .quadrature import CompositeGrid, _unit_points, values_on

__all__ = ["GridFunction", "apply_km", "km_prime_apply", "solve_nystrom", "NystromSolution"]

_MAX_NODES = 5000
_CHUNK = 128  # points per row block of K_m and of the Nystrom Jacobian
_PIECE = 1 << 16  # kernel entries per kernel_eval call


@dataclass(frozen=True)
class GridFunction:
    """Values of a function at all quadrature nodes of a composite grid.

    Ordering matches ``grid.nodes``: coarse subinterval major, then fine
    subinterval, then Gauss point.
    """

    grid: CompositeGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.node_count,):
            raise ValueError(
                f"values shape {v.shape} does not match node count {self.grid.node_count}"
            )
        if not np.all(np.isfinite(v)):
            raise ValueError("grid-function values must be finite")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)


def _kernel_pieces(problem, s_rows, nodes, xvals, order):
    """Yield (c0, c1, kernel(s_rows, nodes[c0:c1], xvals[c0:c1])) covering all columns.

    ``nodes`` must be sorted.  Columns below ``lo`` lie on or below every
    row and columns from ``hi`` on above every row, so kernel_eval calls
    only one branch there; only the band [lo, hi) between the smallest and
    the largest row needs both, and it is narrow when the rows are close.
    Each range is cut into pieces of at most _PIECE entries, so that the
    temporaries a branch builds fit in cache and are reused from the heap
    instead of being mapped and page-faulted afresh for every piece.
    """
    lo = np.searchsorted(nodes, s_rows.min(), side="right")
    hi = np.searchsorted(nodes, s_rows.max(), side="right")
    width = max(1, _PIECE // s_rows.size)
    for r0, r1 in ((0, lo), (lo, hi), (hi, nodes.size)):
        for c0 in range(r0, r1, width):
            c1 = min(c0 + width, r1)
            yield c0, c1, kernel_eval(
                problem, s_rows[:, None], nodes[None, c0:c1], xvals[None, c0:c1], order
            )


def _weighted_kernel_sum(problem, grid, xvals, s_flat, order, weight_extra=None):
    """sum_b W_b [extra_b] * kernel(s_a, node_b, xvals_b), in blocks of _CHUNK points.

    The points go through the blocks in ascending order, so that each block
    needs both kernel branches only near the diagonal, except the last
    ``size % _CHUNK``: they keep their given order and form the last block.
    OpenBLAS sums the last (row count mod 4) rows of a GEMV call with other
    kernels, so this gives every point the sum that one GEMV over all
    points in the given order gives it, unless exactly one is left over.
    """
    size = s_flat.size
    w = grid.node_weights if weight_extra is None else grid.node_weights * weight_extra
    head = size - size % _CHUNK
    perm = np.concatenate([np.argsort(s_flat[:head], kind="stable"), np.arange(head, size)])
    out = np.empty(size)
    buf = np.empty((min(_CHUNK, size), grid.node_count))
    for a0 in range(0, size, _CHUNK):
        idx = perm[a0 : a0 + _CHUNK]
        rows = buf[: idx.size]
        for c0, c1, piece in _kernel_pieces(problem, s_flat[idx], grid.nodes, xvals, order):
            rows[:, c0:c1] = piece
        out[idx] = rows @ w
    return out


def apply_km(problem: UrysohnProblem, x: GridFunction, s):
    """Evaluate the discretised operator K_m(x) at points s in [0, 1]."""
    s_arr = _unit_points(s)
    out = _weighted_kernel_sum(
        problem, x.grid, x.values, np.atleast_1d(s_arr).ravel(), order=0
    )
    return float(out[0]) if s_arr.ndim == 0 else out.reshape(s_arr.shape)


def km_prime_apply(problem: UrysohnProblem, base: GridFunction, v: GridFunction, s):
    """Evaluate the Frechet derivative action K_m'(base)[v] at points s.

    K_m'(base)v(s) = sum_b W_b * dk/du(s, node_b, base_b) * v_b.
    """
    if base.grid is not v.grid and not np.array_equal(base.grid.nodes, v.grid.nodes):
        raise ValueError("base and direction must live on the same grid")
    s_arr = _unit_points(s)
    out = _weighted_kernel_sum(
        problem,
        base.grid,
        base.values,
        np.atleast_1d(s_arr).ravel(),
        order=1,
        weight_extra=v.values,
    )
    return float(out[0]) if s_arr.ndim == 0 else out.reshape(s_arr.shape)


def _extension(problem: UrysohnProblem, x: GridFunction, s):
    """Natural extension f(s) + K_m(x)(s) at points s in [0, 1]."""
    s_arr = np.asarray(s, dtype=float)
    flat = np.atleast_1d(s_arr).ravel()
    out = values_on(problem.f, flat) + apply_km(problem, x, flat)
    return float(out[0]) if s_arr.ndim == 0 else out.reshape(s_arr.shape)


def _newton(x0, residual, newton_step, tol, max_iter, singular_message):
    """Newton's method on residual(x) = 0 from x0; returns (x, residual trace).

    The one Newton loop of the package: solve_nystrom iterates on node
    values, solve_discrete_galerkin on Galerkin coefficients.

    ``newton_step(x, res)`` solves the linearised system J(x) step = -res;
    the trace holds the sup norm of each residual.  An iterate is accepted
    once that norm is <= ``tol``, unless the rounding floor eps*max|x| of
    the iterate exceeds ``tol``: then the small residual says nothing.  On
    an equation without a solution that is how a nearly singular Newton
    matrix shows, through an iterate grown to ~1/eps.
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    x = x0
    trace = []
    for _ in range(max_iter):
        res = residual(x)
        rnorm = float(np.max(np.abs(res)))
        trace.append(rnorm)
        if rnorm <= tol:
            floor = np.finfo(float).eps * float(np.max(np.abs(x)))
            if floor > tol:
                raise SingularOperatorError(
                    f"Newton residual {rnorm:.3e} met tol={tol} only by rounding: "
                    f"the iterate's rounding floor eps*max|x| = {floor:.3e} exceeds "
                    "tol, so the Newton matrix is nearly singular (the equation may "
                    "have no solution) or tol is below the attainable accuracy",
                    residual_norms=trace,
                )
            return x, trace
        try:
            step = newton_step(x, res)
        except np.linalg.LinAlgError:
            raise SingularOperatorError(singular_message, residual_norms=trace) from None
        if not np.all(np.isfinite(step)):
            raise ConvergenceError("Newton step is non-finite", residual_norms=trace)
        x = x + step

    raise ConvergenceError(
        f"Newton did not reach tol={tol} in {max_iter} iterations "
        f"(last residual {trace[-1]:.3e})",
        residual_norms=trace,
    )


@dataclass(frozen=True)
class NystromSolution:
    """Solution of the Nystrom equation x - K_m(x) = f at the grid nodes."""

    problem: UrysohnProblem
    grid: CompositeGrid
    node_values: GridFunction
    newton_iterations: int
    final_residual_norm: float
    residual_norms: tuple

    def __call__(self, s):
        """Natural extension f(s) + K_m(x)(s); agrees with the node values."""
        return _extension(self.problem, self.node_values, s)


def solve_nystrom(
    problem: UrysohnProblem,
    grid: CompositeGrid,
    tol: float = 1e-12,
    max_iter: int = 50,
    initial=None,
) -> NystromSolution:
    """Solve the Nystrom equation by Newton's method with a dense Jacobian.

    Parameters
    ----------
    problem : UrysohnProblem
    grid : CompositeGrid
        Node count m*rho must not exceed 5000 (dense linear algebra).
    tol : float
        Convergence threshold on the sup norm of the node residual
        x - K_m(x) - f.
    max_iter : int
        Maximum number of Newton iterations (residual evaluations).
    initial : None, callable, or ndarray
        Starting values at the nodes; defaults to f.

    Raises
    ------
    ConvergenceError
        If the iteration does not reach ``tol`` (carries the residual trace).
    SingularOperatorError
        If I - K_m'(x) is numerically singular at some iterate.
    """
    n_nodes = grid.node_count
    if n_nodes > _MAX_NODES:
        raise ValueError(f"grid has {n_nodes} nodes; dense solve capped at {_MAX_NODES}")

    f_nodes = values_on(problem.f, grid.nodes)
    if initial is None:
        x0 = f_nodes.copy()
    elif callable(initial):
        x0 = values_on(initial, grid.nodes)
    else:
        x0 = np.asarray(initial, dtype=float).copy()
        if x0.shape != (n_nodes,):
            raise ValueError(f"initial values shape {x0.shape}, expected ({n_nodes},)")

    def residual(x):
        return x - _weighted_kernel_sum(problem, grid, x, grid.nodes, order=0) - f_nodes

    def newton_step(x, res):
        # J = I - A with A_ab = W_b * dk/du(node_a, node_b, x_b)
        jac = np.empty((n_nodes, n_nodes))
        for a0 in range(0, n_nodes, _CHUNK):
            a1 = min(a0 + _CHUNK, n_nodes)
            for c0, c1, piece in _kernel_pieces(problem, grid.nodes[a0:a1], grid.nodes, x, 1):
                jac[a0:a1, c0:c1] = piece
        jac *= -grid.node_weights[None, :]
        jac[np.diag_indices_from(jac)] += 1.0
        return np.linalg.solve(jac, -res)

    x, trace = _newton(
        x0,
        residual,
        newton_step,
        tol,
        max_iter,
        "Newton matrix I - K_m'(x) is singular: 1 is numerically an "
        "eigenvalue of the linearised operator at the current iterate",
    )
    return NystromSolution(
        problem=problem,
        grid=grid,
        node_values=GridFunction(grid, x),
        newton_iterations=len(trace),
        final_residual_norm=trace[-1],
        residual_norms=tuple(trace),
    )
