"""Discrete Galerkin and discrete iterated Galerkin solvers.

The discrete Galerkin solution z_G solves z - P_n K_m(z) = P_n f with P_n
the discrete orthogonal projection and K_m the Nystrom operator; the
iterated solution z_S = K_m(z_G) + f recovers superconvergence at the
partition points: |z_S(t_i) - phi(t_i)| = O(h**(2r)) while the global
error of z_G is only O(h**r).

Newton's method runs in coefficient space (dimension n*r).  The Jacobian
entry for basis functions phi_{j,eta} (row) and phi_{k,xi} (column) is
delta - <K_m'(z) phi_{k,xi}, phi_{j,eta}>, assembled per coarse
subinterval so no (m*rho)**2 matrix is ever stored.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PrecisionError
from .nystrom import GridFunction, _extension, _kernel_pieces, _newton, _weighted_kernel_sum
from .problems import UrysohnProblem
from .projection import PiecewiseLegendre, basis_matrix
from .quadrature import CompositeGrid, build_grid, gauss_rule, values_on

__all__ = [
    "GalerkinSolution",
    "IteratedSolution",
    "minimal_rho",
    "solve_discrete_galerkin",
    "iterated_eval",
    "partition_point_errors",
]

_MAX_COEFFS = 2000


def minimal_rho(r: int) -> int:
    """Smallest rho whose Gauss rule is exact to degree 3r (2*rho-1 >= 3r)."""
    return (3 * r + 2) // 2


@dataclass(frozen=True)
class GalerkinSolution:
    """Result of :func:`solve_discrete_galerkin`.

    ``z_g`` is the piecewise-polynomial Galerkin solution;
    ``z_g_node_values`` caches its values at the quadrature nodes (these
    drive every K_m evaluation, including the iterated solution).
    """

    problem: UrysohnProblem
    grid: CompositeGrid
    r: int
    z_g: PiecewiseLegendre
    z_g_node_values: GridFunction
    newton_iterations: int
    final_residual_norm: float
    residual_norms: tuple

    def iterated(self) -> "IteratedSolution":
        return IteratedSolution(self)


@dataclass(frozen=True)
class IteratedSolution:
    """The iterated solution z_S(s) = K_m(z_G)(s) + f(s), a callable.

    Continuous across partition points by construction; re-projecting it
    onto the piecewise space returns z_G's coefficients.
    """

    solution: GalerkinSolution

    def __call__(self, s):
        return iterated_eval(self.solution, s)


def _jacobian(problem, grid, zvals, wb, n, r):
    """I - M where M[(j,eta),(k,xi)] = <K_m'(z) phi_{k,xi}, phi_{j,eta}>."""
    block = grid.p * grid.rule.npoints
    m_full = np.empty((n, r, n, r))
    inner = np.empty((r, grid.node_count))  # eta x global node b
    for j in range(n):
        rows = grid.nodes[j * block : (j + 1) * block]
        # one branch on the earlier and the later coarse blocks, both within block j
        for c0, c1, piece in _kernel_pieces(problem, rows, grid.nodes, zvals, 1):
            inner[:, c0:c1] = wb.T @ piece
        m_full[j] = np.einsum("ekb,bx->ekx", inner.reshape(r, n, block), wb)
    jac = -m_full.reshape(n * r, n * r)
    jac[np.diag_indices_from(jac)] += 1.0
    return jac


def solve_discrete_galerkin(
    problem: UrysohnProblem,
    n: int,
    r: int,
    p: int | None = None,
    rho: int | None = None,
    tol: float = 1e-12,
    max_iter: int = 50,
) -> GalerkinSolution:
    """Solve z - P_n K_m(z) = P_n f by Newton's method in coefficient space.

    Parameters
    ----------
    problem : UrysohnProblem
    n : int
        Coarse subinterval count.
    r : int
        Local polynomial order (degree < r); n*r <= 2000.
    p : int, optional
        Fine subintervals per coarse one.  Default n**r, which makes
        fine_h**2 = h**(2r+2) -- small enough for both the h**(2r)
        superconvergence and the extrapolated h**(2r+2) rate.
    rho : int, optional
        Gauss points per fine subinterval; default is the smallest value
        satisfying the precision guard 2*rho - 1 >= 3r.
    tol, max_iter :
        Newton control: sup norm of the coefficient residual
        F(c) = c - <K_m(z_c), phi> - c_f, and the iteration cap.
    """
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    if p is None:
        p = n**r
    if rho is None:
        rho = minimal_rho(r)
    if 2 * rho - 1 < 3 * r:
        raise PrecisionError(
            f"rho={rho} gives quadrature degree {2 * rho - 1} < 3r = {3 * r}"
        )
    if n * r > _MAX_COEFFS:
        raise ValueError(f"n*r = {n * r} exceeds coefficient cap {_MAX_COEFFS}")

    grid = build_grid(n, p, gauss_rule(rho))
    block = p * rho
    basis = basis_matrix(grid, r)  # (block, r), identical on every subinterval
    w_block = grid.node_weights[:block]
    wb = w_block[:, None] * basis

    f_nodes = values_on(problem.f, grid.nodes)
    c_f = (f_nodes.reshape(n, block) * w_block[None, :]) @ basis

    def node_values(coeffs):
        return (coeffs @ basis.T).ravel()

    def residual(coeffs):
        km_vals = _weighted_kernel_sum(problem, grid, node_values(coeffs), grid.nodes, order=0)
        return coeffs - (km_vals.reshape(n, block) * w_block[None, :]) @ basis - c_f

    def newton_step(coeffs, res):
        jac = _jacobian(problem, grid, node_values(coeffs), wb, n, r)
        return np.linalg.solve(jac, -res.ravel()).reshape(n, r)

    coeffs, trace = _newton(
        c_f.copy(),
        residual,
        newton_step,
        tol,
        max_iter,
        "Galerkin Newton matrix is singular: 1 is numerically an "
        "eigenvalue of the projected linearised operator",
    )
    return GalerkinSolution(
        problem=problem,
        grid=grid,
        r=r,
        z_g=PiecewiseLegendre(n=n, r=r, coeffs=coeffs),
        z_g_node_values=GridFunction(grid, node_values(coeffs)),
        newton_iterations=len(trace),
        final_residual_norm=trace[-1],
        residual_norms=tuple(trace),
    )


def iterated_eval(sol: GalerkinSolution, s):
    """Evaluate the iterated solution z_S(s) = K_m(z_G)(s) + f(s)."""
    return _extension(sol.problem, sol.z_g_node_values, s)


def partition_point_errors(sol: GalerkinSolution, exact=None):
    """Errors |exact(t_i) - z_S(t_i)| at the partition points t_i = i/n.

    ``exact`` defaults to the problem's stored exact solution.  Returns a
    list of (t_i, error) pairs for i = 0..n.
    """
    if exact is None:
        exact = sol.problem.exact
    if exact is None:
        raise ValueError("no exact solution available for error evaluation")
    pts = sol.grid.partition_points
    errors = np.abs(values_on(exact, pts) - iterated_eval(sol, pts))
    return list(zip(pts.tolist(), errors.tolist()))
