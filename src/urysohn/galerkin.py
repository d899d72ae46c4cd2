"""Discrete Galerkin and discrete iterated Galerkin solvers.

The discrete Galerkin solution z_G solves z - P_n K_m(z) = P_n f with P_n
the discrete orthogonal projection and K_m the Nystrom operator; the
iterated solution z_S = K_m(z_G) + f, evaluated by :func:`iterated_eval`,
recovers superconvergence at the partition points:
|z_S(t_i) - phi(t_i)| = O(h**(2r)) while the global error of z_G is only
O(h**r).  The fine partition p per coarse subinterval defaults to n**r
here and nowhere else; :func:`convergence_study` and the command line pass
p through.

Newton's method runs in coefficient space (dimension n*r).  The Jacobian
entry for basis functions phi_{j,eta} (row) and phi_{k,xi} (column) is
delta - <K_m'(z) phi_{k,xi}, phi_{j,eta}>, assembled per coarse
subinterval so no (m*rho)**2 matrix is ever stored.

A Newton step costs 2*N**2 kernel evaluations on N = n*p*rho nodes, unless
the problem declares ``factors`` (each branch a sum of ``rank`` products
a(s) * beta(t, u)).  Then K_m at the sorted nodes is one inclusive prefix
sum (t <= s, ties to the lower branch as in ``kernel_eval``) and one
exclusive suffix sum, an off-diagonal Jacobian block is the product of two
(r, rank) matrices, and a diagonal block comes from prefix sums within the
block: O(N * r**2 * rank) + (n*r)**2 per step, plus the (n*r)**3 LU.  Its
z_S at M points then takes O((N + M) * rank + M log N) instead of M*N.
What does not depend on the iterate is built once per solve: a(s) and
c(s) at the nodes, by ``nystrom._s_factors``, shared by K_m and the
Jacobian, with the node counts of K_m and the projections of the Jacobian,
so a step evaluates only the t factors beta, delta and their
u-derivatives.  K_m, in the residual and in z_S, comes from
``nystrom._km_at``, the one reader of declared factors for K_m; besides it
only :func:`_jacobian_at` reads them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nystrom import (
    GridFunction,
    _NewtonTrace,
    _extension,
    _km_at,
    _newton,
    _newton_controls,
    _prefix,
    _s_factors,
    _suffix,
    _sweep,
)
from .problems import UrysohnProblem, _check_finite, _factor_values
from .projection import PiecewiseLegendre, _check_order, _coefficients, basis_matrix, minimal_rho
from .quadrature import CompositeGrid, _count, build_grid, gauss_rule, values_on

__all__ = [
    "GalerkinSolution",
    "solve_discrete_galerkin",
    "iterated_eval",
    "partition_point_errors",
]

_MAX_COEFFS = 2000


@dataclass(frozen=True, eq=False)
class GalerkinSolution(_NewtonTrace):
    """Result of :func:`solve_discrete_galerkin`.

    ``z_g`` is the piecewise-polynomial Galerkin solution;
    ``z_g_node_values`` caches its values at the quadrature nodes (these
    drive every K_m evaluation, including the iterated solution), and
    ``residual_norms`` is the Newton trace.  ``grid`` (that of the node
    values), ``r`` (that of ``z_g``), ``newton_iterations`` and
    ``final_residual_norm`` are derived from these fields.
    """

    problem: UrysohnProblem
    z_g: PiecewiseLegendre
    z_g_node_values: GridFunction
    residual_norms: tuple

    @property
    def grid(self) -> CompositeGrid:
        return self.z_g_node_values.grid

    @property
    def r(self) -> int:
        return self.z_g.r


def _jacobian_at(problem, grid, wb, n, r, s_factors):
    """``z -> I - M`` where M[(j,eta),(k,xi)] = <K_m'(z) phi_{k,xi}, phi_{j,eta}>.

    ``s_factors`` is ``nystrom._s_factors(problem, grid.nodes)``: a(nodes)
    and c(nodes), or None without declared factors.  With them the half
    that does not depend on z is built here, once: their projections
    ``rows`` for the blocks off the diagonal, their weighted products for
    the blocks on it, and the mask that picks the lower side below the
    diagonal.
    """
    block = grid.offsets.size
    if problem.factors is None:

        def dense(zvals):
            m_full = np.empty((n, r, n, r))

            def write(j, idx, pieces):  # dk/du on the rows of coarse subinterval j
                inner = np.empty((r, grid.node_count))  # eta x global node b
                for c0, c1, piece in pieces:
                    inner[:, c0:c1] = wb.T @ piece
                m_full[j] = np.einsum("ekb,bx->ekx", inner.reshape(r, n, block), wb)

            _sweep(problem, grid, zvals, grid.nodes, 1, write, size=block)
            return _identity_minus(m_full, n * r)

        return dense

    wb_a = wb[None, :, :, None]
    halves = []
    for s_part in s_factors:
        s_part = s_part.reshape(n, block, -1)  # [j, a, q]: a_q(t_a), t_a in block j
        # off the diagonal, M[j, :, k, :] = (wb.T @ s_part[j]) @ (wb.T @ t_part[k]).T
        halves.append((np.einsum("ae,jaq->jeq", wb, s_part), wb_a * s_part[:, :, None, :]))
    j = np.arange(n)
    below = (j[:, None] > j[None, :])[:, None, :, None]
    # within block j, the lower side sums b <= a and the upper side b > a
    diagonal_sums = (lambda v: _prefix(v, 1), _after)

    def factored(zvals):
        blocks = []
        for (rows, weighted), side, sums in zip(halves, problem.factors, diagonal_sums):
            t_part = _factor_values(side[2], grid.node_count, grid.nodes, zvals)
            _check_finite(problem, t_part)
            t_part = t_part.reshape(n, block, -1)  # [k, b, q]: beta_du_q(t_b, z_b), t_b in block k
            cols = np.einsum("bx,kbq->kxq", wb, t_part)
            diag = np.einsum("jaeq,jaxq->jex", weighted, sums(wb_a * t_part[:, :, None, :]))
            blocks.append((np.einsum("jeq,kxq->jekx", rows, cols), diag))
        (lower, lower_diag), (upper, upper_diag) = blocks
        m_full = np.where(below, lower, upper)
        m_full[j, :, j, :] = lower_diag + upper_diag
        return _identity_minus(m_full, n * r)

    return factored


def _after(values):
    """Exclusive suffix sums along axis 1: entry i sums the entries after i."""
    out = np.zeros_like(values)
    out[:, :-1] = _suffix(values[:, 1:], 1)
    return out


def _identity_minus(m_full, size):
    """I - M as a (size, size) matrix, from M in (n, r, n, r) blocks."""
    jac = -m_full.reshape(size, size)
    jac.ravel()[:: size + 1] += 1.0  # a view: jac is a new contiguous array
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
        Coarse subinterval count, a positive integer.
    r : int
        Local polynomial order (degree < r), a positive integer; n*r <= 2000.
    p : int, optional
        Fine subintervals per coarse one.  Default n**r, which makes
        fine_h**2 = h**(2r+2) -- small enough for both the h**(2r)
        superconvergence and the extrapolated h**(2r+2) rate.
    rho : int, optional
        Gauss points per fine subinterval; default is the smallest value
        satisfying the precision guard 2*rho - 1 >= 3r.
    tol, max_iter :
        Newton control: sup norm of the coefficient residual
        F(c) = c - <K_m(z_c), phi> - c_f (finite, > 0), and the iteration
        cap (a positive integer).  A ``tol`` below the rounding floor
        eps*max|c| of the iterate raises SingularOperatorError.
    """
    n = _count(n, "n")
    rule = gauss_rule(minimal_rho(r) if rho is None else rho)
    r = _check_order(r, rule.npoints)
    if p is None:
        p = n**r
    _count(n * r, "coefficient count n*r (the Jacobian takes 8*(n*r)**2 bytes)", hi=_MAX_COEFFS)

    grid = build_grid(n, p, rule)
    basis = basis_matrix(grid, r)  # (block, r), identical on every subinterval
    wb = grid.node_weights[: basis.shape[0], None] * basis
    c_f = _coefficients(values_on(problem.f, grid.nodes), grid, basis)

    def node_values(coeffs):
        return (coeffs @ basis.T).ravel()

    _newton_controls(tol, max_iter)  # before the first kernel or factor call
    s_factors = _s_factors(problem, grid.nodes)
    km = _km_at(problem, grid, grid.nodes, s_factors)
    jacobian = _jacobian_at(problem, grid, wb, n, r, s_factors)

    def residual(coeffs):
        return coeffs - _coefficients(km(node_values(coeffs)), grid, basis) - c_f

    def newton_step(coeffs, res):
        return np.linalg.solve(jacobian(node_values(coeffs)), -res.ravel()).reshape(n, r)

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
        z_g=PiecewiseLegendre(n=n, r=r, coeffs=coeffs),
        z_g_node_values=GridFunction(grid, node_values(coeffs)),
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
