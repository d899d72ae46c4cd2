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
c(s) at the nodes, shared by K_m and the Jacobian, with the node counts of
K_m and the projections and the block mask of the Jacobian, so a step
evaluates only the t factors beta, delta and their u-derivatives.  K_m, in
the residual and in z_S, comes from ``nystrom._km_at``; it and
:func:`_jacobian_at` read the factors through ``problems._factors``, the
one reader of declared factors.
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
    _suffix,
    _sweep,
)
from .problems import UrysohnProblem, _factors
from .projection import PiecewiseLegendre, _check_order, _coefficients, basis_matrix, minimal_rho
from .quadrature import CompositeGrid, _count, _fits, build_grid, gauss_rule, values_on

__all__ = [
    "GalerkinSolution",
    "solve_discrete_galerkin",
    "iterated_eval",
    "partition_point_errors",
]


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

    ``s_factors`` is ``problems._factors(problem, 0, grid.nodes)``: a(nodes)
    and c(nodes), or None without declared factors.  With them the half
    that does not depend on z is built here, once: their projections
    ``rows`` for the blocks off the diagonal, their weighted products for
    the blocks on it, and the 1-byte mask ``above`` of the entries above the
    diagonal blocks, where M is the upper side's product.
    """
    block = grid.offsets.size
    if problem.factors is None:

        def dense(zvals):
            m_full = np.empty((n, r, n, r))

            def write(rows, pieces):  # dk/du on the rows of one coarse subinterval
                inner = np.empty((r, grid.node_count))  # eta x global node b
                for c0, c1, piece in pieces:
                    inner[:, c0:c1] = wb.T @ piece
                m_full[rows.start // block] = np.einsum("ekb,bx->ekx", inner.reshape(r, n, -1), wb)

            _sweep(problem, grid, zvals, grid.nodes, 1, write, size=block)
            return _identity_minus(m_full, n * r)

        return dense

    wb_a = wb[None, :, :, None]
    halves = []
    # within block j, the lower side sums b <= a and the upper side b > a
    for s_part, sums in zip(s_factors, (lambda v: _prefix(v, 1), _after)):
        s_part = s_part.reshape(n, block, -1)  # [j, a, q]: a_q(t_a), t_a in block j
        # off the diagonal, M[(j, e), (k, x)] = rows[(j, e)] . cols[(k, x)]
        rows = np.einsum("ae,jaq->jeq", wb, s_part).reshape(n * r, -1)
        halves.append((rows, wb_a * s_part[:, :, None, :], sums))
    j = np.arange(n)
    coarse = np.repeat(j, r)  # the coarse subinterval of each coefficient
    above = coarse[:, None] < coarse[None, :]

    def factored(zvals):
        products, diags = [], []
        for (rows, weighted, sums), t_part in zip(halves, _factors(problem, 2, grid.nodes, zvals)):
            t_part = t_part.reshape(n, block, -1)  # [k, b, q]: beta_du_q(t_b, z_b), t_b in block k
            cols = np.einsum("bx,kbq->kxq", wb, t_part).reshape(n * r, -1)
            products.append((rows, cols))
            diags.append(np.einsum("jaeq,jaxq->jex", weighted, sums(wb_a * t_part[:, :, None, :])))
        m_full = np.einsum("iq,kq->ik", *products[0])  # the lower side, then the upper above
        np.copyto(m_full, np.einsum("iq,kq->ik", *products[1]), where=above)
        m_full.reshape(n, r, n, r)[j, :, j, :] = diags[0] + diags[1]
        return _identity_minus(m_full, n * r)

    return factored


def _after(values):
    """Exclusive suffix sums along axis 1: entry i sums the entries after i."""
    out = np.zeros_like(values)
    out[:, :-1] = _suffix(values[:, 1:], 1)
    return out


def _identity_minus(m_full, size):
    """I - M as a (size, size) matrix, in place, from a contiguous M of size**2 entries."""
    jac = np.negative(m_full, out=m_full).reshape(size, size)  # views: m_full is contiguous
    jac.ravel()[:: size + 1] += 1.0
    return jac


def _plan(n, r, p, rho, rank=1):
    """(n, r, p, rule) of a solve, checked, and p defaulted to n**r; DomainError,
    with the byte count, if its planned bytes, for factors of at most ``rank``
    terms a side, exceed physical memory."""
    n = _count(n, "n")
    rule = gauss_rule(minimal_rho(r) if rho is None else rho)
    r = _check_order(r, rule.npoints)
    p = _count(n**r if p is None else p, "p")
    nodes = n * p * rule.npoints
    what = f"a Galerkin solve on {nodes} nodes" + (f" with rank-{rank} factors" if rank > 1 else "")
    _fits(8 * nodes * (12 + 4 * r + (5 + 5 * r) * (rank - 1)) + 17 * (n * r) ** 2, what)
    return n, r, p, rule


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
        Local polynomial order (degree < r), a positive integer.
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

    A solve on N = n*p*rho nodes plans 8*N*(12 + 4*r) + 17*(n*r)**2 bytes:
    its node arrays, and the float64 Newton matrix with one more (n*r)**2
    product and a 1-byte mask while it is built.  That is the tracemalloc
    peak of a solve with rank-1 declared factors, r = 1..4, to within 20 %.
    If it exceeds physical memory, DomainError, with the byte count, comes
    before the grid is built.  Factors of rank q > 1 on either side add
    8*N*(5 + 5*r)*(q - 1) bytes, checked once a(nodes) and c(nodes) show q,
    before any t factor.  A solve without factors holds one 128 x N float64
    row block per worker of its kernel sweeps; the plan does not count it.
    """
    n, r, p, rule = _plan(n, r, p, rho)
    grid = build_grid(n, p, rule)
    basis = basis_matrix(grid, r)  # (block, r), identical on every subinterval
    wb = grid.node_weights[: basis.shape[0], None] * basis
    c_f = _coefficients(values_on(problem.f, grid.nodes), grid, basis)

    def node_values(coeffs):
        return (coeffs @ basis.T).ravel()

    _newton_controls(tol, max_iter)  # before the first kernel or factor call
    s_factors = _factors(problem, 0, grid.nodes)
    if s_factors is not None:  # their rank, planned before the first t factor
        _plan(n, r, p, rho, max(part.shape[1] for part in s_factors))
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
