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
:func:`_jacobian_at` read the factors through ``problems._factors``, their
reader at 1-d points.  Newton accepts the iterate of its last residual, so
the solution keeps that residual's node sums (``nystrom._node_sums``), and
z_S, at the partition points or anywhere, is read from them: beta and
delta are not evaluated at the accepted node values a second time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .nystrom import (
    _CHUNK,
    _PIECE,
    GridFunction,
    _NewtonTrace,
    _extension,
    _km_at,
    _newton,
    _newton_controls,
    _node_sums,
    _pieces,
    _prefix,
    _start,
    _suffix,
)
from .problems import UrysohnProblem, _factors
from .projection import PiecewiseLegendre, _check_order, _coefficients, basis_matrix, minimal_rho
from .quadrature import (
    CompositeGrid,
    _count,
    _fits,
    build_grid,
    gauss_rule,
    values_on,
)

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
    # nystrom._node_sums of z_g_node_values, set by the solver alone: not an
    # __init__ argument, so dataclasses.replace and a hand-built solution get None
    _km_sums: tuple | None = field(default=None, init=False, repr=False)

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
            inner = np.empty((r, grid.node_count))  # eta x global node b
            for j, points in enumerate(grid.nodes.reshape(n, block)):  # dk/du, piece by piece
                for cols, piece in _pieces(problem, grid, zvals, points, 1):
                    inner[:, cols] = wb.T @ piece
                    del piece  # before the next piece is formed
                m_full[j] = np.einsum("ekb,bx->ekx", inner.reshape(r, n, -1), wb)
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


def _plan(problem, n, r, p, rho):
    """(n, r, p, rule) of a solve of ``problem``, checked, and p defaulted to n**r;
    DomainError, with the byte count, if its planned bytes, for factors of the rank
    read on the problem's construction, or for the dense sweeps of a problem
    without factors, exceed physical memory.  Neither the grid nor the kernel,
    nor any factor, is touched."""
    n = _count(n, "n")
    rank = problem._rank
    rule = gauss_rule(minimal_rho(r) if rho is None else rho)
    r = _check_order(r, rule.npoints)
    p = _count(n**r if p is None else p, "p")
    block = p * rule.npoints
    nodes = n * block
    what = f"a Galerkin solve on {nodes} nodes" + (f" with rank-{rank} factors" if rank > 1 else "")
    node_bytes = 8 * nodes * (11 + 5 * r + (5 + 5 * r) * (rank - 1)) + 16 * block * (r + 1)
    if problem.factors is None:  # the K_m sweep's row block and four kernel pieces
        node_bytes += 8 * min(nodes, _CHUNK) * nodes + 32 * max(_PIECE, block)
        what += " without factors"
    else:  # the two node sums that the solution keeps for z_S
        node_bytes += 16 * nodes * rank
    _fits(node_bytes + 17 * (n * r) ** 2, what)
    return n, r, p, rule


def solve_discrete_galerkin(
    problem: UrysohnProblem,
    n: int,
    r: int,
    p: int | None = None,
    rho: int | None = None,
    tol: float = 1e-12,
    max_iter: int = 50,
    initial=None,
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
        cap (a positive integer), checked first: ValueError, a bool ``tol``
        included, comes before the size plan and f.  A ``tol`` below the
        rounding floor eps*max|c| of the iterate raises
        SingularOperatorError.
    initial : None, callable, or ndarray
        Newton's start: None gives P_n f; a callable is evaluated at the
        nodes and projected by P_n; an (n, r) array is taken as the
        coefficients.  A wrong shape or a non-finite value raises
        ValueError before any kernel or factor call.

    The iterate that meets ``tol`` is that of the last residual, and the
    solution keeps that residual's node sums of declared factors:
    :func:`iterated_eval` on it reads z_S from them, without evaluating
    beta and delta again.

    A solve on N = n*p*rho nodes plans 8*N*(11 + 5*r) + 16*p*rho*(r + 1)
    + 17*(n*r)**2 bytes: its node arrays, the tables of one coarse
    subinterval (offsets and basis, plain and weighted), and the float64
    Newton matrix with one more (n*r)**2 product and a 1-byte mask while it
    is built.  Declared factors of rank q (the larger side's) add 16*N*q
    bytes, the two node sums that the solution keeps, and for q > 1 another
    8*N*(5 + 5*r)*(q - 1), with q read from a(s) and c(s) when the
    problem is constructed.  With rank-1 factors, r = 1..4, the plan is
    1.06 to 1.42 times the tracemalloc peak for n = 1..64 and N =
    2700..80000.  The solve makes this one plan, at that rank, before the
    grid is built and before f or any factor is called; if it exceeds
    physical memory, DomainError carries the byte count.  A solve without
    factors adds 8*min(N, 128)*N bytes, the float64 row block of its K_m
    sweep, and 32*max(65536, p*rho), four of the kernel pieces that its
    sweep and its Jacobian form, decided from ``problem.factors`` in the
    same plan; that plan is 1.21 to 1.52 times the tracemalloc peak of the
    ``rpk-aks`` twin at (n, r) = (20, 1), (40, 1), (6, 2) and (12, 2).
    """
    max_iter = _newton_controls(tol, max_iter)
    n, r, p, rule = _plan(problem, n, r, p, rho)
    grid = build_grid(n, p, rule)
    basis = basis_matrix(grid, r)  # (block, r), identical on every subinterval
    wb = grid.node_weights[: basis.shape[0], None] * basis

    def node_values(coeffs):
        return (coeffs @ basis.T).ravel()

    def project(values):  # P_n of node values, as coefficients
        return _coefficients(values, grid, basis)

    c_f = project(values_on(problem.f, grid.nodes))
    c0 = _start(initial, grid, c_f, "initial coefficients", project)
    s_factors = _factors(problem, 0, grid.nodes)
    km = _km_at(problem, grid, grid.nodes, s_factors)
    jacobian = _jacobian_at(problem, grid, wb, n, r, s_factors)
    last = []  # the node values of the last residual's iterate and their node sums

    def residual(coeffs):
        last.clear()  # the old sums go before the new ones are formed
        zvals = node_values(coeffs)
        last.extend((zvals, _node_sums(problem, grid, zvals)))
        return coeffs - _coefficients(km(*last), grid, basis) - c_f

    def newton_step(coeffs, res):  # at the iterate of the last residual
        return np.linalg.solve(jacobian(last[0]), -res.ravel()).reshape(n, r)

    coeffs, trace = _newton(
        c0,
        residual,
        newton_step,
        tol,
        max_iter,
        "Galerkin Newton matrix is singular: 1 is numerically an "
        "eigenvalue of the projected linearised operator",
    )
    sol = GalerkinSolution(
        problem=problem,
        z_g=PiecewiseLegendre(n=n, r=r, coeffs=coeffs),
        z_g_node_values=GridFunction(grid, last[0]),
        residual_norms=tuple(trace),
    )
    # the accepted iterate is the last residual's, so its sums serve z_S
    object.__setattr__(sol, "_km_sums", last[1])
    return sol


def iterated_eval(sol: GalerkinSolution, s):
    """Evaluate the iterated solution z_S(s) = K_m(z_G)(s) + f(s).

    On a solution returned by :func:`solve_discrete_galerkin` K_m reads the
    node sums of the accepted iterate, which its last residual formed; any
    other solution has none, and its sums are formed here.  Either way the
    bits are those of the sums at ``sol.z_g_node_values``.
    """
    return _extension(sol.problem, sol.z_g_node_values, s, sol._km_sums)


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
