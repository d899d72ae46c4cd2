"""Discrete Galerkin solver and its iterated (superconvergent) variant."""

import numpy as np
import pytest

from urysohn import (
    PrecisionError,
    SingularOperatorError,
    UrysohnProblem,
    build_grid,
    gauss_rule,
    get_problem,
    iterated_eval,
    minimal_rho,
    partition_point_errors,
    project,
    solve_discrete_galerkin,
)
from urysohn.galerkin import _jacobian
from urysohn.projection import basis_matrix


def zero_kernel_problem():
    shape = lambda *args: np.broadcast(*args).shape
    return UrysohnProblem(
        name="zero-kernel",
        kappa_lower=lambda s, t, u: np.zeros(shape(s, t, u)),
        kappa_upper=lambda s, t, u: np.zeros(shape(s, t, u)),
        kappa_lower_du=lambda s, t, u: np.zeros(shape(s, t, u)),
        kappa_upper_du=lambda s, t, u: np.zeros(shape(s, t, u)),
        f=lambda s: np.cos(np.asarray(s, dtype=float)),
    )


def linear_problem(c):
    """x(s) - int_0^1 c*x(t) dt = 1: solution 1/(1 - c), none for c = 1."""
    shape = lambda *args: np.broadcast(*args).shape
    return UrysohnProblem(
        name=f"linear-{c}",
        kappa_lower=lambda s, t, u: c * np.broadcast_to(u, shape(s, t, u)),
        kappa_upper=lambda s, t, u: c * np.broadcast_to(u, shape(s, t, u)),
        kappa_lower_du=lambda s, t, u: np.full(shape(s, t, u), c),
        kappa_upper_du=lambda s, t, u: np.full(shape(s, t, u), c),
        f=lambda s: np.ones_like(np.asarray(s, dtype=float)),
    )


def test_degenerate_kernel_reduces_to_projection_of_forcing():
    pb = zero_kernel_problem()
    sol = solve_discrete_galerkin(pb, 4, 2)
    proj = project(pb.f, sol.grid, 2)
    np.testing.assert_allclose(sol.z_g.coeffs, proj.coeffs, atol=1e-14)
    # the iterated solution is f itself: K_m vanishes identically
    s = np.linspace(0, 1, 9)
    np.testing.assert_array_equal(iterated_eval(sol, s), pb.f(s))
    assert sol.newton_iterations == 1


def test_projection_identity_links_iterated_and_galerkin_solutions():
    # Projecting the iterated solution recovers the Galerkin coefficients.
    pb = get_problem("rpk-aks")
    sol = solve_discrete_galerkin(pb, 8, 1)
    it = sol.iterated()
    back = project(it, sol.grid, 1)
    assert np.abs(back.coeffs - sol.z_g.coeffs).max() < 1e-10


def test_jacobian_matches_finite_differences_small_system():
    pb = get_problem("rpk-aks")
    n, r = 4, 2
    rho = minimal_rho(r)
    grid = build_grid(n, 2, gauss_rule(rho))
    basis = basis_matrix(grid, r)
    block = grid.offsets.size
    wb = grid.node_weights[:block].reshape(block, 1) * basis * n  # per-interval weights
    rng = np.random.default_rng(3)
    coeffs = rng.normal(size=(n, r))

    def residual(c):
        from urysohn.nystrom import GridFunction, apply_km
        from urysohn.projection import PiecewiseLegendre

        pl = PiecewiseLegendre(n, r, c.reshape(n, r))
        zvals = pl(grid.nodes)
        km = apply_km(pb, GridFunction(grid, zvals), grid.nodes)
        cf = (pb.f(grid.nodes) * grid.node_weights) @ basis_matrix_full
        pk = (km * grid.node_weights) @ basis_matrix_full
        return c - pk.ravel() - cf.ravel()

    # full block-diagonal basis matrix, shape (N, n*r)
    N = grid.node_count
    basis_matrix_full = np.zeros((N, n * r))
    for j in range(n):
        basis_matrix_full[j * block : (j + 1) * block, j * r : (j + 1) * r] = basis

    c0 = coeffs.ravel()
    eps = 1e-6
    fd = np.empty((n * r, n * r))
    for k in range(n * r):
        up, dn = c0.copy(), c0.copy()
        up[k] += eps
        dn[k] -= eps
        fd[:, k] = (residual(up) - residual(dn)) / (2 * eps)

    from urysohn.projection import PiecewiseLegendre

    zvals = PiecewiseLegendre(n, r, coeffs)(grid.nodes)
    wb_solver = grid.node_weights[:block, None] * basis
    analytic = _jacobian(pb, grid, zvals, wb_solver, n, r)
    np.testing.assert_allclose(analytic, fd, atol=1e-5)


def test_quadratic_newton_trace_on_builtin():
    pb = get_problem("rpk-aks")
    sol = solve_discrete_galerkin(pb, 20, 1)
    trace = np.asarray(sol.residual_norms)
    assert sol.newton_iterations <= 8
    assert sol.final_residual_norm <= 1e-12
    drops = trace[1:] / trace[:-1]
    assert np.all(drops[1:] < 0.25)


def test_galerkin_error_is_first_order_for_piecewise_constants():
    pb = get_problem("rpk-aks")
    errs = []
    for n in (16, 32):
        sol = solve_discrete_galerkin(pb, n, 1, p=4)
        s = np.linspace(0.0005, 0.9995, 401)
        errs.append(np.abs(sol.z_g(s) - pb.exact(s)).max())
    order = np.log2(errs[0] / errs[1])
    assert abs(order - 1.0) < 0.1


def test_iterated_error_is_second_order_at_partition_points():
    pb = get_problem("rpk-aks")
    sup_errs = []
    for n in (10, 20):
        sol = solve_discrete_galerkin(pb, n, 1, p=n)
        errs = partition_point_errors(sol)
        # compare on the shared coarse points to keep the ratio clean
        shared = {round(t, 10): e for t, e in errs}
        sup_errs.append(max(abs(e) for t, e in errs if 0 < t < 1))
    order = np.log2(sup_errs[0] / sup_errs[1])
    assert abs(order - 2.0) < 0.25


def test_interior_superconvergence_beats_global_rate():
    # Partition-point errors shrink markedly faster than the global error.
    pb = get_problem("rpk-aks")
    sol = solve_discrete_galerkin(pb, 20, 1, p=20)
    interior = [abs(e) for t, e in partition_point_errors(sol) if 0 < t < 1]
    s = np.linspace(0.0005, 0.9995, 401)
    global_err = np.abs(sol.z_g(s) - pb.exact(s)).max()
    assert max(interior) < global_err / 50


def test_boundary_points_are_exact_for_vanishing_kernel_rows():
    # The built-in Green's factor vanishes at s in {0, 1}, so the iterated
    # solution equals f there and the boundary errors are exactly zero.
    pb = get_problem("rpk-aks")
    sol = solve_discrete_galerkin(pb, 10, 1)
    errs = dict((round(t, 10), e) for t, e in partition_point_errors(sol))
    assert errs[0.0] == pytest.approx(0.0, abs=1e-14)
    assert errs[1.0] == pytest.approx(0.0, abs=1e-14)


def test_higher_degree_spaces_converge_faster():
    pb = get_problem("rpk-aks")
    e1 = max(
        abs(e)
        for t, e in partition_point_errors(solve_discrete_galerkin(pb, 8, 1, p=8))
        if 0 < t < 1
    )
    e2 = max(
        abs(e)
        for t, e in partition_point_errors(solve_discrete_galerkin(pb, 8, 2, p=8))
        if 0 < t < 1
    )
    assert e2 < e1 / 20


def test_precision_guard_and_size_caps():
    pb = get_problem("rpk-aks")
    with pytest.raises(PrecisionError):
        solve_discrete_galerkin(pb, 4, 2, rho=2)
    with pytest.raises(ValueError):
        solve_discrete_galerkin(pb, 2001, 1)


def test_partition_point_errors_requires_reference():
    pb = zero_kernel_problem()
    sol = solve_discrete_galerkin(pb, 4, 1)
    with pytest.raises(ValueError):
        partition_point_errors(sol)
    custom = partition_point_errors(sol, exact=pb.f)
    assert max(abs(e) for _, e in custom) < 1e-14


def test_equation_without_solution_is_not_reported_solved():
    # With c = 1 the Newton matrix is singular up to rounding, so the step
    # throws the coefficients to about -1.1e15, where the residual rounds to
    # 1.1e-16 < tol.  That is not convergence.
    with pytest.raises(SingularOperatorError) as exc:
        solve_discrete_galerkin(linear_problem(1.0), 4, 1, p=1, rho=2)
    assert len(exc.value.residual_norms) == 2
    assert exc.value.residual_norms[-1] <= 1e-12
    sol = solve_discrete_galerkin(linear_problem(0.5), 4, 1, p=1, rho=2)
    assert sol.newton_iterations == 2
    np.testing.assert_allclose(sol.z_g(np.linspace(0, 1, 5)), 2.0, rtol=1e-14)


def test_iteration_cap_must_be_positive():
    with pytest.raises(ValueError, match="max_iter"):
        solve_discrete_galerkin(get_problem("rpk-aks"), 4, 1, max_iter=0)


@pytest.mark.parametrize("n, r", [(6, 1), (2, 2)])
def test_solve_matches_dense_reference_bit_for_bit(crossing_problem, n, r):
    # The reference is the same Newton iteration with both kernel branches
    # evaluated on the whole N x N block (N**2 <= 72**2 stays below the size
    # at which OpenBLAS splits one GEMV across threads).
    pb = crossing_problem
    sol = solve_discrete_galerkin(pb, n, r)
    grid = sol.grid
    block = grid.p * grid.rule.npoints
    basis = basis_matrix(grid, r)
    w_block = grid.node_weights[:block]
    wb = w_block[:, None] * basis
    s, t = grid.nodes[:, None], grid.nodes[None, :]

    def dense(lower, upper, z):
        return np.where(t <= s, lower(s, t, z[None, :]), upper(s, t, z[None, :]))

    c_f = (pb.f(grid.nodes).reshape(n, block) * w_block[None, :]) @ basis
    coeffs, trace = c_f.copy(), []
    while True:
        z = (coeffs @ basis.T).ravel()
        km = dense(pb.kappa_lower, pb.kappa_upper, z) @ grid.node_weights
        res = coeffs - (km.reshape(n, block) * w_block[None, :]) @ basis - c_f
        trace.append(float(np.max(np.abs(res))))
        if trace[-1] <= 1e-12:
            break
        deriv = dense(pb.kappa_lower_du, pb.kappa_upper_du, z)
        m_full = np.stack(
            [
                np.einsum(
                    "ekb,bx->ekx",
                    (wb.T @ deriv[j * block : (j + 1) * block]).reshape(r, n, block),
                    wb,
                )
                for j in range(n)
            ]
        )
        jac = -m_full.reshape(n * r, n * r)
        jac[np.diag_indices_from(jac)] += 1.0
        coeffs = coeffs + np.linalg.solve(jac, -res.ravel()).reshape(n, r)

    assert list(sol.residual_norms) == trace
    np.testing.assert_array_equal(sol.z_g.coeffs, coeffs)
