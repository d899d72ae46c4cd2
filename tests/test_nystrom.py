"""Quadrature-discretized fixed-point solver (Newton iteration)."""

import numpy as np
import pytest

from urysohn import (
    ConvergenceError,
    GridFunction,
    SingularOperatorError,
    UrysohnProblem,
    apply_km,
    build_grid,
    gauss_rule,
    get_problem,
    kernel_eval,
    km_prime_apply,
    residual_check,
    solve_nystrom,
)


def builtin_grid(m, rho=2):
    return build_grid(m, 1, gauss_rule(rho))


def zero_kernel_problem():
    shape = lambda *args: np.broadcast(*args).shape
    return UrysohnProblem(
        name="zero-kernel",
        kappa_lower=lambda s, t, u: np.zeros(shape(s, t, u)),
        kappa_upper=lambda s, t, u: np.zeros(shape(s, t, u)),
        kappa_lower_du=lambda s, t, u: np.zeros(shape(s, t, u)),
        kappa_upper_du=lambda s, t, u: np.zeros(shape(s, t, u)),
        f=lambda s: 1.0 + np.asarray(s, dtype=float) ** 2,
    )


def test_degenerate_kernel_returns_forcing_in_one_iteration():
    pb = zero_kernel_problem()
    grid = builtin_grid(10)
    sol = solve_nystrom(pb, grid)
    assert sol.newton_iterations == 1
    np.testing.assert_array_equal(sol.node_values.values, pb.f(grid.nodes))
    s = np.linspace(0, 1, 7)
    np.testing.assert_allclose(sol(s), pb.f(s), atol=0)


def test_builtin_solution_values_and_iteration_budget():
    pb = get_problem("rpk-aks")
    grid = builtin_grid(100)
    sol = solve_nystrom(pb, grid)
    assert sol.newton_iterations <= 8
    err = np.abs(sol.node_values.values - pb.exact(grid.nodes)).max()
    assert err < 5e-4
    assert sol.final_residual_norm < 1e-12


def test_newton_trace_is_roughly_quadratic():
    pb = get_problem("rpk-aks")
    sol = solve_nystrom(pb, builtin_grid(100))
    trace = np.asarray(sol.residual_norms)
    # successive residuals fall faster than a fixed-rate contraction
    drops = trace[1:] / trace[:-1]
    assert np.all(drops[1:-1] < 0.1)


def test_node_error_order_two_in_fine_mesh():
    pb = get_problem("rpk-aks")
    errs = []
    for m in (50, 100, 200):
        grid = builtin_grid(m)
        sol = solve_nystrom(pb, grid)
        errs.append(np.abs(sol.node_values.values - pb.exact(grid.nodes)).max())
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    np.testing.assert_allclose(orders, 2.0, atol=0.1)


def test_natural_extension_matches_equation_residual():
    pb = get_problem("rpk-aks")
    sol = solve_nystrom(pb, builtin_grid(200))
    assert residual_check(pb, sol, panels=64) < 2e-4


def test_jacobian_action_matches_finite_differences():
    pb = get_problem("rpk-aks")
    grid = builtin_grid(20)
    rng = np.random.default_rng(11)
    base_vals = pb.exact(grid.nodes) + 0.1 * rng.normal(size=grid.node_count)
    direction = rng.normal(size=grid.node_count)
    base = GridFunction(grid, base_vals)
    vec = GridFunction(grid, direction)
    s = np.linspace(0, 1, 33)
    eps = 1e-6
    plus = apply_km(pb, GridFunction(grid, base_vals + eps * direction), s)
    minus = apply_km(pb, GridFunction(grid, base_vals - eps * direction), s)
    fd = (plus - minus) / (2 * eps)
    np.testing.assert_allclose(km_prime_apply(pb, base, vec, s), fd, atol=1e-5)


def test_dense_jacobian_matrix_matches_finite_differences():
    pb = get_problem("rpk-aks")
    grid = builtin_grid(8)
    nodes, w = grid.nodes, grid.node_weights
    base = pb.exact(nodes)
    analytic = kernel_eval(pb, nodes[:, None], nodes[None, :], base[None, :], 1) * w[None, :]
    eps = 1e-6
    fd = np.empty_like(analytic)
    for b in range(nodes.size):
        up, dn = base.copy(), base.copy()
        up[b] += eps
        dn[b] -= eps
        col_up = apply_km(pb, GridFunction(grid, up), nodes)
        col_dn = apply_km(pb, GridFunction(grid, dn), nodes)
        fd[:, b] = (col_up - col_dn) / (2 * eps)
    np.testing.assert_allclose(analytic, fd, atol=1e-5)


def test_apply_km_agrees_with_composite_quadrature():
    # For x == exact solution, K_m(x)(s) should equal x(s) - f(s) up to
    # the quadrature error of the m-panel rule.
    pb = get_problem("rpk-aks")
    grid = builtin_grid(100)
    x = GridFunction(grid, pb.exact(grid.nodes))
    s = np.array([0.0, 0.21, 0.5, 0.83, 1.0])
    km = apply_km(pb, x, s)
    np.testing.assert_allclose(km, pb.exact(s) - pb.f(s), atol=5e-5)


def test_solver_reports_divergence_with_trace():
    # x = 10 + integral of x^2 has no real solution (c^2 - c + 10 = 0 has
    # negative discriminant for constant candidates), so Newton cannot settle.
    shape = lambda *args: np.broadcast(*args).shape
    pb = UrysohnProblem(
        name="no-solution",
        kappa_lower=lambda s, t, u: np.broadcast_to(u, shape(s, t, u)) ** 2,
        kappa_upper=lambda s, t, u: np.broadcast_to(u, shape(s, t, u)) ** 2,
        kappa_lower_du=lambda s, t, u: 2.0 * np.broadcast_to(u, shape(s, t, u)).copy(),
        kappa_upper_du=lambda s, t, u: 2.0 * np.broadcast_to(u, shape(s, t, u)).copy(),
        f=lambda s: np.full_like(np.asarray(s, dtype=float), 10.0),
    )
    grid = builtin_grid(10)
    with pytest.raises(ConvergenceError) as exc:
        solve_nystrom(pb, grid, max_iter=10, tol=1e-15)
    assert len(exc.value.residual_norms) >= 1


def test_singular_newton_matrix_is_reported_with_trace():
    # x(s) - int_0^1 x(t) dt = 1 has no solution; on 4 one-point panels the
    # Newton matrix I - ones/4 is exactly singular at the first iterate.
    shape = lambda *args: np.broadcast(*args).shape
    pb = UrysohnProblem(
        name="unit-kernel",
        kappa_lower=lambda s, t, u: np.broadcast_to(u, shape(s, t, u)).copy(),
        kappa_upper=lambda s, t, u: np.broadcast_to(u, shape(s, t, u)).copy(),
        kappa_lower_du=lambda s, t, u: np.ones(shape(s, t, u)),
        kappa_upper_du=lambda s, t, u: np.ones(shape(s, t, u)),
        f=lambda s: np.ones_like(np.asarray(s, dtype=float)),
    )
    with pytest.raises(SingularOperatorError) as exc:
        solve_nystrom(pb, build_grid(4, 1, gauss_rule(1)))
    assert exc.value.residual_norms == [1.0]


def test_iteration_cap_must_be_positive():
    with pytest.raises(ValueError, match="max_iter"):
        solve_nystrom(get_problem("rpk-aks"), builtin_grid(4), max_iter=0)


def test_grid_size_cap_is_enforced():
    pb = get_problem("rpk-aks")
    with pytest.raises(ValueError):
        solve_nystrom(pb, build_grid(2600, 1, gauss_rule(2)))


def test_solution_evaluation_validates_domain():
    pb = get_problem("rpk-aks")
    sol = solve_nystrom(pb, builtin_grid(20))
    with pytest.raises(ValueError):
        sol(np.array([0.5, 1.2]))


def test_initial_guess_is_respected():
    pb = get_problem("rpk-aks")
    grid = builtin_grid(50)
    default = solve_nystrom(pb, grid)
    seeded = solve_nystrom(pb, grid, initial=pb.exact(grid.nodes))
    assert seeded.newton_iterations <= default.newton_iterations
    np.testing.assert_allclose(
        seeded.node_values.values, default.node_values.values, atol=1e-9
    )


def test_km_prime_apply_rejects_direction_on_another_grid():
    # Both grids have 40 nodes, but not the same ones.
    pb = get_problem("rpk-aks")
    one_point = build_grid(40, 1, gauss_rule(1))
    two_point = build_grid(20, 1, gauss_rule(2))
    base = GridFunction(one_point, pb.exact(one_point.nodes))
    direction = GridFunction(two_point, np.ones(two_point.node_count))
    with pytest.raises(ValueError, match="same grid"):
        km_prime_apply(pb, base, direction, 0.5)


def dense_kernel(lower, upper, s, t, u):
    """Both branches on the whole block, one picked per entry: the reference."""
    return np.where(t <= s, lower(s, t, u), upper(s, t, u))


def test_apply_km_matches_dense_reference_bit_for_bit(crossing_problem):
    pb = crossing_problem
    grid = builtin_grid(20)
    rng = np.random.default_rng(5)
    x = GridFunction(grid, 1.0 + 0.5 * np.cos(7.0 * grid.nodes))
    v = GridFunction(grid, rng.normal(size=grid.node_count))
    # unsorted, with the nodes themselves (ties t = s) and the partition points;
    # 211 points x 40 nodes stays below the size at which OpenBLAS splits one
    # GEMV across threads, so the reference sums each row the same way at any
    # thread count
    pts = np.concatenate([rng.random(150), grid.nodes, grid.partition_points])
    rng.shuffle(pts)
    s, t = pts[:, None], grid.nodes[None, :]
    w = grid.node_weights

    values = dense_kernel(pb.kappa_lower, pb.kappa_upper, s, t, x.values[None, :])
    np.testing.assert_array_equal(apply_km(pb, x, pts), values @ w)
    derivs = dense_kernel(pb.kappa_lower_du, pb.kappa_upper_du, s, t, x.values[None, :])
    np.testing.assert_array_equal(km_prime_apply(pb, x, v, pts), derivs @ (w * v.values))


def test_nystrom_jacobian_matches_dense_reference_bit_for_bit(crossing_problem, monkeypatch):
    pb = crossing_problem
    grid = builtin_grid(150)  # 300 nodes: three row blocks
    matrices = []
    solve = np.linalg.solve

    def spy(a, b):
        matrices.append(a.copy())
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", spy)
    solve_nystrom(pb, grid)
    assert matrices

    # the first Newton step linearises at the default start, f at the nodes
    s, t = grid.nodes[:, None], grid.nodes[None, :]
    x0 = pb.f(grid.nodes)[None, :]
    ref = dense_kernel(pb.kappa_lower_du, pb.kappa_upper_du, s, t, x0)
    ref *= -grid.node_weights[None, :]
    ref[np.diag_indices_from(ref)] += 1.0
    np.testing.assert_array_equal(matrices[0], ref)


def test_km_evaluates_each_kernel_branch_only_on_its_own_side():
    # Each branch counts the entries it is evaluated on.  Evaluating both
    # branches everywhere costs 2 N**2; the row blocks may only add a band
    # of about one block (128 rows) around the diagonal to N**2.
    evaluated = {"lower": 0, "upper": 0}

    def branch(side):
        def kappa(s, t, u):
            shape = np.broadcast(s, t, u).shape
            evaluated[side] += int(np.prod(shape))
            return np.sin(np.broadcast_to(u, shape) + s - t)

        return kappa

    pb = UrysohnProblem(
        name="counting",
        kappa_lower=branch("lower"),
        kappa_upper=branch("upper"),
        kappa_lower_du=branch("lower"),
        kappa_upper_du=branch("upper"),
        f=lambda s: np.ones_like(np.asarray(s, dtype=float)),
    )
    grid = builtin_grid(300)
    n = grid.node_count
    apply_km(pb, GridFunction(grid, np.ones(n)), grid.nodes)
    total = evaluated["lower"] + evaluated["upper"]
    assert n * n <= total <= n * n + n * 128
