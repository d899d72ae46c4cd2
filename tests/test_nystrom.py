"""Quadrature-discretized fixed-point solver (Newton iteration)."""

import multiprocessing
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from urysohn import (
    ConvergenceError,
    DomainError,
    EvaluationError,
    GridFunction,
    SingularOperatorError,
    UrysohnProblem,
    apply_km,
    build_grid,
    gauss_rule,
    get_problem,
    iterated_eval,
    kernel_eval,
    km_prime_apply,
    residual_check,
    solve_discrete_galerkin,
    solve_nystrom,
)
from urysohn import nystrom

ROOT = Path(__file__).resolve().parents[1]


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
    for m in (100, 400):
        sol = solve_nystrom(pb, builtin_grid(m))
        trace = np.asarray(sol.residual_norms)
        # successive residuals fall faster than a fixed-rate contraction; on 400
        # panels the coarse start leaves three residuals, 6.6e-5, 4.0e-10, ~1e-16
        drops = trace[1:] / trace[:-1]
        assert np.all(drops[1:-1] < 0.1)
        assert trace[1] <= trace[0] ** 2


def test_node_error_order_two_in_fine_mesh():
    pb = get_problem("rpk-aks")
    errs = []
    for m in (50, 100, 200, 400):
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


def test_non_finite_newton_step_is_reported_with_trace():
    with pytest.raises(ConvergenceError, match="non-finite") as exc:
        nystrom._newton(
            np.ones(2), lambda x: x, lambda x, res: np.full(2, np.nan), 1e-12, 5, "singular"
        )
    assert exc.value.residual_norms == [1.0]


def test_iteration_cap_must_be_positive():
    with pytest.raises(ValueError, match="max_iter"):
        solve_nystrom(get_problem("rpk-aks"), builtin_grid(4), max_iter=0)


@pytest.mark.parametrize(
    "bad, match",
    [
        ({"tol": np.nan}, "tol"),
        ({"tol": -1.0}, "tol"),
        ({"tol": 0.0}, "tol"),
        ({"tol": np.inf}, "tol"),
        ({"max_iter": 2.5}, "max_iter"),
        ({"max_iter": -3}, "max_iter"),
    ],
)
def test_newton_arguments_are_checked_before_any_kernel_evaluation(
    kernel_free_problem, bad, match
):
    with pytest.raises(ValueError, match=match):
        solve_nystrom(kernel_free_problem, builtin_grid(4), **bad)


def test_grid_size_cap_is_enforced():
    pb = get_problem("rpk-aks")
    with pytest.raises(ValueError):
        solve_nystrom(pb, build_grid(2600, 1, gauss_rule(2)))


def test_solution_evaluation_validates_domain():
    pb = get_problem("rpk-aks")
    sol = solve_nystrom(pb, builtin_grid(20))
    with pytest.raises(ValueError):
        sol(np.array([0.5, 1.2]))
    v = GridFunction(sol.grid, np.ones(sol.grid.node_count))
    for s in (np.nan, np.array([0.5, np.nan])):
        for evaluate in (
            sol,
            lambda s: apply_km(pb, sol.node_values, s),
            lambda s: km_prime_apply(pb, sol.node_values, v, s),
        ):
            with pytest.raises(DomainError, match="nan"):
                evaluate(s)


def test_initial_guess_is_respected():
    pb = get_problem("rpk-aks")
    grid = builtin_grid(50)
    default = solve_nystrom(pb, grid)
    seeded = solve_nystrom(pb, grid, initial=pb.exact(grid.nodes))
    assert seeded.newton_iterations <= default.newton_iterations
    np.testing.assert_allclose(
        seeded.node_values.values, default.node_values.values, atol=1e-9
    )
    # a callable start is evaluated at the nodes
    called = solve_nystrom(pb, grid, initial=pb.exact)
    assert called.residual_norms == seeded.residual_norms
    np.testing.assert_array_equal(called.node_values.values, seeded.node_values.values)
    with pytest.raises(ValueError, match="initial values shape"):
        solve_nystrom(pb, grid, initial=np.ones(grid.node_count + 1))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="initial values must be finite"):
            solve_nystrom(pb, grid, initial=np.full(grid.node_count, bad))


def test_grid_function_rejects_wrong_shape_and_non_finite_values():
    grid = builtin_grid(5)
    with pytest.raises(ValueError, match="node count"):
        GridFunction(grid, np.ones(grid.node_count - 1))
    values = np.ones(grid.node_count)
    values[3] = np.inf
    with pytest.raises(ValueError, match="finite"):
        GridFunction(grid, values)


def test_natural_extension_checks_the_domain_before_the_forcing(sqrt_forcing_problem):
    sol = solve_nystrom(sqrt_forcing_problem, builtin_grid(10))
    for s in (1.5, np.array([0.5, 1.5]), -0.5, np.nan):
        with pytest.raises(DomainError):
            sol(s)


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
    # with the nodes themselves (ties t = s) and the partition points;
    # 211 points x 40 nodes stays below the size at which OpenBLAS splits one
    # GEMV across threads, so the reference sums each row the same way at any
    # thread count
    pts = np.concatenate([rng.random(150), grid.nodes, grid.partition_points])
    rng.shuffle(pts)
    order = np.argsort(pts, kind="stable")
    ordered = pts[order]
    s, t = ordered[:, None], grid.nodes[None, :]
    w = grid.node_weights

    values = dense_kernel(pb.kappa_lower, pb.kappa_upper, s, t, x.values[None, :])
    km = apply_km(pb, x, ordered)
    np.testing.assert_array_equal(km, values @ w)
    derivs = dense_kernel(pb.kappa_lower_du, pb.kappa_upper_du, s, t, x.values[None, :])
    dkm = km_prime_apply(pb, x, v, ordered)
    np.testing.assert_array_equal(dkm, derivs @ (w * v.values))

    # the shuffled points get the values of the sorted ones, scattered back
    expected = np.empty_like(km)
    expected[order] = km
    np.testing.assert_array_equal(apply_km(pb, x, pts), expected)
    expected[order] = dkm
    np.testing.assert_array_equal(km_prime_apply(pb, x, v, pts), expected)


def test_nystrom_jacobian_matches_dense_reference_bit_for_bit(crossing_problem, monkeypatch):
    pb = crossing_problem
    grid = builtin_grid(150)  # 300 nodes: three row blocks
    n = grid.node_count
    operators = []
    gmres = nystrom._gmres

    def spy(matvec, b):
        # on the identity the float32 product A @ I is A itself, so this is
        # I - A with the float64 subtraction the reference below makes
        operators.append(matvec(np.eye(n)))
        return gmres(matvec, b)

    monkeypatch.setattr(nystrom, "_gmres", spy)
    solve_nystrom(pb, grid)
    assert operators

    # the first Newton step linearises at the default start, f at the nodes
    s, t = grid.nodes[:, None], grid.nodes[None, :]
    x0 = pb.f(grid.nodes)[None, :]
    ref = dense_kernel(pb.kappa_lower_du, pb.kappa_upper_du, s, t, x0)
    ref = (ref * grid.node_weights[None, :]).astype(np.float32)  # the stored operator
    np.testing.assert_array_equal(operators[0], np.eye(n) - ref)


def test_newton_operator_beyond_the_float32_range_is_an_evaluation_error():
    # W_b * dk/du = 1.25e39 is finite in float64 but not in float32
    big = lambda s, t, u: np.full(np.broadcast(s, t, u).shape, 1e40)
    pb = UrysohnProblem(
        name="huge-derivative",
        kappa_lower=lambda s, t, u: 1e40 * np.broadcast_to(u, np.broadcast(s, t, u).shape),
        kappa_upper=lambda s, t, u: 1e40 * np.broadcast_to(u, np.broadcast(s, t, u).shape),
        kappa_lower_du=big,
        kappa_upper_du=big,
        f=lambda s: np.ones_like(np.asarray(s, dtype=float)),
    )
    with pytest.raises(EvaluationError, match="float32 Newton operator"):
        solve_nystrom(pb, builtin_grid(4))


def test_newton_stores_no_float64_node_matrix():
    # A float64 N x N array alone takes 8 N**2 bytes; the float32 K_m'(x)
    # takes 4 N**2.  The default start also solves on the coarse grid.
    pb = get_problem("rpk-aks")
    grid = builtin_grid(1000)
    n = grid.node_count
    tracemalloc.start()
    try:
        solve_nystrom(pb, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert n == 2000
    assert peak < 8 * n**2, f"peak allocation {peak / n**2:.1f} N**2 bytes"


def test_km_evaluates_each_kernel_branch_only_on_its_own_side():
    # Each branch counts the entries it is evaluated on.  Evaluating both
    # branches everywhere costs 2 N**2; the row blocks may only add a band
    # of about one block (128 rows) around the diagonal to N**2.
    # The sweep runs in several threads: each appends its sizes, summed after.
    sizes = {"lower": [], "upper": []}

    def branch(side):
        def kappa(s, t, u):
            shape = np.broadcast(s, t, u).shape
            sizes[side].append(int(np.prod(shape)))
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
    evaluated = {side: sum(counts) for side, counts in sizes.items()}
    total = evaluated["lower"] + evaluated["upper"]
    assert n * n <= total <= n * n + n * 128


def test_gmres_agrees_with_a_dense_solve():
    rng = np.random.default_rng(11)
    n = 60
    well = np.eye(n) + 0.5 * rng.normal(size=(n, n)) / np.sqrt(n)
    # all eigenvalues 2 but far from normal: GMRES needs many iterations
    non_normal = 2.0 * np.eye(n) + np.triu(rng.normal(size=(n, n)), 1)
    b = rng.normal(size=n)
    for a in (well, non_normal):
        x = nystrom._gmres(lambda v: a @ v, b)
        ref = np.linalg.solve(a, b)
        assert np.max(np.abs(x - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_gmres_returns_the_exact_solution_at_the_full_krylov_dimension(monkeypatch):
    sizes = []
    solve = np.linalg.solve

    def spy(a, b):
        sizes.append(a.shape)
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", spy)
    # The cyclic shift maps e_k to e_(k+1): the residual for b = e_1 stays
    # |b| until Krylov dimension 50, where the minimiser is the solution e_50.
    shift = np.roll(np.eye(50), 1, axis=0)
    b = np.zeros(50)
    b[0] = 1.0
    np.testing.assert_array_equal(nystrom._gmres(lambda v: shift @ v, b), np.eye(50)[-1])
    # diag(1..50): 50 distinct eigenvalues; the residual reaches rtol * |b|
    # only a few dimensions short of 50
    d = np.arange(1.0, 51.0)
    x = nystrom._gmres(lambda v: np.diag(d) @ v, np.ones(50))
    np.testing.assert_allclose(x, 1.0 / d, rtol=1e-12, atol=0)
    assert sizes[0] == (50, 50) and sizes[1][0] >= 45


def test_gmres_returns_zeros_for_a_zero_right_hand_side():
    x = nystrom._gmres(lambda v: (np.eye(5) + 1.0) @ v, np.zeros(5))
    np.testing.assert_array_equal(x, np.zeros(5))


def test_gmres_raises_on_a_singular_matrix_with_b_outside_its_range():
    # I - ones/4 maps ones to 0 and has range ones-perp; b = ones is not in it
    a = np.eye(4) - 0.25
    with pytest.raises(np.linalg.LinAlgError):
        nystrom._gmres(lambda v: a @ v, np.ones(4))


def dense_lu_newton(pb, grid, tol=1e-12):
    """Newton on the node values with the float64 matrix I - K_m'(x) and a
    dense LU, from solve_nystrom's default start: (node values, iterations)."""
    nodes, w = grid.nodes, grid.node_weights
    f = pb.f(nodes)
    x = f
    if grid.n * grid.p > 256:  # natural extension of the 64-panel solution
        coarse = build_grid(64, 1, grid.rule)
        x = f + apply_km(pb, GridFunction(coarse, dense_lu_newton(pb, coarse, tol)[0]), nodes)
    for iterations in range(1, 51):
        res = x - apply_km(pb, GridFunction(grid, x), nodes) - f
        if np.max(np.abs(res)) <= tol:
            return x, iterations
        a = kernel_eval(pb, nodes[:, None], nodes[None, :], x[None, :], 1) * w
        x = x + np.linalg.solve(np.eye(nodes.size) - a, -res)
    raise AssertionError(f"the dense LU Newton reference did not reach tol={tol}")


@pytest.mark.parametrize("problem, m", [("rpk-aks", 400), ("crossing", 150)])
def test_nystrom_gmres_matches_a_dense_lu_solve(crossing_problem, problem, m):
    pb = crossing_problem if problem == "crossing" else get_problem(problem)
    grid = builtin_grid(m)
    sol = solve_nystrom(pb, grid)
    x_ref, iterations = dense_lu_newton(pb, grid)
    assert sol.newton_iterations == iterations
    x = sol.node_values.values
    assert np.max(np.abs(x - x_ref) / np.abs(x_ref)) <= 1e-14


def coarse_start_grid(grid):
    return build_grid(64, 1, grid.rule)


@pytest.mark.parametrize("problem, iterations", [("rpk-aks", (3, 6)), ("crossing", (3, 4))])
def test_default_start_above_256_panels_matches_the_start_from_f(
    crossing_problem, problem, iterations
):
    pb = crossing_problem if problem == "crossing" else get_problem(problem)
    grid = builtin_grid(300)
    sol = solve_nystrom(pb, grid)
    ref = solve_nystrom(pb, grid, initial=pb.f)
    assert (sol.newton_iterations, ref.newton_iterations) == iterations
    x, x_ref = sol.node_values.values, ref.node_values.values
    assert np.max(np.abs(x - x_ref) / np.abs(x_ref)) <= 1e-12


def test_only_the_default_start_solves_on_the_coarse_grid(monkeypatch):
    pb = get_problem("rpk-aks")
    grid = builtin_grid(300)
    inner = []
    solve = nystrom.solve_nystrom

    def spy(problem, g, *args, **kwargs):
        inner.append(g)
        return solve(problem, g, *args, **kwargs)

    monkeypatch.setattr(nystrom, "solve_nystrom", spy)
    for initial in (pb.exact(grid.nodes), pb.exact):
        solve(pb, grid, initial=initial)
    assert inner == []
    solve(pb, grid)
    assert [(g.n, g.p, g.node_count) for g in inner] == [(64, 1, 128)]
    assert inner[0].rule is grid.rule


def test_coarse_start_failure_names_the_coarse_grid_and_carries_its_trace():
    pb = get_problem("rpk-aks")
    grid = builtin_grid(300)
    with pytest.raises(ConvergenceError) as coarse:
        solve_nystrom(pb, coarse_start_grid(grid), max_iter=3)
    with pytest.raises(ConvergenceError, match="128-node") as exc:
        solve_nystrom(pb, grid, max_iter=3)
    assert type(exc.value) is ConvergenceError
    assert exc.value.residual_norms == coarse.value.residual_norms
    assert len(exc.value.residual_norms) == 3


def test_two_grid_solve_evaluates_the_closed_form_kernel_count(monkeypatch):
    # The coarse Newton solve and the fine Newton solve, and nothing else: the
    # coarse solution's natural extension at the N fine nodes, like any
    # extension of a problem that declares factors, evaluates no kernel entry.
    pb = get_problem("rpk-aks")
    grid = builtin_grid(300)
    coarse = coarse_start_grid(grid)
    iters_c = solve_nystrom(pb, coarse).newton_iterations
    sizes = {0: [], 1: []}  # appended from several threads, summed after
    kernel = nystrom.kernel_eval

    def counting(problem, s, t, u, order):
        out = kernel(problem, s, t, u, order)
        sizes[order].append(out.size)
        return out

    monkeypatch.setattr(nystrom, "kernel_eval", counting)
    sol = solve_nystrom(pb, grid)
    iters = sol.newton_iterations
    evaluated = {order: sum(counts) for order, counts in sizes.items()}
    n, n_c = grid.node_count, coarse.node_count
    assert evaluated == {
        0: iters_c * n_c**2 + iters * n**2,
        1: (iters_c - 1) * n_c**2 + (iters - 1) * n**2,
    }
    for counts in sizes.values():
        counts.clear()
    sol(np.linspace(0.0, 1.0, 101))
    assert sizes == {0: [], 1: []}


# Row blocks in parallel: the sweeps share their blocks out over all usable
# CPUs, and nothing but the wall time may depend on how many there are.

def usable_cpus():
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


needs_two_cpus = pytest.mark.skipif(
    usable_cpus() < 2, reason="the row blocks run in parallel only with 2 or more usable CPUs"
)


def run_child(script, *args, timeout, **env):
    """Run a Python script that imports urysohn from this checkout; fail on any error."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    subprocess.run(
        [sys.executable, "-W", "error", "-c", script, *args],
        env=dict(os.environ, PYTHONPATH=path, **env),
        check=True,
        capture_output=True,
        timeout=timeout,
    )


def sine_problem(branch, branch_du=None):
    branch_du = branch if branch_du is None else branch_du
    return UrysohnProblem(
        name="sine",
        kappa_lower=branch,
        kappa_upper=branch,
        kappa_lower_du=branch_du,
        kappa_upper_du=branch_du,
        f=lambda s: np.ones_like(np.asarray(s, dtype=float)),
    )


_CPUS_SCRIPT = """
import os, sys
if sys.argv[2] == "pinned":  # before urysohn or numpy count the CPUs
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
import dataclasses
import numpy as np
from urysohn import (
    GridFunction, apply_km, build_grid, gauss_rule, get_problem, iterated_eval,
    km_prime_apply, solve_discrete_galerkin, solve_nystrom,
)
pb = get_problem("rpk-aks")
out = {"cpus": np.array(len(os.sched_getaffinity(0)))}
for m in (20, 300, 1500):
    sol = solve_nystrom(pb, build_grid(m, 1, gauss_rule(2)))
    out[f"nodes-{m}"] = sol.node_values.values
    out[f"trace-{m}"] = np.array(sol.residual_norms)
rng = np.random.default_rng(7)
pts = rng.random(2000)
v = GridFunction(sol.grid, rng.normal(size=sol.grid.node_count))
out["apply_km"] = apply_km(pb, sol.node_values, pts)
out["km_prime_apply"] = km_prime_apply(pb, sol.node_values, v, pts)
dense = solve_discrete_galerkin(dataclasses.replace(pb, factors=None), 30, 1)
out["coeffs"] = dense.z_g.coeffs
out["z_s"] = iterated_eval(dense, dense.grid.partition_points)
np.savez(sys.argv[1], **out)
"""


@needs_two_cpus
def test_results_do_not_depend_on_the_cpu_or_blas_thread_count(tmp_path):
    results = {}
    for cpus in ("pinned", "all"):
        for threads in ("1", "2"):
            out = tmp_path / f"{cpus}-{threads}.npz"
            run_child(_CPUS_SCRIPT, str(out), cpus, timeout=120, OPENBLAS_NUM_THREADS=threads)
            with np.load(out) as data:
                results[cpus, threads] = {key: data[key] for key in data.files}
    assert results["pinned", "1"].pop("cpus") == 1
    ref = results.pop(("pinned", "1"))
    assert len(ref) == 10
    for run, arrays in results.items():
        assert (arrays.pop("cpus") == 1) == (run[0] == "pinned")
        for key, values in ref.items():
            assert np.array_equal(values, arrays[key]), (run, key)


_NESTED_SCRIPT = """
import threading
import numpy as np
from urysohn import GridFunction, UrysohnProblem, apply_km, build_grid, gauss_rule
grid = build_grid(300, 1, gauss_rule(2))
ones = GridFunction(grid, np.ones(grid.node_count))
pts = np.linspace(0.0, 1.0, 2000)

def sine(s, t, u):
    return np.sin(np.broadcast_to(u, np.broadcast(s, t, u).shape) + s - t)

def outer(s, t, u):  # a kernel that runs a sweep of its own, also on a worker
    seen = set()

    def recorded(s, t, u):
        seen.add(threading.get_ident())
        return sine(s, t, u)

    inner = UrysohnProblem("inner", recorded, recorded, recorded, recorded, f=np.cos)
    value = float(np.mean(apply_km(inner, ones, pts)))
    assert seen == {threading.get_ident()}, "the inner sweep left its share's thread"
    return sine(s, t, u) * value

km = apply_km(UrysohnProblem("outer", outer, outer, outer, outer, f=np.cos), ones, pts)
assert np.all(np.isfinite(km))
"""


@needs_two_cpus
def test_a_kernel_that_runs_a_sweep_itself_does_not_deadlock_the_pool():
    run_child(_NESTED_SCRIPT, timeout=60)


def test_importing_the_package_leaves_the_thread_pool_module_unloaded():
    # the first parallel sweep imports it, so a run without one never pays for it
    run_child("import sys, urysohn; assert 'concurrent.futures' not in sys.modules", timeout=60)


def _solve_400_panels():
    solve_nystrom(get_problem("rpk-aks"), builtin_grid(400))


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="no fork start method"
)
def test_a_forked_child_solves_after_a_parallel_sweep():
    grid = builtin_grid(400)
    apply_km(get_problem("rpk-aks"), GridFunction(grid, np.ones(grid.node_count)), grid.nodes)
    child = multiprocessing.get_context("fork").Process(target=_solve_400_panels)
    with warnings.catch_warnings():  # forking a process with threads is what is tested
        warnings.simplefilter("ignore", DeprecationWarning)
        child.start()
    child.join(60)
    hung = child.is_alive()
    if hung:
        child.kill()
        child.join()
    assert not hung
    assert child.exitcode == 0


@pytest.mark.parametrize("bad", [lambda s: s > 0.9, lambda s: s < 0.1], ids=["last", "first"])
def test_a_kernel_failure_in_a_parallel_sweep_raises_the_kernel_error(bad):
    # NaN only in the last share (a worker's) or only in the first (the
    # calling thread's); either way no kernel call is left running.
    lock = threading.Lock()
    running = [0]

    def nan_where_bad(s, t, u):
        with lock:
            running[0] += 1
        shape = np.broadcast(s, t, u).shape
        out = np.where(bad(s), np.nan, np.sin(np.broadcast_to(u, shape) + s - t))
        with lock:
            running[0] -= 1
        return out

    pb = sine_problem(nan_where_bad)
    grid = builtin_grid(300)
    x = GridFunction(grid, np.ones(grid.node_count))
    with pytest.raises(EvaluationError, match="non-finite"):
        apply_km(pb, x, np.linspace(0.0, 1.0, 2000))
    assert running == [0]
    with pytest.raises(EvaluationError, match="non-finite"):
        solve_nystrom(pb, grid)
    assert running == [0]
    sol = solve_nystrom(get_problem("rpk-aks"), grid)
    assert sol.final_residual_norm <= 1e-12


def test_newton_operator_overflow_in_a_worker_share_is_an_evaluation_error(monkeypatch):
    # 600 nodes: 5 row blocks in 2 shares, the calling thread's rows below
    # 256 and a worker's from 256 on.  W_b * dk/du ~ 1e42 / 600 is beyond the
    # float32 range only on rows s > 0.6, all the worker's.
    threads, hot = set(), set()

    def du(s, t, u):
        threads.add(threading.get_ident())
        if np.any(s > 0.6):
            hot.add(threading.get_ident())
        shape = np.broadcast(s, t, u).shape
        return np.where(s > 0.6, 1e42, np.cos(np.broadcast_to(u, shape) + s - t))

    def sine(s, t, u):
        return np.sin(np.broadcast_to(u, np.broadcast(s, t, u).shape) + s - t)

    pb = sine_problem(sine, du)
    monkeypatch.setattr(nystrom, "_workers", lambda: 2)
    with pytest.raises(EvaluationError, match="float32 Newton operator"):
        solve_nystrom(pb, builtin_grid(300), initial=pb.f)
    caller = threading.get_ident()
    assert len(threads) == 2 and hot == threads - {caller}
    alive = {thread.ident for thread in threading.enumerate()}
    assert threads & alive == {caller}  # no worker outlives the failed sweep


def test_parallel_sweeps_keep_the_callers_errstate():
    def log_zero(s, t, u):  # log(0) = -inf warns unless the caller ignores it
        shape = np.broadcast(s, t, u).shape
        return np.sin(np.broadcast_to(u, shape) + s - t) + np.exp(np.log(0.0 * s))

    grid = builtin_grid(300)
    x = GridFunction(grid, np.ones(grid.node_count))
    with np.errstate(divide="ignore"):
        km = apply_km(sine_problem(log_zero), x, np.linspace(0.0, 1.0, 2000))
    assert np.all(np.isfinite(km))


def test_small_sweeps_call_the_kernel_only_from_the_calling_thread():
    threads = set()

    def recorded(fn):
        def branch(s, t, u):
            threads.add(threading.get_ident())
            shape = np.broadcast(s, t, u).shape
            return 0.5 * fn(np.broadcast_to(u, shape) + s - t)

        return branch

    pb = sine_problem(recorded(np.sin), recorded(np.cos))
    solve_nystrom(pb, builtin_grid(20))
    assert threads == {threading.get_ident()}
    sol = solve_discrete_galerkin(pb, 40, 1, p=1)
    threads.clear()
    assert iterated_eval(sol, sol.grid.partition_points).shape == (41,)
    assert threads == {threading.get_ident()}
    if usable_cpus() >= 2:  # a wide enough sweep runs on the workers too
        grid = builtin_grid(300)
        apply_km(pb, GridFunction(grid, np.ones(grid.node_count)), np.linspace(0.0, 1.0, 2000))
        assert len(threads) >= 2
        alive = {thread.ident for thread in threading.enumerate()}
        assert threads & alive == {threading.get_ident()}  # no worker outlives the sweep


def test_more_shares_than_cores_under_a_short_switch_interval_give_the_serial_bits(
    crossing_problem, monkeypatch
):
    pb = crossing_problem
    grid = builtin_grid(300)
    rng = np.random.default_rng(2)
    x = GridFunction(grid, 1.0 + 0.5 * np.cos(7.0 * grid.nodes))
    pts = rng.random(3000)

    def run():
        km = apply_km(pb, x, pts)
        sol = solve_nystrom(pb, grid, initial=pb.f)
        dense = solve_discrete_galerkin(pb, 30, 1)
        return km, sol.node_values.values, np.array(sol.residual_norms), dense.z_g.coeffs

    monkeypatch.setattr(nystrom, "_workers", lambda: 1)
    serial = run()
    monkeypatch.setattr(nystrom, "_workers", lambda: 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        shared = run()
    finally:
        sys.setswitchinterval(interval)
    for a, b in zip(serial, shared):
        assert np.array_equal(a, b)
