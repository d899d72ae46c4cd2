"""Discrete Galerkin solver and its iterated (superconvergent) variant."""

import collections
import dataclasses
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from urysohn import (
    DomainError,
    EvaluationError,
    GalerkinSolution,
    GridFunction,
    PrecisionError,
    SingularOperatorError,
    UrysohnProblem,
    apply_km,
    build_grid,
    convergence_study,
    gauss_rule,
    get_problem,
    hammerstein_problem,
    iterated_eval,
    kernel_eval,
    km_prime_apply,
    minimal_rho,
    partition_point_errors,
    project,
    sinh_greens_branches,
    solve_discrete_galerkin,
    solve_nystrom,
)
from urysohn import nystrom
from urysohn.galerkin import _jacobian_at
from urysohn.nystrom import _SUM_BLOCK, NystromSolution, _km_at, _prefix, _suffix
from urysohn.problems import _factors, _sinh_greens_factors
from urysohn.projection import basis_matrix

ROOT = Path(__file__).resolve().parents[1]


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
    # with kappa = 0, z_G is c_f, which comes from the same P_n formula as project(f)
    np.testing.assert_array_equal(sol.z_g.coeffs, proj.coeffs)
    # the iterated solution is f itself: K_m vanishes identically
    s = np.linspace(0, 1, 9)
    np.testing.assert_array_equal(iterated_eval(sol, s), pb.f(s))
    assert sol.newton_iterations == 1


def test_projection_identity_links_iterated_and_galerkin_solutions():
    # Projecting the iterated solution recovers the Galerkin coefficients.
    pb = get_problem("rpk-aks")
    sol = solve_discrete_galerkin(pb, 8, 1)
    back = project(lambda s: iterated_eval(sol, s), sol.grid, 1)
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
    analytic = _jacobian_at(pb, grid, wb_solver, n, r, _factors(pb, 0, grid.nodes))(zvals)
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


def test_precision_guard_holds_and_the_old_coefficient_cap_is_gone():
    with pytest.raises(PrecisionError):
        solve_discrete_galerkin(get_problem("rpk-aks"), 4, 2, rho=2)
    sol = solve_discrete_galerkin(zero_kernel_problem(), 2001, 1, p=1)  # n*r = 2001
    assert sol.newton_iterations == 1


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


@pytest.mark.parametrize(
    "bad, match",
    [
        ({"tol": np.nan}, "tol"),
        ({"tol": -1.0}, "tol"),
        ({"tol": True}, "tol"),
        ({"max_iter": 2.5}, "max_iter"),
    ],
)
def test_newton_arguments_are_checked_before_any_kernel_evaluation(
    kernel_free_problem, counted_forcing, bad, match
):
    with pytest.raises(ValueError, match=match):
        solve_discrete_galerkin(kernel_free_problem, 4, 1, **bad)
    # first of all: before f at the 3200 nodes of n = 40
    problem, f_sizes = counted_forcing
    with pytest.raises(ValueError, match=match):
        solve_discrete_galerkin(problem, 40, 1, **bad)
    assert f_sizes == []
    # the factored path: rpk-aks with callables that record every call
    calls = []

    def counted(fn):
        def wrapper(*args):
            calls.append(fn)
            return fn(*args)

        return wrapper

    pb = get_problem("rpk-aks")
    factored = dataclasses.replace(
        pb,
        kappa_lower=counted(pb.kappa_lower),
        kappa_upper=counted(pb.kappa_upper),
        kappa_lower_du=counted(pb.kappa_lower_du),
        kappa_upper_du=counted(pb.kappa_upper_du),
        factors=tuple(tuple(map(counted, side)) for side in pb.factors),
    )
    assert calls  # the construction checked the factors against the branches
    calls.clear()
    with pytest.raises(ValueError, match=match):
        solve_discrete_galerkin(factored, 4, 1, **bad)
    assert calls == []


@pytest.mark.parametrize("n, r", [(6, 1), (2, 2)])
def test_solve_matches_dense_reference_bit_for_bit(crossing_problem, n, r):
    # The reference is the same Newton iteration with both kernel branches
    # evaluated on the whole N x N block (N**2 <= 72**2 stays below the size
    # at which OpenBLAS splits one GEMV across threads).  K_m sums its rows by
    # the library's numpy reduction: a GEMV's rounding differs in 13 of 32
    # entries at N = 32, which the last Newton step absorbs only at some of
    # numpy's CPU dispatch targets.
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
        km = np.einsum("ij,j->i", dense(pb.kappa_lower, pb.kappa_upper, z), grid.node_weights)
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


@pytest.mark.parametrize("n, r", [(6, 2), (12, 2)])
def test_dense_jacobian_beyond_one_piece_matches_the_piecewise_reference_bit_for_bit(n, r):
    # N = 864 and 6912 nodes: the rows of a coarse subinterval span several
    # column pieces of _PIECE // block, and the projection of each piece is
    # its own GEMM, so no p*rho x N row block is ever stored.  The peak holds
    # a few pieces of _PIECE entries and the branches' temporaries of one:
    # 1.08 and 1.73 MiB (numpy 2.4.6).  At (12, 2) a quarter of the 30.4 MiB
    # row block bounds it; at (6, 2) the row block is smaller than two pieces.
    pb = dataclasses.replace(get_problem("rpk-aks"), factors=None)
    grid = build_grid(n, n**r, gauss_rule(minimal_rho(r)))  # the solver's default grid
    nodes, block = grid.nodes, grid.offsets.size
    width = nystrom._PIECE // block
    assert grid.node_count > width
    wb = grid.node_weights[:block, None] * basis_matrix(grid, r)
    z = np.cos(3.0 * nodes)
    m_full = np.empty((n, r, n, r))
    for j in range(n):
        rows = nodes[j * block : (j + 1) * block, None]
        lo, hi = np.searchsorted(nodes, (rows[0, 0], rows[-1, 0]), side="right")
        inner = np.empty((r, grid.node_count))
        for r0, r1 in ((0, lo), (lo, hi), (hi, grid.node_count)):
            for c0 in range(r0, r1, width):
                c1 = min(c0 + width, r1)
                t, u = nodes[None, c0:c1], z[None, c0:c1]
                deriv = np.where(t <= rows, pb.kappa_lower_du(rows, t, u), pb.kappa_upper_du(rows, t, u))
                inner[:, c0:c1] = wb.T @ deriv
        m_full[j] = np.einsum("ekb,bx->ekx", inner.reshape(r, n, block), wb)
    jac = -m_full.reshape(n * r, n * r)
    jac[np.diag_indices_from(jac)] += 1.0
    jacobian = _jacobian_at(pb, grid, wb, n, r, None)
    tracemalloc.start()
    try:
        got = jacobian(z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    row_block = 8 * block * grid.node_count
    assert peak < max(row_block / 4, 4 * 8 * nystrom._PIECE), f"{peak / 2**20:.2f} MiB"
    np.testing.assert_array_equal(got, jac)


def test_iterated_solution_checks_the_domain_before_the_forcing(sqrt_forcing_problem):
    sol = solve_discrete_galerkin(sqrt_forcing_problem, 4, 1)
    for s in (1.5, np.array([0.5, 1.5]), np.nan, np.array([0.5, np.nan])):
        with pytest.raises(DomainError):
            iterated_eval(sol, s)


def test_iterated_solution_does_not_depend_on_the_order_of_the_points(crossing_problem):
    sol = solve_discrete_galerkin(crossing_problem, 5, 1, p=4, rho=2)
    # the 211 shuffled points of the apply_km reference test in test_nystrom.py
    grid = build_grid(20, 1, gauss_rule(2))
    rng = np.random.default_rng(5)
    rng.normal(size=grid.node_count)
    pts = np.concatenate([rng.random(150), grid.nodes, grid.partition_points])
    rng.shuffle(pts)
    order = np.argsort(pts, kind="stable")
    expected = np.empty_like(pts)
    expected[order] = iterated_eval(sol, pts[order])
    np.testing.assert_array_equal(iterated_eval(sol, pts), expected)


def sinh_problem(gamma, psi=lambda t, u: t * u - u**3, psi_du=lambda t, u: t - 3.0 * u**2):
    """G(s,t) * psi(t,u) with the sinh Green's function of gamma and its factors."""
    return hammerstein_problem(
        f"sinh-{gamma:g}",
        *sinh_greens_branches(gamma),
        psi,
        psi_du,
        f=lambda s: np.ones_like(np.asarray(s, dtype=float)),
        g_factors=_sinh_greens_factors(gamma),
    )


def rank_two_problem():
    """k = G(s,t) * (u + s*u**2): a(s) = (L(s), s*L(s)) and beta(t,u) = (R(t)*u, R(t)*u**2)."""
    g_lower, g_upper = sinh_greens_branches(np.sqrt(12.0))
    l_s, r_t, p_s, q_t = _sinh_greens_factors(np.sqrt(12.0))

    def side(g_s, g_t):
        return (
            lambda s: np.stack([g_s(s), s * g_s(s)], axis=-1),
            lambda t, u: np.stack([g_t(t) * u, g_t(t) * u**2], axis=-1),
            lambda t, u: np.stack([g_t(t) * np.ones_like(u), 2.0 * g_t(t) * u], axis=-1),
        )

    return UrysohnProblem(
        name="rank-two",
        kappa_lower=lambda s, t, u: g_lower(s, t) * (u + s * u**2),
        kappa_upper=lambda s, t, u: g_upper(s, t) * (u + s * u**2),
        kappa_lower_du=lambda s, t, u: g_lower(s, t) * (1.0 + 2.0 * s * u),
        kappa_upper_du=lambda s, t, u: g_upper(s, t) * (1.0 + 2.0 * s * u),
        f=lambda s: np.ones_like(np.asarray(s, dtype=float)),
        factors=(side(l_s, r_t), side(p_s, q_t)),
    )


def mixed_rank_problem():
    """rpk-aks with a rank-1 lower side and its upper side as two halves scaled by sqrt(0.5)."""
    pb = get_problem("rpk-aks")
    lower, upper = pb.factors

    def halves(g):
        return lambda *args: np.sqrt(0.5) * np.concatenate([g(*args)] * 2, axis=-1)

    return dataclasses.replace(pb, name="mixed-rank", factors=(lower, tuple(map(halves, upper))))


@pytest.mark.parametrize(
    "make", [rank_two_problem, mixed_rank_problem], ids=["rank-two", "mixed-rank"]
)
def test_kernel_entries_of_declared_factors_match_the_branches_of_the_twin(make):
    # kernel_eval forms the entries of a factored problem from its rank-q factors
    pb = make()
    dense = dataclasses.replace(pb, factors=None)
    s, t = np.meshgrid(np.linspace(0.0, 1.0, 101), np.linspace(0.0, 1.0, 101), indexing="ij")
    for on_side in (t <= s, t > s):
        s_side, t_side = s[on_side], t[on_side]
        for u in (-1.5, 0.5, 2.0):
            for order in (0, 1):
                want = kernel_eval(dense, s_side, t_side, u, order)
                got = kernel_eval(pb, s_side, t_side, u, order)
                bound = 4 * np.finfo(float).eps * np.max(np.abs(want))
                assert np.max(np.abs(got - want)) <= bound


def test_dense_paths_of_a_factored_problem_never_call_its_branches():
    calls = []  # one entry per branch call

    def counted(branch):
        def wrapper(*args):
            calls.append(1)
            return branch(*args)

        return wrapper

    pb = rank_two_problem()
    names = ("kappa_lower", "kappa_upper", "kappa_lower_du", "kappa_upper_du")
    pb = dataclasses.replace(pb, **{name: counted(getattr(pb, name)) for name in names})
    assert calls  # construction checks the factors against the branches
    calls.clear()
    grid = build_grid(20, 1, gauss_rule(2))
    sol = solve_nystrom(pb, grid)
    v = GridFunction(grid, np.cos(grid.nodes))
    pts = np.linspace(0.0, 1.0, 101)
    apply_km(pb, sol.node_values, pts)
    km_prime_apply(pb, sol.node_values, v, pts)
    assert calls == []


def _factored_against_dense(pb, n, r):
    """Solve with the factors and without; compare coefficients, z_S, Jacobians, iterations."""
    dense = dataclasses.replace(pb, factors=None)
    sol, ref = solve_discrete_galerkin(pb, n, r), solve_discrete_galerkin(dense, n, r)
    assert sol.newton_iterations == ref.newton_iterations
    np.testing.assert_allclose(sol.z_g.coeffs, ref.z_g.coeffs, rtol=0, atol=1e-14)
    pts = sol.grid.partition_points
    np.testing.assert_allclose(iterated_eval(sol, pts), iterated_eval(ref, pts), rtol=0, atol=1e-14)
    grid = sol.grid
    wb = grid.node_weights[: grid.offsets.size, None] * basis_matrix(grid, r)
    z = sol.z_g_node_values.values
    jacobians = [
        _jacobian_at(problem, grid, wb, n, r, _factors(problem, 0, grid.nodes))(z)
        for problem in (pb, dense)
    ]
    np.testing.assert_allclose(*jacobians, rtol=0, atol=1e-15)


@pytest.mark.parametrize("n, r", [(10, 1), (20, 1), (40, 1), (3, 2), (6, 2), (12, 2)])
def test_factored_solve_matches_the_dense_solve(n, r):
    _factored_against_dense(get_problem("rpk-aks"), n, r)


# case -> (problem, n, r); in the mixed case the two sides' products have different inner sizes
TWINS = {
    "6-1": (rank_two_problem, 6, 1),
    "3-2": (rank_two_problem, 3, 2),
    "mixed-6-1": (mixed_rank_problem, 6, 1),
    "mixed-3-2": (mixed_rank_problem, 3, 2),
    "mixed-10-1": (mixed_rank_problem, 10, 1),
}


@pytest.mark.parametrize("case", list(TWINS))
def test_rank_two_factors_match_their_dense_twin(case):
    make, n, r = TWINS[case]
    _factored_against_dense(make(), n, r)


# case -> (problem, n, r) of a solve with p = 1
ONE_MATRIX = {
    "rpk-aks-1000-1": (lambda: get_problem("rpk-aks"), 1000, 1),
    "rpk-aks-400-3": (lambda: get_problem("rpk-aks"), 400, 3),
    "rank-two-1000-1": (rank_two_problem, 1000, 1),
}


@pytest.mark.parametrize("case", list(ONE_MATRIX))
def test_a_factored_newton_step_holds_one_newton_matrix(case):
    """Peak bytes above the node arrays per entry of the (n*r)**2 Newton matrix: 17 for the
    matrix, one side's product and the 1-byte mask, where four matrices would take 32."""
    make, n, r = ONE_MATRIX[case]
    pb = make()
    tracemalloc.start()
    try:
        solve_discrete_galerkin(pb, n, r, p=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    nodes = n * minimal_rho(r)
    assert (peak - 8 * nodes * (12 + 4 * r)) / (n * r) ** 2 < 20


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_the_size_plan_bounds_the_peak_of_a_factored_solve(r, monkeypatch):
    # n = 6 and N ~ 24,000: the basis tables of one coarse subinterval weigh
    # about r/3 node arrays, and the node arrays outweigh the (n*r)**2 matrix
    n, rho = 6, minimal_rho(r)
    p = 4000 // rho
    pb = get_problem("rpk-aks")
    tracemalloc.start()
    try:
        solve_discrete_galerkin(pb, n, r, p=p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    real = os.sysconf  # one byte of physical memory: the plan is refused with its byte count
    one_byte = ("SC_PHYS_PAGES", "SC_PAGE_SIZE")
    monkeypatch.setattr(os, "sysconf", lambda name: 1 if name in one_byte else real(name))
    with pytest.raises(DomainError) as refused:
        solve_discrete_galerkin(pb, n, r, p=p)
    planned = int(re.search(r" needs (\d+) bytes", str(refused.value)).group(1))
    assert peak <= planned


@pytest.mark.parametrize("n, r", [(20, 1), (40, 1), (6, 2), (12, 2)])
def test_the_size_plan_bounds_the_peak_of_a_dense_solve(n, r, monkeypatch):
    # without factors the 128 x N row block of the K_m sweep outweighs the
    # node arrays of the factored plan, by 7x at (20, 1) and 6x at (12, 2)
    pb = dataclasses.replace(get_problem("rpk-aks"), name="dense", factors=None)
    tracemalloc.start()
    try:
        solve_discrete_galerkin(pb, n, r)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    real = os.sysconf  # one byte of physical memory: the plan is refused with its byte count
    one_byte = ("SC_PHYS_PAGES", "SC_PAGE_SIZE")
    monkeypatch.setattr(os, "sysconf", lambda name: 1 if name in one_byte else real(name))
    with pytest.raises(DomainError, match="without factors needs") as refused:
        solve_discrete_galerkin(pb, n, r)
    planned = int(re.search(r" needs (\d+) bytes", str(refused.value)).group(1))
    assert peak <= planned


@pytest.mark.parametrize("gamma", [np.sqrt(12.0), 40.0, 200.0, 700.0])
def test_factored_km_matches_the_dense_km_at_the_nodes(gamma):
    pb = sinh_problem(gamma)
    grid = build_grid(20, 20, gauss_rule(2))
    z = 1.0 + np.sin(5.0 * grid.nodes)
    # near the diagonal the dense path also evaluates each branch on the other
    # side, where the sinh product overflows for gamma = 700; np.where drops it
    dense = apply_km(dataclasses.replace(pb, factors=None), GridFunction(grid, z), grid.nodes)
    factored = _km_at(pb, grid, grid.nodes)(z)
    assert np.max(np.abs(factored - dense)) <= 1e-14 * np.max(np.abs(dense))


def test_km_at_a_2d_array_of_unsorted_points_keeps_its_shape_and_bits():
    pb = sinh_problem(700.0)
    dense_pb = dataclasses.replace(pb, factors=None)
    grid = build_grid(20, 20, gauss_rule(2))
    z = 1.0 + np.sin(5.0 * grid.nodes)
    rng = np.random.default_rng(13)
    pts = np.concatenate([rng.random(960), grid.nodes[::20]])  # 40 points on nodes
    rng.shuffle(pts)
    pts = pts.reshape(40, 25)
    factored = _km_at(pb, grid, pts)(z)
    factored_flat = _km_at(pb, grid, pts.ravel())(z)
    with np.errstate(over="ignore"):  # each sinh branch overflows on the other side
        dense = _km_at(dense_pb, grid, pts)(z)
        dense_flat = _km_at(dense_pb, grid, pts.ravel())(z)
    for out, flat in ((factored, factored_flat), (dense, dense_flat)):
        assert out.shape == pts.shape
        np.testing.assert_array_equal(out, flat.reshape(pts.shape))
    assert np.max(np.abs(factored - dense)) <= 1e-14 * np.max(np.abs(dense))


def test_dense_nystrom_solve_at_gamma_700_solves_the_factored_equation():
    pb = sinh_problem(700.0)
    grid = build_grid(20, 20, gauss_rule(2))
    sol = solve_nystrom(dataclasses.replace(pb, factors=None), grid)
    x = sol.node_values.values
    assert np.max(np.abs(x - _km_at(pb, grid, grid.nodes)(x) - 1.0)) <= 1e-12


def test_factored_galerkin_solve_and_z_s_evaluate_no_kernel_entry(monkeypatch):
    # _km_at and _jacobian_at read the declared factors; only the dense twin calls the kernel
    calls = []
    kernel = nystrom.kernel_eval

    def counting(problem, s, t, u, order, out=None):
        calls.append(order)
        return kernel(problem, s, t, u, order, out=out)

    monkeypatch.setattr(nystrom, "kernel_eval", counting)
    pb = get_problem("rpk-aks")
    pts = np.random.default_rng(17).random(1000)
    counts = []
    for problem in (pb, dataclasses.replace(pb, factors=None)):
        calls.clear()
        sol = solve_discrete_galerkin(problem, 10, 1)
        iterated_eval(sol, sol.grid.partition_points)
        iterated_eval(sol, pts)
        counts.append(len(calls))
    assert counts[0] == 0
    assert counts[1] > 0


def test_dense_solve_and_z_s_evaluate_the_closed_form_kernel_count(monkeypatch):
    # Without factors a residual sums N**2 kernel values, a Newton step N**2
    # values of dk/du, and z_S at M points M*N values.
    sizes = {0: [], 1: []}  # the entries of each kernel_eval call, summed after
    kernel = nystrom.kernel_eval

    def counting(problem, s, t, u, order, out=None):
        entries = kernel(problem, s, t, u, order, out=out)
        sizes[order].append(entries.size)
        return entries

    monkeypatch.setattr(nystrom, "kernel_eval", counting)
    n = 6
    sol = solve_discrete_galerkin(dataclasses.replace(get_problem("rpk-aks"), factors=None), n, 2)
    iters, nodes = sol.newton_iterations, sol.grid.node_count
    assert nodes == 864 and iters > 1
    solve = {order: sum(counts) for order, counts in sizes.items()}
    assert solve == {0: iters * nodes**2, 1: (iters - 1) * nodes**2}
    iterated_eval(sol, sol.grid.partition_points)
    assert {order: sum(counts) for order, counts in sizes.items()} == {
        0: solve[0] + (n + 1) * nodes,
        1: solve[1],
    }


def counted_factors(pb, calls):
    """pb with each declared factor counting its calls in ``calls`` under its name."""

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    names = (("a", "beta", "beta_du"), ("c", "delta", "delta_du"))
    return dataclasses.replace(
        pb,
        factors=tuple(
            tuple(counted(name, g) for name, g in zip(side_names, side))
            for side_names, side in zip(names, pb.factors)
        ),
    )


def test_factored_solve_evaluates_the_s_factors_once_per_solve():
    calls = collections.Counter()
    spy = counted_factors(get_problem("rpk-aks"), calls)
    iterations = []
    for tol in (1e-6, 1e-12):
        calls.clear()
        sol = solve_discrete_galerkin(spy, 10, 1, tol=tol)
        k = sol.newton_iterations
        iterations.append(k)
        # a(s) and c(s) once, shared by K_m at the nodes and the Jacobian,
        # whatever the iteration count; the t factors once per residual or step
        assert calls["a"] == calls["c"] == 1
        assert calls["beta"] == calls["delta"] == k
        assert calls["beta_du"] == calls["delta_du"] == k - 1
    assert iterations[0] < iterations[1]


def factored_plans(n, r):
    """The size plans of a Galerkin solve at (n, r), p = n**r, with rank-1 and rank-2 factors."""
    block = n**r * minimal_rho(r)
    nodes = n * block
    rank_one = 8 * nodes * (13 + 5 * r) + 16 * block * (r + 1) + 17 * (n * r) ** 2
    return rank_one, rank_one + 8 * nodes * (7 + 5 * r)


def physical_memory(monkeypatch, nbytes):
    """Make ``nbytes`` the physical memory that the size plans are checked against."""
    real = os.sysconf
    pages = {"SC_PHYS_PAGES": nbytes, "SC_PAGE_SIZE": 1}
    monkeypatch.setattr(os, "sysconf", lambda name: pages.get(name) or real(name))


def test_the_size_plan_counts_the_rank_of_the_declared_factors(monkeypatch):
    n, r = 6, 1
    rank_one, rank_two = factored_plans(n, r)
    physical_memory(monkeypatch, (rank_one + rank_two) // 2)
    calls = collections.Counter()
    spy = counted_factors(rank_two_problem(), calls)
    calls.clear()  # of the construction check
    with pytest.raises(DomainError, match=f"with rank-2 factors needs {rank_two} bytes"):
        solve_discrete_galerkin(spy, n, r)
    # the rank was read on construction: no factor runs before the check
    assert calls == {}
    assert solve_discrete_galerkin(get_problem("rpk-aks"), n, r).newton_iterations > 0


def test_a_ladder_too_large_at_rank_two_is_refused_before_its_first_level(monkeypatch):
    # n = 8, r = 1 plans 20,032 bytes with rank-1 factors and 32,320 with rank 2;
    # the levels n = 2 and 4 fit in either
    rank_one, rank_two = factored_plans(8, 1)
    assert (rank_one, rank_two) == (20032, 32320)
    physical_memory(monkeypatch, (rank_one + rank_two) // 2)
    calls = collections.Counter()

    def f(s):
        calls["f"] += 1
        return np.ones_like(np.asarray(s, dtype=float))

    spy = dataclasses.replace(counted_factors(rank_two_problem(), calls), f=f, exact=f)
    calls.clear()  # of the construction check
    with pytest.raises(DomainError, match=f"with rank-2 factors needs {rank_two} bytes"):
        convergence_study(spy, 1, [2, 4, 8])
    assert calls == {}  # no level solved, no factor called


def test_a_nonfinite_s_factor_raises_the_kernel_error_naming_the_problem():
    # a(s) is NaN only on (0.6, 0.7), off the sample the factors are checked on
    gamma = np.sqrt(12.0)
    l_s, r_t, p_s, q_t = _sinh_greens_factors(gamma)
    pb = hammerstein_problem(
        "nan-a",
        *sinh_greens_branches(gamma),
        lambda t, u: u,
        lambda t, u: np.ones_like(u),
        f=lambda s: np.ones_like(np.asarray(s, dtype=float)),
        g_factors=(lambda s: np.where((s > 0.6) & (s < 0.7), np.nan, l_s(s)), r_t, p_s, q_t),
    )
    with pytest.raises(EvaluationError, match="kernel of 'nan-a' returned non-finite"):
        solve_discrete_galerkin(pb, 4, 1)


def test_blocked_prefix_sums_are_the_plain_cumsum_up_to_one_block():
    rng = np.random.default_rng(23)
    short = rng.normal(size=(_SUM_BLOCK, 2, 3))
    np.testing.assert_array_equal(_prefix(short), np.cumsum(short, axis=0))
    np.testing.assert_array_equal(_prefix(short, 1), np.cumsum(short, axis=1))
    np.testing.assert_array_equal(_suffix(short), np.cumsum(short[::-1], axis=0)[::-1])
    long = rng.normal(size=(3 * _SUM_BLOCK + 5, 2))
    exact = np.cumsum(long.astype(np.longdouble), axis=0)
    assert np.max(np.abs(_prefix(long) - exact)) <= 1e-12
    np.testing.assert_allclose(_suffix(long), _prefix(long[::-1])[::-1], rtol=0, atol=0)


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= np.finfo(float).eps, reason="long double is double here"
)
def test_factored_km_on_many_nodes_keeps_its_rounding_small():
    # N = 204 800: a sequential cumsum over all nodes is off by 9e-15 of max|K_m|
    pb = get_problem("rpk-aks")
    grid = build_grid(102_400, 1, gauss_rule(2))
    x = pb.exact(grid.nodes)
    s = np.linspace(0.0, 1.0, 1001)
    (a, beta, _), (c, delta, _) = pb.factors
    w = grid.node_weights[:, None].astype(np.longdouble)
    below = np.cumsum(w * beta(grid.nodes, x), axis=0)
    above = np.cumsum((w * delta(grid.nodes, x))[::-1], axis=0)[::-1]
    zero = np.zeros((1, 1), dtype=np.longdouble)
    below, above = np.concatenate([zero, below]), np.concatenate([above, zero])
    j = np.searchsorted(grid.nodes, s, side="right")
    reference = np.sum(a(s) * below[j] + c(s) * above[j], axis=-1)
    got = _km_at(pb, grid, s)(x)
    assert np.max(np.abs(got - reference)) <= 2e-15 * np.max(np.abs(reference))


def nan_above_3():
    """The sqrt(12) sinh problem with psi and psi_du NaN for u > 3."""
    return sinh_problem(
        np.sqrt(12.0),
        psi=lambda t, u: np.where(u > 3.0, np.nan, u),
        psi_du=lambda t, u: np.where(u > 3.0, np.nan, 1.0),
    )


@pytest.mark.parametrize("case", ["gamma-720", "nan-above-3"])
def test_nonfinite_factor_values_raise_the_kernel_error(case):
    with np.errstate(over="ignore", invalid="ignore"):  # sinh(720) overflows
        if case == "gamma-720":
            pb = sinh_problem(720.0)
        else:  # psi is NaN only for u > 3, off the sample the factors are checked on
            five = lambda s: np.full_like(np.asarray(s, dtype=float), 5.0)
            pb = dataclasses.replace(nan_above_3(), f=five)
        for problem in (pb, dataclasses.replace(pb, factors=None)):
            with pytest.raises(EvaluationError, match="non-finite"):
                solve_discrete_galerkin(problem, 4, 1)


# The natural extension f + K_m(x) of a problem with factors comes from their
# prefix and suffix sums; its dense twin (factors=None) sums kernel entries.
def jump_problem():
    """k = u/4 for t <= s and u/2 for t > s: at a node, the value shows which branch it took."""
    const = lambda c: lambda *args: np.full(np.broadcast(*args).shape, c)
    return hammerstein_problem(
        "jump",
        const(0.25),
        const(0.5),
        lambda t, u: u,
        const(1.0),
        f=const(1.0),
        g_factors=(const(0.25), const(1.0), const(0.5), const(1.0)),
    )


EXTENSION_CASES = {
    "jump": lambda: (jump_problem(), 10, 1),
    "rpk-aks-r1": lambda: (get_problem("rpk-aks"), 10, 1),
    "rpk-aks-r2": lambda: (get_problem("rpk-aks"), 3, 2),
    "rank-two": lambda: (rank_two_problem(), 6, 1),
    "sinh-40": lambda: (sinh_problem(40.0), 10, 1),
    "sinh-200": lambda: (sinh_problem(200.0), 10, 1),
    "sinh-700": lambda: (sinh_problem(700.0), 10, 1),
}


def extension_points(grid):
    """2000 unsorted points, the nodes, the partition points, 0 and 1, and each node +- 1 ulp."""
    rng = np.random.default_rng(11)
    nodes = grid.nodes
    return np.concatenate(
        [
            rng.random(2000),
            nodes,
            grid.partition_points,
            [0.0, 1.0],
            np.nextafter(nodes, 0.0),
            np.nextafter(nodes, 1.0),
        ]
    )


def assert_matches_dense_twin(evaluate, solution, pts):
    """evaluate(solution, s) with the factors against the same node values without them."""
    twin = dataclasses.replace(solution, problem=dataclasses.replace(solution.problem, factors=None))
    # near the diagonal the dense path also evaluates each branch on the other
    # side, where the sinh product overflows for gamma = 700; np.where drops it
    with np.errstate(over="ignore"):
        dense = evaluate(twin, pts)
        dense_scalar = evaluate(twin, 0.37)
    factored = evaluate(solution, pts)
    scale = np.max(np.abs(dense))
    assert factored.shape == pts.shape
    assert np.max(np.abs(factored - dense)) <= 1e-14 * scale
    scalar = evaluate(solution, 0.37)
    assert isinstance(scalar, float)
    assert abs(scalar - dense_scalar) <= 1e-14 * scale


@pytest.mark.parametrize("case", sorted(EXTENSION_CASES))
def test_factored_iterated_solution_matches_its_dense_twin(case):
    pb, n, r = EXTENSION_CASES[case]()
    sol = solve_discrete_galerkin(pb, n, r)
    assert_matches_dense_twin(iterated_eval, sol, extension_points(sol.grid))


@pytest.mark.parametrize("case", sorted(EXTENSION_CASES))
def test_factored_nystrom_extension_matches_its_dense_twin(case):
    pb = EXTENSION_CASES[case]()[0]
    sol = solve_nystrom(pb, build_grid(20, 5, gauss_rule(2)))
    assert_matches_dense_twin(lambda sol, s: sol(s), sol, extension_points(sol.grid))


def test_factored_extension_does_not_depend_on_the_order_of_the_points():
    sol = solve_discrete_galerkin(get_problem("rpk-aks"), 10, 1)
    pts = extension_points(sol.grid)
    perm = np.random.default_rng(3).permutation(pts.size)
    np.testing.assert_array_equal(iterated_eval(sol, pts[perm]), iterated_eval(sol, pts)[perm])


def test_nonfinite_factor_values_of_an_extension_raise_the_kernel_error():
    # psi is NaN for u > 3, so the one node value 4 makes beta and delta NaN there
    pb = nan_above_3()
    grid = build_grid(10, 1, gauss_rule(2))
    values = np.ones(grid.node_count)
    values[7] = 4.0
    for problem in (pb, dataclasses.replace(pb, factors=None)):
        sol = NystromSolution(problem, GridFunction(grid, values), (0.0,))
        for s in (0.5, np.linspace(0.0, 1.0, 11)):
            with pytest.raises(EvaluationError, match="non-finite"):
                sol(s)


@pytest.mark.parametrize(
    "initial, match",
    [
        (np.ones((4, 2)), r"initial coefficients shape \(4, 2\), expected \(4, 1\)"),
        (np.ones(4), "initial coefficients shape"),
        (np.full((4, 1), np.nan), "initial coefficients must be finite"),
        (np.full((4, 1), -np.inf), "initial coefficients must be finite"),
        (lambda s: np.where(s > 0.5, np.nan, 1.0), "non-finite value at node"),
        (lambda s: np.full(np.shape(s), np.inf), "non-finite value at node"),
    ],
)
def test_a_bad_start_is_refused_before_any_kernel_or_factor_call(
    kernel_free_problem, initial, match
):
    with pytest.raises(ValueError, match=match):
        solve_discrete_galerkin(kernel_free_problem, 4, 1, initial=initial)
    calls = collections.Counter()
    spy = counted_factors(get_problem("rpk-aks"), calls)
    calls.clear()  # of the construction check
    with pytest.raises(ValueError, match=match):
        solve_discrete_galerkin(spy, 4, 1, initial=initial)
    assert calls == {}


@pytest.mark.parametrize("factored", [True, False], ids=["factored", "dense"])
def test_the_default_start_is_the_projection_of_f(crossing_problem, factored):
    pb = get_problem("rpk-aks") if factored else crossing_problem
    n, r = 6, 2
    default = solve_discrete_galerkin(pb, n, r)
    c_f = project(pb.f, default.grid, r).coeffs
    for initial in (None, pb.f, c_f):
        sol = solve_discrete_galerkin(pb, n, r, initial=initial)
        assert sol.residual_norms == default.residual_norms
        np.testing.assert_array_equal(sol.z_g.coeffs, default.z_g.coeffs)


def test_a_start_near_the_solution_saves_newton_steps():
    pb = get_problem("rpk-aks")
    cold = solve_discrete_galerkin(pb, 20, 1)
    warm = solve_discrete_galerkin(pb, 20, 1, initial=pb.exact)
    assert warm.newton_iterations < cold.newton_iterations
    np.testing.assert_allclose(warm.z_g.coeffs, cold.z_g.coeffs, rtol=0, atol=1e-12)


def fresh_z_s(sol, pts):
    """f + K_m at pts, K_m summed afresh at the solution's node values."""
    x = sol.z_g_node_values
    return sol.problem.f(pts) + _km_at(sol.problem, x.grid, pts)(x.values)


# case -> (problem, n, r) of a solve whose z_S reads the sums of its last residual
KEPT_SUMS = {
    "r1": (lambda: get_problem("rpk-aks"), 10, 1),
    "r2": (lambda: get_problem("rpk-aks"), 6, 2),
    "r3": (lambda: get_problem("rpk-aks"), 4, 3),
    "rank-two": (rank_two_problem, 6, 1),
}


@pytest.mark.parametrize("case", list(KEPT_SUMS))
def test_z_s_of_a_solve_reads_its_last_residual_sums_with_the_fresh_bits(case):
    make, n, r = KEPT_SUMS[case]
    calls = collections.Counter()
    sol = solve_discrete_galerkin(counted_factors(make(), calls), n, r)
    unsorted = np.random.default_rng(29).random(1001)
    for pts in (sol.grid.partition_points, unsorted):
        calls.clear()
        got = iterated_eval(sol, pts)
        assert calls["beta"] == calls["delta"] == 0  # the t factors are not evaluated again
        np.testing.assert_array_equal(got, fresh_z_s(sol, pts))


def test_kept_sums_never_serve_other_node_values_or_another_problem():
    pb = get_problem("rpk-aks")
    sol = solve_discrete_galerkin(pb, 10, 1)
    grid = sol.grid
    other = GridFunction(grid, sol.z_g_node_values.values + 0.01 * np.cos(grid.nodes))
    pts = np.concatenate([grid.partition_points, np.random.default_rng(31).random(1001)])
    stale = {
        "replaced": dataclasses.replace(sol, z_g_node_values=other),
        "hand-built": GalerkinSolution(pb, sol.z_g, other, sol.residual_norms),
        "other problem": dataclasses.replace(sol, problem=sinh_problem(40.0)),
    }
    for name, changed in stale.items():
        want = fresh_z_s(changed, pts)
        assert not np.array_equal(want, iterated_eval(sol, pts)), name
        np.testing.assert_array_equal(iterated_eval(changed, pts), want, err_msg=name)


_THREADS_SCRIPT = """
import sys
import numpy as np
from urysohn import (
    build_grid, gauss_rule, get_problem, iterated_eval, solve_discrete_galerkin, solve_nystrom
)
pb = get_problem("rpk-aks")
pts = np.random.default_rng(2).random(2000)
out = {}
for n, r in ((40, 1), (80, 1), (12, 2)):
    sol = solve_discrete_galerkin(pb, n, r)
    out[f"coeffs-{n}-{r}"] = sol.z_g.coeffs
    out[f"z_s-{n}-{r}"] = iterated_eval(sol, sol.grid.partition_points)
    out[f"z_s-points-{n}-{r}"] = iterated_eval(sol, pts)
sol = solve_nystrom(pb, build_grid(300, 1, gauss_rule(2)))  # 300 panels: the two-grid start
out["nystrom-300"] = sol.node_values.values
out["nystrom-300-points"] = sol(pts)
np.savez(sys.argv[1], **out)
"""


def test_factored_solve_does_not_depend_on_the_blas_thread_count(tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    results = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads-{threads}.npz"
        subprocess.run(
            [sys.executable, "-W", "error", "-c", _THREADS_SCRIPT, str(out)],
            env=dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads),
            check=True,
            capture_output=True,
            timeout=120,
        )
        with np.load(out) as data:
            results.append({key: data[key] for key in data.files})
    assert len(results[0]) == 11
    for key, values in results[0].items():
        assert np.array_equal(values, results[1][key]), key
