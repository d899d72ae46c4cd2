"""Acceptance suite: one test per acceptance criterion, at stated tolerances.

Each criterion is a single test named test_criterion_NN_*, so a verbose
pytest run shows exactly one PASS/FAIL line per criterion.  Criteria 1 and 2
check the iterated Galerkin solution of the builtin problem against the
asymptotic error expansion at the partition points,

    (z_S - x)(t_i) = C(t_i) * h**2 + O(h**4)        (r = 1),

with the coefficient C computed by first-order perturbation theory in
``predicted_coefficient`` below.  That oracle imports nothing from
``urysohn``: it has its own Gauss grid, Green's function and closed-form
derivatives, so it does not share code with the solver it checks.
Criteria 3-9 are self-contained consistency checks with frozen constants.
docs/benchmark-notes.md derives C and records the reference table that
criteria 1-2 used to compare against.
"""

import math

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from urysohn import (
    GridFunction,
    PiecewiseLegendre,
    PointValues,
    UrysohnProblem,
    apply_km,
    bbar,
    build_grid,
    convergence_study,
    gauss_rule,
    get_problem,
    iterated_eval,
    j_square_integral,
    kernel_eval,
    legendre,
    minimal_rho,
    project,
    residual_check,
    richardson,
    solve_discrete_galerkin,
    solve_nystrom,
)
from urysohn.galerkin import _jacobian_at
from urysohn.problems import _factors
from urysohn.projection import basis_matrix, discrete_inner_product

# ---------------------------------------------------------------------------
# Perturbation-theory oracle for the h**2 error coefficient of the builtin
# problem rpk-aks (r = 1): x(s) - int_0^1 G(s,t) psi(x(t)) dt = f(s), with
# G the sinh Green's function, psi(u) = 12u - 2u^3 and x(s) = 2/(2s+1).
#
#     C = E_2 + T/2
#     T(t)   = (int J_1^2) * [(I - K')^{-1} K'' (x')^2](t)
#     E_2(t) = bbar_22 * [(I - K')^{-1} K' x''](t)
#              - bbar_21 * (lt(t,1) x'(1) - lt(t,0) x'(0))
#
# K', K'' are the Frechet derivatives of the integral operator at x and lt
# is the kernel of (I - K')^{-1} K'.  The constants are the r = 1 values
# that criterion 3 pins: bbar_21 = -1/12, bbar_22 = 1/12, int J_1^2 = 1/12.
# ---------------------------------------------------------------------------

T_INTERIOR = np.arange(1, 20) / 20.0

GAMMA = np.sqrt(12.0)
BBAR_21, BBAR_22, J1_SQUARE = -1.0 / 12.0, 1.0 / 12.0, 1.0 / 12.0


def _exact(s):
    return 2.0 / (2.0 * s + 1.0)


def _exact_d1(s):
    return -4.0 / (2.0 * s + 1.0) ** 2


def _exact_d2(s):
    return 16.0 / (2.0 * s + 1.0) ** 3


def _green(s, t):
    lo, hi = np.minimum(s, t), np.maximum(s, t)
    return np.sinh(GAMMA * lo) * np.sinh(GAMMA * (1.0 - hi)) / (GAMMA * np.sinh(GAMMA))


def predicted_coefficient(t):
    """C(t) by dense composite Gauss quadrature and resolvent solves.

    200 panels of 6-point Gauss resolve the diagonal kink of G well enough:
    800 panels change C by 3.7e-8, against max|C| = 0.1.
    """
    t = np.asarray(t, dtype=float)
    panels = 200
    rule_nodes, rule_weights = leggauss(6)  # on [-1, 1]
    nodes = ((np.arange(panels)[:, None] + (rule_nodes + 1.0) / 2.0) / panels).ravel()
    weights = np.tile(rule_weights / (2.0 * panels), panels)
    x_nodes = _exact(nodes)
    psi_u_w = (GAMMA**2 - 6.0 * x_nodes**2) * weights  # psi'(x) times weights

    def kprime(values, s):
        # K' applied to a function given at the nodes, evaluated at s
        return (_green(s[:, None], nodes[None, :]) * psi_u_w) @ values

    lhs = np.eye(nodes.size) - _green(nodes[:, None], nodes[None, :]) * psi_u_w

    def resolvent(g_at_nodes, g_at_t):
        # [(I - K')^{-1} g](t) = g(t) + K' (I - K')^{-1} g at t
        return g_at_t + kprime(np.linalg.solve(lhs, g_at_nodes), t)

    def k_second(s):
        # K'' (x')^2 at s: psi''(x) = -12 x
        return _green(s[:, None], nodes[None, :]) @ (
            -12.0 * x_nodes * _exact_d1(nodes) ** 2 * weights
        )

    def resolvent_kernel(tau):
        # lt(t, tau): [(I - K')^{-1} k'(., tau)](t), k'(s, tau) = G(s,tau) psi'(x(tau))
        psi_u_tau = GAMMA**2 - 6.0 * _exact(tau) ** 2
        return resolvent(_green(nodes, tau) * psi_u_tau, _green(t, tau) * psi_u_tau)

    t_term = J1_SQUARE * resolvent(k_second(nodes), k_second(t))
    d2 = _exact_d2(nodes)
    e_term = BBAR_22 * resolvent(kprime(d2, nodes), kprime(d2, t)) - BBAR_21 * (
        resolvent_kernel(1.0) * _exact_d1(1.0) - resolvent_kernel(0.0) * _exact_d1(0.0)
    )
    return e_term + 0.5 * t_term


def _announce(num, ok, detail):
    print(f"criterion {num} {'PASS' if ok else 'FAIL'}: {detail}")


@pytest.fixture(scope="module")
def ladder_report():
    # Shared by criteria 1 and 2: n in {10, 20, 40}, p = n (so m = n^2).
    return convergence_study(get_problem("rpk-aks"), 1, [10, 20, 40])


@pytest.fixture(scope="module")
def coefficient():
    return predicted_coefficient(T_INTERIOR)


# ---------------------------------------------------------------------- 1 --


def test_criterion_01_benchmark_error_table(ladder_report, coefficient):
    level = ladder_report.level_for(20)
    assert level.p == 20 and level.m == 400 and level.rho == 2
    h2 = (1.0 / level.n) ** 2
    # signed iterated-solution errors at the 19 interior partition points
    err = level.z_s[1:-1] - _exact(T_INTERIOR)
    # C changes sign inside (0, 1), so the deviation is relative to max|C|
    dev = np.abs(err - coefficient * h2).max() / (np.abs(coefficient).max() * h2)
    runtime_ok = level.wall_time <= 60.0
    ok = bool(dev <= 0.02) and runtime_ok
    detail = (
        f"max |(z_S - x) - C h^2| / (max|C| h^2) {dev:.3g} (tolerance 0.02), "
        f"solve time {level.wall_time:.2f}s (limit 60s)"
    )
    _announce(1, ok, detail)
    assert runtime_ok, detail
    assert dev <= 0.02, detail + "; see docs/benchmark-notes.md for C(t)"


# ---------------------------------------------------------------------- 2 --


def test_criterion_02_convergence_orders(ladder_report, coefficient):
    lev10, lev20, lev40 = ladder_report.levels
    total_time = sum(lev.wall_time for lev in ladder_report.levels)
    x = _exact(T_INTERIOR)

    # delta_S at the 19 interior points of the n=20 grid, reported only: it
    # is meaningless where C(t) crosses zero
    delta_s = np.log2(lev20.eps_s[1:-1] / lev40.eps_s[2:-1:2])

    # the remainder after the h^2 term is O(h^4) at every point, the zero of
    # C included
    rem20 = lev20.z_s[1:-1] - x - coefficient / lev20.n**2
    rem40 = lev40.z_s[2:-1:2] - x - coefficient / lev40.n**2
    order_rem = np.log2(np.abs(rem20 / rem40))
    rem_dev = np.abs(order_rem - 4.0).max()

    # delta_EX from n in {10, 20, 40}: defined on the 9 shared points
    delta_ex = np.log2(lev10.eps_ex[1:-1] / lev20.eps_ex[2:-1:2])
    dex_dev = np.abs(delta_ex - 4.0).max()

    runtime_ok = total_time <= 180.0
    ok = bool(rem_dev <= 0.05 and dex_dev <= 0.1) and runtime_ok
    detail = (
        f"remainder order max |dev from 4| {rem_dev:.3g} (tol 0.05); "
        f"delta_EX max |dev from 4| {dex_dev:.3g} (tol 0.1); "
        f"delta_S range [{delta_s.min():.3f}, {delta_s.max():.3f}] (not asserted); "
        f"total time {total_time:.2f}s (limit 180s)"
    )
    _announce(2, ok, detail)
    assert runtime_ok, detail
    assert ok, detail + "; see docs/benchmark-notes.md for the expansion"


# ---------------------------------------------------------------------- 3 --


def test_criterion_03_analytic_constants():
    devs = (
        abs(bbar(1, 1) - (-1 / 12)),
        abs(bbar(1, 2) - (1 / 12)),
        abs(j_square_integral(1) - 1 / 12),
    )
    ok = max(devs) <= 1e-12
    _announce(3, ok, f"constant deviations {[f'{d:.2e}' for d in devs]} (tol 1e-12)")
    assert ok


# ---------------------------------------------------------------------- 4 --


def test_criterion_04_discrete_moment_identities():
    rng = np.random.default_rng(1234)
    oracle = gauss_rule(20)
    worst = 0.0
    for r in (1, 2, 3):
        rho = minimal_rho(r)
        for p in (1, 2, 4):
            grid = build_grid(1, p, gauss_rule(rho))
            for tau in rng.uniform(0, 1, size=20):
                for eta in range(r):
                    for k in range(1, 2 * r + 2):
                        f_nodes = (
                            legendre(eta, grid.nodes)
                            * (grid.nodes - tau) ** k
                            / math.factorial(k)
                        )
                        discrete = float(grid.node_weights @ f_nodes)
                        exact = float(
                            oracle.weights
                            @ (legendre(eta, oracle.nodes) * (oracle.nodes - tau) ** k)
                        ) / math.factorial(k)
                        worst = max(worst, abs(discrete - exact))
    ok = worst <= 1e-12
    _announce(4, ok, f"worst identity defect {worst:.2e} (tol 1e-12)")
    assert ok


# ---------------------------------------------------------------------- 5 --


def test_criterion_05_projection_suite():
    failures = []

    # idempotence and polynomial reproduction
    for r in (1, 2, 3):
        grid = build_grid(4, 2, gauss_rule(minimal_rho(r)))
        rng = np.random.default_rng(5 + r)
        target = PiecewiseLegendre(4, r, rng.normal(size=(4, r)))
        back = project(target, grid, r)
        dev = np.abs(back.coeffs - target.coeffs).max()
        if dev > 1e-12:
            failures.append(f"reproduction r={r}: {dev:.2e}")
        once = project(np.exp, grid, r)
        twice = project(once, grid, r)
        dev = np.abs(twice.coeffs - once.coeffs).max()
        if dev > 1e-12:
            failures.append(f"idempotence r={r}: {dev:.2e}")

    # discrete orthonormality of the scaled basis
    r, n = 2, 3
    grid = build_grid(n, 2, gauss_rule(minimal_rho(r)))
    bm = basis_matrix(grid, r)
    block = grid.offsets.size
    w = grid.node_weights[:block]
    gram = (bm * w[:, None]).T @ bm
    dev = np.abs(gram - np.eye(r)).max()
    if dev > 1e-13:
        failures.append(f"orthonormality: {dev:.2e}")

    # discrete self-adjointness
    px, py = project(np.cos, grid, r), project(np.exp, grid, r)
    lhs = sum(discrete_inner_product(px, np.exp, j, grid) for j in range(n))
    rhs = sum(discrete_inner_product(np.cos, py, j, grid) for j in range(n))
    if abs(lhs - rhs) > 1e-12:
        failures.append(f"self-adjointness: {abs(lhs - rhs):.2e}")

    # empirical approximation order for x = exp
    for r in (1, 2):
        errs = []
        for n in (8, 16):
            grid = build_grid(n, 1, gauss_rule(minimal_rho(r)))
            pl = project(np.exp, grid, r)
            s = np.linspace(1e-4, 1 - 1e-4, 1200)
            errs.append(np.abs(pl(s) - np.exp(s)).max())
        order = float(np.log2(errs[0] / errs[1]))
        if abs(order - r) > 0.1:
            failures.append(f"order r={r}: observed {order:.3f}")

    ok = not failures
    _announce(5, ok, "all projection checks passed" if ok else "; ".join(failures))
    assert ok, failures


# ---------------------------------------------------------------------- 6 --


def test_criterion_06_residual_oracle():
    pb = get_problem("rpk-aks")
    resid = residual_check(pb, pb.exact, panels=64)
    ok = resid <= 1e-9
    _announce(6, ok, f"exact-solution residual {resid:.2e} (tol 1e-9)")
    assert ok


# ---------------------------------------------------------------------- 7 --


def test_criterion_07_nystrom_suite():
    pb = get_problem("rpk-aks")
    errs = []
    for m in (50, 100, 200):
        grid = build_grid(m, 1, gauss_rule(2))
        sol = solve_nystrom(pb, grid)
        errs.append(np.abs(sol.node_values.values - pb.exact(grid.nodes)).max())
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    order_dev = np.abs(orders - 2.0).max()

    grid = build_grid(8, 1, gauss_rule(2))
    nodes, w = grid.nodes, grid.node_weights
    base = pb.exact(nodes)
    analytic = kernel_eval(pb, nodes[:, None], nodes[None, :], base[None, :], 1) * w
    eps = 1e-6
    fd = np.empty_like(analytic)
    for b in range(nodes.size):
        up, dn = base.copy(), base.copy()
        up[b] += eps
        dn[b] -= eps
        fd[:, b] = (
            apply_km(pb, GridFunction(grid, up), nodes)
            - apply_km(pb, GridFunction(grid, dn), nodes)
        ) / (2 * eps)
    jac_dev = np.abs(analytic - fd).max()

    ok = order_dev <= 0.1 and jac_dev <= 1e-5
    _announce(
        7,
        ok,
        f"node-error orders {np.round(orders, 3).tolist()} (2.0 +- 0.1), "
        f"Jacobian FD deviation {jac_dev:.2e} (tol 1e-5)",
    )
    assert ok


# ---------------------------------------------------------------------- 8 --


def test_criterion_08_galerkin_identities():
    pb = get_problem("rpk-aks")

    # projecting the iterated solution recovers the coefficient solution
    sol = solve_discrete_galerkin(pb, 8, 1)
    back = project(lambda s: iterated_eval(sol, s), sol.grid, 1)
    proj_dev = np.abs(back.coeffs - sol.z_g.coeffs).max()

    # analytic Jacobian vs finite differences on a small system (n=4, r=2)
    n, r = 4, 2
    grid = build_grid(n, 2, gauss_rule(minimal_rho(r)))
    bm = basis_matrix(grid, r)
    block = grid.offsets.size
    N = grid.node_count
    full_bm = np.zeros((N, n * r))
    for j in range(n):
        full_bm[j * block : (j + 1) * block, j * r : (j + 1) * r] = bm
    rng = np.random.default_rng(88)
    coeffs = rng.normal(size=(n, r))

    def residual(cvec):
        pl = PiecewiseLegendre(n, r, cvec.reshape(n, r))
        km = apply_km(pb, GridFunction(grid, pl(grid.nodes)), grid.nodes)
        cf = (pb.f(grid.nodes) * grid.node_weights) @ full_bm
        pk = (km * grid.node_weights) @ full_bm
        return cvec - pk - cf

    c0 = coeffs.ravel()
    eps = 1e-6
    fd = np.empty((n * r, n * r))
    for k in range(n * r):
        up, dn = c0.copy(), c0.copy()
        up[k] += eps
        dn[k] -= eps
        fd[:, k] = (residual(up) - residual(dn)) / (2 * eps)
    zvals = PiecewiseLegendre(n, r, coeffs)(grid.nodes)
    wb = grid.node_weights[:block, None] * bm
    jacobian = _jacobian_at(pb, grid, wb, n, r, _factors(pb, 0, grid.nodes))
    jac_dev = np.abs(jacobian(zvals) - fd).max()

    # degenerate kernel: the solution is exactly the forcing
    shape = lambda *args: np.broadcast(*args).shape
    degenerate = UrysohnProblem(
        name="zero-k",
        kappa_lower=lambda s, t, u: np.zeros(shape(s, t, u)),
        kappa_upper=lambda s, t, u: np.zeros(shape(s, t, u)),
        kappa_lower_du=lambda s, t, u: np.zeros(shape(s, t, u)),
        kappa_upper_du=lambda s, t, u: np.zeros(shape(s, t, u)),
        f=lambda s: np.cosh(np.asarray(s, dtype=float)),
    )
    dsol = solve_discrete_galerkin(degenerate, 5, 1)
    s = np.linspace(0, 1, 17)
    exact_forcing = bool(np.array_equal(iterated_eval(dsol, s), degenerate.f(s)))

    ok = proj_dev <= 1e-10 and jac_dev <= 1e-5 and exact_forcing
    _announce(
        8,
        ok,
        f"projection identity dev {proj_dev:.2e} (tol 1e-10), Jacobian FD dev "
        f"{jac_dev:.2e} (tol 1e-5), degenerate kernel returns forcing: {exact_forcing}",
    )
    assert ok


# ---------------------------------------------------------------------- 9 --


def test_criterion_09_extrapolation_exactness():
    worst = 0.0
    for r in (1, 2):
        a = lambda t: np.sin(2 * t) + 2.0
        b = lambda t: np.cosh(t)
        n = 8
        tc, tf = np.linspace(0, 1, n + 1), np.linspace(0, 1, 2 * n + 1)
        coarse = PointValues(tc, a(tc) + b(tc) * (1 / n) ** (2 * r))
        fine = PointValues(tf, a(tf) + b(tf) * (0.5 / n) ** (2 * r))
        out = richardson(coarse, fine, r)
        worst = max(worst, float(np.abs(out.values - a(tc)).max()))
    ok = worst <= 1e-12
    _announce(9, ok, f"worst reconstruction error {worst:.2e} (tol 1e-12)")
    assert ok
