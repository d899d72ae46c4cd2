"""Gauss-Legendre rules on [0, 1] and composite grids."""

import dataclasses
import math
import os
import tracemalloc

import numpy as np
import pytest

from urysohn import (
    CompositeGrid,
    ConvergenceReport,
    DomainError,
    EvaluationError,
    GridFunction,
    LevelResult,
    PiecewiseLegendre,
    PointValues,
    QuadratureRule,
    bbar,
    bernoulli,
    build_grid,
    convergence_study,
    discrete_inner_product,
    gauss_rule,
    get_problem,
    integrate_composite,
    j_k,
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
from urysohn.basis import legendre_table
from urysohn.quadrature import values_on


def test_two_point_nodes_and_weights_closed_form():
    rule = gauss_rule(2)
    expected = np.array([(3 - np.sqrt(3.0)) / 6, (3 + np.sqrt(3.0)) / 6])
    np.testing.assert_allclose(rule.nodes, expected, rtol=0, atol=1e-15)
    np.testing.assert_allclose(rule.weights, [0.5, 0.5], rtol=0, atol=1e-15)
    assert rule.npoints == 2
    assert rule.degree == 3


@pytest.mark.parametrize("rho", [1, 2, 5, 12, 20])
def test_polynomial_moments_exact_to_degree(rho):
    # A rho-point rule must integrate t^k exactly for k <= 2*rho - 1.
    rule = gauss_rule(rho)
    for k in range(2 * rho):
        quad = float(rule.weights @ rule.nodes**k)
        assert abs(quad - 1.0 / (k + 1)) < 5e-15, (rho, k)


def test_degree_bound_is_sharp():
    # k = 2*rho is the first monomial a Gauss rule gets wrong.
    for rho in (1, 2, 3):
        rule = gauss_rule(rho)
        k = 2 * rho
        quad = float(rule.weights @ rule.nodes**k)
        assert abs(quad - 1.0 / (k + 1)) > 1e-6


def test_nodes_sorted_interior_weights_positive():
    for rho in range(1, 21):
        rule = gauss_rule(rho)
        assert np.all(np.diff(rule.nodes) > 0)
        assert np.all(rule.nodes > 0) and np.all(rule.nodes < 1)
        assert np.all(rule.weights > 0)
        assert abs(rule.weights.sum() - 1.0) < 1e-14


def test_rule_rejects_out_of_range_order():
    with pytest.raises(DomainError):
        gauss_rule(0)
    with pytest.raises(DomainError):
        gauss_rule(21)


def test_rule_is_deterministic():
    a, b = gauss_rule(7), gauss_rule(7)
    np.testing.assert_array_equal(a.nodes, b.nodes)
    np.testing.assert_array_equal(a.weights, b.weights)


def test_rules_are_built_once_and_their_order_checked_first():
    assert gauss_rule(2) is gauss_rule(2) is gauss_rule(np.int64(2))
    for bad in (2.0, True, "2", [2]):
        with pytest.raises(DomainError):
            gauss_rule(bad)


def test_rule_arrays_are_immutable():
    rule = gauss_rule(3)
    with pytest.raises(ValueError):
        rule.nodes[0] = 0.5


def test_rules_and_grids_compare_and_hash_by_their_parameters():
    assert gauss_rule(2) == gauss_rule(2) != gauss_rule(3)
    assert hash(gauss_rule(3)) == hash(QuadratureRule(3))
    rule = gauss_rule(2)
    assert build_grid(4, 2, rule) == build_grid(4, 2, gauss_rule(2))
    assert build_grid(4, 2, rule) != build_grid(2, 4, rule)
    assert hash(build_grid(4, 2, rule)) == hash(CompositeGrid(4, 2, QuadratureRule(2)))


def test_a_replaced_grid_parameter_rebuilds_the_arrays():
    rule = gauss_rule(2)
    grid = dataclasses.replace(build_grid(4, 1, rule), n=8)
    fresh = build_grid(8, 1, rule)
    for name in ("offsets", "offset_weights", "nodes", "node_weights"):
        np.testing.assert_array_equal(getattr(grid, name), getattr(fresh, name))


def test_arrays_are_derived_from_the_parameters_and_read_only():
    with pytest.raises(TypeError):
        QuadratureRule(nodes=[0.25, 0.75], weights=[0.5, 0.5])
    rule = gauss_rule(2)
    with pytest.raises(TypeError):
        CompositeGrid(1, 1, rule, nodes=rule.nodes)
    grid = build_grid(3, 2, rule)
    for arr in (rule.weights, grid.offsets, grid.offset_weights, grid.nodes, grid.node_weights):
        with pytest.raises(ValueError):
            arr[0] = 0.5


def test_composite_offsets_single_interval_two_pieces():
    # n=1, p=2 with the 2-point rule: fine copies of the basic nodes.
    grid = build_grid(1, 2, gauss_rule(2))
    mu = gauss_rule(2).nodes
    expected = np.array([mu[0] / 2, mu[1] / 2, (1 + mu[0]) / 2, (1 + mu[1]) / 2])
    np.testing.assert_allclose(grid.offsets, expected, rtol=0, atol=1e-15)
    np.testing.assert_allclose(grid.offset_weights, np.full(4, 0.25), atol=1e-15)
    assert grid.m == 2
    assert grid.node_count == 4


def test_grid_node_layout_and_weights():
    grid = build_grid(3, 2, gauss_rule(2))
    assert grid.h == pytest.approx(1.0 / 3)
    assert grid.fine_h == pytest.approx(1.0 / 6)
    assert grid.node_count == 12
    # Nodes are the offsets shifted into each coarse interval.
    for j in range(3):
        block = grid.nodes[4 * j : 4 * (j + 1)]
        np.testing.assert_allclose(block, j / 3 + grid.offsets / 3, atol=1e-15)
    assert abs(grid.node_weights.sum() - 1.0) < 1e-14
    np.testing.assert_allclose(grid.partition_points, [0, 1 / 3, 2 / 3, 1.0], atol=1e-15)


def test_composite_integrates_smooth_polynomial_exactly():
    # Degree-3 integrand is exact for the 2-point rule on every piece.
    grid = build_grid(4, 3, gauss_rule(2))
    val = integrate_composite(lambda t: 4 * t**3 - t + 0.25, grid)
    assert abs(val - (1.0 - 0.5 + 0.25)) < 1e-14


def test_composite_defect_for_quartic_matches_closed_form():
    # For f = t^4 the 2-point Gauss error on a panel [a, b] is (b-a)^5 / 180,
    # so two half-width panels leave a total defect of exactly 1/2880.
    grid = build_grid(1, 2, gauss_rule(2))
    val = integrate_composite(lambda t: t**4, grid)
    assert abs((val - 0.2) - (-1.0 / 2880)) < 1e-15


def test_composite_error_decays_at_rule_order():
    # 2-point rule: composite error O(h^4) in the panel width.
    errs = []
    for m in (4, 8, 16):
        grid = build_grid(m, 1, gauss_rule(2))
        errs.append(abs(integrate_composite(np.exp, grid) - (np.e - 1)))
    order1 = np.log2(errs[0] / errs[1])
    order2 = np.log2(errs[1] / errs[2])
    assert abs(order1 - 4.0) < 0.1
    assert abs(order2 - 4.0) < 0.1


def test_build_grid_validates_arguments():
    with pytest.raises(DomainError):
        build_grid(0, 1, gauss_rule(2))
    with pytest.raises(DomainError):
        build_grid(2, 0, gauss_rule(2))


def test_values_on_accepts_scalar_valued_functions():
    grid = build_grid(2, 1, gauss_rule(2))
    vals = values_on(lambda t: 1.5, grid.nodes)
    np.testing.assert_allclose(vals, np.full(4, 1.5), atol=0)
    # math.exp refuses an array, so it is called point by point
    pts = grid.nodes.reshape(2, 2)
    vals = values_on(math.exp, pts)
    np.testing.assert_array_equal(vals, [[math.exp(t) for t in row] for row in pts])


def test_values_on_reports_offending_node():
    grid = build_grid(2, 1, gauss_rule(2))

    def bad(t):
        t = np.asarray(t, dtype=float)
        return np.where(t > 0.5, np.nan, t)

    with pytest.raises(EvaluationError) as exc:
        values_on(bad, grid.nodes)
    assert exc.value.node is not None and exc.value.node > 0.5


def test_values_on_rejects_a_result_of_another_shape():
    with pytest.raises(EvaluationError, match="shape"):
        values_on(lambda t: np.ones(3), np.linspace(0.0, 1.0, 4))


RULE = gauss_rule(2)
GRID = build_grid(2, 1, RULE)
PROBLEM = get_problem("rpk-aks")
COARSE, FINE = (PointValues(np.linspace(0, 1, k), np.zeros(k)) for k in (3, 5))

# entry point -> (argument name, call with that argument set to v, a valid v)
COUNTED = {
    "gauss_rule": ("rho", lambda v: gauss_rule(v), 2),
    "QuadratureRule": ("rho", lambda v: QuadratureRule(v), 2),
    "build_grid-n": ("n", lambda v: build_grid(v, 1, RULE), 2),
    "build_grid-p": ("p", lambda v: build_grid(2, v, RULE), 2),
    "CompositeGrid-n": ("n", lambda v: CompositeGrid(v, 1, RULE), 2),
    "CompositeGrid-p": ("p", lambda v: CompositeGrid(2, v, RULE), 2),
    "PiecewiseLegendre-n": ("n", lambda v: PiecewiseLegendre(v, 1, np.zeros((1, 1))), 1),
    "PiecewiseLegendre-r": ("r", lambda v: PiecewiseLegendre(1, v, np.zeros((1, 1))), 1),
    "legendre_table": ("r", lambda v: legendre_table(v, 0.5), 2),
    "j_k-r": ("r", lambda v: j_k(v, 1, 0.5), 2),
    "j_k-k": ("k", lambda v: j_k(1, v, 0.5), 2),
    "bbar-r": ("r", lambda v: bbar(v, 1), 2),
    "bbar-p_index": ("p_index", lambda v: bbar(1, v), 2),
    "j_square_integral": ("r", lambda v: j_square_integral(v), 2),
    "minimal_rho": ("r", lambda v: minimal_rho(v), 2),
    "project": ("r", lambda v: project(PROBLEM.f, GRID, v), 1),
    "solve_discrete_galerkin-n": ("n", lambda v: solve_discrete_galerkin(PROBLEM, v, 1), 2),
    "solve_discrete_galerkin-r": ("r", lambda v: solve_discrete_galerkin(PROBLEM, 2, v), 1),
    "richardson": ("r", lambda v: richardson(COARSE, FINE, v), 1),
    "solve_nystrom": ("max_iter", lambda v: solve_nystrom(PROBLEM, GRID, max_iter=v), 50),
}


@pytest.mark.parametrize("bad", [0, -1, 1.5, True, "2"])
@pytest.mark.parametrize("entry", list(COUNTED))
def test_every_count_is_checked_by_the_one_positive_integer_check(entry, bad):
    what, call, good = COUNTED[entry]
    with pytest.raises(DomainError, match=f"^{what} must be a positive integer, got "):
        call(bad)
    call(np.int64(good))


# entry point -> (call with the bounded argument set to v, lo, hi); hi None: no upper bound
BOUNDED = {
    "gauss_rule": (lambda v: gauss_rule(v), 1, 20),
    "legendre_table": (lambda v: legendre_table(v, 0.5), 1, 13),
    "legendre": (lambda v: legendre(v, 0.5), 0, 12),
    "bernoulli": (lambda v: bernoulli(v, 0.5), 0, 10),
    "j_k": (lambda v: j_k(1, v, 0.5), 1, 3),
    "bbar-p_index": (lambda v: bbar(1, v), 1, 2),
    # at r = 6 the Bernoulli index 2r - p_index <= 10 is the lower bound on p_index
    "bbar-bernoulli_index": (lambda v: bbar(6, v), 2, 12),
    "kernel_eval": (lambda v: kernel_eval(PROBLEM, 0.5, 0.25, 1.0, v), 0, 1),
    "residual_check": (lambda v: residual_check(PROBLEM, PROBLEM.exact, v), 16, None),
    "discrete_inner_product": (lambda v: discrete_inner_product(np.cos, np.sin, v, GRID), 0, 1),
}


@pytest.mark.parametrize(
    "entry, bad",
    [
        (entry, bad)
        for entry, (_, lo, hi) in BOUNDED.items()
        for bad in [True, 1.5, lo - 1] + ([] if hi is None else [hi + 1])
    ],
)
def test_every_bounded_integer_is_checked_by_the_one_integer_check(entry, bad):
    call, lo, hi = BOUNDED[entry]
    with pytest.raises(DomainError):
        call(bad)
    for good in (lo,) if hi is None else (lo, hi):
        call(np.int64(good))


PHYSICAL = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
NODES = math.isqrt(PHYSICAL // 4) + 1  # 4*N**2 bytes of Nystrom operator


def galerkin_bytes(n, r, p, rho):
    """The planned bytes of a Galerkin solve without factors, as kernel_free_problem is:
    those of rank-1 factors, the 128 x N row block of the K_m sweep and four kernel
    pieces of 2**16 (or p * rho) float64 entries."""
    nodes = n * p * rho
    factored = 8 * nodes * (11 + 5 * r) + 16 * p * rho * (r + 1) + 17 * (n * r) ** 2
    return factored + 8 * min(nodes, 128) * nodes + 32 * max(2**16, p * rho)


def smallest_past_physical(nbytes):
    """The smallest k >= 1 with nbytes(k) > PHYSICAL, for nbytes increasing in k."""
    lo, hi = 0, 1
    while nbytes(hi) <= PHYSICAL:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:  # nbytes(lo) <= PHYSICAL < nbytes(hi), or lo == 0
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if nbytes(mid) <= PHYSICAL else (lo, mid)
    return hi


COEFFS = smallest_past_physical(lambda n: galerkin_bytes(n, 1, 1, 2))  # r = 1, p = 1
# r = 1, p = n: the top level n = 2*LADDER of a two-level ladder
LADDER = smallest_past_physical(lambda k: galerkin_bytes(2 * k, 1, 2 * k, 2))
# oversize solve -> (call on a problem, its planned bytes); every size is the
# smallest of its kind past physical memory
OVERSIZE = {
    "solve_nystrom": (
        lambda pb: solve_nystrom(pb, build_grid(NODES, 1, gauss_rule(1))),
        4 * NODES**2,
    ),
    "solve_discrete_galerkin": (
        lambda pb: solve_discrete_galerkin(pb, COEFFS, 1, p=1),
        galerkin_bytes(COEFFS, 1, 1, 2),
    ),
    # only the top level is oversize: it is checked before the first is solved
    "convergence_study": (
        lambda pb: convergence_study(pb, 1, [LADDER, 2 * LADDER]),
        galerkin_bytes(2 * LADDER, 1, 2 * LADDER, 2),
    ),
}


@pytest.mark.parametrize("entry", list(OVERSIZE))
def test_oversize_solve_is_refused_before_any_allocation(entry, kernel_free_problem):
    call, nbytes = OVERSIZE[entry]
    assert nbytes > PHYSICAL
    tracemalloc.start()
    try:
        # a kernel call raises AssertionError, not DomainError
        with pytest.raises(
            DomainError, match=f" needs {nbytes} bytes, more than the {PHYSICAL} of physical memory$"
        ):
            call(kernel_free_problem)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def _level():
    return LevelResult(
        n=2,
        p=1,
        rho=2,
        z_s=np.zeros(3),
        eps_s=np.zeros(3),
        order_s=(None,) * 3,
        eps_ex=None,
        order_ex=None,
        residual_norms=(0.0,),
        wall_time=0.0,
    )


# result class -> a factory; two calls build two instances of equal content
RESULTS = {
    "GridFunction": lambda: GridFunction(GRID, np.zeros(4)),
    "PiecewiseLegendre": lambda: PiecewiseLegendre(1, 1, np.zeros((1, 1))),
    "PointValues": lambda: PointValues(np.linspace(0, 1, 3), np.zeros(3)),
    "NystromSolution": lambda: solve_nystrom(PROBLEM, GRID),
    "GalerkinSolution": lambda: solve_discrete_galerkin(PROBLEM, 2, 1),
    "LevelResult": _level,
    "ConvergenceReport": lambda: ConvergenceReport(problem="rpk-aks", r=1, levels=(_level(),)),
}


@pytest.mark.parametrize("entry", list(RESULTS))
def test_results_that_hold_arrays_compare_and_hash_by_identity(entry):
    x, y = RESULTS[entry](), RESULTS[entry]()
    assert x != y and x not in [y]
    assert x == x and x in [x]
    assert hash(x) == hash(x)
