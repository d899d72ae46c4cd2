"""Richardson extrapolation and convergence-study reporting."""

import dataclasses

import numpy as np
import pytest

from urysohn import (
    DomainError,
    GridMismatchError,
    PointValues,
    convergence_study,
    estimate_order,
    get_problem,
    iterated_eval,
    richardson,
    solve_discrete_galerkin,
)


def synthetic_pair(n, r, a, b):
    """Point sets with values a(t) + b(t) * h^(2r) on nested uniform grids."""
    tc = np.linspace(0, 1, n + 1)
    tf = np.linspace(0, 1, 2 * n + 1)
    hc, hf = 1.0 / n, 0.5 / n
    coarse = PointValues(tc, a(tc) + b(tc) * hc ** (2 * r))
    fine = PointValues(tf, a(tf) + b(tf) * hf ** (2 * r))
    return coarse, fine


@pytest.mark.parametrize("r", [1, 2])
def test_richardson_cancels_leading_term_exactly(r):
    a = lambda t: np.cos(3 * t) + 1.5
    b = lambda t: np.exp(t) - 0.25 * t
    coarse, fine = synthetic_pair(10, r, a, b)
    out = richardson(coarse, fine, r)
    np.testing.assert_array_equal(out.points, coarse.points)
    np.testing.assert_allclose(out.values, a(coarse.points), atol=1e-12)


def test_richardson_weights_depend_on_degree():
    # Data with an h^2 term is NOT cancelled by the r=2 weights.
    a = lambda t: np.ones_like(t)
    b = lambda t: np.ones_like(t)
    coarse, fine = synthetic_pair(10, 1, a, b)
    out = richardson(coarse, fine, 2)
    assert np.abs(out.values - 1.0).max() > 1e-6


def test_richardson_requires_nested_grids():
    tc = np.linspace(0, 1, 11)
    tf = np.linspace(0, 1, 15)
    with pytest.raises(GridMismatchError):
        richardson(PointValues(tc, tc), PointValues(tf, tf), 1)
    tc, tf = np.linspace(0, 1, 3), np.array([0.0, 0.2, 0.6, 0.8, 1.0])  # 0.6 is not 0.5
    with pytest.raises(GridMismatchError, match="misaligned"):
        richardson(PointValues(tc, tc), PointValues(tf, tf), 1)


def test_point_values_validation():
    with pytest.raises(ValueError):
        PointValues(np.array([0.0, 0.5]), np.array([1.0, 2.0]))  # must end at 1
    with pytest.raises(ValueError):
        PointValues(np.array([0.0, 0.6, 0.5, 1.0]), np.zeros(4))  # not increasing
    with pytest.raises(ValueError, match="shape"):
        PointValues(np.linspace(0, 1, 3), np.zeros(4))  # ragged: one value too many
    with pytest.raises(ValueError, match="shape"):
        PointValues(np.linspace(0, 1, 4).reshape(2, 2), np.zeros(4))  # not 1-d
    for points, values in (([0.0, np.nan, 1.0], np.zeros(3)), ([0.0, 1.0], [0.0, np.nan])):
        with pytest.raises(ValueError, match="must be finite"):
            PointValues(points, values)


def test_estimate_order_basic_and_floor():
    assert estimate_order(4e-4, 1e-4) == pytest.approx(2.0)
    assert estimate_order(8e-3, 1e-3) == pytest.approx(3.0)
    assert estimate_order(5e-15, 1e-16) is None
    assert estimate_order(0.0, 0.0) is None
    # an error that is not finite, or negative, is no error at all
    for e_coarse, e_fine, named in ((float("nan"), 1e-3, "nan"), (-1.0, 1e-3, "-1.0")):
        with pytest.raises(ValueError, match=f"must be finite and >= 0, got {named}$"):
            estimate_order(e_coarse, e_fine)
    with pytest.raises(ValueError, match="got inf$"):
        estimate_order(1e-3, float("inf"))


def test_convergence_study_passes_p_to_every_level():
    pb = get_problem("rpk-aks")
    fixed = convergence_study(pb, 1, [4, 8], p=3)
    assert [(lev.n, lev.p, lev.m) for lev in fixed.levels] == [(4, 3, 12), (8, 3, 24)]
    default = convergence_study(pb, 1, [4, 8])
    assert [(lev.n, lev.p) for lev in default.levels] == [(4, 4), (8, 8)]


def test_convergence_study_structure_and_orders():
    pb = get_problem("rpk-aks")
    report = convergence_study(pb, 1, [5, 10, 20])
    assert report.problem == "rpk-aks"
    assert report.r == 1
    assert tuple(lev.n for lev in report.levels) == (5, 10, 20)
    lev5, lev10, lev20 = report.levels

    # p follows the power rule: p = n for r = 1, so m = n^2.
    assert (lev5.p, lev5.m) == (5, 25)
    assert (lev20.p, lev20.m) == (20, 400)

    # points include both endpoints
    np.testing.assert_allclose(lev5.points, np.linspace(0, 1, 6), atol=0)

    # interior iterated errors shrink at roughly second order between the
    # two finer levels (the coarsest level is pre-asymptotic)
    mid10 = lev10.eps_s[lev10.points.searchsorted(0.2)]
    mid20 = lev20.eps_s[lev20.points.searchsorted(0.2)]
    assert 1.7 < np.log2(mid10 / mid20) < 2.3

    # extrapolated values exist on all but the last level
    assert lev5.eps_ex is not None and lev10.eps_ex is not None
    assert lev20.eps_ex is None

    # extrapolation improves the interior error where it is defined
    interior = slice(1, -1)
    assert np.max(lev5.eps_ex[interior]) < np.max(lev5.eps_s[interior])

    # per-solve metadata
    for lev in report.levels:
        assert lev.newton_iterations >= 1
        assert lev.final_residual_norm <= 1e-12
        assert lev.wall_time > 0

    assert report.level_for(10) is lev10
    with pytest.raises(KeyError, match="n=7"):
        report.level_for(7)


def test_convergence_study_validates_ladder():
    pb = get_problem("rpk-aks")
    with pytest.raises(ValueError):
        convergence_study(pb, 1, [])
    for ladder in ([10, 15], [20, 10]):
        with pytest.raises(ValueError, match="each n must double"):
            convergence_study(pb, 1, ladder)
    for ladder in ([0, 0], [-2, -4]):  # doubling, but the solver's count check fails
        with pytest.raises(DomainError, match="n must be a positive integer"):
            convergence_study(pb, 1, ladder)
    for ladder, named in (
        ([2.5, 4.9], "2.5"),
        ([2, 4.5], "4.5"),
        ([np.inf], "inf"),
        ([np.nan], "nan"),
        ([None], "None"),
        ([True], "True"),
    ):
        with pytest.raises(ValueError, match=f"n_list entries must be integers, got {named}"):
            convergence_study(pb, 1, ladder)  # not integers
    report = convergence_study(pb, 1, [2.0, np.int64(4)])
    assert [level.n for level in report.levels] == [2, 4]


@pytest.mark.parametrize(
    "bad, match",
    [
        ({"tol": np.nan}, "tol"),
        ({"tol": 0.0}, "tol"),
        ({"tol": True}, "tol"),
        ({"max_iter": 0}, "max_iter"),
        ({"max_iter": 2.5}, "max_iter"),
    ],
)
def test_the_ladder_checks_the_newton_arguments_before_f(counted_forcing, bad, match):
    problem, f_sizes = counted_forcing
    with pytest.raises(ValueError, match=match):
        convergence_study(problem, 1, [10, 20, 40], **bad)
    assert f_sizes == []


def test_convergence_study_requires_exact_solution():
    from urysohn import UrysohnProblem

    shape = lambda *args: np.broadcast(*args).shape
    pb = UrysohnProblem(
        name="no-exact",
        kappa_lower=lambda s, t, u: np.zeros(shape(s, t, u)),
        kappa_upper=lambda s, t, u: np.zeros(shape(s, t, u)),
        kappa_lower_du=lambda s, t, u: np.zeros(shape(s, t, u)),
        kappa_upper_du=lambda s, t, u: np.zeros(shape(s, t, u)),
        f=lambda s: np.asarray(s, dtype=float),
    )
    with pytest.raises(ValueError):
        convergence_study(pb, 1, [4, 8])


def test_interior_extrapolated_orders_approach_four():
    pb = get_problem("rpk-aks")
    report = convergence_study(pb, 1, [10, 20, 40])
    lev10 = report.levels[0]
    # order_ex is defined on the first level of three
    orders = [o for o in lev10.order_ex[1:-1] if o is not None]
    assert len(orders) == 9
    assert all(3.5 < o < 4.3 for o in orders)


def test_fine_ladder_extrapolates_at_fourth_order_at_every_shared_point():
    # N = 204 800 nodes at n = 320; rpk-aks's Green's-kernel factors make a
    # Newton step O(N), so the ladder runs in about a second.
    report = convergence_study(get_problem("rpk-aks"), 1, [40, 80, 160, 320])
    for level in report.levels[:2]:
        # the errors at t = 0 and t = 1 vanish (G does), so no order there
        assert level.order_ex[0] is None and level.order_ex[-1] is None
        np.testing.assert_allclose(level.order_ex[1:-1], 4.0, rtol=0, atol=0.05)


def test_cubic_ladder_superconverges_at_nearly_sixth_order():
    # r = 3 and p = n**3: N = 327 680 nodes at n = 16, cheap because the
    # factored Newton step is O(N); eps_S = O(h**6) at the partition points
    report = convergence_study(get_problem("rpk-aks"), 3, [4, 8, 16], tol=1e-14)
    worst = np.array([np.max(level.eps_s) for level in report.levels])
    orders = np.log2(worst[:-1] / worst[1:])
    assert orders[0] < orders[1]
    assert orders[1] > 5.5


def test_convergence_study_keeps_the_solver_error_type():
    # x(s) - int_0^1 x(t) dt = 1 has no solution: the solver raises
    # SingularOperatorError, and the ladder must not turn it into its base class.
    from urysohn import SingularOperatorError, UrysohnProblem

    shape = lambda *args: np.broadcast(*args).shape
    pb = UrysohnProblem(
        name="unit-kernel",
        kappa_lower=lambda s, t, u: np.broadcast_to(u, shape(s, t, u)).copy(),
        kappa_upper=lambda s, t, u: np.broadcast_to(u, shape(s, t, u)).copy(),
        kappa_lower_du=lambda s, t, u: np.ones(shape(s, t, u)),
        kappa_upper_du=lambda s, t, u: np.ones(shape(s, t, u)),
        f=lambda s: np.ones_like(np.asarray(s, dtype=float)),
        exact=lambda s: np.ones_like(np.asarray(s, dtype=float)),
    )
    with pytest.raises(SingularOperatorError, match="level n=4 failed: ") as exc:
        convergence_study(pb, 1, [4, 8], p=1, rho=2)
    assert exc.value.residual_norms
    assert exc.value.residual_norms == exc.value.__cause__.residual_norms


# (r, ladder) of the nested-start tests on rpk-aks
NESTED = {"r1": (1, [10, 20, 40, 80]), "r2": (2, [3, 6, 12])}


@pytest.mark.parametrize("case", list(NESTED))
def test_each_level_after_the_first_starts_from_the_z_s_below(case):
    # Nested iteration: a level started from the z_S of the level below is
    # in its quadratic basin, and stops one quadratic step past tol.
    r, ns = NESTED[case]
    pb = get_problem("rpk-aks")
    report = convergence_study(pb, r, ns)
    first, *warm = report.levels
    direct = solve_discrete_galerkin(pb, ns[0], r)
    assert first.residual_norms == direct.residual_norms
    np.testing.assert_array_equal(
        first.z_s, iterated_eval(direct, direct.grid.partition_points)
    )
    for level in warm:
        assert level.newton_iterations <= 3
        tight = solve_discrete_galerkin(pb, level.n, r, tol=1e-14)
        z_tight = iterated_eval(tight, tight.grid.partition_points)
        assert np.max(np.abs(level.z_s - z_tight)) <= 1e-14 * np.max(np.abs(z_tight))


@pytest.mark.parametrize("r, ns", [(1, [10, 20, 40]), (2, [3, 6, 12])])
def test_the_nested_ladder_of_the_dense_twin_matches_the_factored_ladder(r, ns):
    pb = get_problem("rpk-aks")
    factored = convergence_study(pb, r, ns)
    dense = convergence_study(dataclasses.replace(pb, factors=None), r, ns)
    for got, want in zip(dense.levels, factored.levels):
        assert got.newton_iterations == want.newton_iterations
        np.testing.assert_allclose(got.z_s, want.z_s, rtol=0, atol=1e-14)
    assert all(level.newton_iterations <= 3 for level in dense.levels[1:])
