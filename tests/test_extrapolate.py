"""Richardson extrapolation and convergence-study reporting."""

import numpy as np
import pytest

from urysohn import (
    GridMismatchError,
    PointValues,
    convergence_study,
    estimate_order,
    get_problem,
    richardson,
)
from urysohn.extrapolate import refinement_for


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


def test_point_values_validation():
    with pytest.raises(ValueError):
        PointValues(np.array([0.0, 0.5]), np.array([1.0, 2.0]))  # must end at 1
    with pytest.raises(ValueError):
        PointValues(np.array([0.0, 0.6, 0.5, 1.0]), np.zeros(4))  # not increasing


def test_estimate_order_basic_and_floor():
    assert estimate_order(4e-4, 1e-4) == pytest.approx(2.0)
    assert estimate_order(8e-3, 1e-3) == pytest.approx(3.0)
    assert estimate_order(5e-15, 1e-16) is None
    assert estimate_order(0.0, 0.0) is None


def test_refinement_rules():
    assert refinement_for(10, 1, "pow") == 10
    assert refinement_for(10, 2, "pow") == 100
    assert refinement_for(10, 1, "fixed:7") == 7
    with pytest.raises(ValueError):
        refinement_for(10, 1, "fixed:not-a-number")


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


def test_convergence_study_validates_ladder():
    pb = get_problem("rpk-aks")
    with pytest.raises(ValueError):
        convergence_study(pb, 1, [])
    with pytest.raises(ValueError):
        convergence_study(pb, 1, [10, 15])  # not doubling
    with pytest.raises(ValueError):
        convergence_study(pb, 1, [20, 10])  # not increasing


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
        convergence_study(pb, 1, [4, 8], p_rule="fixed:1", rho=2)
    assert exc.value.residual_norms
    assert exc.value.residual_norms == exc.value.__cause__.residual_norms
