"""Problem definitions, kernel evaluation, and the residual oracle."""

import dataclasses

import numpy as np
import pytest

from urysohn import (
    DomainError,
    EvaluationError,
    GridFunction,
    UnknownProblemError,
    UrysohnProblem,
    apply_km,
    available_problems,
    build_grid,
    gauss_rule,
    get_problem,
    hammerstein_problem,
    kernel_eval,
    register_problem,
    residual_check,
    sinh_greens_branches,
    solve_nystrom,
)
from urysohn.problems import _sinh_greens_factors

GAMMA = np.sqrt(12.0)


def test_builtin_problem_is_registered():
    assert "rpk-aks" in available_problems()
    pb = get_problem("rpk-aks")
    assert pb.exact is not None
    assert pb.name == "rpk-aks"


def test_unknown_problem_error_lists_available():
    with pytest.raises(UnknownProblemError) as exc:
        get_problem("definitely-not-a-problem")
    assert "rpk-aks" in str(exc.value)


def test_builtin_exact_solution_and_forcing_closed_forms():
    pb = get_problem("rpk-aks")
    t = np.linspace(0, 1, 11)
    np.testing.assert_allclose(pb.exact(t), 2.0 / (2 * t + 1), atol=1e-15)
    f = (2 * np.sinh(GAMMA * (1 - t)) + (2 / 3) * np.sinh(GAMMA * t)) / np.sinh(GAMMA)
    np.testing.assert_allclose(pb.f(t), f, atol=1e-13)
    # boundary values of the exact solution
    assert pb.exact(0.0) == pytest.approx(2.0)
    assert pb.exact(1.0) == pytest.approx(2.0 / 3)


def test_greens_factor_symmetry_and_boundary():
    pb = get_problem("rpk-aks")
    s = np.array([0.15, 0.4, 0.8])
    t = np.array([0.6, 0.25, 0.33])
    u = np.ones(3)
    # psi(1) = gamma^2 - 2, so dividing recovers the Green's factor.
    g_st = kernel_eval(pb, s, t, u) / (GAMMA**2 - 2)
    g_ts = kernel_eval(pb, t, s, u) / (GAMMA**2 - 2)
    np.testing.assert_allclose(g_st, g_ts, atol=1e-14)
    # vanishes on the boundary of the square
    assert kernel_eval(pb, 0.0, 0.3, 1.0) == pytest.approx(0.0, abs=1e-15)
    assert kernel_eval(pb, 1.0, 0.3, 1.0) == pytest.approx(0.0, abs=1e-15)


def test_greens_factor_closed_form_both_branches():
    lower, upper = sinh_greens_branches(GAMMA)
    s, t = 0.7, 0.2  # t <= s: lower branch
    want = np.sinh(GAMMA * t) * np.sinh(GAMMA * (1 - s)) / (GAMMA * np.sinh(GAMMA))
    assert lower(s, t) == pytest.approx(want, rel=1e-14)
    s, t = 0.2, 0.7  # s <= t: upper branch
    want = np.sinh(GAMMA * s) * np.sinh(GAMMA * (1 - t)) / (GAMMA * np.sinh(GAMMA))
    assert upper(s, t) == pytest.approx(want, rel=1e-14)


def test_kernel_derivative_matches_finite_differences():
    pb = get_problem("rpk-aks")
    rng = np.random.default_rng(7)
    s = rng.uniform(0, 1, 20)
    t = rng.uniform(0, 1, 20)
    u = rng.uniform(-2, 2, 20)
    eps = 1e-6
    fd = (kernel_eval(pb, s, t, u + eps) - kernel_eval(pb, s, t, u - eps)) / (2 * eps)
    np.testing.assert_allclose(kernel_eval(pb, s, t, u, u_derivative_order=1), fd, atol=1e-8)


def test_kernel_ties_go_to_lower_branch():
    # Branches that disagree on the diagonal expose which side is used.
    pb = UrysohnProblem(
        name="branch-probe",
        kappa_lower=lambda s, t, u: np.broadcast_to(1.0, np.broadcast(s, t, u).shape).copy(),
        kappa_upper=lambda s, t, u: np.broadcast_to(-1.0, np.broadcast(s, t, u).shape).copy(),
        kappa_lower_du=lambda s, t, u: np.zeros(np.broadcast(s, t, u).shape),
        kappa_upper_du=lambda s, t, u: np.zeros(np.broadcast(s, t, u).shape),
        f=lambda s: np.zeros_like(np.asarray(s, dtype=float)),
    )
    assert kernel_eval(pb, 0.5, 0.5, 0.0) == pytest.approx(1.0)
    assert kernel_eval(pb, 0.5, 0.6, 0.0) == pytest.approx(-1.0)
    assert kernel_eval(pb, 0.6, 0.5, 0.0) == pytest.approx(1.0)
    # blocks that touch the diagonal only at their edge: t.max() == s.min()
    # and t.min() == s.max()
    s = np.array([[0.5], [0.6]])
    np.testing.assert_array_equal(kernel_eval(pb, s, np.array([[0.4, 0.5]]), 0.0), 1.0)
    s = np.array([[0.2], [0.5]])
    np.testing.assert_array_equal(
        kernel_eval(pb, s, np.array([[0.5, 0.6]]), 0.0), [[-1.0, -1.0], [1.0, -1.0]]
    )


def test_kernel_eval_rejects_nonfinite_results():
    pb = UrysohnProblem(
        name="nan-probe",
        kappa_lower=lambda s, t, u: np.full(np.broadcast(s, t, u).shape, np.nan),
        kappa_upper=lambda s, t, u: np.full(np.broadcast(s, t, u).shape, np.nan),
        kappa_lower_du=lambda s, t, u: np.zeros(np.broadcast(s, t, u).shape),
        kappa_upper_du=lambda s, t, u: np.zeros(np.broadcast(s, t, u).shape),
        f=lambda s: np.zeros_like(np.asarray(s, dtype=float)),
    )
    with pytest.raises(EvaluationError):
        kernel_eval(pb, 0.5, 0.5, 0.0)


def test_residual_oracle_accepts_exact_solution():
    pb = get_problem("rpk-aks")
    for panels in (16, 32, 64, 128):
        assert residual_check(pb, pb.exact, panels=panels) < 1e-9, panels


def test_residual_oracle_rejects_perturbed_candidate():
    pb = get_problem("rpk-aks")
    wrong = lambda t: 2.0 / (2 * np.asarray(t, dtype=float) + 1) + 0.05
    assert residual_check(pb, wrong, panels=64) > 1e-3


@pytest.mark.parametrize(
    "panels, error, match",
    [
        (8, ValueError, "panels must be >= 16"),
        (16.5, DomainError, "panels must be a positive integer"),
        (True, DomainError, "panels must be a positive integer"),
        (0, DomainError, "panels must be a positive integer"),
    ],
)
def test_residual_check_validates_panel_count(panels, error, match):
    pb = get_problem("rpk-aks")
    with pytest.raises(error, match=match):
        residual_check(pb, pb.exact, panels=panels)


def test_hammerstein_factory_and_registry_round_trip():
    lower, upper = sinh_greens_branches(1.0)
    pb = hammerstein_problem(
        name="toy-linear",
        g_lower=lower,
        g_upper=upper,
        psi=lambda t, u: u,
        psi_du=lambda t, u: np.ones(np.broadcast(t, u).shape),
        f=lambda s: np.ones_like(np.asarray(s, dtype=float)),
        g_factors=_sinh_greens_factors(1.0),
    )
    register_problem(pb)
    try:
        assert "toy-linear" in available_problems()
        got = get_problem("toy-linear")
        s, t, u = 0.3, 0.6, 2.0
        assert got is pb
        assert kernel_eval(pb, s, t, u) == pytest.approx(upper(s, t) * u, rel=1e-14)
        # derivative of G*psi(u) in u is G for the identity nonlinearity
        assert kernel_eval(pb, s, t, u, u_derivative_order=1) == pytest.approx(
            upper(s, t), rel=1e-14
        )
        # the factors compose G's with psi: P(s) * Q(t) * u on the upper side
        c, delta, delta_du = pb.factors[1]
        assert c(s)[0] * delta(t, u)[0] == pytest.approx(upper(s, t) * u, rel=1e-14)
        assert c(s)[0] * delta_du(t, u)[0] == pytest.approx(upper(s, t), rel=1e-14)
    finally:
        from urysohn.problems import _REGISTRY

        _REGISTRY.pop("toy-linear", None)


def test_register_rejects_duplicate_names():
    pb = get_problem("rpk-aks")
    with pytest.raises(ValueError):
        register_problem(pb)


@pytest.mark.parametrize(
    "t",
    [np.array([[0.1, 0.2]]), np.array([[0.8, 0.9]]), np.array([[0.2, 0.8]])],
    ids=["all-lower", "all-upper", "both"],
)
def test_kernel_eval_returns_the_full_block_for_a_branch_that_ignores_s(t):
    pb = UrysohnProblem(
        name="identity-kernel",
        kappa_lower=lambda s, t, u: u,
        kappa_upper=lambda s, t, u: 2.0 * u,
        kappa_lower_du=lambda s, t, u: np.ones_like(u),
        kappa_upper_du=lambda s, t, u: 2.0 * np.ones_like(u),
        f=lambda s: np.zeros_like(np.asarray(s, dtype=float)),
    )
    s = np.array([[0.3], [0.5], [0.7]])
    u = np.array([[1.0, 3.0]])
    for order in (0, 1):
        out = kernel_eval(pb, s, t, u, order)
        assert out.shape == (3, 2)
        lower = u if order == 0 else np.ones_like(u)
        want = np.where(t <= s, lower, 2.0 * lower)
        np.testing.assert_array_equal(out, want)


@pytest.mark.parametrize("order", [2, -1, True, 1.0])
def test_kernel_eval_rejects_derivative_orders_above_one(order):
    # True and 1.0 equal 1, but a flag or a float is not a derivative order
    with pytest.raises(ValueError, match="u_derivative_order"):
        kernel_eval(get_problem("rpk-aks"), 0.5, 0.25, 1.0, u_derivative_order=order)



def _psi(t, u):
    return GAMMA**2 * u - 2.0 * u**3


def _psi_du(t, u):
    return GAMMA**2 - 6.0 * u * u


def _rpk_aks_factors_of_gamma(gamma):
    """rpk-aks's factors with the Green's function of another gamma."""
    return hammerstein_problem(
        "other-gamma",
        *sinh_greens_branches(gamma),
        _psi,
        _psi_du,
        lambda s: np.ones_like(np.asarray(s, dtype=float)),
        g_factors=_sinh_greens_factors(gamma),
    ).factors


@pytest.mark.parametrize(
    "change, match",
    [
        (lambda pb: {"factors": pb.factors[::-1]}, r"lower branch \(value\)"),
        (lambda pb: {"factors": _rpk_aks_factors_of_gamma(4.0)}, r"lower branch \(value\)"),
        (
            lambda pb: {"kappa_lower": lambda s, t, u: 1.001 * pb.kappa_lower(s, t, u)},
            r"lower branch \(value\)",
        ),
        (
            lambda pb: {"kappa_upper_du": lambda s, t, u: 1.001 * pb.kappa_upper_du(s, t, u)},
            r"upper branch \(du\)",
        ),
        (lambda pb: {"factors": pb.factors[:1]}, "factors must be"),
        (lambda pb: {"factors": 5}, "factors must be"),
        (lambda pb: {"factors": (pb.factors[0][0], pb.factors[1][0])}, "factors must be"),
    ],
    ids=[
        "sides-swapped",
        "other-gamma",
        "replaced-branch",
        "replaced-derivative",
        "one-side",
        "an-int",
        "pair-of-callables",
    ],
)
def test_factors_that_do_not_reproduce_the_branches_are_rejected(change, match):
    # dataclasses.replace runs the check too, so a branch replaced under old factors fails
    pb = get_problem("rpk-aks")
    with pytest.raises(ValueError, match=match):
        dataclasses.replace(pb, **change(pb))


def test_g_factors_are_checked_against_the_greens_branches():
    # the factor-built branches must not stand in for g_lower and g_upper in the check
    with pytest.raises(ValueError, match=r"lower branch \(value\)"):
        hammerstein_problem(
            "mismatched-g",
            *sinh_greens_branches(np.sqrt(12.0)),
            _psi,
            _psi_du,
            lambda s: np.ones_like(np.asarray(s, dtype=float)),
            g_factors=_sinh_greens_factors(4.0),
        )


@pytest.mark.parametrize("gamma", [np.sqrt(12.0), 40.0, 700.0], ids=["sqrt12", "40", "700"])
def test_factor_built_branches_match_greens_branches_times_psi(gamma):
    lower, upper = sinh_greens_branches(gamma)
    pb = hammerstein_problem(
        "factor-built",
        lower,
        upper,
        _psi,
        _psi_du,
        lambda s: np.ones_like(np.asarray(s, dtype=float)),
        g_factors=_sinh_greens_factors(gamma),
    )
    # the kernel entries, which kernel_eval builds from the factors, on each
    # side of a 101 x 101 grid only: off it, G's branches overflow at gamma = 700
    s, t = np.meshgrid(np.linspace(0.0, 1.0, 101), np.linspace(0.0, 1.0, 101), indexing="ij")
    for on_side, g in ((t <= s, lower), (t >= s, upper)):
        s_side, t_side = s[on_side], t[on_side]
        for u in (-1.5, 0.5, 2.0):
            for order, h in enumerate((_psi, _psi_du)):
                want = g(s_side, t_side) * h(t_side, u)
                got = kernel_eval(pb, s_side, t_side, u, order)
                assert np.all(np.isfinite(got))
                bound = 4 * np.finfo(float).eps * np.max(np.abs(want))
                assert np.max(np.abs(got - want)) <= bound


def test_nystrom_paths_of_a_factored_hammerstein_problem_never_call_g():
    calls = []  # appended from the sweep's threads
    lower, upper = sinh_greens_branches(GAMMA)

    def counted(g):
        def branch(s, t):
            calls.append(1)
            return g(s, t)

        return branch

    pb = hammerstein_problem(
        "counted-g",
        counted(lower),
        counted(upper),
        _psi,
        _psi_du,
        get_problem("rpk-aks").f,
        g_factors=_sinh_greens_factors(GAMMA),
    )
    assert calls  # construction checks the factors against g
    calls.clear()
    grid = build_grid(150, 1, gauss_rule(2))  # 300 nodes
    x = GridFunction(grid, pb.f(grid.nodes))
    apply_km(pb, x, np.linspace(0.0, 1.0, 101))
    solve_nystrom(pb, build_grid(20, 1, gauss_rule(2)))
    assert calls == []
