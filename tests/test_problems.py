"""Problem definitions, kernel evaluation, and the residual oracle."""

import numpy as np
import pytest

from urysohn import (
    EvaluationError,
    UnknownProblemError,
    UrysohnProblem,
    available_problems,
    get_problem,
    hammerstein_problem,
    kernel_eval,
    register_problem,
    residual_check,
    sinh_greens_branches,
)

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


def test_residual_check_validates_panel_count():
    pb = get_problem("rpk-aks")
    with pytest.raises(ValueError):
        residual_check(pb, pb.exact, panels=8)


def test_hammerstein_factory_and_registry_round_trip():
    lower, upper = sinh_greens_branches(1.0)
    pb = hammerstein_problem(
        name="toy-linear",
        g_lower=lower,
        g_upper=upper,
        psi=lambda t, u: u,
        psi_du=lambda t, u: np.ones(np.broadcast(t, u).shape),
        f=lambda s: np.ones_like(np.asarray(s, dtype=float)),
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
