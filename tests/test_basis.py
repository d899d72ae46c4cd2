"""Shifted Legendre basis, reproducing kernels, and expansion constants."""

import numpy as np
import pytest

from urysohn import (
    DomainError,
    bbar,
    bernoulli,
    build_grid,
    gauss_rule,
    j_k,
    j_square_integral,
    lambda_r,
    legendre,
)
from urysohn.basis import legendre_table

RNG = np.random.default_rng(20240817)

# High-order oracle rule for exact integrals of moderate-degree polynomials.
ORACLE = gauss_rule(20)


def test_low_degree_closed_forms():
    t = np.linspace(0, 1, 7)
    np.testing.assert_allclose(legendre(0, t), np.ones_like(t), atol=1e-15)
    np.testing.assert_allclose(legendre(1, t), np.sqrt(3.0) * (2 * t - 1), atol=1e-14)
    np.testing.assert_allclose(
        legendre(2, t), np.sqrt(5.0) * (6 * t**2 - 6 * t + 1), atol=1e-13
    )


def test_orthonormality_on_unit_interval():
    x, w = ORACLE.nodes, ORACLE.weights
    for a in range(6):
        for b in range(6):
            val = float(w @ (legendre(a, x) * legendre(b, x)))
            assert abs(val - (1.0 if a == b else 0.0)) < 1e-13, (a, b)


def test_endpoint_values():
    # L_eta(1) = sqrt(2*eta + 1), L_eta(0) = (-1)^eta * sqrt(2*eta + 1).
    for eta in range(8):
        scale = np.sqrt(2 * eta + 1.0)
        assert legendre(eta, 1.0) == pytest.approx(scale, abs=1e-12)
        assert legendre(eta, 0.0) == pytest.approx((-1) ** eta * scale, abs=1e-12)


def test_degree_and_domain_validation():
    with pytest.raises(DomainError):
        legendre(13, 0.5)
    with pytest.raises(DomainError):
        legendre(0, 1.5)
    with pytest.raises(DomainError):
        legendre(0, np.nan)
    with pytest.raises(DomainError):
        legendre(-1, 0.5)
    with pytest.raises(DomainError, match="eta must be an integer"):
        legendre(1.5, 0.5)
    with pytest.raises(DomainError, match="r must be in"):
        legendre_table(14, 0.5)


@pytest.mark.parametrize(
    "call, named",
    [
        (lambda: bernoulli(1.5, 0.5), "k must be an integer"),
        (lambda: bernoulli(11, 0.5), "k must be in"),
        (lambda: bbar(1, 3), "p_index must be in"),
        (lambda: bbar(6, 1), r"^p_index must be in \[2, 12\], got 1$"),
    ],
    ids=["bernoulli-k-type", "bernoulli-k", "bbar-p_index", "bbar-bernoulli-index"],
)
def test_bernoulli_indices_beyond_the_tabulated_range_are_rejected(call, named):
    with pytest.raises(DomainError, match=named):
        call()


def test_lambda_reproduces_low_degree_polynomials():
    # integral of Lambda_r(tau, s) q(s) ds == q(tau) for deg q < r.
    x, w = ORACLE.nodes, ORACLE.weights
    taus = RNG.uniform(0, 1, size=8)
    for r in (1, 2, 3, 4):
        for c in (np.array([1.0]), RNG.normal(size=r)):
            q = np.polynomial.Polynomial(c[: r])
            for tau in taus:
                val = float(w @ (lambda_r(r, tau, x) * q(x)))
                assert abs(val - q(tau)) < 1e-12, (r, tau)


def test_lambda_broadcasts_over_grids():
    tau = np.array([0.2, 0.7])
    s = np.linspace(0, 1, 5)
    full = lambda_r(2, tau[:, None], s[None, :])
    assert full.shape == (2, 5)
    for i, tv in enumerate(tau):
        np.testing.assert_allclose(full[i], lambda_r(2, tv, s), atol=1e-14)


def test_moment_functions_vanish_below_leading_order():
    # J_k(tau) == 0 for 1 <= k < r: those monomial shifts are reproduced.
    taus = RNG.uniform(0, 1, size=6)
    for r in (2, 3):
        for k in range(1, r):
            vals = j_k(r, k, taus)
            np.testing.assert_allclose(vals, 0.0, atol=1e-12)


def test_first_moment_function_closed_form_r1():
    # r=1: J_1(tau) = integral of (s - tau) ds = 1/2 - tau.
    taus = np.array([0.0, 0.25, 0.5, 0.8, 1.0])
    np.testing.assert_allclose(j_k(1, 1, taus), 0.5 - taus, atol=1e-13)


def test_moment_function_against_quadrature_oracle():
    import math

    x, w = ORACLE.nodes, ORACLE.weights
    for r, k in ((1, 2), (2, 2), (2, 3), (3, 3), (3, 5)):
        for tau in (0.15, 0.6, 0.95):
            direct = float(w @ (lambda_r(r, tau, x) * (x - tau) ** k))
            direct /= math.factorial(k)
            assert abs(j_k(r, k, tau) - direct) < 1e-12, (r, k, tau)


def test_moment_function_range_validation():
    with pytest.raises(DomainError):
        j_k(1, 0, 0.5)
    with pytest.raises(DomainError):
        j_k(1, 4, 0.5)  # k must stay <= 2r + 1


def test_bernoulli_closed_forms():
    s = np.linspace(0, 1, 9)
    np.testing.assert_allclose(bernoulli(0, s), np.ones_like(s), atol=0)
    np.testing.assert_allclose(bernoulli(1, s), s - 0.5, atol=1e-15)
    np.testing.assert_allclose(bernoulli(2, s), s**2 - s + 1 / 6, atol=1e-15)
    np.testing.assert_allclose(bernoulli(3, s), s**3 - 1.5 * s**2 + 0.5 * s, atol=1e-15)


def test_bernoulli_numbers_at_zero():
    assert bernoulli(4, 0.0) == pytest.approx(-1 / 30, abs=1e-15)
    assert bernoulli(6, 0.0) == pytest.approx(1 / 42, abs=1e-15)
    assert bernoulli(3, 0.5) == pytest.approx(0.0, abs=1e-15)


def test_bernoulli_mean_zero_property():
    x, w = ORACLE.nodes, ORACLE.weights
    for k in range(1, 11):
        assert abs(float(w @ bernoulli(k, x))) < 1e-14, k


def test_expansion_constants_r1_closed_forms():
    assert abs(bbar(1, 1) - (-1 / 12)) < 1e-12
    assert abs(bbar(1, 2) - (1 / 12)) < 1e-12
    assert abs(j_square_integral(1) - 1 / 12) < 1e-12


def test_expansion_constant_against_tensor_oracle():
    # bbar(r, p) = double integral of Lambda_r(tau,s) (tau-s)^p/p! B_{2r-p}(s)/(2r-p)!
    import math

    x, w = ORACLE.nodes, ORACLE.weights
    for r, p in ((1, 1), (1, 2), (2, 1), (2, 3), (2, 4)):
        tt, ss = np.meshgrid(x, x, indexing="ij")
        ww = np.outer(w, w)
        integrand = (
            lambda_r(r, tt, ss)
            * (tt - ss) ** p
            / math.factorial(p)
            * bernoulli(2 * r - p, ss)
            / math.factorial(2 * r - p)
        )
        direct = float((ww * integrand).sum())
        assert abs(bbar(r, p) - direct) < 1e-12, (r, p)


def test_square_moment_integral_matches_direct_quadrature():
    x, w = ORACLE.nodes, ORACLE.weights
    for r in (1, 2, 3):
        direct = float(w @ (j_k(r, r, x) ** 2))
        assert abs(j_square_integral(r) - direct) < 1e-12


def test_discrete_moment_identity_on_composite_grids():
    # The composite rule built from the minimal-order basic rule evaluates
    # <(. - tau)^k / k!, L_eta> exactly for eta < r and k <= 2r + 1, because
    # the integrand degree eta + k <= 3r never exceeds the rule's precision.
    import math

    from urysohn import minimal_rho

    x, w = ORACLE.nodes, ORACLE.weights
    for r in (1, 2, 3):
        rho = minimal_rho(r)
        for p in (1, 2, 4):
            grid = build_grid(1, p, gauss_rule(rho))
            taus = RNG.uniform(0, 1, size=20)
            for eta in range(r):
                for k in range(1, 2 * r + 2):
                    for tau in taus:
                        f_nodes = (
                            legendre(eta, grid.nodes)
                            * (grid.nodes - tau) ** k
                            / math.factorial(k)
                        )
                        discrete = float(grid.node_weights @ f_nodes)
                        exact = float(
                            w @ (legendre(eta, x) * (x - tau) ** k)
                        ) / math.factorial(k)
                        assert abs(discrete - exact) < 1e-12, (r, p, eta, k)
