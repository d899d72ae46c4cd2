"""Discrete orthogonal projection onto piecewise polynomials."""

import numpy as np
import pytest

from urysohn import (
    DomainError,
    PiecewiseLegendre,
    PrecisionError,
    build_grid,
    discrete_inner_product,
    evaluate_piecewise,
    gauss_rule,
    j_k,
    minimal_rho,
    project,
)

RNG = np.random.default_rng(52)


def make_grid(n, r, p=1):
    return build_grid(n, p, gauss_rule(minimal_rho(r)))


def test_projection_of_identity_onto_constants():
    # x(t) = t, two subintervals, piecewise constants: interval means.
    grid = make_grid(2, 1)
    pl = project(lambda t: t, grid, 1)
    assert pl.n == 2 and pl.r == 1
    np.testing.assert_allclose(pl(np.array([0.2, 0.7])), [0.25, 0.75], atol=1e-14)


def test_reproduces_piecewise_polynomials_of_low_degree():
    for r in (1, 2, 3):
        grid = make_grid(3, r)
        coeffs = RNG.normal(size=(3, r))
        target = PiecewiseLegendre(3, r, coeffs)
        back = project(target, grid, r)
        np.testing.assert_allclose(back.coeffs, coeffs, atol=1e-12)


def test_reproduces_global_polynomials_of_low_degree():
    for r in (1, 2, 4):
        grid = make_grid(5, r)
        poly = np.polynomial.Polynomial(RNG.normal(size=r))
        pl = project(poly, grid, r)
        s = RNG.uniform(0, 1, size=40)
        np.testing.assert_allclose(pl(s), poly(s), atol=1e-12)


def test_idempotence():
    grid = make_grid(4, 2)
    once = project(np.exp, grid, 2)
    twice = project(once, grid, 2)
    np.testing.assert_allclose(twice.coeffs, once.coeffs, atol=1e-13)


def test_basis_discrete_orthonormality():
    # <phi_{j,eta}, phi_{j',eta'}> = delta_{jj'} delta_{ee'} under the
    # discrete inner product.
    r, n = 3, 3
    grid = make_grid(n, r)
    h = 1.0 / n

    def basis_fn(j, eta):
        def fn(t):
            t = np.asarray(t, dtype=float)
            inside = (t >= j * h) & (t <= (j + 1) * h)
            coeffs = np.zeros((n, r))
            coeffs[j, eta] = 1.0
            return np.where(inside, PiecewiseLegendre(n, r, coeffs)(np.clip(t, 0, 1)), 0.0)

        return fn

    for j in range(n):
        for eta in range(r):
            for jp in range(n):
                for ep in range(r):
                    val = sum(
                        discrete_inner_product(basis_fn(j, eta), basis_fn(jp, ep), blk, grid)
                        for blk in range(n)
                    )
                    want = 1.0 if (j, eta) == (jp, ep) else 0.0
                    assert abs(val - want) < 1e-13, (j, eta, jp, ep)


def test_discrete_self_adjointness():
    # <P_n x, y> == <x, P_n y> with both sides summed over subintervals.
    r, n = 2, 4
    grid = make_grid(n, r)
    x, y = np.cos, np.exp
    px, py = project(x, grid, r), project(y, grid, r)
    lhs = sum(discrete_inner_product(px, y, j, grid) for j in range(n))
    rhs = sum(discrete_inner_product(x, py, j, grid) for j in range(n))
    assert abs(lhs - rhs) < 1e-12


def test_parseval_for_projection_coefficients():
    r, n = 2, 5
    grid = make_grid(n, r)
    pl = project(np.sin, grid, r)
    norm_sq = sum(discrete_inner_product(pl, pl, j, grid) for j in range(n))
    assert abs(norm_sq - float((pl.coeffs**2).sum())) < 1e-13


def test_projection_error_decays_at_order_r():
    for r in (1, 2):
        errs = []
        for n in (8, 16, 32):
            grid = make_grid(n, r)
            pl = project(np.exp, grid, r)
            s = np.linspace(0.001, 0.999, 1500)
            errs.append(np.abs(pl(s) - np.exp(s)).max())
        order = np.log2(errs[0] / errs[1])
        order2 = np.log2(errs[1] / errs[2])
        assert abs(order - r) < 0.1, (r, errs)
        assert abs(order2 - r) < 0.1, (r, errs)


def test_pointwise_error_constant_matches_moment_function():
    # On interval j the scaled error (P_n x - x)(t) / h^r tends to
    # J_r(tau) x^(r)(t) with tau the local coordinate.
    r, tau = 1, 0.3
    for n in (64, 128):
        grid = make_grid(n, r)
        pl = project(np.exp, grid, r)
        j = n // 2
        t = (j + tau) / n
        scaled = (pl(t) - np.exp(t)) / grid.h**r
        predicted = j_k(r, r, tau) * np.exp(t)
        assert abs(scaled - predicted) < 0.02, (n, scaled, predicted)


def test_precision_guard_rejects_weak_rules():
    # 2*rho - 1 >= 3r fails for rho=2, r=2.
    grid = build_grid(4, 1, gauss_rule(2))
    with pytest.raises(PrecisionError):
        project(np.exp, grid, 2)


def test_minimal_rho_values():
    assert minimal_rho(1) == 2
    assert minimal_rho(2) == 4
    assert minimal_rho(3) == 5


def test_piecewise_evaluation_left_limit_at_partition_points():
    # At interior partition points the left interval's polynomial wins.
    n, r = 4, 1
    coeffs = np.arange(n, dtype=float).reshape(n, 1)
    pl = PiecewiseLegendre(n, r, coeffs)
    # value on interval j is coeffs[j,0] * sqrt(n) (constant basis scaling)
    vals = pl(np.array([0.25, 0.5, 0.75]))
    np.testing.assert_allclose(vals, np.array([0.0, 1.0, 2.0]) * np.sqrt(n), atol=1e-14)
    assert pl(0.0) == pytest.approx(0.0)
    assert pl(1.0) == pytest.approx(3.0 * np.sqrt(n))
    # partition points however computed still take the left value, and a
    # point just right of a breakpoint, though within 1e-9/n, the right one
    for n in (2, 3, 7, 10, 49, 1000, 3000):
        pl = PiecewiseLegendre(n, 1, np.arange(n, dtype=float).reshape(n, 1))
        j = np.arange(1, n + 1)
        for points in (j / n, j * (1 / n), np.linspace(0.0, 1.0, n + 1)[1:]):
            np.testing.assert_array_equal(pl(points), (j - 1) * np.sqrt(n))
    pl = PiecewiseLegendre(2, 1, np.array([[1.0], [3.0]]))
    assert pl(0.5 + 1e-10) == 3.0 * np.sqrt(2)


def test_piecewise_coeffs_are_validated_and_frozen():
    with pytest.raises(ValueError):
        PiecewiseLegendre(2, 1, np.zeros((3, 1)))
    with pytest.raises(ValueError):
        PiecewiseLegendre(2, 1, np.array([[np.nan], [0.0]]))
    pl = PiecewiseLegendre(2, 1, np.zeros((2, 1)))
    with pytest.raises(ValueError):
        pl.coeffs[0, 0] = 1.0
    assert pl.h == 0.5


@pytest.mark.parametrize("j", [-1, 3])
def test_discrete_inner_product_rejects_a_subinterval_outside_the_grid(j):
    with pytest.raises(ValueError, match=rf"^subinterval index j must be in \[0, 2\], got {j}$"):
        discrete_inner_product(np.cos, np.sin, j, make_grid(3, 1))


def test_evaluate_piecewise_rejects_outside_domain():
    pl = PiecewiseLegendre(2, 1, np.zeros((2, 1)))
    with pytest.raises(ValueError):
        evaluate_piecewise(pl, 1.0001)
    with pytest.raises(DomainError):
        evaluate_piecewise(pl, np.array([0.5, np.nan]))
