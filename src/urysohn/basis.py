"""Orthonormal Legendre basis on [0, 1] and related expansion quantities.

L_eta denotes the normalised shifted Legendre polynomial
``sqrt(2*eta + 1) * P_eta(2t - 1)``; the family {L_0, ..., L_{r-1}} is an
orthonormal basis of the degree-(r-1) polynomials in L2(0, 1).  From it we
build the kernel Lambda_r(tau, s) = sum_eta L_eta(tau) L_eta(s), the moment
functions J_k(tau) = int_0^1 Lambda_r(tau, s) (s - tau)^k / k! ds, and the
Bernoulli-weighted constants that drive the superconvergence error terms.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial

import numpy as np

from .errors import DomainError
from .quadrature import _unit_points, gauss_rule

__all__ = [
    "legendre",
    "legendre_table",
    "lambda_r",
    "j_k",
    "bernoulli",
    "bbar",
    "j_square_integral",
]

_MAX_ETA = 12
_MAX_BERNOULLI = 10


def legendre_table(r: int, t) -> np.ndarray:
    """Stack L_0(t), ..., L_{r-1}(t) into an array of shape (r,) + t.shape."""
    if not 1 <= r <= _MAX_ETA + 1:
        raise DomainError(f"r must be in [1, {_MAX_ETA + 1}], got {r}")
    t = _unit_points(t, "t")
    u = 2.0 * t - 1.0
    out = np.empty((r,) + t.shape)
    out[0] = 1.0
    if r > 1:
        out[1] = u
        for k in range(1, r - 1):
            out[k + 1] = ((2 * k + 1) * u * out[k] - k * out[k - 1]) / (k + 1)
    scale = np.sqrt(2.0 * np.arange(r) + 1.0)
    return out * scale.reshape((r,) + (1,) * t.ndim)


def legendre(eta: int, t):
    """Normalised shifted Legendre polynomial L_eta evaluated at t in [0, 1].

    Parameters
    ----------
    eta : int
        Polynomial degree, 0 <= eta <= 12.
    t : float or ndarray
        Points in [0, 1].
    """
    if not isinstance(eta, (int, np.integer)) or isinstance(eta, bool):
        raise DomainError(f"eta must be an integer, got {eta!r}")
    if not 0 <= eta <= _MAX_ETA:
        raise DomainError(f"eta must be in [0, {_MAX_ETA}], got {eta}")
    t_arr = np.asarray(t, dtype=float)
    vals = legendre_table(eta + 1, t_arr)[eta]
    return float(vals) if np.isscalar(t) or t_arr.ndim == 0 else vals


def lambda_r(r: int, tau, s):
    """Kernel Lambda_r(tau, s) = sum_{eta < r} L_eta(tau) * L_eta(s).

    Broadcasts over tau and s.  This is the reproducing kernel of the
    degree-(r-1) polynomials under the L2(0, 1) inner product.
    """
    tau_b, s_b = np.broadcast_arrays(
        np.asarray(tau, dtype=float), np.asarray(s, dtype=float)
    )
    out = np.einsum("e...,e...->...", legendre_table(r, tau_b), legendre_table(r, s_b))
    return float(out) if out.ndim == 0 else out


def j_k(r: int, k: int, tau):
    """Moment function J_k(tau) = int_0^1 Lambda_r(tau, s) (s - tau)^k / k! ds.

    Computed by a Gauss rule of sufficient order, hence exact up to
    rounding (the integrand is a polynomial in s of degree r - 1 + k).

    Parameters
    ----------
    r : int
        Basis size, r >= 1.
    k : int
        Moment index, 1 <= k <= 2r + 1.
    tau : float or ndarray
        Points in [0, 1].
    """
    if not 1 <= k <= 2 * r + 1:
        raise DomainError(f"k must be in [1, {2 * r + 1}] for r={r}, got {k}")
    tau_arr = _unit_points(tau, "tau")
    flat = np.atleast_1d(tau_arr).ravel()
    rho = min(20, (r + k) // 2 + 2)
    rule = gauss_rule(rho)
    lam = np.tensordot(legendre_table(r, flat), legendre_table(r, rule.nodes), (0, 0))
    poly = (rule.nodes[None, :] - flat[:, None]) ** k / factorial(k)
    out = (lam * poly) @ rule.weights
    return float(out[0]) if tau_arr.ndim == 0 else out.reshape(tau_arr.shape)


@lru_cache(maxsize=None)
def _bernoulli_coeffs(k: int) -> tuple:
    """Monomial coefficients of B_k in ascending powers, as exact Fractions.

    Defined by B_0 = 1, B_k' = k * B_{k-1}, int_0^1 B_k = 0.
    """
    if k == 0:
        return (Fraction(1),)
    prev = _bernoulli_coeffs(k - 1)
    coeffs = [Fraction(0)] + [Fraction(k) * c / (i + 1) for i, c in enumerate(prev)]
    coeffs[0] = -sum(c / (i + 1) for i, c in enumerate(coeffs))
    return tuple(coeffs)


def bernoulli(k: int, s):
    """Bernoulli polynomial B_k(s), 0 <= k <= 10.

    B_0 = 1, B_k' = k*B_{k-1}, and int_0^1 B_k(s) ds = 0; so
    B_1(s) = s - 1/2, B_2(s) = s**2 - s + 1/6, ...
    """
    if not isinstance(k, (int, np.integer)) or isinstance(k, bool):
        raise DomainError(f"k must be an integer, got {k!r}")
    if not 0 <= k <= _MAX_BERNOULLI:
        raise DomainError(f"k must be in [0, {_MAX_BERNOULLI}], got {k}")
    s_arr = np.asarray(s, dtype=float)
    out = np.zeros_like(s_arr)
    for c in reversed(_bernoulli_coeffs(k)):
        out = out * s_arr + float(c)
    return float(out) if np.isscalar(s) or s_arr.ndim == 0 else out


def bbar(r: int, p_index: int) -> float:
    """Constant bbar_{2r,p} appearing in the superconvergence expansion.

    bbar_{2r,p} = int_0^1 int_0^1 Lambda_r(tau, s) * (tau - s)**p / p!
                  * B_{2r-p}(s) / (2r-p)!  ds dtau,
    for 1 <= p_index <= 2r.  Evaluated by a tensor Gauss rule that is
    exact for the (polynomial) integrand.
    """
    if r < 1:
        raise DomainError(f"r must be >= 1, got {r}")
    if not 1 <= p_index <= 2 * r:
        raise DomainError(f"p_index must be in [1, {2 * r}] for r={r}, got {p_index}")
    if 2 * r - p_index > _MAX_BERNOULLI:
        raise DomainError(f"bbar needs Bernoulli index {2 * r - p_index} > {_MAX_BERNOULLI}")
    rule = gauss_rule(min(20, 3 * r // 2 + 2))
    tau = rule.nodes[:, None]
    s = rule.nodes[None, :]
    lam = np.tensordot(legendre_table(r, rule.nodes), legendre_table(r, rule.nodes), (0, 0))
    integrand = (
        lam
        * (tau - s) ** p_index
        / factorial(p_index)
        * bernoulli(2 * r - p_index, rule.nodes)[None, :]
        / factorial(2 * r - p_index)
    )
    return float(rule.weights @ integrand @ rule.weights)


def j_square_integral(r: int) -> float:
    """int_0^1 J_r(tau)**2 dtau, with J_r as in :func:`j_k` (k = r).

    This constant multiplies the quadrature-induced part of the
    superconvergence error coefficient.
    """
    if r < 1:
        raise DomainError(f"r must be >= 1, got {r}")
    rho = min(20, 2 * r + 1)
    rule = gauss_rule(rho)
    jr = j_k(r, r, rule.nodes)
    return float(rule.weights @ (jr * jr))
