"""Discrete orthogonal projection onto piecewise polynomials.

The approximating space on the partition t_j = j/n consists of functions
that are polynomials of degree < r on each subinterval (t_{j-1}, t_j],
with no continuity imposed across breakpoints.  The local orthonormal
basis is phi_{j,eta}(t) = h**(-1/2) * L_eta((t - t_{j-1})/h).  Inner
products are evaluated with the composite quadrature of the grid, which
makes the projection an exact orthogonal projection as long as the basic
rule integrates degree 3r polynomials (guard: 2*rho - 1 >= 3r).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import legendre_table
from .errors import PrecisionError
from .quadrature import CompositeGrid, _count, _frozen_array, _unit_points, values_on

__all__ = [
    "PiecewiseLegendre",
    "discrete_inner_product",
    "minimal_rho",
    "project",
    "evaluate_piecewise",
]


@dataclass(frozen=True, eq=False)
class PiecewiseLegendre:
    """Piecewise polynomial of degree < r on the uniform n-partition.

    ``coeffs[j, eta]`` multiplies phi_{j,eta}; the represented function is
    x(t) = sum_eta coeffs[j, eta] * phi_{j,eta}(t) for t in (t_{j-1}, t_j].
    At an interior partition point the left subinterval wins (the value is
    the limit from the left); t = 0 belongs to the first subinterval.
    """

    n: int
    r: int
    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "n", _count(self.n, "n"))
        object.__setattr__(self, "r", _count(self.r, "r"))
        coeffs = _frozen_array(self.coeffs, (self.n, self.r), "coeffs (n, r)")
        object.__setattr__(self, "coeffs", coeffs)

    def __call__(self, s):
        return evaluate_piecewise(self, s)

    @property
    def h(self) -> float:
        return 1.0 / self.n


def minimal_rho(r: int) -> int:
    """Smallest rho whose Gauss rule is exact to degree 3r (2*rho-1 >= 3r)."""
    return (3 * _count(r, "r") + 2) // 2


def _check_order(r, rho: int) -> int:
    """``r`` as an int; PrecisionError unless the rho-point rule is exact to degree 3r."""
    r = _count(r, "r")
    if 2 * rho - 1 < 3 * r:
        raise PrecisionError(
            f"basic rule with rho={rho} is exact to degree {2 * rho - 1} < 3r = {3 * r}"
        )
    return r


def basis_matrix(grid: CompositeGrid, r: int) -> np.ndarray:
    """Local basis values phi_{j,eta} at the grid offsets, shape (p*rho, r).

    The matrix is identical for every coarse subinterval because the
    offsets repeat, so callers index it with the local node position only.
    """
    return np.sqrt(grid.n) * legendre_table(r, grid.offsets).T


def _coefficients(values, grid: CompositeGrid, basis) -> np.ndarray:
    """Inner products <v, phi_{j,eta}> of node values v, shape (n, r): the P_n formula."""
    block = grid.offsets.size
    return (values.reshape(grid.n, block) * grid.node_weights[:block]) @ basis


def discrete_inner_product(x, y, j: int, grid: CompositeGrid) -> float:
    """Composite-quadrature inner product of x and y over subinterval j.

    Parameters
    ----------
    x, y : callable
        Functions evaluable on [0, 1].
    j : int
        Subinterval index, 0-based: integrates over (t_j, t_{j+1}].
    grid : CompositeGrid
    """
    j = _count(j, "subinterval index j", lo=0, hi=grid.n - 1)
    block = grid.offsets.size
    sl = slice(j * block, (j + 1) * block)
    nodes = grid.nodes[sl]
    return float(grid.node_weights[sl] @ (values_on(x, nodes) * values_on(y, nodes)))


def project(x, grid: CompositeGrid, r: int) -> PiecewiseLegendre:
    """Discrete orthogonal projection of x onto piecewise degree-(r-1) space.

    Coefficients are c_{j,eta} = <x, phi_{j,eta}> with the composite
    quadrature of ``grid``.  Requires 2*rho - 1 >= 3r so that products of
    basis functions are integrated exactly and the projection is truly
    orthogonal (and idempotent).
    """
    r = _check_order(r, grid.rule.npoints)
    coeffs = _coefficients(values_on(x, grid.nodes), grid, basis_matrix(grid, r))
    return PiecewiseLegendre(n=grid.n, r=r, coeffs=coeffs)


def evaluate_piecewise(pl: PiecewiseLegendre, s):
    """Evaluate a PiecewiseLegendre at points s in [0, 1].

    Interior partition points take the value from the left subinterval;
    a tolerance of a few ulps of n absorbs the rounding of s*n at a
    partition point computed as j/n, j*(1/n) or by np.linspace.
    """
    s_arr = _unit_points(s)
    u = s_arr * pl.n
    idx = np.clip(np.ceil(u - 4 * np.finfo(float).eps * pl.n).astype(int) - 1, 0, pl.n - 1)
    rel = np.clip(u - idx, 0.0, 1.0)
    ltab = legendre_table(pl.r, rel)  # (r,) + s.shape
    out = np.sqrt(pl.n) * np.einsum("...e,e...->...", pl.coeffs[idx], ltab)
    return float(out) if out.ndim == 0 else out
