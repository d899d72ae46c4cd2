"""Gauss-Legendre quadrature on [0, 1] and composite rules on uniform grids.

The basic rule uses ``rho`` Gauss points on [0, 1] and is exact for
polynomials of degree <= 2*rho - 1.  The composite rule partitions [0, 1]
into ``n`` coarse subintervals, refines each into ``p`` fine subintervals,
and applies the basic rule on every fine piece.  Nodes and weights are
generated from scratch by Newton iteration on the Legendre polynomial
roots -- no tabulated values.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, EvaluationError

__all__ = [
    "QuadratureRule",
    "CompositeGrid",
    "gauss_rule",
    "build_grid",
    "integrate_composite",
    "values_on",
]

_NEWTON_TOL = 1e-15
_MAX_RHO = 20


def _legendre_pair(rho: int, x: np.ndarray):
    """Values of P_rho and P_rho' at ``x`` via the three-term recurrence."""
    p_prev = np.ones_like(x)
    p = x.copy()
    for k in range(1, rho):
        p_prev, p = p, ((2 * k + 1) * x * p - k * p_prev) / (k + 1)
    dp = rho * (x * p - p_prev) / (x * x - 1.0)
    return p, dp


@dataclass(frozen=True)
class QuadratureRule:
    """A basic quadrature rule on [0, 1].

    Attributes
    ----------
    nodes : ndarray
        Strictly increasing abscissas in (0, 1).
    weights : ndarray
        Positive weights summing to 1.
    """

    nodes: np.ndarray
    weights: np.ndarray

    @property
    def npoints(self) -> int:
        return self.nodes.size

    @property
    def degree(self) -> int:
        """Highest polynomial degree integrated exactly."""
        return 2 * self.npoints - 1


def gauss_rule(rho: int) -> QuadratureRule:
    """Build the rho-point Gauss-Legendre rule on [0, 1].

    Roots of the Legendre polynomial P_rho on [-1, 1] are found by Newton
    iteration from the Chebyshev-like initial guesses
    cos(pi*(i - 1/4)/(rho + 1/2)), then affinely mapped to [0, 1].

    Parameters
    ----------
    rho : int
        Number of quadrature points, 1 <= rho <= 20.

    Returns
    -------
    QuadratureRule
    """
    if not isinstance(rho, (int, np.integer)) or isinstance(rho, bool):
        raise DomainError(f"rho must be an integer, got {rho!r}")
    if not 1 <= rho <= _MAX_RHO:
        raise DomainError(f"rho must be in [1, {_MAX_RHO}], got {rho}")

    i = np.arange(1, rho + 1, dtype=float)
    x = np.cos(np.pi * (i - 0.25) / (rho + 0.5))
    for _ in range(100):
        p, dp = _legendre_pair(rho, x)
        dx = p / dp
        x -= dx
        if np.max(np.abs(dx)) <= _NEWTON_TOL:
            break
    _, dp = _legendre_pair(rho, x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)

    # Map [-1, 1] -> [0, 1]; initial guesses are descending, so flip.
    nodes = ((1.0 + x) / 2.0)[::-1].copy()
    weights = (w / 2.0)[::-1].copy()
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return QuadratureRule(nodes=nodes, weights=weights)


@dataclass(frozen=True)
class CompositeGrid:
    """Composite quadrature layout on the uniform partition t_j = j/n.

    Each coarse subinterval (t_{j-1}, t_j] of width h = 1/n is split into
    ``p`` fine pieces, giving the fine partition with m = n*p subintervals
    of width h/p.  The basic rule is applied on each fine piece, so the
    grid carries n*p*rho nodes ordered coarse-interval-major.

    Attributes
    ----------
    n, p : int
        Coarse subinterval count and refinement factor.
    rule : QuadratureRule
        Basic rule applied on each fine subinterval.
    offsets : ndarray, shape (p*rho,)
        Node positions relative to one coarse subinterval, i.e.
        (nu - 1 + mu_q)/p for nu = 1..p, q = 1..rho; strictly increasing.
    offset_weights : ndarray, shape (p*rho,)
        Basic-rule weights tiled across the p fine pieces and scaled by
        1/p, so (offsets, offset_weights) is itself a composite rule on
        the unit interval.  The integral over a coarse subinterval is
        h * offset_weights . values.
    nodes : ndarray, shape (n*p*rho,)
        Global nodes t_{j-1} + offsets*h, strictly increasing in (0, 1).
    node_weights : ndarray, shape (n*p*rho,)
        Global composite weights; they sum to 1.
    """

    n: int
    p: int
    rule: QuadratureRule
    offsets: np.ndarray = field(repr=False)
    offset_weights: np.ndarray = field(repr=False)
    nodes: np.ndarray = field(repr=False)
    node_weights: np.ndarray = field(repr=False)

    @property
    def h(self) -> float:
        """Coarse mesh width 1/n."""
        return 1.0 / self.n

    @property
    def m(self) -> int:
        """Number of fine subintervals n*p."""
        return self.n * self.p

    @property
    def fine_h(self) -> float:
        """Fine mesh width 1/(n*p)."""
        return 1.0 / (self.n * self.p)

    @property
    def node_count(self) -> int:
        return self.nodes.size

    @property
    def partition_points(self) -> np.ndarray:
        """Coarse partition points j/n for j = 0..n."""
        return np.arange(self.n + 1) / self.n


def build_grid(n: int, p: int, rule: QuadratureRule) -> CompositeGrid:
    """Assemble the composite grid for n coarse intervals refined by p.

    Parameters
    ----------
    n : int
        Number of coarse subintervals, >= 1.
    p : int
        Fine subintervals per coarse subinterval, >= 1.
    rule : QuadratureRule
        Basic rule used on each fine subinterval.
    """
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise DomainError(f"n must be a positive integer, got {n!r}")
    if not (isinstance(p, (int, np.integer)) and p >= 1):
        raise DomainError(f"p must be a positive integer, got {p!r}")
    n = int(n)
    p = int(p)
    rho = rule.npoints

    nu = np.arange(p)[:, None]  # fine-piece index nu-1 = 0..p-1
    offsets = ((nu + rule.nodes[None, :]) / p).ravel()
    offset_weights = np.tile(rule.weights, p) / p

    t_left = (np.arange(n, dtype=float) / n)[:, None]
    nodes = (t_left + offsets[None, :] / n).ravel()
    node_weights = np.tile(offset_weights, n) / n

    for arr in (offsets, offset_weights, nodes, node_weights):
        arr.setflags(write=False)
    return CompositeGrid(
        n=n,
        p=p,
        rule=rule,
        offsets=offsets,
        offset_weights=offset_weights,
        nodes=nodes,
        node_weights=node_weights,
    )


def _unit_points(t, what: str = "s") -> np.ndarray:
    """``t`` as a float array; DomainError if any entry lies outside [0, 1]."""
    t = np.asarray(t, dtype=float)
    if t.size and (np.min(t) < 0.0 or np.max(t) > 1.0):
        bad = t[(t < 0.0) | (t > 1.0)].ravel()[0]
        raise DomainError(f"{what}={bad!r} outside [0, 1]")
    return t


def values_on(g, t: np.ndarray) -> np.ndarray:
    """Evaluate ``g`` at the points ``t`` with shape and finiteness checks.

    Accepts callables that are vectorised over numpy arrays as well as
    scalar-only ones.  Raises EvaluationError (carrying the offending
    abscissa) if any value comes back non-finite.
    """
    t = np.asarray(t, dtype=float)
    try:
        vals = np.asarray(g(t), dtype=float)
    except (TypeError, ValueError):
        vals = np.array([g(ti) for ti in t.ravel()], dtype=float).reshape(t.shape)
    if vals.shape != t.shape:
        try:
            vals = np.broadcast_to(vals, t.shape).astype(float)
        except ValueError:
            raise EvaluationError(
                f"callable returned shape {vals.shape}, expected {t.shape}"
            ) from None
    bad = ~np.isfinite(vals)
    if np.any(bad):
        where = np.argwhere(bad)[0]
        node = float(t[tuple(where)])
        raise EvaluationError(f"non-finite value at node t={node!r}", node=node)
    return vals


def integrate_composite(g, grid: CompositeGrid) -> float:
    """Approximate the integral of ``g`` over [0, 1] on the composite grid.

    Exact for piecewise polynomials of degree <= 2*rho - 1 relative to the
    fine partition; for smooth g the error is O(fine_h**(2*rho)).
    """
    return float(grid.node_weights @ values_on(g, grid.nodes))
