"""Gauss-Legendre quadrature on [0, 1] and composite rules on uniform grids.

The basic rule uses ``rho`` Gauss points on [0, 1] and is exact for
polynomials of degree <= 2*rho - 1.  The composite rule partitions [0, 1]
into ``n`` coarse subintervals, refines each into ``p`` fine subintervals,
and applies the basic rule on every fine piece.  Nodes and weights are
generated from scratch by Newton iteration on the Legendre polynomial
roots -- no tabulated values.
"""

from __future__ import annotations

import functools
import numbers
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, EvaluationError

__all__ = [
    "QuadratureRule",
    "CompositeGrid",
    "gauss_rule",
    "build_grid",
    "integrate_composite",
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
    """The rho-point Gauss-Legendre rule on [0, 1], built from rho alone.

    Roots of the Legendre polynomial P_rho on [-1, 1] are found by Newton
    iteration from the Chebyshev-like initial guesses
    cos(pi*(i - 1/4)/(rho + 1/2)), then affinely mapped to [0, 1].  The
    node and weight arrays are derived, so rules compare and hash by rho.

    Attributes
    ----------
    npoints : int
        Number of quadrature points rho, 1 <= rho <= 20.
    nodes : ndarray
        Strictly increasing abscissas in (0, 1).
    weights : ndarray
        Positive weights summing to 1.
    """

    npoints: int
    nodes: np.ndarray = field(init=False, repr=False, compare=False)
    weights: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rho = _count(self.npoints, "rho", hi=_MAX_RHO)

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
        object.__setattr__(self, "npoints", rho)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    @property
    def degree(self) -> int:
        """Highest polynomial degree integrated exactly."""
        return 2 * self.npoints - 1


_rule = functools.cache(QuadratureRule)  # one shared rule per rho


def gauss_rule(rho: int) -> QuadratureRule:
    """The rho-point Gauss-Legendre rule on [0, 1], 1 <= rho <= 20: QuadratureRule(rho).

    Rules are immutable, so each is built once per process and then shared;
    ``rho`` is checked first, so 2.0 and True raise DomainError as before.
    """
    return _rule(_count(rho, "rho", hi=_MAX_RHO))


@dataclass(frozen=True)
class CompositeGrid:
    """Composite quadrature layout on the uniform partition t_j = j/n.

    Each coarse subinterval (t_{j-1}, t_j] of width h = 1/n is split into
    ``p`` fine pieces, giving the fine partition with m = n*p subintervals
    of width h/p.  The basic rule is applied on each fine piece, so the
    grid carries n*p*rho nodes ordered coarse-interval-major.  The four
    arrays are derived from (n, p, rule), so grids compare and hash by
    (n, p, rho).

    Attributes
    ----------
    n, p : int
        Coarse subinterval count and refinement factor, both >= 1.
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
    offsets: np.ndarray = field(init=False, repr=False, compare=False)
    offset_weights: np.ndarray = field(init=False, repr=False, compare=False)
    nodes: np.ndarray = field(init=False, repr=False, compare=False)
    node_weights: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = _count(self.n, "n")
        p = _count(self.p, "p")

        nu = np.arange(p)[:, None]  # fine-piece index nu-1 = 0..p-1
        offsets = ((nu + self.rule.nodes[None, :]) / p).ravel()
        offset_weights = np.tile(self.rule.weights, p) / p

        t_left = (np.arange(n, dtype=float) / n)[:, None]
        nodes = (t_left + offsets[None, :] / n).ravel()
        node_weights = np.tile(offset_weights, n) / n

        for arr in (offsets, offset_weights, nodes, node_weights):
            arr.setflags(write=False)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "offsets", offsets)
        object.__setattr__(self, "offset_weights", offset_weights)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "node_weights", node_weights)

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
    """The composite grid of n >= 1 coarse subintervals, each refined into p >= 1
    fine ones that carry ``rule``: CompositeGrid(n, p, rule)."""
    return CompositeGrid(n, p, rule)


def _count(value, what: str, lo: int = 1, hi: int | None = None) -> int:
    """The one integer check: ``value`` as an int in [lo, hi] (``hi=None``: no
    upper bound); DomainError for anything else, a bool included."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1 <= lo:
        kind = "a positive integer" if lo >= 1 else "an integer"
        raise DomainError(f"{what} must be {kind}, got {value!r}")
    if value < lo or (hi is not None and value > hi):
        bounds = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise DomainError(f"{what} must be {bounds}, got {int(value)}")
    return int(value)


def _fits(nbytes: int, what: str) -> None:
    """The one size check: DomainError if ``what``, planned at ``nbytes``
    bytes, exceeds physical memory (the machine's total, not what is free,
    so a size gets the same answer on every run); no check where the
    platform does not report it."""
    try:
        total = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return
    if 0 < total < nbytes:
        raise DomainError(f"{what} needs {nbytes} bytes, more than the {total} of physical memory")


def _unit_points(t, what: str = "s") -> np.ndarray:
    """``t`` as a float array; DomainError if any entry is NaN or outside [0, 1]."""
    t = np.asarray(t, dtype=float)
    # min and max propagate NaN, and every comparison with NaN is False
    if t.size and not (np.min(t) >= 0.0 and np.max(t) <= 1.0):
        bad = t[~((t >= 0.0) & (t <= 1.0))].ravel()[0]
        raise DomainError(f"{what}={bad!r} outside [0, 1]")
    return t


def _frozen_array(values, shape: tuple, what: str) -> np.ndarray:
    """``values`` as a read-only float copy; ValueError unless of ``shape`` and finite."""
    arr = np.array(values, dtype=float)
    if arr.shape != shape:
        raise ValueError(f"{what} shape {arr.shape}, expected {shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} must be finite")
    arr.setflags(write=False)
    return arr


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
