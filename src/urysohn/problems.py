"""Urysohn integral equation problems x(s) - int_0^1 k(s,t,x(t)) dt = f(s).

A problem carries the kernel k as two smooth branches meeting at the
diagonal t = s (Green's-function-type kernel), the analytic partial
derivative dk/du needed by Newton's method, the right-hand side f, and
optionally the exact solution for error studies.  It may also declare each
branch as a short sum of products a(s) * beta(t, u), the structure of a
Green's kernel; the Galerkin solver then works with prefix sums instead of
the N x N kernel entries.

The built-in benchmark ``rpk-aks`` is the Hammerstein problem
k(s,t,u) = G(s,t) * (gamma**2 * u - 2 * u**3) with G the Green's function
of -w'' + gamma**2 w under Dirichlet conditions, gamma = sqrt(12), and f
chosen so that the exact solution is phi(s) = 2/(2s + 1).  It declares
G's factors, so its Galerkin solve costs O(N) per Newton step, and each
dense kernel entry, as the Nystrom paths evaluate, costs one product of
the factors in :func:`kernel_eval`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import EvaluationError, UnknownProblemError
from .quadrature import _count, build_grid, gauss_rule, values_on

__all__ = [
    "UrysohnProblem",
    "kernel_eval",
    "residual_check",
    "sinh_greens_branches",
    "hammerstein_problem",
    "get_problem",
    "available_problems",
    "register_problem",
]


@dataclass(frozen=True)
class UrysohnProblem:
    """A Urysohn problem with a kernel split along the diagonal.

    ``kappa_lower(s, t, u)`` is the branch for t <= s and ``kappa_upper``
    the branch for t >= s; both must be smooth on the whole unit square
    and agree on the diagonal.  ``*_du`` are the partial derivatives with
    respect to u.  All callables must broadcast over numpy arrays.  The
    kernel sweeps run their row blocks on several threads at once, so the
    branch callables may run concurrently and must not mutate shared state.

    ``exact`` is the known solution (or None); ``description`` is a short
    human-readable summary for the registry listing.

    ``factors`` (optional) declares the branches as sums of products,
    ``((a, beta, beta_du), (c, delta, delta_du))`` with

        kappa_lower(s, t, u) = sum_q a(s)[..., q] * beta(t, u)[..., q]   (t <= s),
        kappa_upper(s, t, u) = sum_q c(s)[..., q] * delta(t, u)[..., q]  (t > s),

    and ``beta_du``, ``delta_du`` the u-derivatives of ``beta``, ``delta``.
    Each callable broadcasts and returns a trailing rank axis.  On
    construction (``dataclasses.replace`` included) the factors must
    reproduce all four branch callables on a small fixed sample of each
    side, to 1e-12 of the largest finite branch value there; points where
    a branch is not finite are not compared.  Otherwise ValueError names
    the side and the order; factors not shaped as two triples of callables
    raise ValueError too.  Declared factors are the kernel of every solver
    path, dense entries included (:func:`kernel_eval`); the branches serve
    the check, :func:`residual_check` and the ``factors=None`` twin.
    """

    name: str
    kappa_lower: Callable
    kappa_upper: Callable
    kappa_lower_du: Callable
    kappa_upper_du: Callable
    f: Callable
    exact: Callable | None = None
    description: str = ""
    factors: tuple | None = None

    def __post_init__(self):
        if self.factors is not None:
            _check_factors(self)


# The fixed sample on which declared factors must reproduce the branches:
# every (s, t) pair of _SAMPLE on the side of the diagonal, times each u.
_SAMPLE = np.array([0.0, 0.15, 0.4, 0.5, 0.75, 1.0])
_SAMPLE_U = np.array([-1.5, 0.5, 2.0])
_FACTOR_RTOL = 1e-12


def _factor_values(g, count, *args):
    """A declared factor g(*args) at ``count`` points as a (count, rank) array, broadcast."""
    out = np.asarray(g(*args), dtype=float)
    return out if out.shape[:1] == (count,) else np.broadcast_to(out, (count,) + out.shape[-1:])


def _factors(problem: UrysohnProblem, which: int, *args):
    """The one reader of declared factors: factor ``which`` of both sides at the 1-d points
    args[0], each a (points, rank) array, checked finite; None without factors.  which = 0
    gives a(s) and c(s), 1 beta and delta at (t, u), 2 their u-derivatives."""
    if problem.factors is None:
        return None
    parts = [_factor_values(side[which], args[0].size, *args) for side in problem.factors]
    _check_finite(problem, *parts)
    return parts


def _check_factors(problem: UrysohnProblem) -> None:
    """ValueError unless the factors reproduce the branches on the fixed sample."""
    sides = problem.factors
    # the type test comes first: len() fails on a non-sequence such as an int
    if not (
        isinstance(sides, (tuple, list))
        and len(sides) == 2
        and all(isinstance(side, (tuple, list)) and len(side) == 3 for side in sides)
        and all(callable(g) for side in sides for g in side)
    ):
        raise ValueError(
            "factors must be ((a, beta, beta_du), (c, delta, delta_du)) for the lower "
            "and the upper side"
        )
    s, t, u = (g.ravel() for g in np.meshgrid(_SAMPLE, _SAMPLE, _SAMPLE_U, indexing="ij"))
    branches = (
        ("lower", t <= s, problem.kappa_lower, problem.kappa_lower_du),
        ("upper", t > s, problem.kappa_upper, problem.kappa_upper_du),
    )
    for side, (name, on_side, *branch) in zip(sides, branches):
        args = (s[on_side], t[on_side], u[on_side])
        size = args[0].size
        left = _factor_values(side[0], size, args[0])
        for order, what in enumerate(("value", "du")):
            want = np.broadcast_to(np.asarray(branch[order](*args), dtype=float), args[0].shape)
            right = _factor_values(side[1 + order], size, *args[1:])
            got = np.sum(left * right, axis=-1)
            finite = np.isfinite(want)
            scale = float(np.max(np.abs(want[finite]), initial=0.0))
            if not np.all(np.abs(got[finite] - want[finite]) <= _FACTOR_RTOL * scale):
                raise ValueError(
                    f"factors of {problem.name!r} do not reproduce the {name} branch "
                    f"({what}) to {_FACTOR_RTOL:g} of its largest value on the sample"
                )


def _check_finite(problem: UrysohnProblem, *arrays) -> None:
    """The EvaluationError of a kernel or factor value that is not finite."""
    if not all(np.all(np.isfinite(arr)) for arr in arrays):
        raise EvaluationError(f"kernel of {problem.name!r} returned non-finite values")


def _product(s_factor, t_factor):
    """The branch sum_q s_factor(s)[..., q] * t_factor(t, u)[..., q] of declared factors."""
    return lambda s, t, u: np.einsum("...q,...q->...", s_factor(s), t_factor(t, u))


def kernel_eval(problem: UrysohnProblem, s, t, u, u_derivative_order: int = 0):
    """Evaluate the kernel (or its u-derivative) at (s, t, u), broadcasting.

    With declared ``factors`` each branch is sum_q a(s)_q * beta(t, u)_q
    (beta_du for dk/du; c and delta above the diagonal) and no branch
    callable runs: the results follow the factors, which construction ties
    to the branches only to 1e-12 of the largest value.

    Points on the diagonal t == s use the lower branch (t <= s); the two
    branches agree there for a valid problem, so the choice only matters
    for ill-formed inputs.

    Each branch is evaluated only where it is used: when every t lies on
    or below every s (max t <= min s, checked on the operands before
    broadcasting) only the lower branch is called, when every t lies above
    every s only the upper one, and otherwise both, on the whole broadcast
    block and with numpy's floating-point warnings off, since each then also
    runs on the side where its values are dropped.  The result has the
    broadcast shape of s, t and the branch output either way.  The
    finiteness check covers the values returned, that is, each branch only
    where it is used.

    Parameters
    ----------
    u_derivative_order : {0, 1}
        0 for the kernel value, 1 for dk/du; an integer, not a bool.
    """
    order = _count(u_derivative_order, "u_derivative_order", lo=0, hi=1)
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    u = np.asarray(u, dtype=float)
    if problem.factors is not None:
        lower, upper = (_product(side[0], side[1 + order]) for side in problem.factors)
    elif order == 0:
        lower, upper = problem.kappa_lower, problem.kappa_upper
    else:
        lower, upper = problem.kappa_lower_du, problem.kappa_upper_du
    nonempty = s.size > 0 and t.size > 0
    if nonempty and t.max() <= s.min():
        out = np.asarray(lower(s, t, u))
    elif nonempty and t.min() > s.max():
        out = np.asarray(upper(s, t, u))
    else:
        with np.errstate(all="ignore"):
            out = np.where(t <= s, lower(s, t, u), upper(s, t, u))
    shape = np.broadcast_shapes(s.shape, t.shape, out.shape)
    if out.shape != shape:
        out = np.broadcast_to(out, shape).copy()
    _check_finite(problem, out)
    return float(out) if out.ndim == 0 else out


def residual_check(problem: UrysohnProblem, candidate, panels: int = 64) -> float:
    """Sup-norm residual of a candidate solution over 101 uniform points.

    Computes max over s in {0, 0.01, ..., 1} of
    |candidate(s) - int_0^1 k(s, t, candidate(t)) dt - f(s)|,
    splitting the integral at t = s so that each branch of the kernel is
    integrated where it is smooth (composite 10-point Gauss with
    ``panels`` panels on each side, an integer >= 16).

    This is the independent consistency oracle: for the exact solution it
    must be at quadrature accuracy, no solver involved.
    """
    panels = _count(panels, "panels", lo=16)
    s = np.linspace(0.0, 1.0, 101)
    base = build_grid(panels, 1, gauss_rule(10))
    # Nodes/weights of the composite rule on [0, side] for every s at once.
    t_lower = s[:, None] * base.nodes[None, :]
    w_lower = s[:, None] * base.node_weights[None, :]
    t_upper = s[:, None] + (1.0 - s[:, None]) * base.nodes[None, :]
    w_upper = (1.0 - s[:, None]) * base.node_weights[None, :]

    cand_s = values_on(candidate, s)
    k_lower = problem.kappa_lower(s[:, None], t_lower, values_on(candidate, t_lower))
    k_upper = problem.kappa_upper(s[:, None], t_upper, values_on(candidate, t_upper))
    integral = np.sum(w_lower * k_lower, axis=1) + np.sum(w_upper * k_upper, axis=1)
    residual = cand_s - integral - values_on(problem.f, s)
    return float(np.max(np.abs(residual)))


def sinh_greens_branches(gamma: float):
    """Branches of the Green's function of -w'' + gamma**2 w, w(0)=w(1)=0.

    G(s, t) = sinh(gamma*min(s,t)) * sinh(gamma*(1 - max(s,t)))
              / (gamma * sinh(gamma)),
    returned as (lower, upper) callables for t <= s and t >= s.  G is
    symmetric, vanishes when s or t hits the boundary, and its t-derivative
    jumps by -1 across the diagonal.
    """
    denom = gamma * np.sinh(gamma)

    def lower(s, t):
        return np.sinh(gamma * t) * np.sinh(gamma * (1.0 - s)) / denom

    def upper(s, t):
        return np.sinh(gamma * s) * np.sinh(gamma * (1.0 - t)) / denom

    return lower, upper


def _sinh_greens_factors(gamma: float):
    """G of :func:`sinh_greens_branches` as (L, R, P, Q): L(s)R(t) for t <= s, P(s)Q(t) for t > s.

    1/sinh(gamma) goes with the s factor, which stays in [0, 1], and
    1/gamma with the t factor, so a sum over t overflows only where
    sinh(gamma*t) itself does.
    """
    scale = np.sinh(gamma)

    def lower_s(s):
        return np.sinh(gamma * (1.0 - s)) / scale

    def lower_t(t):
        return np.sinh(gamma * t) / gamma

    def upper_s(s):
        return np.sinh(gamma * s) / scale

    def upper_t(t):
        return np.sinh(gamma * (1.0 - t)) / gamma

    return lower_s, lower_t, upper_s, upper_t


def hammerstein_problem(
    name: str,
    g_lower: Callable,
    g_upper: Callable,
    psi: Callable,
    psi_du: Callable,
    f: Callable,
    exact: Callable | None = None,
    description: str = "",
    g_factors: tuple | None = None,
) -> UrysohnProblem:
    """Assemble a problem with kernel k(s,t,u) = G(s,t) * psi(t,u).

    ``g_factors`` (optional) is (L, R, P, Q) with G(s,t) = L(s) * R(t) for
    t <= s and P(s) * Q(t) for t > s, each a scalar function; it becomes
    the problem's ``factors`` (rank 1 on each side), checked against
    ``g_lower`` and ``g_upper`` like any declared factors.  The branch
    callables are always G's own branches times psi (psi_du in the
    derivatives); with factors, the solvers' dense entries come from
    L(s) * (R(t) * psi(t,u)) and P(s) * (Q(t) * psi(t,u)) through
    :func:`kernel_eval`, so the branches serve the construction check,
    :func:`residual_check` and the ``factors=None`` twin.
    """

    def side(g_s, g_t):
        return (
            lambda s: np.asarray(g_s(s))[..., None],
            lambda t, u: np.asarray(g_t(t) * psi(t, u))[..., None],
            lambda t, u: np.asarray(g_t(t) * psi_du(t, u))[..., None],
        )

    factors = None
    if g_factors is not None:
        l_s, r_t, p_s, q_t = g_factors
        factors = (side(l_s, r_t), side(p_s, q_t))
    return UrysohnProblem(
        name=name,
        kappa_lower=lambda s, t, u: g_lower(s, t) * psi(t, u),
        kappa_upper=lambda s, t, u: g_upper(s, t) * psi(t, u),
        kappa_lower_du=lambda s, t, u: g_lower(s, t) * psi_du(t, u),
        kappa_upper_du=lambda s, t, u: g_upper(s, t) * psi_du(t, u),
        f=f,
        exact=exact,
        description=description,
        factors=factors,
    )


def _build_rpk_aks() -> UrysohnProblem:
    gamma = np.sqrt(12.0)
    g_lower, g_upper = sinh_greens_branches(gamma)

    def psi(t, u):
        return gamma * gamma * u - 2.0 * u**3

    def psi_du(t, u):
        return gamma * gamma - 6.0 * u * u

    def f(s):
        s = np.asarray(s, dtype=float)
        out = (2.0 * np.sinh(gamma * (1.0 - s)) + (2.0 / 3.0) * np.sinh(gamma * s)) / np.sinh(gamma)
        return float(out) if out.ndim == 0 else out

    def exact(s):
        s = np.asarray(s, dtype=float)
        out = 2.0 / (2.0 * s + 1.0)
        return float(out) if out.ndim == 0 else out

    return hammerstein_problem(
        "rpk-aks",
        g_lower,
        g_upper,
        psi,
        psi_du,
        f,
        exact,
        description=(
            "cubic Hammerstein benchmark: sinh Green's-function kernel, "
            "psi(t,u) = 12u - 2u^3, exact solution 2/(2s+1)"
        ),
        g_factors=_sinh_greens_factors(gamma),
    )


_REGISTRY: dict[str, UrysohnProblem] = {}


def register_problem(problem: UrysohnProblem) -> None:
    """Add a problem to the registry (name must be unused)."""
    if problem.name in _REGISTRY:
        raise ValueError(f"problem {problem.name!r} is already registered")
    _REGISTRY[problem.name] = problem


def get_problem(name: str) -> UrysohnProblem:
    """Look up a registered problem by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY)) or "(none)"
        raise UnknownProblemError(f"unknown problem {name!r}; available: {known}") from None


def available_problems() -> list[str]:
    return sorted(_REGISTRY)


register_problem(_build_rpk_aks())
