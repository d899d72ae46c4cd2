"""Nystrom discretisation of the Urysohn operator and its Newton solver.

The integral operator is replaced by the composite quadrature sum

    K_m(x)(s) = sum_b W_b * k(s, node_b, x(node_b)),

so the unknown is the vector of values at the quadrature nodes.  Values
anywhere in [0, 1] come from the natural extension x(s) = f(s) + K_m(x)(s).
The kernel is evaluated with the correct branch on each side of t = s via
:func:`urysohn.problems.kernel_eval`, which is what limits the attainable
accuracy to O(fine_h**2): the diagonal kink sits inside quadrature panels.
:func:`_km_at` sums declared ``factors``, read at 1-d points by
``problems._factors``: K_m at M points, for the natural extension and the
Galerkin residual, takes O((N + M) * rank + M log N), of which the M-point
half (the node counts j and the s factors) is built once per point set and
the node half, :func:`_node_sums`, the blocked prefix and suffix sums
:func:`_prefix` and :func:`_suffix`, once per iterate, which a caller may
keep and pass back for the same iterate.  :func:`apply_km`,
:func:`km_prime_apply` and the Newton solve always sum kernel entries,
formed from declared factors by ``kernel_eval``; the ``factors=None`` twin
is their reference.

Newton's method solves with the Jacobian I - K_m'(x) by GMRES: K_m'(x) is
compact for a Green's-function-type kernel, so the GMRES iteration count
does not grow with the node count, and its worst case, a full Krylov space,
costs O(N**3) like an LU.  K_m'(x) alone is stored, in float32; GMRES adds
I exactly and works in float64, and the float64 node residual decides
convergence (Kelley, "Newton's method in mixed precision", SIAM Rev. 2022).
Its 4*N**2 bytes are the solve's size limit: a grid on which they exceed
physical memory is refused, with the byte count, by ``quadrature._fits``.
On a grid of more than 256 panels Newton starts, unless told otherwise,
from the natural extension of the solution on a quarter of its panels,
itself started so: 1500 panels from 375, from 93, from f.  By mesh
independence that start lies in the fine quadratic basin; it saves fine
sweeps where one fine step then meets ``tol`` (rpk-aks: from ~1200 panels),
and below that only adds coarse work, as the fine solve takes two steps.

Both solvers check ``tol`` and ``max_iter`` (:func:`_newton_controls`), then
their size plan, then read ``initial`` (:func:`_start`): f, the factors and
the kernel run only after the first two.

Every O(N**2) kernel sweep is a :func:`_sweep`, a generator of the row
blocks of ascending points.  It owns one float64 row block, allocated per
sweep, in which ``kernel_eval`` forms each entry once, in place: from
declared factors a whole range of columns below, across and above the
diagonal per call, from branch callables in pieces of _PIECE entries (the
ranges of :func:`_columns`).  K_m and K_m' at points and the node residual
sum the block's rows (:func:`_weighted_kernel_sum`); the Newton step scales
it by W in place and rounds it once into its float32 operator.  The dense
Galerkin matrix projects the fresh column pieces of :func:`_pieces`
instead, one coarse subinterval's rows at a time.  The blocks run one after
another in the calling thread: once a dense entry is one product of
declared factors, threads sharing the blocks run them no faster than one
thread, and each thread adds its own temporaries to the peak memory.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, EvaluationError, SingularOperatorError
from .problems import UrysohnProblem, _check_finite, _factors, kernel_eval
from .quadrature import (
    CompositeGrid,
    _count,
    _fits,
    _frozen_array,
    _unit_points,
    build_grid,
    values_on,
)

__all__ = ["GridFunction", "apply_km", "km_prime_apply", "solve_nystrom", "NystromSolution"]

_CHUNK = 128  # points per row block of K_m and of the Nystrom Jacobian
_PIECE = 1 << 16  # kernel entries per kernel_eval call on branch callables
_SUM_BLOCK = 8192  # entries per sequential run of a factored prefix sum
_GMRES_RTOL = 1e-13  # GMRES stops at least-squares residual <= this * ||b||_2
_TWO_GRID_FLOOR = 256  # grids of more panels than this start from a quarter of them


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Values of a function at all quadrature nodes of a composite grid.

    Ordering matches ``grid.nodes``: coarse subinterval major, then fine
    subinterval, then Gauss point.
    """

    grid: CompositeGrid
    values: np.ndarray

    def __post_init__(self):
        shape = (self.grid.node_count,)
        values = _frozen_array(self.values, shape, "values (one per node, node count)")
        object.__setattr__(self, "values", values)


def _columns(problem, grid, xvals, points):
    """(cols, nodes[None, cols], xvals[None, cols]) over the columns of the
    ascending column vector ``points``.

    Nodes on or below every point take one kernel branch, those above every
    point the other, and only the band between needs both.  Declared factors
    are asked for a whole range per ``kernel_eval`` call, so the t factor is
    built once per range; branch callables make temporaries the size of what
    they are asked for, so their ranges are cut into pieces of at most
    _PIECE entries, which fit in cache and are reused from the heap.
    """
    nodes = grid.nodes
    lo, hi = np.searchsorted(nodes, (points[0, 0], points[-1, 0]), side="right")
    step = nodes.size if problem.factors is not None else max(1, _PIECE // points.size)
    for r0, r1 in ((0, lo), (lo, hi), (hi, nodes.size)):
        for c0 in range(r0, r1, step):
            cols = slice(c0, min(c0 + step, r1))
            yield cols, nodes[None, cols], xvals[None, cols]


def _sweep(problem, grid, xvals, s, order):
    """(rows, entries) for each slice ``rows`` of _CHUNK points of the ascending 1-d s.

    ``entries`` is kernel(s[rows, None], nodes, xvals) over all columns,
    formed once, in place, by ``kernel_eval`` over the :func:`_columns`.  It
    is a view of the sweep's one min(s.size, _CHUNK) x N float64 block,
    refilled for the next row block: a consumer may rewrite it, and is done
    with it before it asks for the next.  The blocks run in order, in the
    calling thread.
    """
    block = np.empty((min(s.size, _CHUNK), grid.node_count))
    for start in range(0, s.size, _CHUNK):
        rows = slice(start, min(start + _CHUNK, s.size))
        points, entries = s[rows, None], block[: rows.stop - start]
        for cols, t, u in _columns(problem, grid, xvals, points):
            kernel_eval(problem, points, t, u, order, out=entries[:, cols])
        yield rows, entries


def _pieces(problem, grid, xvals, points, order):
    """(cols, kernel(points[:, None], nodes[cols], xvals[cols])) for the :func:`_columns`
    of the ascending 1-d ``points``, each piece a new array.

    The dense Galerkin projection reduces them one by one and so stores no
    row block of its points.
    """
    points = points[:, None]
    for cols, t, u in _columns(problem, grid, xvals, points):
        yield cols, kernel_eval(problem, points, t, u, order)


def _weighted_kernel_sum(problem, grid, xvals, s, order, weights):
    """sum_b weights_b * kernel(s_a, node_b, xvals_b) at points s of any shape.

    The one path from points to K_m values, a :func:`_sweep` over the points
    in stable ascending order: no value depends on the order of the points.
    """
    s = np.asarray(s, dtype=float)
    perm = np.argsort(s, axis=None, kind="stable")
    out = np.empty(s.size)
    for rows, entries in _sweep(problem, grid, xvals, s.ravel()[perm], order):
        # a numpy reduction, not a BLAS GEMV: no thread split enters the bits
        out[perm[rows]] = np.einsum("ij,j->i", entries, weights)
    return float(out[0]) if s.ndim == 0 else out.reshape(s.shape)


def _prefix(values, axis=0):
    """Inclusive prefix sums along ``axis`` (>= 0): entry i sums the entries up to i.

    A sequential cumsum within runs of _SUM_BLOCK entries, each run offset
    by the last sum of the run before it, so that the rounding grows with
    the run length and the run count, not with the length; up to
    _SUM_BLOCK entries this is the plain cumsum, bit for bit, and returned
    by it, since the run loop costs ~10 us more per call at such sizes.
    """
    if np.shape(values)[axis] <= _SUM_BLOCK:
        return np.cumsum(values, axis)
    out = np.empty_like(values, dtype=float)  # the layout of cumsum's output, which einsum sees
    runs, sums = np.moveaxis(values, axis, 0), np.moveaxis(out, axis, 0)
    for start in range(0, runs.shape[0], _SUM_BLOCK):
        stop = min(start + _SUM_BLOCK, runs.shape[0])
        np.cumsum(runs[start:stop], axis=0, out=sums[start:stop])
        if start:
            sums[start:stop] += sums[start - 1]
    return out


def _suffix(values, axis=0):
    """Inclusive suffix sums along ``axis`` (>= 0): entry i sums the entries from i on."""
    back = (slice(None),) * axis + (slice(None, None, -1),)
    return _prefix(values[back], axis)[back]


def _node_sums(problem, grid, xvals):
    """What K_m at any points needs of the node values ``xvals``: None without
    factors, where :func:`_km_at` sums kernel entries of xvals itself, and with
    them (below, above), below[j] = sum_{b < j} W_b beta(node_b, x_b) and
    above[j] = sum_{b >= j} W_b delta(node_b, x_b), checked finite.

    Both are blocked sums, :func:`_prefix` and :func:`_suffix`; ``above`` is
    summed from the end, since total - below loses digits near 1.
    """
    if problem.factors is None:
        return None
    w = grid.node_weights[:, None]
    wbeta, wdelta = (w * g for g in _factors(problem, 1, grid.nodes, xvals))
    below = np.zeros((grid.node_count + 1, wbeta.shape[1]))
    above = np.zeros((grid.node_count + 1, wdelta.shape[1]))
    below[1:], above[:-1] = _prefix(wbeta), _suffix(wdelta)
    _check_finite(problem, below, above)
    return below, above


def _km_at(problem, grid, s, s_factors=None):
    """``(xvals, sums=None) -> K_m(x)(s)`` at points s (an array, any shape and order);
    the one path from declared factors to K_m.  ``sums``, if given, are
    :func:`_node_sums` of xvals, which are then not summed again.

    Without factors this is the dense sum :func:`_weighted_kernel_sum`.
    With them K_m(x)(s) = a(s) . below[j] + c(s) . above[j] with j the count
    of nodes <= s, so a point on a node takes the lower branch there, as in
    kernel_eval.  j, a(s) and c(s) do not depend on x: they are found once,
    here, unless ``s_factors`` passes a(s) and c(s),
    ``problems._factors(problem, 0, np.ravel(s))``.
    :func:`apply_km`, :func:`km_prime_apply` and the Nystrom residual sum,
    and the Newton step stores, the kernel entries of :func:`_sweep` even
    with factors, each then a product of the factors (``kernel_eval``), as
    the benchmark pins their counts; the ``factors=None`` twin is the reference.
    """
    if problem.factors is None:
        return lambda xvals, sums=None: _weighted_kernel_sum(
            problem, grid, xvals, s, 0, grid.node_weights
        )
    flat = np.ravel(s)
    j = np.searchsorted(grid.nodes, flat, side="right")
    a_s, c_s = _factors(problem, 0, flat) if s_factors is None else s_factors

    def km(xvals, sums=None):
        below, above = _node_sums(problem, grid, xvals) if sums is None else sums
        out = np.sum(a_s * below[j], axis=-1) + np.sum(c_s * above[j], axis=-1)
        _check_finite(problem, out)
        return out.reshape(np.shape(s))

    return km


def apply_km(problem: UrysohnProblem, x: GridFunction, s):
    """Evaluate the discretised operator K_m(x) at points s in [0, 1].

    ``s`` may have any shape and any order: a scalar gives a float, an array
    an array of its shape, and no value depends on the order of the points.
    Sums the N kernel entries per point of :func:`_sweep` even with
    declared factors, each entry then a product of the factors
    (``kernel_eval``); the ``factors=None`` twin evaluates the branches.
    """
    return _weighted_kernel_sum(problem, x.grid, x.values, _unit_points(s), 0, x.grid.node_weights)


def km_prime_apply(problem: UrysohnProblem, base: GridFunction, v: GridFunction, s):
    """Evaluate the Frechet derivative action K_m'(base)[v] at points s.

    K_m'(base)v(s) = sum_b W_b * dk/du(s, node_b, base_b) * v_b, with s taken
    as by :func:`apply_km`: any shape, any order, a float for a scalar.  Like
    :func:`apply_km` it always sums kernel entries, from the factors when
    the problem declares them.
    """
    if base.grid is not v.grid and not np.array_equal(base.grid.nodes, v.grid.nodes):
        raise ValueError("base and direction must live on the same grid")
    weights = base.grid.node_weights * v.values
    return _weighted_kernel_sum(problem, base.grid, base.values, _unit_points(s), 1, weights)


def _extension(problem: UrysohnProblem, x: GridFunction, s, sums=None):
    """Natural extension f(s) + K_m(x)(s) at points s in [0, 1]; ``sums``, if given,
    are :func:`_node_sums` of x."""
    s = _unit_points(s)  # before f, which need not be defined outside [0, 1]
    out = values_on(problem.f, s) + _km_at(problem, x.grid, s)(x.values, sums)
    return float(out) if s.ndim == 0 else out


def _norm(v) -> float:
    """The 2-norm of the 1-d v by a numpy reduction; np.linalg.norm is a BLAS dot."""
    return math.sqrt(np.einsum("i,i->", v, v))


def _gmres(matvec, b):
    """Solve A x = b by unrestarted GMRES from x = 0; matvec(v) returns A v, a new array.

    Arnoldi builds the Krylov basis one row at a time, in an array grown on
    demand, and orthogonalises each new vector by two classical Gram-Schmidt
    passes; Givens rotations keep the Hessenberg matrix triangular and give
    the least-squares residual at every step.  Stops once that residual is
    <= _GMRES_RTOL * ||b||_2, or at Krylov dimension N, where the minimiser
    is the exact solution.  A rotated diagonal entry of exactly 0 with the
    residual unmet is the Krylov analogue of a zero pivot: LinAlgError.
    Its products and norms are numpy reductions, not BLAS GEMVs or dot
    products, which OpenBLAS splits across threads: its bits do not depend
    on the BLAS thread count.
    """
    n = b.size
    beta = _norm(b)
    if beta == 0.0:
        return np.zeros(n)
    target = _GMRES_RTOL * beta
    basis = np.empty((min(16, n), n))  # one Krylov vector per row
    tri = np.zeros((basis.shape[0], basis.shape[0]))  # the rotated Hessenberg matrix
    rotations = []
    g = [beta]  # beta * e_1, rotated: |g[k]| is the residual at dimension k
    basis[0] = b / beta
    k = 0
    while True:
        w = matvec(basis[k])
        h = np.zeros(k + 1)
        for _ in range(2):
            c = np.einsum("ij,j->i", basis[: k + 1], w)
            w -= np.einsum("i,ij->j", c, basis[: k + 1])
            h += c
        w_norm = _norm(w)
        for i, (cs, sn) in enumerate(rotations):
            h[i], h[i + 1] = cs * h[i] + sn * h[i + 1], cs * h[i + 1] - sn * h[i]
        diag = float(np.hypot(h[k], w_norm))
        if diag == 0.0:
            raise np.linalg.LinAlgError("GMRES broke down: the Krylov matrix is singular")
        cs, sn = h[k] / diag, w_norm / diag
        rotations.append((cs, sn))
        h[k] = diag
        tri[: k + 1, k] = h
        g.append(-sn * g[k])
        g[k] *= cs
        k += 1
        if k == n or not abs(g[k]) > target:  # the negation also stops on nan
            break
        if k == basis.shape[0]:
            grow = min(k, n - k)
            basis = np.concatenate([basis, np.empty((grow, n))])
            tri = np.pad(tri, (0, grow))
        basis[k] = w / w_norm
    return np.einsum("i,ij->j", np.linalg.solve(tri[:k, :k], np.array(g[:k])), basis[:k])


def _newton_controls(tol, max_iter) -> int:
    """ValueError unless ``tol`` is a finite real > 0, not a bool, and ``max_iter`` a
    positive integer; max_iter.  Each solver calls it first, before any other work."""
    real = isinstance(tol, numbers.Real) and not isinstance(tol, bool)
    if not (real and math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and > 0, got {tol!r}")
    return _count(max_iter, "max_iter")


def _start(initial, grid, default, what, project=None):
    """Newton's start from a solver's ``initial``: ``default`` for None, a callable's
    values at the grid nodes, passed through ``project`` if given, or an array of
    default's shape, finite, named ``what`` in the ValueError of one that is not."""
    if initial is None:
        return default
    if callable(initial):
        values = values_on(initial, grid.nodes)
        return values if project is None else project(values)
    return _frozen_array(initial, default.shape, what)


def _inner_solve(prefix, solve, *args):
    """``solve(*args)`` for an outer solve: a ConvergenceError is raised again as its
    own class, its message after ``prefix``, with its trace, from it."""
    try:
        return solve(*args)
    except ConvergenceError as exc:
        raise type(exc)(f"{prefix}: {exc}", residual_norms=exc.residual_norms) from exc


def _newton(x0, residual, newton_step, tol, max_iter, singular_message):
    """Newton's method on residual(x) = 0 from x0; returns (x, residual trace).

    The one Newton loop of the package: solve_nystrom iterates on node
    values, solve_discrete_galerkin on Galerkin coefficients.

    ``newton_step(x, res)`` solves the linearised system J(x) step = -res;
    the trace holds the sup norm of each residual.  An iterate is accepted
    once that norm is <= ``tol``, unless the rounding floor eps*max|x| of
    the iterate exceeds ``tol``: then the small residual says nothing.  On
    an equation without a solution that is how a nearly singular Newton
    matrix shows, through an iterate grown to ~1/eps.

    The caller has checked ``tol`` and ``max_iter`` by :func:`_newton_controls`,
    before any other work of its solve.
    """
    x = x0
    trace = []
    for _ in range(max_iter):
        res = residual(x)
        rnorm = float(np.max(np.abs(res)))
        trace.append(rnorm)
        if rnorm <= tol:
            floor = np.finfo(float).eps * float(np.max(np.abs(x)))
            if floor > tol:
                raise SingularOperatorError(
                    f"Newton residual {rnorm:.3e} met tol={tol} only by rounding: "
                    f"the iterate's rounding floor eps*max|x| = {floor:.3e} exceeds "
                    "tol, so the Newton matrix is nearly singular (the equation may "
                    "have no solution) or tol is below the attainable accuracy",
                    residual_norms=trace,
                )
            return x, trace
        try:
            step = newton_step(x, res)
        except np.linalg.LinAlgError:
            raise SingularOperatorError(singular_message, residual_norms=trace) from None
        if not np.all(np.isfinite(step)):
            raise ConvergenceError("Newton step is non-finite", residual_norms=trace)
        x = x + step

    raise ConvergenceError(
        f"Newton did not reach tol={tol} in {max_iter} iterations "
        f"(last residual {trace[-1]:.3e})",
        residual_norms=trace,
    )


class _NewtonTrace:
    """Counts read off the stored Newton trace ``residual_norms``."""

    @property
    def newton_iterations(self) -> int:
        """Number of Newton iterations: residual evaluations, one per trace entry."""
        return len(self.residual_norms)

    @property
    def final_residual_norm(self) -> float:
        """Sup norm of the accepted iterate's residual, the last trace entry."""
        return self.residual_norms[-1]


@dataclass(frozen=True, eq=False)
class NystromSolution(_NewtonTrace):
    """Solution of the Nystrom equation x - K_m(x) = f at the grid nodes.

    ``residual_norms`` is the Newton trace on this grid; ``grid`` (that of
    ``node_values``), ``newton_iterations`` and ``final_residual_norm`` are
    derived from the stored fields.
    """

    problem: UrysohnProblem
    node_values: GridFunction
    residual_norms: tuple

    @property
    def grid(self) -> CompositeGrid:
        return self.node_values.grid

    def __call__(self, s):
        """Natural extension f(s) + K_m(x)(s); agrees with the node values."""
        return _extension(self.problem, self.node_values, s)


def solve_nystrom(
    problem: UrysohnProblem,
    grid: CompositeGrid,
    tol: float = 1e-12,
    max_iter: int = 50,
    initial=None,
) -> NystromSolution:
    """Solve the Nystrom equation by Newton-GMRES on the assembled K_m'(x).

    Each Newton step assembles K_m'(x) at the nodes in float32 and solves
    with I - K_m'(x) by float64 GMRES, which for these kernels converges in a
    few iterations whatever the node count; its worst case, a full Krylov
    space, is O(N**3) like a dense LU.  The float32 rounding moves only the
    steps: the float64 node residual still has to meet ``tol``.

    Without ``initial``, a grid of m = ``grid.n * grid.p`` > 256 panels is
    started from the solution on m // 4 panels of the same basic rule, found
    by this function with the same ``tol`` and ``max_iter`` (so started the
    same way) and evaluated at the nodes through its natural extension; a
    grid of at most 256 panels starts from f.  ``newton_iterations`` and
    ``residual_norms`` describe the Newton iteration on ``grid`` only.

    Parameters
    ----------
    problem : UrysohnProblem
    grid : CompositeGrid
        Its N = m*rho nodes plan 4*N**2 bytes, the float32 K_m'(x), the
        only N x N array: they must not exceed physical memory.
    tol : float
        Convergence threshold on the sup norm of the node residual
        x - K_m(x) - f; finite and > 0.
    max_iter : int
        Maximum number of Newton iterations (residual evaluations); a
        positive integer.
    initial : None, callable, or ndarray
        Starting values at the nodes, finite; None gives the start from
        m // 4 panels above 256 panels and f at or below.

    Raises
    ------
    ConvergenceError
        If the iteration does not reach ``tol`` (carries the residual trace).
        A failure on a coarse grid of the default start is raised as the
        same class, with its trace and the node count of each coarse grid.
    SingularOperatorError
        If I - K_m'(x) is numerically singular at some iterate, or if
        ``tol`` is below the rounding floor eps*max|x| of the iterate.
    EvaluationError
        If the kernel returns non-finite values, or a W_b*dk/du entry is
        beyond the float32 range of the assembled K_m'(x).
    ValueError
        If ``tol`` (a bool included) or ``max_iter`` is out of range, first:
        before the size plan, f and the coarse start.  Then DomainError, with
        the byte count, before f and the coarse start, if 4*N**2 exceeds
        physical memory; then, before any kernel evaluation, if ``initial``
        is out of range.
    """
    max_iter = _newton_controls(tol, max_iter)
    n_nodes = grid.node_count
    _fits(4 * n_nodes**2, f"the float32 K_m'(x) of {n_nodes} nodes")

    f_nodes = values_on(problem.f, grid.nodes)
    if initial is None and grid.n * grid.p > _TWO_GRID_FLOOR:
        coarse = build_grid(grid.n * grid.p // 4, 1, grid.rule)
        prefix = f"coarse start on the {coarse.node_count}-node grid failed"
        initial = _inner_solve(prefix, solve_nystrom, problem, coarse, tol, max_iter)
    x0 = _start(initial, grid, f_nodes, "initial values")

    w = grid.node_weights

    def residual(x):
        return x - _weighted_kernel_sum(problem, grid, x, grid.nodes, 0, w) - f_nodes

    a = np.empty((n_nodes, n_nodes), dtype=np.float32)  # K_m'(x), rewritten by every step

    def newton_step(x, res):
        for rows, entries in _sweep(problem, grid, x, grid.nodes, 1):
            # J = I - A with A_ab = W_b * dk/du(node_a, node_b, x_b), scaled in place and
            # rounded once to float32.  The kernel runs under the caller's errstate; only
            # the scaling and the float32 store raise.
            try:
                with np.errstate(over="raise"):
                    entries *= w
                    a[rows] = entries
            except FloatingPointError:
                raise EvaluationError(
                    f"W*dk/du of {problem.name!r} overflows the float32 Newton operator"
                ) from None
        # vecdot, one float32 dot per row: a GEMV would be split across BLAS threads
        return _gmres(lambda v: v - np.vecdot(a, v.astype(np.float32)), -res)

    x, trace = _newton(
        x0,
        residual,
        newton_step,
        tol,
        max_iter,
        "Newton matrix I - K_m'(x) is singular: 1 is numerically an "
        "eigenvalue of the linearised operator at the current iterate",
    )
    return NystromSolution(
        problem=problem,
        node_values=GridFunction(grid, x),
        residual_norms=tuple(trace),
    )
