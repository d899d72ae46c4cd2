"""Spans around the public functions of ``urysohn``, recorded from outside.

A :class:`Tracer` replaces each traced function in every ``urysohn`` module
that bound it (``from .problems import kernel_eval`` gives ``nystrom`` and
``galerkin`` their own names), and stands a numpy proxy in for ``np`` in
``nystrom`` and ``galerkin`` so that their ``np.linalg.solve`` calls get a
span named after the calling module.  Spans are kept in memory; per-layer
metrics are summed per operation and reported as the median over operations.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import sys
import time
from dataclasses import dataclass, field

import numpy as np

# Per-layer metrics as (name, unit).  A ``.calls``/``.s``/``.self_s`` name is
# summed from the spans of that name; any other name is a count that a span
# recorded under exactly that key.
PER_LAYER = (
    ("problems.kernel_eval.value.calls", "count"),
    ("problems.kernel_eval.value.evals", "count"),
    ("problems.kernel_eval.value.s", "s"),
    ("problems.kernel_eval.du.calls", "count"),
    ("problems.kernel_eval.du.evals", "count"),
    ("problems.kernel_eval.du.s", "s"),
    ("problems.kernel_eval.closed_form_mismatches", "count"),
    ("nystrom.linalg_solve.calls", "count"),
    ("nystrom.linalg_solve.s", "s"),
    ("nystrom.linalg_solve.flops_computed", "flop"),
    ("galerkin.linalg_solve.calls", "count"),
    ("galerkin.linalg_solve.s", "s"),
    ("nystrom.solve_nystrom.s", "s"),
    ("nystrom.solve_nystrom.self_s", "s"),
    ("nystrom.newton_iters", "count"),
    ("galerkin.solve_discrete_galerkin.s", "s"),
    ("galerkin.solve_discrete_galerkin.self_s", "s"),
    ("galerkin.newton_iters", "count"),
    ("nystrom.apply_km.calls", "count"),
    ("nystrom.apply_km.points", "count"),
    ("nystrom.apply_km.s", "s"),
    ("galerkin.iterated_eval.calls", "count"),
    ("galerkin.iterated_eval.points", "count"),
    ("galerkin.iterated_eval.s", "s"),
    ("quadrature.build_grid.calls", "count"),
    ("quadrature.build_grid.s", "s"),
    ("quadrature.nodes", "count"),
    ("extrapolate.convergence_study.self_s", "s"),
    ("extrapolate.richardson.s", "s"),
    ("cli.run.self_s", "s"),
    ("cli.format_report.s", "s"),
    ("tracing.traced_wall_s_p50", "s"),
    ("tracing.untraced_wall_s_p50", "s"),
    ("tracing.overhead_s", "s"),
)

SOLVES = ("nystrom.solve_nystrom", "galerkin.solve_discrete_galerkin")


@dataclass
class Span:
    name: str
    op: int | None
    parent: int | None
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _kernel_name(args, kwargs):
    order = _arg(args, kwargs, 4, "u_derivative_order", 0)
    return "problems.kernel_eval." + ("value" if order == 0 else "du")


def _kernel_counts(name, args, kwargs, result):
    return {name + ".evals": int(np.size(result))}


def _solve_counts(prefix):
    def counts(name, args, kwargs, result):
        return {prefix + ".newton_iters": result.newton_iterations, name + ".nodes": result.grid.node_count}

    return counts


def _points_counts(name, args, kwargs, result):
    return {name + ".points": int(np.size(result))}


def _apply_km_counts(name, args, kwargs, result):
    x = _arg(args, kwargs, 1, "x")
    return {name + ".points": int(np.size(result)), name + ".grid_nodes": x.grid.node_count}


def _lu_counts(name, args, kwargs, result):
    n = np.shape(args[0])[0]
    return {name + ".flops_computed": 2 * n**3 // 3 + 2 * n * n}


# (defining module, function, span name or callable giving it, counter)
TARGETS = (
    ("urysohn.problems", "kernel_eval", _kernel_name, _kernel_counts),
    ("urysohn.quadrature", "build_grid", "quadrature.build_grid",
     lambda name, a, k, r: {"quadrature.nodes": r.node_count}),
    ("urysohn.nystrom", "apply_km", "nystrom.apply_km", _apply_km_counts),
    ("urysohn.nystrom", "solve_nystrom", "nystrom.solve_nystrom", _solve_counts("nystrom")),
    ("urysohn.galerkin", "solve_discrete_galerkin", "galerkin.solve_discrete_galerkin",
     _solve_counts("galerkin")),
    ("urysohn.galerkin", "iterated_eval", "galerkin.iterated_eval", _points_counts),
    ("urysohn.extrapolate", "convergence_study", "extrapolate.convergence_study", None),
    ("urysohn.extrapolate", "richardson", "extrapolate.richardson", None),
    ("urysohn.cli", "run", "cli.run", None),
    ("urysohn.cli", "format_report", "cli.format_report", None),
)

# Modules whose ``np.linalg.solve`` calls are timed as ``<module>.linalg_solve``.
LU_CALLERS = ("nystrom", "galerkin")


class _Proxy:
    """Delegates attribute lookups to ``module`` except for the overrides."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    """Records spans for the traced functions while :meth:`installed` is active."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op: int | None = None
        self._stack: list[int] = []

    def wrap(self, fn, name, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            parent = self._stack[-1] if self._stack else None
            span = Span(span_name, self.op, parent, time.perf_counter())
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                span.counts = counter(span_name, args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch the traced functions into every ``urysohn`` module; undo on exit."""
        patches = []
        modules = [m for n, m in list(sys.modules.items()) if n == "urysohn" or n.startswith("urysohn.")]
        for module_name, attr, name, counter in TARGETS:
            original = getattr(sys.modules[module_name], attr)
            traced = self.wrap(original, name, counter)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        patches.append((module, key, original))
                        setattr(module, key, traced)
        for caller in LU_CALLERS:
            module = sys.modules["urysohn." + caller]
            solve = self.wrap(np.linalg.solve, caller + ".linalg_solve",
                              _lu_counts if caller == "nystrom" else None)
            patches.append((module, "np", module.np))
            module.np = _Proxy(np, linalg=_Proxy(np.linalg, solve=solve))
        try:
            yield self
        finally:
            for module, key, original in reversed(patches):
                setattr(module, key, original)


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it covered by its child spans."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        cur_start = cur_end = None
        for start, end in sorted(children.get(index, [])):
            start, end = max(start, span.start), min(end, span.end)
            if end <= start:
                continue
            if cur_end is None or start > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = start, end
            else:
                cur_end = max(cur_end, end)
        if cur_end is not None:
            covered += cur_end - cur_start
        out.append(span.end - span.start - covered)
    return out


def op_totals(spans) -> dict[int, dict[str, float]]:
    """Per operation: calls, busy time, self time and counts of every span name."""
    totals: dict[int, dict[str, float]] = {}
    for span, self_s in zip(spans, self_times(spans)):
        tot = totals.setdefault(span.op, {})
        for key, value in (
            (span.name + ".calls", 1),
            (span.name + ".s", span.end - span.start),
            (span.name + ".self_s", self_s),
            *span.counts.items(),
        ):
            tot[key] = tot.get(key, 0) + value
    return totals


def closed_form_evals(spans) -> tuple[int, int]:
    """Kernel evaluations predicted for these spans: (value, du).

    A Newton solve on N nodes that ran ``iters`` residual evaluations calls
    the value kernel iters*N**2 times and the du kernel (iters-1)*N**2 times;
    evaluating K_m at K points on an N-node grid adds K*N value evaluations.
    """
    value = du = 0
    for span in spans:
        if span.name in SOLVES:
            iters = span.counts[span.name.split(".")[0] + ".newton_iters"]
            nodes = span.counts[span.name + ".nodes"]
            value += iters * nodes * nodes
            du += (iters - 1) * nodes * nodes
        elif span.name == "nystrom.apply_km":
            value += span.counts[span.name + ".points"] * span.counts[span.name + ".grid_nodes"]
    return value, du


def layer_metrics(spans, ops, traced_walls, untraced_walls) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics (median over the traced operations ``ops``) and count-check findings."""
    totals = op_totals(spans)
    for op in ops:
        totals.setdefault(op, {})
    findings = []
    mismatched = 0
    for op in ops:
        op_spans = [s for s in spans if s.op == op]
        want = closed_form_evals(op_spans)
        got = (
            totals[op].get("problems.kernel_eval.value.evals", 0),
            totals[op].get("problems.kernel_eval.du.evals", 0),
        )
        if got != want:
            mismatched += 1
            findings.append(f"op {op}: kernel evals (value, du) = {got}, closed form {want}")
    keys = {key for op in ops for key in totals[op]}
    for key in sorted(keys):
        values = {totals[op].get(key, 0) for op in ops}
        if len(values) > 1 and not key.endswith((".s", ".self_s")):
            findings.append(f"{key} differs between traced ops: {sorted(values)}")

    metrics = {}
    for name, unit in PER_LAYER:
        if name.startswith("tracing."):
            continue
        if name == "problems.kernel_eval.closed_form_mismatches":
            metrics[name] = mismatched
        else:
            # Counts stay whole numbers; findings above report any that vary.
            median = statistics.median if unit == "s" else statistics.median_low
            metrics[name] = median([totals[op].get(name, 0) for op in ops])
    traced = statistics.median(traced_walls)
    untraced = statistics.median(untraced_walls) if untraced_walls else traced
    metrics["tracing.traced_wall_s_p50"] = traced
    metrics["tracing.untraced_wall_s_p50"] = untraced
    metrics["tracing.overhead_s"] = traced - untraced
    return metrics, findings
