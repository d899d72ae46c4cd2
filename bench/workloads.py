"""The benchmark's workloads: set-up, the timed operation, and its result check.

Each workload calls ``urysohn`` only through its public names, looked up at
call time so that a :class:`tracing.Tracer` can stand in for them.  A check
compares solution values with the values frozen in ``frozen.json`` at
``REL_TOL`` relative; the eps columns are never compared, because eps_EX is a
cancellation of O(1) values that any reordering of sums moves by ~1e-9
relative.
"""

from __future__ import annotations

import contextlib
import io
import json
from typing import NamedTuple

import numpy as np

import urysohn
import urysohn.cli

PROBLEM = "rpk-aks"
REL_TOL = 1e-12


class Outcome(NamedTuple):
    ok: bool
    max_err: float
    reason: str = ""


def agrees(actual, frozen) -> bool:
    """True when the shapes match and every value is within REL_TOL of its frozen value."""
    a = np.asarray(actual, dtype=float)
    f = np.asarray(frozen, dtype=float)
    return a.shape == f.shape and bool(np.all(np.abs(a - f) <= REL_TOL * np.abs(f)))


def check_levels(levels, frozen_levels, max_err) -> Outcome:
    """Compare ladder levels given as dicts with keys n, p, m, rho, t, z_S."""
    if [lv["n"] for lv in levels] != [lv["n"] for lv in frozen_levels]:
        return Outcome(False, max_err, "ladder levels differ from the frozen ones")
    for level, want in zip(levels, frozen_levels):
        for key in ("p", "m", "rho", "t"):
            if level[key] != want[key]:
                return Outcome(False, max_err, f"level n={want['n']}: {key} differs")
        if not agrees(level["z_S"], want["z_S"]):
            return Outcome(False, max_err, f"level n={want['n']}: z_S differs from frozen values")
    return Outcome(True, max_err)


class LadderR1:
    """The paper's configuration, through the command line: r=1, n = 10, 20, 40."""

    argv = ["converge", "--problem", PROBLEM, "--r", "1", "--n", "10,20,40", "--format", "json"]

    def __init__(self, seed: int):
        self.problem = urysohn.get_problem(PROBLEM)

    def op(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = urysohn.cli.run(self.argv)
        if code != 0:
            raise RuntimeError(f"urysohn converge exited with code {code}")
        return out.getvalue()

    def check(self, text, frozen) -> Outcome:
        doc = json.loads(text)
        levels = doc["levels"]
        return check_levels(levels, frozen["levels"], max(levels[0]["eps_EX"]))


class LadderR2:
    """convergence_study at r=2, n = 3, 6, 12: large dense diagonal blocks (p*rho = 576 at the top)."""

    n_list = (3, 6, 12)

    def __init__(self, seed: int):
        self.problem = urysohn.get_problem(PROBLEM)

    def op(self):
        return urysohn.convergence_study(self.problem, 2, list(self.n_list))

    @staticmethod
    def levels(report):
        return [
            {"n": lv.n, "p": lv.p, "m": lv.m, "rho": lv.rho, "t": lv.points.tolist(), "z_S": lv.z_s.tolist()}
            for lv in report.levels
        ]

    def check(self, report, frozen) -> Outcome:
        return check_levels(self.levels(report), frozen["levels"], float(np.max(report.levels[0].eps_ex)))


class NystromDense:
    """One dense Nystrom solve on N = 3000 nodes (1500 panels, 2-point Gauss)."""

    panels = 1500

    def __init__(self, seed: int):
        self.problem = urysohn.get_problem(PROBLEM)
        self.grid = urysohn.build_grid(self.panels, 1, urysohn.gauss_rule(2))

    def op(self):
        return urysohn.solve_nystrom(self.problem, self.grid)

    def check(self, sol, frozen) -> Outcome:
        values = sol.node_values.values
        max_err = float(np.max(np.abs(values - self.problem.exact(self.grid.nodes))))
        if not agrees(values, frozen["node_values"]):
            return Outcome(False, max_err, "node values differ from frozen values")
        return Outcome(True, max_err)


def coarse_bin(points, n: int):
    """Index of the coarse subinterval [i/n, (i+1)/n) holding each point; 1 goes in the last."""
    return np.minimum((np.asarray(points) * n).astype(int), n - 1)


def extension_points(seed: int, n: int, count: int):
    """``count`` unsorted points in [0, 1] that include the n+1 partition points.

    Returns the points and the positions of the partition points among them.
    """
    rng = np.random.default_rng(seed)
    base = np.concatenate([np.arange(n + 1) / n, rng.random(count - n - 1)])
    order = rng.permutation(count)
    return base[order], np.argsort(order)[: n + 1]


class ExtensionEval:
    """z_S = f + K_m(z_G) at 20 000 seeded off-node points, after one r=1, n=40 solve."""

    n = 40
    count = 20_000

    def __init__(self, seed: int):
        self.problem = urysohn.get_problem(PROBLEM)
        self.solution = urysohn.solve_discrete_galerkin(self.problem, self.n, 1)
        self.points, self.partition = extension_points(seed, self.n, self.count)

    def op(self):
        return urysohn.iterated_eval(self.solution, self.points)

    def check(self, values, frozen) -> Outcome:
        """Partition points against frozen values; every other point within the
        frozen per-subinterval envelope of the signed error z_S - phi."""
        err = values - self.problem.exact(self.points)
        max_err = float(np.max(np.abs(err)))
        if not agrees(values[self.partition], frozen["partition_z_S"]):
            return Outcome(False, max_err, "z_S at the partition points differs from frozen values")
        bins = coarse_bin(self.points, self.n)
        lo = np.asarray(frozen["envelope_lo"])[bins]
        hi = np.asarray(frozen["envelope_hi"])[bins]
        outside = (err < lo) | (err > hi)
        if np.any(outside):
            s = float(self.points[np.argmax(outside)])
            return Outcome(False, max_err, f"z_S error at s={s!r} is outside the frozen envelope")
        return Outcome(True, max_err)


WORKLOADS = {
    "ladder-r1": LadderR1,
    "ladder-r2": LadderR2,
    "nystrom-dense": NystromDense,
    "extension-eval": ExtensionEval,
}
