"""Self-tests of the benchmark's own arithmetic and checks.

Run from the root of a checkout::

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span  # noqa: E402
from worker import run_ops  # noqa: E402

FROZEN = json.loads((HERE / "frozen.json").read_text())


def test_self_time_subtracts_children_on_nested_spans():
    spans = [
        Span("root", 0, None, 0.0, 10.0),
        Span("a", 0, 0, 1.0, 4.0),
        Span("leaf", 0, 1, 2.0, 3.0),
        Span("b", 0, 0, 5.0, 6.0),
    ]
    assert tracing.self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0])
    totals = tracing.op_totals(spans)[0]
    assert totals["root.s"] == pytest.approx(10.0)
    assert totals["root.self_s"] == pytest.approx(6.0)
    assert totals["leaf.calls"] == 1


def test_self_time_counts_overlapping_children_once():
    spans = [
        Span("root", 0, None, 0.0, 10.0),
        Span("a", 0, 0, 1.0, 4.0),
        Span("b", 0, 0, 3.0, 6.0),
        Span("c", 0, 0, 9.0, 12.0),  # clipped to the parent's end
    ]
    assert tracing.self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


@pytest.mark.parametrize(
    "n, rank, percentile",
    [(100, 90, 90.0), (25, 15, 60.0), (20, 10, 50.0)],
)
def test_tail_has_ten_samples_beyond(n, rank, percentile):
    samples = list(range(n, 0, -1))  # unsorted: n, n-1, ..., 1
    value, pct, beyond = run.tail(samples)
    assert value == rank
    assert pct == percentile
    assert beyond == 10
    assert sum(s > value for s in samples) == 10


def test_tail_falls_back_to_median_below_twenty_samples():
    assert run.tail([5.0, 1.0, 3.0, 2.0, 4.0]) == (3.0, 50.0, 2)


def _ladder_r2_levels():
    return [dict(level) for level in FROZEN["ladder-r2"]["levels"]]


def test_frozen_values_pass_their_own_check():
    outcome = workloads.check_levels(_ladder_r2_levels(), FROZEN["ladder-r2"]["levels"], 1e-6)
    assert outcome.ok


def test_perturbed_result_raises_error_rate():
    frozen = FROZEN["ladder-r2"]["levels"]
    calls = []

    def op():
        calls.append(None)
        levels = _ladder_r2_levels()
        if len(calls) == 2:  # the second result is off by 1e-9 relative at one point
            z = list(levels[1]["z_S"])
            z[3] *= 1 + 1e-9
            levels[1] = {**levels[1], "z_S": z}
        if len(calls) == 3:
            raise RuntimeError("solver failed")
        return levels

    records = run_ops(op, lambda levels: workloads.check_levels(levels, frozen, 1e-6), seconds=0, min_ops=3)
    assert [r["ok"] for r in records] == [True, False, False, True]
    assert [r["warmup"] for r in records] == [True, False, False, False]
    values, _ = run.end_to_end(records, [0.1], 50.0)
    assert sum(not r["ok"] for r in records) / len(records) == 0.5
    # the warm-up operation is checked but not timed
    timed = [r["wall"] for r in records[1:]]
    assert values["ops_per_s"] == pytest.approx(1 / sum(timed))
    assert values["wall_s_p50"] == sorted(timed)[1]


def test_extension_points_are_seeded_unsorted_and_hold_the_partition():
    pts, where = workloads.extension_points(7, 40, 2000)
    again, _ = workloads.extension_points(7, 40, 2000)
    assert np.array_equal(pts, again)
    assert not np.all(np.diff(pts) >= 0)
    assert np.array_equal(pts[where], np.arange(41) / 40)
    assert not np.array_equal(pts, workloads.extension_points(8, 40, 2000)[0])


def test_extension_check_uses_frozen_partition_values_and_envelope():
    frozen = FROZEN["extension-eval"]
    work = object.__new__(workloads.ExtensionEval)
    work.problem = workloads.urysohn.get_problem(workloads.PROBLEM)
    work.points, work.partition = workloads.extension_points(3, work.n, 500)
    bins = workloads.coarse_bin(work.points, work.n)
    mid = (np.asarray(frozen["envelope_lo"]) + np.asarray(frozen["envelope_hi"])) / 2
    values = work.problem.exact(work.points) + mid[bins]
    values[work.partition] = frozen["partition_z_S"]
    assert work.check(values, frozen).ok

    off = np.setdiff1d(np.arange(values.size), work.partition)[0]
    bad = values.copy()
    bad[off] += 1e-3
    assert not work.check(bad, frozen).ok
    bad = values.copy()
    bad[work.partition[5]] *= 1 + 1e-10
    assert not work.check(bad, frozen).ok


def test_tracer_counts_match_closed_form_and_restore_the_modules():
    urysohn = workloads.urysohn
    problem = urysohn.get_problem(workloads.PROBLEM)
    grid = urysohn.build_grid(20, 1, urysohn.gauss_rule(2))
    originals = (urysohn.solve_nystrom, urysohn.nystrom.kernel_eval, urysohn.nystrom.np)
    tracer = tracing.Tracer()
    tracer.op = 0
    with tracer.installed():
        sol = urysohn.solve_nystrom(problem, grid)
        urysohn.apply_km(problem, sol.node_values, np.linspace(0, 1, 7))
    assert (urysohn.solve_nystrom, urysohn.nystrom.kernel_eval, urysohn.nystrom.np) == originals

    iters, nodes = sol.newton_iterations, grid.node_count
    value, du = tracing.closed_form_evals(tracer.spans)
    assert (value, du) == (iters * nodes**2 + 7 * nodes, (iters - 1) * nodes**2)
    metrics, findings = tracing.layer_metrics(tracer.spans, [0], [1.0], [])
    assert findings == []
    assert metrics["problems.kernel_eval.value.evals"] == value
    assert metrics["problems.kernel_eval.du.evals"] == du
    assert metrics["nystrom.linalg_solve.calls"] == iters - 1
    assert metrics["nystrom.newton_iters"] == iters
    kernels = [s for s in tracer.spans if s.name.startswith("problems.kernel_eval")]
    parents = {tracer.spans[s.parent].name for s in kernels}
    assert parents == {"nystrom.solve_nystrom", "nystrom.apply_km"}


def test_benchmark_json_lists_exactly_what_the_benchmark_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    # ladder-r2 and extension-eval are run by hand only (NOTES.md says why)
    declared = [w["name"] for w in spec["workloads"]]
    assert declared == [w for w in run.WORKLOADS if w in declared]
    assert list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)
    assert set(FROZEN) == set(run.WORKLOADS)
