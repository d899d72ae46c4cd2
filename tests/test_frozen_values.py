"""The solver against the values frozen in ``bench/frozen.json``.

Each benchmark workload checks its result against those values at 1e-12
relative; running the same checks here shows a drift in a test run rather
than first in a benchmark run.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

FROZEN = json.loads((BENCH / "frozen.json").read_text())


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_each_workload_result_matches_its_frozen_values(name):
    work = workloads.WORKLOADS[name](1)
    outcome = work.check(work.op(), FROZEN[name])
    assert outcome.ok, outcome.reason
