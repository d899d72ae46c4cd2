"""Write the frozen solution values that the benchmark checks results against.

Run once, from the root of a checkout, when the benchmark is defined::

    python3 bench/freeze.py > bench/frozen.json

Re-running it on a changed solver would turn the correctness gate into a
comparison of the solver with itself.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "2")
sys.path.insert(0, str(Path.cwd() / "src"))

import numpy as np  # noqa: E402

import workloads  # noqa: E402

ENVELOPE_SAMPLES = 500  # per coarse subinterval
ENVELOPE_MARGIN = 0.01  # of the subinterval's largest |error|, on each side


def extension_envelope(work: workloads.ExtensionEval):
    n = work.n
    s = (np.arange(n * ENVELOPE_SAMPLES) + 0.5) / (n * ENVELOPE_SAMPLES)
    s = np.concatenate([s, np.arange(n + 1) / n])
    err = workloads.urysohn.iterated_eval(work.solution, s) - work.problem.exact(s)
    bins = workloads.coarse_bin(s, n)
    lo = np.array([err[bins == b].min() for b in range(n)])
    hi = np.array([err[bins == b].max() for b in range(n)])
    margin = ENVELOPE_MARGIN * np.maximum(np.abs(lo), np.abs(hi))
    return (lo - margin).tolist(), (hi + margin).tolist()


def main() -> None:
    ladder_r1 = workloads.LadderR1(0)
    ladder_r2 = workloads.LadderR2(0)
    nystrom = workloads.NystromDense(0)
    ext = workloads.ExtensionEval(0)
    lo, hi = extension_envelope(ext)
    partition = np.arange(ext.n + 1) / ext.n
    frozen = {
        "ladder-r1": {
            "levels": [
                {key: level[key] for key in ("n", "p", "m", "rho", "t", "z_S")}
                for level in json.loads(ladder_r1.op())["levels"]
            ]
        },
        "ladder-r2": {"levels": ladder_r2.levels(ladder_r2.op())},
        "nystrom-dense": {"node_values": nystrom.op().node_values.values.tolist()},
        "extension-eval": {
            "partition_z_S": workloads.urysohn.iterated_eval(ext.solution, partition).tolist(),
            "envelope_lo": lo,
            "envelope_hi": hi,
        },
    }
    json.dump(frozen, sys.stdout)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
