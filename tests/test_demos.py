"""The quick demos run to completion with every warning turned into an error.

Each runs in its own interpreter, so a demo that imports a name the package
no longer exports (projection_basics.py takes ``minimal_rho`` from
``urysohn``) fails here.  All six run; the slowest, error_coefficient.py,
whose oracle solves its own dense resolvent equations on 1200 nodes, takes
about 1 s on a 2-vCPU Xeon.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "demo",
    [
        "error_coefficient.py",
        "galerkin_superconvergence.py",
        "nystrom_solve.py",
        "projection_basics.py",
        "quadrature_and_grids.py",
        "richardson_ladder.py",
    ],
)
def test_demo_runs_without_warnings(demo):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-W", "error", str(ROOT / "demos" / demo)],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
