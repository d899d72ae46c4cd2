"""Benchmark of the urysohn solvers on the builtin ``rpk-aks`` problem.

Run from the root of a checkout::

    python3 bench/run.py --workload ladder-r1 --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 10 --trace 0

Each workload is a closed loop with one client in one process: the next
operation starts when the previous one returns, after one untimed warm-up
operation.  The operation process, and the extra processes that time set-up
again, import ``urysohn`` from ``src/`` of the checkout with the BLAS thread
count pinned.  With ``--trace 0`` the
end-to-end metrics are printed; with ``--trace 1`` the per-layer metrics of a
traced run.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  ``NOTES.md``
says why each workload exists and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import PER_LAYER

HERE = Path(__file__).resolve().parent
WORKLOADS = ("ladder-r1", "ladder-r2", "nystrom-dense", "extension-eval")
# (name, unit) of the end-to-end metrics, in the order they are printed.
END_TO_END = (
    ("wall_s_p50", "s"),
    ("wall_s_tail", "s"),
    ("ops_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("max_err", "1"),
)
SETUP_SAMPLES = 9  # set-up is timed in this many fresh processes; the median is reported
# One BLAS thread: a second one only spins between calls on the ladders, and
# the spinning makes every operation depend on the host's scheduling of both CPUs.
BLAS_THREADS = 1
TAIL_BEYOND = 10
DEADLINE_S = 175.0  # one invocation must end within 180 s


def tail(samples):
    """The timing at the highest percentile with at least ten samples beyond it.

    Returns (value, percentile, samples beyond).  With fewer than twenty
    samples no percentile above the median has ten beyond it, and the median
    is returned with the count that lies beyond it.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n < 2 * TAIL_BEYOND:
        return statistics.median(ordered), 50.0, n // 2
    rank = n - TAIL_BEYOND  # 1-based
    return ordered[rank - 1], 100.0 * rank / n, TAIL_BEYOND


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def blas_threads() -> int:
    return min(BLAS_THREADS, len(os.sched_getaffinity(0)))


class BenchError(Exception):
    pass


def spawn(root: Path, args: list[str], deadline: float) -> dict:
    """Run one worker process to completion and return its JSON report."""
    threads = str(blas_threads())
    env = dict(os.environ)
    env.update(
        OPENBLAS_NUM_THREADS=threads,
        OMP_NUM_THREADS=threads,
        MKL_NUM_THREADS=threads,
    )
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--root", str(root), *args],
            cwd=root,
            env=env,
            capture_output=True,
            text=True,
            timeout=remaining,
        )
    except subprocess.TimeoutExpired:
        raise BenchError("worker did not finish within the time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(ops: list[dict], setup: list[float], peak_rss_mb: float) -> tuple[dict, list[str]]:
    timed = [op for op in ops if not op["warmup"]]
    walls = [op["wall"] for op in timed]
    done = [op for op in timed if op["ok"]]
    tail_s, pct, beyond = tail(walls)
    errs = [op["max_err"] for op in ops if op["max_err"] is not None]
    values = {
        "wall_s_p50": statistics.median(walls),
        "wall_s_tail": tail_s,
        "ops_per_s": len(done) / sum(walls),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb,
        "max_err": max(errs) if errs else float("inf"),
    }
    notes = {
        "wall_s_p50": f"median of {len(walls)} ops",
        "wall_s_tail": f"p{pct:.0f} of {len(walls)} ops, {beyond} beyond"
        + ("" if beyond >= TAIL_BEYOND else " (fewer than ten: median)"),
        "ops_per_s": f"{len(done)} completed ops",
        "setup_s": f"median of {len(setup)} set-ups",
    }
    lines = [f"  {name:<16}{values[name]:<14.6g}{unit:<6}{notes.get(name, '')}" for name, unit in END_TO_END]
    return values, lines


def run_workload(root: Path, name: str, seed: int, seconds: int, trace: int) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", name, "--seed", str(seed)]
    setup = []
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            setup.append(spawn(root, [*common, "--setup-only"], deadline)["setup_s"])
    report = spawn(root, [*common, "--seconds", str(seconds), "--trace", str(trace)], deadline)
    setup.append(report["setup_s"])
    ops = report["ops"]
    failed = sum(not op["ok"] for op in ops)

    machine = {
        "cpu": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": report["blas_threads"],
        "numpy": report["numpy"],
        "blas": report["blas"],
        "python": platform.python_version(),
    }
    print(f"workload {name}  seed {seed}  seconds {seconds}  trace {trace}")
    print("machine " + json.dumps(machine))
    for op in ops:
        if not op["ok"]:
            print(f"  failed op: {op['reason']}")
    print(f"  {'error_rate':<16}{failed / len(ops):<14.6g}{'1':<6}{failed} failed of {len(ops)} attempted")
    if trace:
        metrics = {name: {"value": report["layers"][name], "unit": unit} for name, unit in PER_LAYER}
        for name, unit in PER_LAYER:
            print(f"  {name:<46}{report['layers'][name]:<14.6g}{unit}")
        print("  count check: " + ("closed forms hold and counts repeat" if not report["findings"] else "MISMATCH"))
        for finding in report["findings"]:
            print("    " + finding)
    else:
        values, lines = end_to_end(ops, setup, report["peak_rss_mb"])
        print("\n".join(lines))
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return {"correct": failed == 0, "attempted": len(ops), "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    root = Path.cwd()
    if not (root / "src" / "urysohn" / "__init__.py").is_file():
        print(f"bench: no src/urysohn under {root}; run from the root of a checkout", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(root, name, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    if args.workload == "all":
        print(json.dumps(results))
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
