"""One benchmark process: set up a workload, then run its operation in a closed loop.

Started by ``run.py`` with the BLAS thread count pinned in the environment.
Prints one JSON line with the set-up time and, unless ``--setup-only``, the
wall time and check outcome of every operation, the warm-up one included.
Nothing but the standard library is imported before the set-up clock starts,
so ``setup_s`` includes loading numpy and OpenBLAS through ``import urysohn``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
MIN_OPS = 3
WARMUP_OPS = 1


def run_ops(op, check, seconds, trace_every_other=None, min_ops=MIN_OPS, warmup=WARMUP_OPS):
    """Run ``op`` ``warmup`` times, then until ``seconds`` have passed (at least ``min_ops`` times).

    ``check(result)`` returns a ``workloads.Outcome``; an operation that
    raises or fails its check counts as failed.  Warm-up operations are
    checked like the others and marked ``warmup`` so that they are left out
    of the timings.  With a tracer, timed operations 0, 2, 4, ... run traced
    and the others untraced.  Returns one dict per operation.
    """
    records = []

    def record(traced, is_warmup):
        index = len(records)
        wall = None
        t0 = time.perf_counter()
        try:
            if traced:
                trace_every_other.op = index
                with trace_every_other.installed():
                    result = op()
            else:
                result = op()
            wall = time.perf_counter() - t0
            ok, max_err, reason = check(result)
        except Exception as exc:  # a failed operation is a measured outcome
            if wall is None:
                wall = time.perf_counter() - t0
            ok, max_err, reason = False, None, f"{type(exc).__name__}: {exc}"
        records.append(
            {"wall": wall, "ok": ok, "max_err": max_err, "traced": traced, "warmup": is_warmup, "reason": reason}
        )

    for _ in range(warmup):
        record(False, True)
    start = time.perf_counter()
    while len(records) - warmup < min_ops or time.perf_counter() - start < seconds:
        record(trace_every_other is not None and (len(records) - warmup) % 2 == 0, False)
    return records


def blas_info() -> str:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", required=True, type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    frozen = json.loads((HERE / "frozen.json").read_text())[args.workload]
    src = (args.root / "src").resolve()
    sys.path.insert(0, str(src))

    t0 = time.perf_counter()
    import urysohn
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    setup_s = time.perf_counter() - t0

    if not Path(urysohn.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"urysohn was imported from {urysohn.__file__}, not from {src}")
    out = {"setup_s": setup_s}
    if not args.setup_only:
        tracer = None
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
        records = run_ops(workload.op, lambda r: workload.check(r, frozen), args.seconds, tracer)
        out.update(
            ops=records,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            numpy=workloads.np.__version__,
            blas=blas_info(),
            blas_threads=os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        )
        if tracer is not None:
            ops = [i for i, r in enumerate(records) if r["traced"]]
            walls = [records[i]["wall"] for i in ops]
            untraced = [r["wall"] for r in records if not (r["traced"] or r["warmup"])]
            out["layers"], out["findings"] = tracing.layer_metrics(tracer.spans, ops, walls, untraced)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
