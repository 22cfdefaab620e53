#!/usr/bin/env python3
"""Self-test of the benchmark's tracing.

    python3 benchmark/selftest.py

For each workload, runs two traced passes and checks that:

- every job passes its output check;
- the exact counts in ``spans.EXACT_COUNTS`` repeat between the passes;
- ``frames.greedy_candidates`` equals the ``eigvalsh`` calls made directly
  inside ``greedy_frame_search``, so the wrapper sees the search's calls;
- every per-layer metric named in ``BENCHMARK.json`` is recorded non-zero
  on at least one workload.

Exits 0 when every check passes, 1 otherwise.
"""
from __future__ import annotations

import contextlib
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import BLAS_THREADS, THREAD_VARS  # noqa: E402

# Before numpy is first imported, as in the benchmark's worker.
os.environ.update({var: BLAS_THREADS for var in THREAD_VARS})

# Zero on a correct run of every workload.
ZERO_BY_DESIGN = {"cli.exit_nonzero", "trace.overhead_s"}
# Raw times run.py takes from the samples, not from the tracer.
RUNNER_TIMES = {"wall_s", "reference_kernel_s", "setup_raw_s", "reference_start_s"}


def main() -> int:
    from worker import _import_package, _run_pass

    _import_package(ROOT)
    import jobs
    from spans import EXACT_COUNTS, Tracer

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []
    seen_nonzero = RUNNER_TIMES | {f"{job.name}_s" for workload_jobs in jobs.WORKLOADS.values() for job in workload_jobs}
    scratch = ROOT / ".benchmark-out"
    scratch.mkdir(exist_ok=True)
    out = Path(tempfile.mkdtemp(dir=scratch))
    try:
        for workload, workload_jobs in jobs.WORKLOADS.items():
            with contextlib.redirect_stdout(sys.stderr):
                ctx = jobs.Context(ROOT, out, 0)
                first, second = (_run_pass(workload_jobs, ctx, Tracer()) for _ in range(2))
            for p in (first, second):
                failures += [f"{workload}: {j['job']}: {problem}" for j in p["jobs"] for problem in j["problems"]]
            a, b = first["trace"], second["trace"]
            for name in EXACT_COUNTS:
                if a.get(name, 0) != b.get(name, 0):
                    failures.append(f"{workload}: {name} differs between passes: {a.get(name, 0)} vs {b.get(name, 0)}")
            candidates, inner = a.get("frames.greedy_candidates", 0), a.get("frames.greedy_eigvalsh_calls", 0)
            if candidates != inner:
                failures.append(f"{workload}: greedy_candidates {candidates} != eigvalsh calls in greedy search {inner}")
            seen_nonzero |= {name for name, value in a.items() if value}
            print(f"{workload}: " + ", ".join(f"{n}={a.get(n, 0)}" for n in EXACT_COUNTS), flush=True)
    finally:
        shutil.rmtree(out, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by a concurrent run
            scratch.rmdir()
    for metric in spec["per_layer"]:
        if metric["name"] not in seen_nonzero | ZERO_BY_DESIGN:
            failures.append(f"per-layer metric {metric['name']} is zero on every workload")
    for failure in failures:
        print(f"FAIL {failure}")
    print("PASS" if not failures else f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
