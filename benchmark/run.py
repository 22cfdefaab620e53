#!/usr/bin/env python3
"""Benchmark entry point for ``cantorframes``.

    python3 benchmark/run.py --workload dense-frame --seed 1 --seconds 35 --trace 0

Run from the root of a checkout. Starts a worker interpreter with the BLAS
thread pools capped (see ``worker.py``), times interpreter start plus
``import cantorframes`` over several fresh interpreters, and prints the
environment record and then, as the last line, one JSON object with the
end-to-end metrics (``--trace 0``) or the per-layer metrics (``--trace 1``)
named in ``BENCHMARK.json``. Exits non-zero without a result when the
checkout lacks the package, or when the worker fails.

Each job time and each set-up sample is normalized by a reference timed
beside it (see ``reference.py``). ``wall_ref_s`` sums the jobs' median
normalized times, and ``setup_s`` is the median normalized set-up sample;
the per-layer ``wall_s`` and ``setup_raw_s`` are their raw counterparts.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 12
PROBE_TIMEOUT_S = 60
# A worker stops starting passes at --seconds; this bounds the last pass.
WORKER_GRACE_S = 120


def _fail(message: str) -> int:
    print(f"benchmark: {message}", file=sys.stderr)
    return 2


def _worker_env() -> dict:
    env = dict(os.environ)
    env.update({var: BLAS_THREADS for var in THREAD_VARS})
    return env


def _start(command: list, env: dict):
    """Start ``command``; return it and the seconds until it printed ``ready``."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        command,
        stdout=subprocess.PIPE,
        env=env,
        text=True,
    )
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - start
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"{command[1:]} did not start (exit {proc.returncode})")
    return proc, elapsed


def _worker(args: list) -> list:
    return [sys.executable, str(WORKER), "--root", str(ROOT), *args]


def _probe(command: list, env: dict) -> float:
    proc, elapsed = _start(command, env)
    try:
        proc.communicate(timeout=PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"{command[1:]} exited {proc.returncode}")
    return elapsed


def _setup_samples(env: dict) -> list:
    """Set-up samples, each timed between two runs of the reference start command."""
    import reference

    samples = []
    before = _probe(reference.START_COMMAND, env)
    for _ in range(SETUP_PROBES):
        raw = _probe(_worker(["--probe"]), env)
        after = _probe(reference.START_COMMAND, env)
        samples.append({
            "raw_s": raw,
            "ref_s": (before, after),
            "ref_norm_s": reference.normalize(raw, before, after, reference.START_S),
        })
        before = after
    return samples


def _job_times(passes, key: str = "ref_norm_s") -> dict:
    """Each job's median over ``passes`` of its normalized (or, with ``key="wall_s"``, raw) time."""
    times = {}
    for p in passes:
        for j in p["jobs"]:
            times.setdefault(j["job"], []).append(j[key])
    return {job: statistics.median(v) for job, v in times.items()}


def _end_to_end(record: dict, setup: list) -> dict:
    passes = record["passes"]
    return {
        "setup_s": statistics.median(s["ref_norm_s"] for s in setup),
        "wall_ref_s": sum(_job_times(passes).values()),
        "peak_rss_mb": record["peak_rss_mb"],
        "ok_ratio": 1.0 - _failed(passes) / _attempted(passes),
    }


def _per_layer(record: dict, setup: list) -> dict:
    """Per-layer values: trace medians over traced passes, job times over untraced ones.

    Metrics of layers or jobs this workload never reached are absent and read 0.
    """
    traced = [p for p in record["passes"] if p["traced"]]
    plain = [p for p in record["passes"] if not p["traced"]]
    values = {}
    for name in {key for p in traced for key in p["trace"]}:
        # median_low keeps exact counts whole when there are two traced passes
        values[name] = statistics.median_low([p["trace"].get(name, 0) for p in traced])
    for job, seconds in _job_times(plain).items():
        values[f"{job}_s"] = seconds
    values["wall_s"] = sum(_job_times(plain, key="wall_s").values())
    values["reference_kernel_s"] = statistics.median(t for p in plain for j in p["jobs"] for t in j["ref_s"])
    values["setup_raw_s"] = statistics.median(s["raw_s"] for s in setup)
    values["reference_start_s"] = statistics.median(t for s in setup for t in s["ref_s"])
    values["trace.overhead_s"] = sum(_job_times(traced).values()) - sum(_job_times(plain).values())
    return values


def _attempted(passes) -> int:
    return sum(len(p["jobs"]) for p in passes)


def _failed(passes) -> int:
    return sum(1 for p in passes for j in p["jobs"] if j["problems"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    for needed in (spec_path, ROOT / "src" / "cantorframes" / "__init__.py", ROOT / "scripts", ROOT / "results"):
        if not needed.exists():
            return _fail(f"{needed.relative_to(ROOT)} is missing; run from a cantorframes checkout")
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        return _fail(f"unknown workload {args.workload!r}")

    env = _worker_env()
    scratch = ROOT / ".benchmark-out"
    scratch.mkdir(exist_ok=True)
    out = Path(tempfile.mkdtemp(dir=scratch))
    try:
        setup = _setup_samples(env)
        proc, _ = _start(
            _worker(["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
                     "--trace", str(args.trace), "--out", str(out)]),
            env,
        )
        try:
            stdout, _ = proc.communicate(timeout=args.seconds + WORKER_GRACE_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0:
            return _fail(f"worker exited {proc.returncode}")
        record = json.loads(stdout.strip().splitlines()[-1])
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        return _fail(str(exc))
    finally:
        shutil.rmtree(out, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by a concurrent run
            scratch.rmdir()

    if args.trace:
        values = _per_layer(record, setup)
        wanted = spec["per_layer"]
    else:
        values = _end_to_end(record, setup)
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in wanted}

    passes = record["passes"]
    for p in passes:
        for j in p["jobs"]:
            for problem in j["problems"]:
                print(f"benchmark: {j['job']}: {problem}", file=sys.stderr)
    print(json.dumps({"env": record["env"], "setup_samples_s": setup, "passes": len(passes)}))
    print(json.dumps({
        "correct": _failed(passes) == 0,
        "attempted": _attempted(passes),
        "failed": _failed(passes),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
