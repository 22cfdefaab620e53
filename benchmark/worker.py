"""Benchmark worker: imports ``cantorframes`` from ``<root>/src`` and runs one workload.

Started by ``run.py`` in a fresh interpreter whose environment already caps
the BLAS thread pools, since OpenBLAS reads that cap once, when numpy is
first imported. Prints ``ready`` once ``cantorframes`` is imported, then
(unless ``--probe``) one JSON line with the raw samples of every pass.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import hashlib
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path


def _import_package(root: Path):
    sys.path.insert(0, str(root / "src"))
    import cantorframes

    resolved = Path(cantorframes.__file__).resolve()
    if not resolved.is_relative_to((root / "src").resolve()):
        raise SystemExit(f"cantorframes resolved to {resolved}, outside {root / 'src'}")
    return cantorframes


def _source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _git_commit(root: Path):
    git = root / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + name):
            return line.split()[0]
    return None


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None if it cannot be asked."""
    with open("/proc/self/maps") as maps:
        libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower() and ".so" in line})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                return int(getattr(handle, symbol)())
    return None


def _cpu_model():
    with open("/proc/cpuinfo") as info:
        for line in info:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor() or None


def environment(root: Path, cantorframes) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cantorframes_path": str(Path(cantorframes.__file__).resolve().parent),
        "source_sha256": _source_digest(root),
        "git_commit": _git_commit(root),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
    }


def _run_pass(jobs, ctx, tracer):
    """Run every job once; return per-job timings and problems, plus the trace snapshot.

    The reference kernel is timed just before and just after every job
    (see ``reference.py``).
    """
    import reference

    records = []
    if tracer is not None:
        tracer.install()
    try:
        for job in jobs:
            gc.collect()  # start every job from the same collector state
            before = reference.kernel_s()
            start = time.perf_counter()
            try:
                value = job.run(ctx)
                error = None
            except Exception as exc:  # noqa: BLE001 - a failing job is counted, not fatal
                value, error = None, f"{type(exc).__name__}: {exc}"
            wall = time.perf_counter() - start
            after = reference.kernel_s()
            if error is None:
                try:
                    problems = job.check(ctx, value)
                except Exception as exc:  # noqa: BLE001 - an unreadable output fails its check
                    problems = [f"check raised {type(exc).__name__}: {exc}"]
            else:
                problems = [error]
            records.append({
                "job": job.name,
                "wall_s": wall,
                "ref_s": (before, after),
                "ref_norm_s": reference.normalize(wall, before, after),
                "problems": problems,
            })
    finally:
        if tracer is not None:
            tracer.remove()
    return {
        "traced": tracer is not None,
        "jobs": records,
        "trace": tracer.snapshot() if tracer is not None else None,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    root = Path(args.root).resolve()

    cantorframes = _import_package(root)
    print("ready", flush=True)
    if args.probe:
        return 0

    import jobs as jobs_module
    from spans import Tracer

    jobs = jobs_module.WORKLOADS[args.workload]
    out = Path(args.out)
    with contextlib.redirect_stdout(sys.stderr):
        ctx = jobs_module.Context(root, out, args.seed)
        # Warm-up: first BLAS/LAPACK calls and lazy imports, paid once per process.
        cantorframes.cli.main(["frame", "bounds", "--system", "4:0,1", "--level", "3", "--out", ctx.path("warmup.json")])
        passes = []
        start = time.perf_counter()
        while True:
            traced = bool(args.trace) and len(passes) % 2 == 1
            pass_start = time.perf_counter()
            passes.append(_run_pass(jobs, ctx, Tracer() if traced else None))
            now = time.perf_counter()
            enough = len(passes) >= (2 if args.trace else 1)
            if enough and (now - start) + (now - pass_start) > args.seconds:
                break
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    record = {"env": environment(root, cantorframes), "peak_rss_mb": peak_kb / 1024.0, "passes": passes}
    print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
