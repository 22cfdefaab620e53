"""Spans and exact work counts recorded from outside ``cantorframes``.

A ``Tracer`` replaces every binding of each public function of the
package's modules (and ``numpy.linalg.eigh``/``eigvalsh``) with a timing
wrapper while it is installed, and restores the originals when removed.
``from .frames import frame_bounds`` copies the function object into the
importing module at import time, so a wrapper placed only on the defining
module would miss calls made through ``cantorframes.experiments`` or the
package namespace; ``install`` therefore replaces the object under every
name in every loaded ``cantorframes`` module.

Self time of a span is its duration minus the time of the wrapped spans it
called. Work counts are derived at the same boundary from arguments and
results, so they repeat exactly from run to run.
"""
from __future__ import annotations

import importlib
import inspect
import os
import sys
import time
from collections import Counter

LAYERS = ("measures", "packing", "fourier", "frames", "experiments", "serialize", "cli")

# Public helpers called once per atom, coordinate or mask factor. A span
# around each call would cost more than the work; their time stays in the
# calling span's self time.
PER_ELEMENT_HELPERS = {
    "measures.as_point",
    "measures.atom_budget",
    "fourier.mask_eval",
    "serialize.fraction_to_str",
    "serialize.str_to_fraction",
    "serialize.point_to_strs",
    "serialize.strs_to_point",
    "serialize.format_cell",
}

EIGEN_FUNCTIONS = ("eigh", "eigvalsh")


class _Frame:
    __slots__ = ("name", "child_ns", "extra")

    def __init__(self, name):
        self.name = name
        self.child_ns = 0
        self.extra = None


class Tracer:
    """Span stack, per-name call counts and self times, and work counters."""

    def __init__(self):
        self.stack: list[_Frame] = []
        self.stats: dict = {}  # name -> [calls, self time in ns]
        self.counts: Counter = Counter()
        self._originals: list = []
        self._in_hook = False  # calls a counter makes are not traced

    # -- installation -------------------------------------------------
    def install(self) -> None:
        import numpy

        layers = {layer: importlib.import_module(f"cantorframes.{layer}") for layer in LAYERS}
        modules = [m for n, m in sorted(sys.modules.items()) if n == "cantorframes" or n.startswith("cantorframes.")]
        for layer, module in layers.items():
            for attr, fn in sorted(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                if name in PER_ELEMENT_HELPERS:
                    continue
                wrapper = self._wrap(name, fn)
                for mod in modules:
                    for binding, value in list(vars(mod).items()):
                        if value is fn:
                            self._originals.append((mod, binding, fn))
                            setattr(mod, binding, wrapper)
        for attr in EIGEN_FUNCTIONS:
            fn = getattr(numpy.linalg, attr)
            self._originals.append((numpy.linalg, attr, fn))
            setattr(numpy.linalg, attr, self._wrap(f"linalg.{attr}", fn))

    def remove(self) -> None:
        for mod, binding, fn in reversed(self._originals):
            setattr(mod, binding, fn)
        self._originals.clear()

    def _wrap(self, name, fn):
        hook = _HOOKS.get(name)
        signature = inspect.signature(fn) if hook in _NEEDS_ARGS else None
        stat = self.stats.setdefault(name, [0, 0])
        stack = self.stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if self._in_hook:
                return fn(*args, **kwargs)
            frame = _Frame(name)
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                stat[0] += 1
                stat[1] += duration - frame.child_ns
                if stack:
                    stack[-1].child_ns += duration
            if hook is not None:
                hook_start = clock()
                arguments = None
                if signature is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    arguments = bound.arguments
                self._in_hook = True
                try:
                    hook(self, arguments, result, frame)
                finally:
                    self._in_hook = False
                if stack:
                    stack[-1].child_ns += clock() - hook_start
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    # -- report ---------------------------------------------------------
    def snapshot(self) -> dict:
        """Flat name -> number map of every recorded call count, self time and counter."""
        out = {}
        for name, (calls, self_ns) in self.stats.items():
            if calls:
                out[f"{name}.calls"] = calls
                out[f"{name}.self_s"] = self_ns / 1e9
        out.update(self.counts)
        words = self.counts.get("measures.words_enumerated", 0)
        out["measures.merge_ratio"] = self.counts.get("measures.atoms_kept", 0) / words if words else 0.0
        scanned = self.counts.get("packing.witness_translates_scanned", 0)
        out["packing.witness_hit_ratio"] = self.counts.get("packing.witness_hits", 0) / scanned if scanned else 0.0
        return out


# -- work counters ----------------------------------------------------------
# Each hook gets the bound arguments and the result of one call, after its
# span has closed; the time a hook takes is kept out of every span.


def _level_measure(tracer, a, result, frame):
    tracer.counts["measures.words_enumerated"] += a["ds"].branch ** a["n"]
    tracer.counts["measures.atoms_kept"] += len(result)


def _convolve(tracer, a, result, frame):
    tracer.counts["measures.words_enumerated"] += len(a["a"]) * len(a["b"])
    tracer.counts["measures.atoms_kept"] += len(result)


def _difference_set(tracer, a, result, frame):
    parent = tracer.stack[-1] if tracer.stack else None
    if parent is not None and parent.name == "packing.packing_certificate_from_clouds":
        parent.extra = (parent.extra or []) + [len(result)]


def _certificate_from_clouds(tracer, a, result, frame):
    # The gap scan runs over all pairs of the two difference sets; it is
    # reached exactly when the evidence records the gap.
    if "gap_squared" in result.evidence and frame.extra and len(frame.extra) == 2:
        tracer.counts["packing.pair_scan_pairs"] += frame.extra[0] * frame.extra[1]


def _ssc_certificate(tracer, a, result, frame):
    # Each visited depth d scans all cross-cylinder pairs of the level-(d+1)
    # first-digit cylinders; the certificate is issued at the last depth.
    if result.status != "certified-ssc":
        return
    from cantorframes.measures import cylinder_points

    ds, d = a["ds"], a["depth"]
    while d <= result.depth_used:
        sizes = [len(cylinder_points(ds, d + 1, [b], a["budget"])) for b in ds.digits]
        tracer.counts["packing.pair_scan_pairs"] += sum(
            sizes[i] * sizes[j] for i in range(len(sizes)) for j in range(i + 1, len(sizes))
        )
        d *= 2


def _singularity_witness(tracer, a, result, frame):
    from cantorframes.measures import level_measure

    lam = level_measure(a["lam_ds"], a["level"], a["budget"])
    tracer.counts["packing.witness_translates_scanned"] += lam.locations.index(result.shift_point) + 1
    tracer.counts["packing.witness_hits"] += 1


def _mu_hat(tracer, a, result, frame):
    tracer.counts["fourier.mask_factors"] += result.factors


def _exact_phases(tracer, a, result, frame):
    tracer.counts["frames.phase_entries"] += len(a["freq_set"]) * len(a["m"])


def _frame_bounds_from_arrays(tracer, a, result, frame):
    counts = tracer.counts
    counts["frames.gram_dim_max"] = max(counts["frames.gram_dim_max"], result.atom_count)


def _frame_bounds(tracer, a, result, frame):
    _exact_phases(tracer, a, result, frame)
    _frame_bounds_from_arrays(tracer, a, result, frame)


def _greedy_frame_search(tracer, a, result, frame):
    pool, target = len(a["pool"]), a["target_count"]
    tracer.counts["frames.greedy_candidates"] += sum(pool - step for step in range(target))


def _eigvalsh(tracer, a, result, frame):
    if tracer.stack and tracer.stack[-1].name == "frames.greedy_frame_search":
        tracer.counts["frames.greedy_eigvalsh_calls"] += 1


def _write_json(tracer, a, result, frame):
    tracer.counts["serialize.bytes_written"] += os.path.getsize(a["path"])


def _csv_text(tracer, a, result, frame):
    tracer.counts["serialize.bytes_written"] += len(result.encode())


def _cli_main(tracer, a, result, frame):
    tracer.counts["cli.exit_nonzero"] += int(result != 0)


_HOOKS = {
    "measures.level_measure": _level_measure,
    "measures.convolve": _convolve,
    "packing.difference_set": _difference_set,
    "packing.packing_certificate_from_clouds": _certificate_from_clouds,
    "packing.ssc_certificate": _ssc_certificate,
    "packing.singularity_witness": _singularity_witness,
    "fourier.mu_hat": _mu_hat,
    "frames.frame_bounds": _frame_bounds,
    "frames.bessel_quotient": _exact_phases,
    "frames.frame_bounds_from_arrays": _frame_bounds_from_arrays,
    "frames.greedy_frame_search": _greedy_frame_search,
    "linalg.eigvalsh": _eigvalsh,
    "serialize.write_json": _write_json,
    "serialize.csv_text": _csv_text,
    "cli.main": _cli_main,
}

# Hooks that read the call's arguments; binding them costs more than the
# wrapper itself, so the others get None.
_NEEDS_ARGS = {
    _level_measure,
    _convolve,
    _ssc_certificate,
    _singularity_witness,
    _exact_phases,
    _frame_bounds,
    _greedy_frame_search,
    _write_json,
}

# Exact counts that must repeat between two traced runs of one workload.
EXACT_COUNTS = (
    "linalg.eigvalsh.calls",
    "frames.phase_entries",
    "frames.greedy_candidates",
    "measures.words_enumerated",
    "packing.pair_scan_pairs",
    "fourier.windowed_transform.calls",
)
