"""Host-speed references: a fixed kernel timed beside every job, and a
fixed interpreter start timed beside every set-up sample.

The benchmark's host is a shared VM whose speed swings by up to 2x, in
phases lasting from a second to several minutes (see ``NOTES.md``). A raw
time, or even a job's fastest time over a run, follows those phases. So
every job time is divided by the time of this kernel, taken on the same
core just before and just after the job, and multiplied by
``REFERENCE_S``: the result reads in seconds on a host where the kernel
takes ``REFERENCE_S``. The kernel uses no ``cantorframes`` code, so a
change to the package moves a normalized time exactly as it moves the raw
one.

The kernel mixes the kinds of work ``cantorframes`` does: ``Fraction``
arithmetic, dict updates, many tiny symmetric eigensolves and one of
moderate size. Each part is timed as the fastest of ``REPEATS`` runs.

Set-up samples (interpreter start plus ``import cantorframes``) follow the
host differently from the kernel, but closely follow ``START_COMMAND``, an
interpreter start plus ``import numpy``: each set-up sample is divided by
the time of that command just before and just after it, and multiplied by
``START_S``.
"""
from __future__ import annotations

import sys
import time
from fractions import Fraction

import numpy as np
# Bound at import, before a Tracer replaces the numpy.linalg attributes,
# so a traced pass does not count the kernel's eigensolves.
from numpy.linalg import eigh, eigvalsh

REFERENCE_S = 0.004  # about the kernel's time on the 2-core VM the bounds were set on, in its fast phase
REPEATS = 3

START_COMMAND = [sys.executable, "-c", "import numpy; print('ready', flush=True)"]
START_S = 0.15  # about its time on that VM in its fast phase

_rng = np.random.default_rng(0)
_TINY = [m + m.T for m in _rng.standard_normal((40, 8, 8))]
_MODERATE = (lambda a: a @ a.T)(_rng.standard_normal((96, 96)))


def _fractions():
    total = Fraction(0)
    for i in range(1, 400):
        total += Fraction(i % 7 + 1, i)


def _dicts():
    counts = {}
    for i in range(6000):
        counts[i % 97] = counts.get(i % 97, 0) + i


def _tiny_eigensolves():
    for m in _TINY:
        eigvalsh(m)


def _moderate_eigensolve():
    eigh(_MODERATE)


PARTS = (_fractions, _dicts, _tiny_eigensolves, _moderate_eigensolve)


def kernel_s() -> float:
    """Seconds the kernel takes now: the sum over its parts of each part's fastest run."""
    total = 0.0
    for part in PARTS:
        best = float("inf")
        for _ in range(REPEATS):
            start = time.perf_counter()
            part()
            best = min(best, time.perf_counter() - start)
        total += best
    return total


def normalize(seconds: float, before_s: float, after_s: float, reference_s: float = REFERENCE_S) -> float:
    """``seconds`` measured between two reference timings, in reference seconds."""
    return seconds * reference_s * 2.0 / (before_s + after_s)
