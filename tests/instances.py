"""Shared small frame instances (<= 64 atoms) used across the suite.

Every entry is (name, measure, frequency set); the eigen-oracle
cross-check runs over all of them.
"""
from fractions import Fraction

import numpy as np

from cantorframes import (
    AtomicMeasure,
    DigitSystem,
    FrequencySet,
    add,
    convolve,
    embed_axis,
    jp_spectrum,
    level_measure,
    translate,
)

FOUR = DigitSystem.one_dimensional(4, [0, 1])
EIGHT = DigitSystem.one_dimensional(8, [0, 1])
SIXTEEN_01 = DigitSystem.one_dimensional(16, [0, 1])
SIXTEEN_04 = DigitSystem.one_dimensional(16, [0, 4])

JP4 = [0, 2]
JP8 = [0, 4]
JP16 = [0, 8]


def _random_instance(seed: int, atoms: int, freqs: int):
    rng = np.random.default_rng(seed)
    locations = rng.choice(np.arange(4 * atoms), size=atoms, replace=False)
    weights = rng.integers(1, 9, size=atoms)
    measure = AtomicMeasure.from_atoms(
        1, [((Fraction(int(x), 64),), Fraction(int(w), 16)) for x, w in zip(locations, weights)]
    )
    freq_values = np.round(rng.uniform(-10.0, 10.0, size=freqs), 6)
    return measure, FrequencySet.from_scalars(sorted(set(freq_values.tolist())))


def _degeneracy_sum(level: int) -> AtomicMeasure:
    nu = level_measure(SIXTEEN_01, level)
    lam = level_measure(SIXTEEN_04, level)
    return add(convolve(nu, lam), translate(nu, 0))


def _planar_sum(level: int) -> AtomicMeasure:
    return add(
        embed_axis(level_measure(FOUR, level), 2, 0),
        embed_axis(level_measure(SIXTEEN_01, level), 2, 1),
    )


def rotation_pool_instance(level: int) -> tuple:
    """(base, pool): the planar sum of ``rotation_experiment`` and the whole product J4 x J16 of its jp spectra."""
    base = _planar_sum(level)
    pool = FrequencySet(
        dim=2,
        freqs=tuple(
            (a[0], b[0])
            for a in jp_spectrum(FOUR, JP4, level).freqs
            for b in jp_spectrum(SIXTEEN_01, JP16, level).freqs
        ),
    )
    return base, pool


def build_instances():
    instances = [
        ("jp4-onb-level3", level_measure(FOUR, 3), jp_spectrum(FOUR, JP4, 3)),
        ("jp4-onb-level5", level_measure(FOUR, 5), jp_spectrum(FOUR, JP4, 5)),
        ("jp16-onb-level3", level_measure(SIXTEEN_01, 3), jp_spectrum(SIXTEEN_01, JP16, 3)),
        ("jp8-onb-level3", level_measure(EIGHT, 3), jp_spectrum(EIGHT, JP8, 3)),
        (
            "lattice-pool-level2",
            level_measure(SIXTEEN_01, 2),
            FrequencySet.from_scalars(range(16)),
        ),
        ("degeneracy-sum-level2", _degeneracy_sum(2), jp_spectrum(FOUR, JP4, 4)),
        ("cross-bessel-level4", level_measure(FOUR, 4), jp_spectrum(EIGHT, JP8, 4)),
        (
            "uneven-weights",
            add(level_measure(FOUR, 3), translate(level_measure(FOUR, 2), Fraction(1, 3))),
            FrequencySet.from_scalars(range(24)),
        ),
        (
            "planar-sum-level2",
            _planar_sum(2),
            FrequencySet(
                dim=2,
                freqs=tuple(
                    (a[0], b[0])
                    for a in jp_spectrum(FOUR, JP4, 2).freqs
                    for b in jp_spectrum(SIXTEEN_01, JP16, 2).freqs
                ),
            ),
        ),
    ]
    for seed in (11, 23):
        measure, freq_set = _random_instance(seed, atoms=20, freqs=40)
        instances.append((f"random-{seed}", measure, freq_set))
    return instances
