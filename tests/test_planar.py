"""Two-dimensional digit systems exercised end to end."""
from fractions import Fraction

import numpy as np

from cantorframes import (
    DigitSystem,
    ball_mass,
    convolve,
    frame_bounds,
    FrequencySet,
    level_measure,
    mu_hat,
    packing_certificate_from_digits,
    tail_radius,
)
from cantorframes.fourier import _masks, _skeleton_sums
from cantorframes.measures import _common_numerators
from cantorframes.packing import CERTIFIED_PACKING

TWIN = DigitSystem(((2, 0), (0, 2)), ((0, 0), (1, 1)))
SCALED = DigitSystem(((4, 0), (0, 4)), ((0, 0), (1, 0), (0, 1), (1, 1)))


def fr(*args):
    return Fraction(*args)


def test_validation_and_tail():
    assert SCALED.inverse_norm_bound() == fr(1, 4)
    # max digit norm is sqrt(2); the certified bound inflates it slightly
    bound = SCALED.max_digit_norm_bound()
    assert bound**2 >= 2 and float(bound) < 1.4142136
    assert tail_radius(SCALED, 1) < fr(1, 8)


def test_level_measure_grid():
    m = level_measure(SCALED, 1)
    assert m.locations == (
        (fr(0), fr(0)),
        (fr(0), fr(1, 4)),
        (fr(1, 4), fr(0)),
        (fr(1, 4), fr(1, 4)),
    )
    assert ball_mass(m, (0, 0), fr(26, 100)) == fr(3, 4)


def test_convolution_dimension_agrees():
    a = level_measure(TWIN, 2)
    b = level_measure(TWIN, 1)
    c = convolve(a, b)
    assert c.dim == 2 and c.total == 1


def test_mask_and_transform():
    assert [a.tolist() for a in _masks(SCALED.digits, np.zeros((1, 2)))] == [[1.0], [0.0]]
    value = mu_hat(SCALED, (1.0, 0.5), 1e-8)
    assert abs(value.value) <= 1 + 1e-12
    deep = level_measure(SCALED, 6)
    # the one-group case of the factorization check's windowed sums, window None for every atom
    ((direct,),) = _skeleton_sums([(deep, None)], _common_numerators([(1.0, 0.5)]), deep.denominator)
    # the two truncations differ by the level-6 geometric tail, about 8e-4
    assert abs(direct - value.value) < 1e-3


def test_planar_packing_certificate():
    cert = packing_certificate_from_digits(
        ((16, 0), (0, 16)), [(0, 0), (1, 0)], [(0, 0), (0, 4)]
    )
    assert cert.status == CERTIFIED_PACKING


def test_planar_frame_bounds_full_lattice():
    m = level_measure(TWIN, 2)
    freqs = FrequencySet(
        dim=2, freqs=tuple((float(a), float(b)) for a in range(4) for b in range(4))
    )
    report = frame_bounds(m, freqs)
    assert report.rank == len(m)
    assert report.lower > 0
