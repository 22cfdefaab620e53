"""The integer phase kernel against the Fraction oracle, on both of its paths.

int64 is exact only inside two guards: dim * max|F| * max|A| < 2^62 and
p*q <= 2^53. The property below draws operands just inside and just past
each guard, and requires the path chosen and bit-identical phases. Every
exponential sum over atoms must take its phases from this one kernel.
"""
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cantorframes as cf
from cantorframes import AtomicMeasure, FrequencySet, fourier, frames, translate
from instances import build_instances
from oracles import oracle_phase_matrix

INSTANCES = build_instances()
PRODUCT_GUARD = 2**62
DENOMINATOR_GUARD = 2**53


def _path(measure, freq_set) -> str:
    return frames._phase_path(measure.dim, *frames._phase_operands(freq_set.freqs, frames._exact_atoms(measure)[0]))


def _assert_matches_oracle(measure, freq_set):
    phases = frames._exact_phase_matrix(measure.dim, freq_set.freqs, frames._exact_atoms(measure)[0])
    assert phases.dtype == np.float64
    assert np.array_equal(phases, oracle_phase_matrix(measure, freq_set))


@pytest.mark.parametrize("name, measure, freq_set", INSTANCES, ids=[i[0] for i in INSTANCES])
def test_instances_bit_identical(name, measure, freq_set):
    _assert_matches_oracle(measure, freq_set)


@pytest.mark.parametrize("name, measure, freq_set", INSTANCES, ids=[i[0] for i in INSTANCES])
def test_float_offset_takes_object_path(name, measure, freq_set):
    # 0.1 has a 2^55 binary denominator, so p*q is past 2^53 on every instance.
    moved = translate(measure, (0.1,) * measure.dim)
    assert _path(moved, freq_set) == "object"
    _assert_matches_oracle(moved, freq_set)


@st.composite
def _guard_case(draw, guard: str, past: bool):
    """A measure and frequency set whose operands sit 0-2 steps inside or 1-3 past ``guard``.

    One frequency f0/p and one atom a0/q carry the largest numerators; a
    frequency 1/p and an atom 1/q pin the common denominators.
    """
    dim = draw(st.sampled_from([1, 2]))
    step = draw(st.integers(1, 3) if past else st.integers(-2, 0))
    if guard == "product":
        exponent = draw(st.integers(0, 10))
        q = draw(st.integers(1, 1000))
        f0 = draw(st.integers(1, 2**53))
        a0 = (PRODUCT_GUARD - 1) // (dim * f0) + step
    else:
        exponent = draw(st.integers(0, 30))
        q = (DENOMINATOR_GUARD >> exponent) + step
        f0 = draw(st.integers(1, 1000))
        a0 = draw(st.integers(1, 1000))
    pad = (0,) * (dim - 1)
    coords = lambda bound: st.tuples(*[st.integers(-bound, bound)] * dim)
    freq_nums = {(f0, *pad), (1,) * dim} | set(draw(st.lists(coords(f0), max_size=6)))
    atom_nums = {(a0, *pad), (1,) * dim} | set(draw(st.lists(coords(a0), max_size=6)))
    freq_set = FrequencySet(
        dim=dim, freqs=tuple(tuple(k / 2**exponent for k in f) for f in sorted(freq_nums))
    )
    measure = AtomicMeasure.from_atoms(
        dim, [(tuple(Fraction(a, q) for a in pt), Fraction(1, len(atom_nums))) for pt in atom_nums]
    )
    return measure, freq_set


@pytest.mark.parametrize("past", [False, True], ids=["inside", "past"])
@pytest.mark.parametrize("guard", ["product", "denominator"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_guards_choose_path_and_stay_bit_identical(guard, past, data):
    measure, freq_set = data.draw(_guard_case(guard, past))
    assert _path(measure, freq_set) == ("object" if past else "int64")
    _assert_matches_oracle(measure, freq_set)


FOUR = cf.DigitSystem.one_dimensional(4, [0, 1])
SIXTEEN_01 = cf.DigitSystem.one_dimensional(16, [0, 1])
SIXTEEN_04 = cf.DigitSystem.one_dimensional(16, [0, 4])


def _factorization(grid_size: int):
    nu, lam = cf.level_measure(SIXTEEN_01, 2), cf.level_measure(SIXTEEN_04, 2)
    return cf.factorization_check(nu, lam, nu.locations, lam.locations, np.linspace(-5, 5, grid_size))


MEASURE = cf.level_measure(FOUR, 2)
FREQS = FrequencySet.from_scalars([0, 1, 2, 3])
KERNEL_CALLERS = {
    "frame_bounds": lambda: cf.frame_bounds(MEASURE, FREQS),
    "synthesis_matrix": lambda: cf.synthesis_matrix(*cf.as_float_arrays(MEASURE), FREQS.as_array()),
    "frame_bounds_from_arrays": lambda: cf.frame_bounds_from_arrays(*cf.as_float_arrays(MEASURE), FREQS),
    "bessel_quotient": lambda: cf.bessel_quotient(MEASURE, FREQS, [1, 0, 0, 0]),
    "greedy_frame_search": lambda: cf.greedy_frame_search(MEASURE, FREQS, 4),
    "hadamard_triple_check": lambda: cf.hadamard_triple_check(((4,),), [(0,), (1,)], [0, 2]),
    "windowed_transform": lambda: cf.windowed_transform(MEASURE, None, 2.5),
    "factorization_check": lambda: _factorization(7),
}


def _count_kernel_calls(monkeypatch, call) -> int:
    kernel, calls = frames._exact_phase_matrix, []

    def counted(*args):
        calls.append(1)
        return kernel(*args)

    for module in (frames, fourier):
        monkeypatch.setattr(module, "_exact_phase_matrix", counted)
    call()
    return len(calls)


@pytest.mark.parametrize("caller", KERNEL_CALLERS)
def test_every_sum_over_atoms_reaches_the_kernel(monkeypatch, caller):
    assert _count_kernel_calls(monkeypatch, KERNEL_CALLERS[caller]) >= 1


@pytest.mark.parametrize("grid_size", [1, 40])
def test_factorization_check_makes_one_kernel_call_per_measure(monkeypatch, grid_size):
    assert _count_kernel_calls(monkeypatch, lambda: _factorization(grid_size)) == 3
