"""The integer phase kernel against the Fraction oracle, on each of its paths.

int64 is exact only inside two guards: dim * max|F| * max|A| < 2^62 and
p*q <= 2^53. Past them a power-of-two modulus p*q takes the int64 limb
path and every other modulus the Python-int object path. The properties
below draw operands just inside and just past each guard, and limb
operands at the edges of their rounding, and require the path chosen and
bit-identical phases. Every exponential sum over atoms must take its
phases from this one kernel.
"""
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import cantorframes as cf
from cantorframes import AtomicMeasure, FrequencySet, fourier, frames, translate
from instances import build_instances
from oracles import oracle_phase_matrix

INSTANCES = build_instances()
PRODUCT_GUARD = 2**62
DENOMINATOR_GUARD = 2**53


def _path(measure, freq_set) -> tuple:
    """The path the kernel takes on these operands, and their modulus p*q."""
    atom_nums, q = measure.numerators, measure.denominator
    p = freq_set.denominator
    return frames._phase_path(measure.dim, freq_set.numerators, atom_nums, p * q), p * q


def _wide_path(modulus: int) -> str:
    """The path past the int64 guards: limbs for a power of two, object otherwise."""
    return "limbs" if modulus & (modulus - 1) == 0 else "object"


def _assert_matches_oracle(measure, freq_set):
    exact_freqs = (freq_set.numerators, freq_set.denominator)
    phases = frames._exact_phase_matrix(measure.dim, exact_freqs, (measure.numerators, measure.denominator))
    assert phases.dtype == np.float64
    assert np.array_equal(phases, oracle_phase_matrix(measure, freq_set))


@pytest.mark.parametrize("name, measure, freq_set", INSTANCES, ids=[i[0] for i in INSTANCES])
def test_instances_bit_identical(name, measure, freq_set):
    _assert_matches_oracle(measure, freq_set)


@pytest.mark.parametrize("name, measure, freq_set", INSTANCES, ids=[i[0] for i in INSTANCES])
def test_float_offset_takes_object_path(name, measure, freq_set):
    # 0.1 has a 2^55 binary denominator, so p*q is past 2^53 on every instance:
    # limbs on the dyadic ones, object on "uneven-weights" (atoms over 3).
    moved = translate(measure, (0.1,) * measure.dim)
    path, modulus = _path(moved, freq_set)
    assert path == ("object" if name == "uneven-weights" else "limbs") == _wide_path(modulus)
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
    path, modulus = _path(measure, freq_set)
    assert path == (_wide_path(modulus) if past else "int64")
    _assert_matches_oracle(measure, freq_set)


@st.composite
def _limb_case(draw):
    """Operands past the int64 guards over a modulus 2^k, k within 1 of a multiple of 21.

    A frequency 1/2^kp and an atom -1/2^kq pin p = 2^kp and q = 2^kq, and
    their phase 1 - 2^-k rounds to 1.0 once k >= 54; against the atom
    1/2^kq the phases n/2^k are too small for the 63-bit head. Also zero
    rows and columns, negative coordinates, atoms whose phase against
    1/2^kp is an exact half-ulp tie, either side empty, and for small k a
    numerator of at least 2^62 that breaks the product guard.
    """
    dim = draw(st.sampled_from([1, 2]))
    k = draw(st.sampled_from([21 * j + e for j in range(1, 10) for e in (-1, 0, 1)]))
    empty = draw(st.sampled_from([None, "freqs", "atoms"]))
    kp = 0 if empty == "freqs" else draw(st.integers(0, min(k, 39)))
    kq = 0 if empty == "atoms" else k - kp
    pad = (0,) * (dim - 1)
    big = 3 << 62
    freq_nums = {(0,) * dim, (1, *pad)}
    freq_nums |= set(draw(st.lists(st.tuples(*[st.integers(-(2**53), 2**53)] * dim), max_size=5)))
    atom_nums = {(0,) * dim, (-1, *pad), (1, *pad)}
    atom_nums |= set(draw(st.lists(st.tuples(*[st.integers(-(2 ** (kq + 8)), 2 ** (kq + 8))] * dim), max_size=5)))
    if k >= 55:
        for shift in draw(st.lists(st.integers(0, k - 55), max_size=3)):
            significand = 2**52 + draw(st.integers(0, 2**52 - 1))
            atom_nums.add(((2 * significand + 1) << shift, *pad))
    if empty == "freqs":
        freq_nums, atom_nums = set(), atom_nums | {(big + 1, *pad)}
    elif empty == "atoms":
        freq_nums, atom_nums = freq_nums | {(big, *pad)}, set()
    elif k < 62:
        atom_nums.add((big + 1, *pad))
    try:
        freq_set = FrequencySet(
            dim=dim, freqs=tuple(tuple(x / 2**kp for x in f) for f in sorted(freq_nums))
        )
    except ValueError:  # two frequencies within the set's 1e-12 resolution
        assume(False)
    measure = AtomicMeasure.from_atoms(
        dim, [(tuple(Fraction(a, 2**kq) for a in pt), Fraction(1, len(atom_nums))) for pt in atom_nums]
    )
    return measure, freq_set


@settings(max_examples=150, deadline=None)
@given(case=_limb_case())
def test_limb_path_is_bit_identical(case):
    measure, freq_set = case
    assert _path(measure, freq_set)[0] == "limbs"
    _assert_matches_oracle(measure, freq_set)


def test_limb_rounding_edges():
    # 1 - 2^-84 rounds up to 1.0; (2^53 + 1/2) * 2^-60 and (2^53 + 3/2) * 2^-60
    # are ties that round to even, down and up.
    measure = AtomicMeasure.from_atoms(
        1, [((Fraction(a, 2**84),), Fraction(1, 3)) for a in (-1, (2**54 + 1) << 23, (2**54 + 3) << 23)]
    )
    phases = frames._exact_phase_matrix(1, ([(1,)], 1), (measure.numerators, measure.denominator))
    assert _path(measure, FrequencySet.from_scalars([1]))[0] == "limbs"
    assert phases.tolist() == [[1.0, 2.0**-7, (2**53 + 2) * 2.0**-60]]


@pytest.mark.parametrize(
    "atom", [Fraction(1, 2), Fraction(3, 1), 0.5, 2.0], ids=["half", "whole-fraction", "float", "whole-float"]
)
def test_non_integer_atom_numerator_raises(atom):
    # An int64 array would truncate 1/2 to 0 and report phase 0.0 instead of 0.5.
    with pytest.raises(TypeError):
        frames._exact_phase_matrix(1, ([(1,)], 1), ([(0,), (atom,)], 1))


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
    "bessel_quotient": lambda: cf.bessel_quotient(MEASURE, FREQS, [1, 0, 0, 0]),
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
def test_factorization_check_makes_one_kernel_call(monkeypatch, grid_size):
    # The windows of the convolution and of both factors share one phase matrix.
    assert _count_kernel_calls(monkeypatch, lambda: _factorization(grid_size)) == 1
