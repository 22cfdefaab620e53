import json
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from cantorframes import (
    AtomicMeasure,
    BlockedLinearMap,
    DigitSystem,
    DimensionMismatch,
    EigenBudgetExceeded,
    EmptyFrequencySet,
    FrequencySet,
    HadamardCheckFailed,
    SingularA4,
    SizeMismatch,
    ZeroNormInput,
    add,
    bessel_quotient,
    convolve,
    cross_bessel_experiment,
    degeneracy_experiment,
    frame_bounds,
    indicator_coefficients,
    integer_pool,
    jp_spectrum,
    level_measure,
    rotation_experiment,
    shear_blocks,
    translate,
)
from cantorframes import frames
from cantorframes.serialize import frame_report_to_jsonable
from instances import SIXTEEN_04, _planar_sum, build_instances, rotation_pool_instance
from oracles import oracle_eigh_report, oracle_frame_bounds, oracle_phase_matrix, oracle_shear_transport, oracle_synthesis

FOUR = DigitSystem.one_dimensional(4, [0, 1])
SIXTEEN_01 = DigitSystem.one_dimensional(16, [0, 1])


def _is_hadamard(R, B, L) -> bool:
    """Whether jp_spectrum accepts the triple (R, B, L); it raises HadamardCheckFailed on any other."""
    try:
        jp_spectrum(DigitSystem(R, B), L, 1)
    except HadamardCheckFailed:
        return False
    return True


class TestHadamard:
    def test_quarter_system_pair(self):
        assert _is_hadamard(((4,),), [(0,), (1,)], [0, 2])

    def test_quarter_system_consecutive_fails(self):
        assert not _is_hadamard(((4,),), [(0,), (1,)], [0, 1])

    def test_sixteenth_system_pair(self):
        assert _is_hadamard(((16,),), [(0,), (1,)], [0, 8])

    def test_odd_base_fails(self):
        assert not _is_hadamard(((3,),), [(0,), (1,)], [0, 1])

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatch):
            jp_spectrum(FOUR, [0, 1, 2], 1)

    @pytest.mark.parametrize("tol", [0.0, 1e-12, 10.0])
    def test_exact_whatever_the_tolerance(self, tol):
        # The check is exact, so a tolerance is refused rather than silently ignored.
        with pytest.raises(TypeError):
            jp_spectrum(FOUR, [0, 2], 1, tol=tol)
        # In floats exp(i*pi) + 1 is about 1.2e-16, so a zero tolerance used to refuse this pair.
        assert _is_hadamard(((4,),), [(0,), (1,)], [0, 2])
        assert not _is_hadamard(((4,),), [(0,), (1,)], [0, 1])

    @pytest.mark.parametrize(
        "R, B, L, expected",
        [
            (((-4,),), [(0,), (1,)], [0, 2], True),
            (((6,),), [(0,), (2,), (4,)], [0, 1, 2], True),  # R^-1 B has denominator 3, not 6
            (((12,),), [(0,), (4,), (8,)], [0, 1, 1], False),  # a repeated frequency
            (((2, 0), (0, 2)), [(0, 0), (1, 0), (0, 1), (1, 1)], [(0, 0), (1, 0), (0, 1), (1, 1)], True),
            (((2, 0), (0, 2)), [(0, 0), (1, 0), (0, 1), (1, 1)], [(0, 0), (1, 0), (0, 1), (1, 2)], False),
            (((3, 1), (0, 3)), [(0, 0), (1, 0), (2, 0)], [(0, 0), (1, 0), (2, 0)], True),
        ],
    )
    def test_cyclotomic_decision(self, R, B, L, expected):
        assert _is_hadamard(R, B, L) is expected

    def test_fractional_frequency_digits_are_refused(self):
        with pytest.raises(ValueError, match="integer"):
            jp_spectrum(FOUR, [(0,), (Fraction(1, 2),)], 1)

    def test_frequency_digit_of_wrong_dimension_is_refused(self):
        # A 1-D frequency against planar digits used to be truncated by zip and decide the wrong sums.
        with pytest.raises(DimensionMismatch):
            jp_spectrum(DigitSystem(((2, 0), (0, 2)), [(0, 0), (1, 0)]), [0, 1], 1)

    def test_cyclotomic_polynomials(self):
        assert frames._cyclotomic(1) == [-1, 1]
        assert frames._cyclotomic(12) == [1, 0, -1, 0, 1]
        assert frames._cyclotomic(15) == [1, -1, 0, 1, -1, 1, 0, -1, 1]
        assert frames._cyclotomic(16) == [1] + [0] * 7 + [1]


class TestJpSpectrum:
    def test_quarter_level2(self):
        assert [f[0] for f in jp_spectrum(FOUR, [0, 2], 2).freqs] == [0, 2, 8, 10]

    def test_sixteenth_level2(self):
        assert [f[0] for f in jp_spectrum(SIXTEEN_01, [0, 8], 2).freqs] == [0, 8, 128, 136]

    def test_single_digit_trivial_spectrum(self):
        single = DigitSystem.one_dimensional(4, [0])
        assert jp_spectrum(single, [0], 1).freqs == ((0.0,),)

    def test_rejects_non_hadamard(self):
        with pytest.raises(HadamardCheckFailed):
            jp_spectrum(FOUR, [0, 1], 2)

    def test_rejects_non_integer_digits(self):
        # Truncating 2.5 to 2 used to return the spectrum of {0, 2}.
        with pytest.raises(ValueError, match="integer"):
            jp_spectrum(FOUR, [(0,), (2.5,)], 2)


class TestFrameBounds:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_jp_orthonormal_quarter(self, n):
        report = frame_bounds(level_measure(FOUR, n), jp_spectrum(FOUR, [0, 2], n))
        assert abs(report.lower - 1) < 1e-8 and abs(report.upper - 1) < 1e-8
        assert report.rank == report.atom_count

    def test_single_frequency_rank_deficient(self):
        report = frame_bounds(level_measure(FOUR, 1), FrequencySet.from_scalars([0]))
        assert report.lower == 0
        assert report.rank == 1

    def test_rank_deficient_report_states_resolution(self):
        report = frame_bounds(level_measure(FOUR, 2), FrequencySet.from_scalars([0, 1]))
        assert report.rank < report.atom_count
        assert report.lower == 0
        assert report.resolution > 0
        data = frame_report_to_jsonable(report)
        assert data["schema"] == "frame-report/3"
        assert data["resolution"] == report.resolution
        assert set(data) == {"schema", "lower", "upper", "ratio", "rank", "atom_count", "freq_count", "resolution"}

    def test_empty_frequency_set(self):
        with pytest.raises(EmptyFrequencySet):
            frame_bounds(level_measure(FOUR, 1), FrequencySet(dim=1, freqs=()))

    def test_unitary_iff_tight_at_one(self):
        m = level_measure(FOUR, 3)
        freq_set = jp_spectrum(FOUR, [0, 2], 3)
        phi = oracle_synthesis(m.locations, m.weights, freq_set.freqs)
        assert np.max(np.abs(phi.conj().T @ phi - np.eye(len(m)))) < 1e-12
        report = frame_bounds(m, freq_set)
        assert abs(report.lower - 1) < 1e-10 and abs(report.upper - 1) < 1e-10

    def test_one_eigvalsh_per_gram(self, monkeypatch):
        calls = []
        for name in ("eigh", "eigvalsh", "solve"):
            original = getattr(np.linalg, name)

            def counted(*args, _name=name, _fn=original, **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        frame_bounds(level_measure(FOUR, 3), FrequencySet.from_scalars([0, 1, 3, 4, 9, 11, 12, 15]))
        assert calls == ["eigvalsh"]

    def test_no_report_solves(self, monkeypatch):
        """No report, and no experiment, runs an inverse-iteration solve or a full ``eigh``."""

        def refused(*args, **kwargs):
            raise AssertionError("a report ran more than eigvalsh")

        grams, eigvalsh = [], np.linalg.eigvalsh

        def counted(gram):
            grams.append(gram.dtype)
            return eigvalsh(gram)

        for name in ("eigh", "solve"):
            monkeypatch.setattr(np.linalg, name, refused)
        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        complex_report = frame_bounds(*_translate_instance(7))
        real_report = frame_bounds(*_collapse_instance(4))
        assert grams == [np.complex128, np.float64]
        assert (complex_report.atom_count, real_report.rank, real_report.atom_count) == (128, 16, 16)
        eight = DigitSystem.one_dimensional(8, [0, 1])
        degeneracy_experiment(SIXTEEN_01, SIXTEEN_04, 0, 2, jp_spectrum(FOUR, [0, 2], 4), [2, 8], collapse_levels=(2, 3))
        rotation_experiment(3, [0, 30, 90], collapse_levels=(2,))
        cross_bessel_experiment(eight, [0, 4], FOUR, range(1, 5))

    def test_more_than_1024_atoms_agrees_with_eigvalsh(self):
        # 1088 atoms against 1000 frequencies: F < M, so no frame.
        measure = add(level_measure(FOUR, 10), translate(level_measure(FOUR, 6), Fraction(1, 3)))
        freq_set = FrequencySet.from_scalars(range(1000))
        report = frame_bounds(measure, freq_set)
        assert report.atom_count == 1088
        assert report.lower == 0
        assert report.rank <= len(freq_set)
        phi = oracle_synthesis(measure.locations, measure.weights, freq_set.freqs)
        eigvals = np.linalg.eigvalsh(phi.conj().T @ phi)
        tol = 1088 * np.finfo(float).eps * max(report.upper, 1.0)
        assert report.rank == int(np.count_nonzero(eigvals > tol))
        assert abs(report.upper - eigvals[-1]) < 1e-10


ENTRY_POINTS = {
    "frame_bounds": frame_bounds,
}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_entry_points_share_input_checks(entry):
    call, pair = ENTRY_POINTS[entry], FrequencySet.from_scalars([0, 1])
    with pytest.raises(ZeroNormInput):
        call(AtomicMeasure.from_atoms(1, []), pair)
    with pytest.raises(SizeMismatch):
        call(level_measure(FOUR, 2), FrequencySet(dim=2, freqs=((0.0, 1.0), (2.0, 3.0))))


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
def test_frequency_set_rejects_non_finite(bad):
    with pytest.raises(ValueError) as one_d:
        FrequencySet.from_scalars([0.0, bad])
    assert str(one_d.value) == f"point {(bad,)} is not finite"
    with pytest.raises(ValueError) as planar:
        FrequencySet(dim=2, freqs=((0.0, 1.0), (2.0, bad)))
    assert str(planar.value) == f"point {(2.0, bad)} is not finite"
    with pytest.raises(ValueError) as single:
        FrequencySet.from_scalars(np.array([0.5, bad], dtype=np.float32))
    assert str(single.value) == f"point {(bad,)} is not finite"


def test_frequency_rows_are_read_as_exact_points():
    # Every exact input has one reader: a scalar row is a 1-point, a short row a DimensionMismatch.
    assert FrequencySet(dim=1, freqs=(3, np.int64(5), Fraction(1, 2))) == FrequencySet.from_scalars([3, 5, 0.5])
    with pytest.raises(DimensionMismatch, match="expected dimension 2, got 1"):
        FrequencySet(dim=2, freqs=((0, 1), (2,)))
    with pytest.raises(DimensionMismatch):
        FrequencySet(dim=2, freqs=(3,))


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
def test_arrays_refuse_non_finite_coordinates(bad):
    # Float arrays enter as a measure and a frequency set, which read each numpy row exactly.
    with pytest.raises(ValueError) as point:
        AtomicMeasure.from_atoms(1, zip(np.array([[0.5], [bad]]), [0.5, 0.5]))
    assert str(point.value) == f"point {(bad,)} is not finite"
    with pytest.raises(ValueError) as weight:
        AtomicMeasure.from_atoms(1, zip(np.array([[0.5], [1.0]]), np.array([0.5, bad])))
    assert str(weight.value) == f"weight {bad} is not finite"
    with pytest.raises(ValueError) as freqs:
        FrequencySet(dim=1, freqs=np.array([[bad], [1.0]]))
    assert str(freqs.value) == f"point {(bad,)} is not finite"


def test_frequency_sets_with_the_same_frequencies_are_equal():
    assert integer_pool(4) == FrequencySet.from_scalars(range(4))
    assert hash(integer_pool(4)) == hash(FrequencySet.from_scalars(range(4)))


class TestCanonicalOrder:
    """Digit and frequency sets are sets: the order they are listed in reaches no field, hash or report."""

    @pytest.mark.parametrize(
        "rows",
        [[(3,), (-1,), (7,), (0,)], [(0, 2), (1, 1), (-3, 5)], [(Fraction(1, 3), 2), (0.5, Fraction(-7, 4)), (2, 0)]],
        ids=["integer", "planar", "fraction"],
    )
    def test_reordered_frequency_sets_are_equal(self, rows):
        first, second = (FrequencySet(dim=len(rows[0]), freqs=tuple(r)) for r in (rows, rows[::-1]))
        assert first == second and hash(first) == hash(second)
        assert (first.freqs, first.numerators) == (second.freqs, second.numerators)
        assert list(first.numerators) == sorted(first.numerators)

    def test_reordered_digit_systems_are_equal(self):
        listed = DigitSystem(((16,),), [(5,), (4,), (1,), (0,)])
        assert listed == SIXTEEN_0145 and hash(listed) == hash(SIXTEEN_0145)
        assert listed.digits == ((0,), (1,), (4,), (5,))

    def test_shuffled_rotation_frame_gives_the_same_report(self):
        result = rotation_experiment(5, [])
        rows = list(result.base_frequencies.freqs)
        random.Random(3).shuffle(rows)
        assert _same_report(frame_bounds(_planar_sum(5), FrequencySet(dim=2, freqs=tuple(rows))), result.base_report)

    def test_shuffled_float_frequencies_give_the_same_report(self):
        measure, freq_set = _translate_instance(7)
        rows = list(freq_set.freqs)
        random.Random(3).shuffle(rows)
        shuffled = FrequencySet(dim=1, freqs=tuple(rows))
        assert _same_report(frame_bounds(measure, shuffled), frame_bounds(measure, freq_set))


class TestDistinctFrequencies:
    @pytest.mark.parametrize(
        "values", [[3, 1, 3], [0.0, 1e-13], [Fraction(1, 3), 1 / 3]], ids=["duplicate", "within-1e-12", "fraction"]
    )
    def test_coinciding_frequencies_refused(self, values):
        with pytest.raises(ValueError, match="coincide within resolution"):
            FrequencySet.from_scalars(values)

    @pytest.mark.parametrize(
        "freqs, pair",
        [
            (((3,), (1,), (3,), (1,)), "(1,) and (1,)"),
            (np.array([[0, 2], [1, 1], [0, 2]]), "(0, 2) and (0, 2)"),
            (((5,), (2.0,), (2,)), "(2,) and (2,)"),
        ],
        ids=["ints", "numpy-planar", "float-integral"],
    )
    def test_integer_duplicates_name_the_first_pair(self, freqs, pair):
        with pytest.raises(ValueError) as refused:
            FrequencySet(dim=len(freqs[0]), freqs=freqs)
        assert str(refused.value) == f"frequencies {pair} coincide within resolution"

    def test_integer_rows_are_their_own_numerators(self):
        freq_set = FrequencySet(dim=2, freqs=np.array([[0, 2], [-3, 1]]))
        assert freq_set.freqs == freq_set.numerators == ((-3, 1), (0, 2)) and freq_set.denominator == 1
        assert all(type(x) is int for f in freq_set.freqs for x in f)
        assert freq_set == FrequencySet(dim=2, freqs=((0.0, 2), (Fraction(-3), 1.0)))

    def test_integers_past_float_spacing_stay_apart(self):
        # 2^59 and 2^59 + 32 round to the same float; read exactly, they are 32 apart.
        freq_set = FrequencySet.from_scalars([2**59, 2**59 + 32])
        assert freq_set.freqs == ((2**59,), (2**59 + 32,))
        assert (freq_set.numerators, freq_set.denominator) == (((2**59,), (2**59 + 32,)), 1)

    def test_coordinates_kept_exactly(self):
        freq_set = FrequencySet(dim=2, freqs=((np.int64(2), Fraction(1, 3)), (0.1, np.float64(2.5))))
        assert freq_set.freqs == ((Fraction(0.1), Fraction(5, 2)), (2, Fraction(1, 3)))
        # numpy's float32 and float16 are read through float, which is exact for them.
        narrow = FrequencySet(dim=2, freqs=((np.float32(0.1), np.float16(-0.75)),))
        assert narrow.freqs == ((Fraction(float(np.float32(0.1))), Fraction(-3, 4)),)
        assert FrequencySet.from_scalars(np.array([0.5, 1.0], dtype=np.float32)).freqs == ((Fraction(1, 2),), (1,))
        # Equal numbers hash equally, so the exact tuples still match float tuples.
        floats = FrequencySet.from_scalars([0.5, 2.0, -7.25])
        assert floats.freqs == ((-7.25,), (0.5,), (2.0,)) and hash(floats.freqs) == hash(((-7.25,), (0.5,), (2.0,)))

    def test_deep_jp_spectrum_is_exact_and_orthonormal(self):
        # 1024:{0,1} at level 7: frequencies reach 512 * 1024^6 = 2^69, far past the exact doubles.
        ds = DigitSystem.one_dimensional(1024, [0, 1])
        freq_set = jp_spectrum(ds, [0, 512], 7)
        assert len(freq_set) == len({f for (f,) in freq_set.freqs}) == 128
        assert all(type(f) is int for (f,) in freq_set.freqs)
        assert max(freq_set.freqs) == (sum(512 * 1024**j for j in range(7)),)
        report = frame_bounds(level_measure(ds, 7), freq_set)
        assert abs(report.lower - 1) < 1e-8 and abs(report.upper - 1) < 1e-8


def test_frequency_set_takes_huge_finite_frequencies():
    # x / 1e-12 overflows past about 1.8e296; the phase kernel still reads these exactly.
    freq_set = FrequencySet.from_scalars([1e300, -1e300, 1.5e300])
    report = frame_bounds(level_measure(FOUR, 2), freq_set)
    assert report.freq_count == 3 and math.isfinite(report.upper)


class TestBesselQuotient:
    def test_dimension_mismatch_rejected(self):
        planar = FrequencySet(dim=2, freqs=((0.0, 1.0), (2.0, 3.0)))
        with pytest.raises(SizeMismatch):
            bessel_quotient(level_measure(FOUR, 2), planar, [1, 0, 0, 0])

    def test_zero_norm_rejected(self):
        m = level_measure(FOUR, 2)
        with pytest.raises(ZeroNormInput):
            bessel_quotient(m, FrequencySet.from_scalars([0, 1]), [0, 0, 0, 0])

    def test_empty_frequency_set_rejected_as_frame_bounds_rejects_it(self):
        m, empty = level_measure(FOUR, 2), FrequencySet.from_scalars([])
        with pytest.raises(EmptyFrequencySet, match="^frequency set is empty$"):
            bessel_quotient(m, empty, [1, 0, 0, 0])
        with pytest.raises(EmptyFrequencySet, match="^frequency set is empty$"):
            frame_bounds(m, empty)

    def test_measure_checks_come_before_the_empty_set(self):
        planar = FrequencySet(dim=2, freqs=())
        for check in (lambda m, f: bessel_quotient(m, f, [1, 0, 0, 0]), frame_bounds):
            with pytest.raises(SizeMismatch):
                check(level_measure(FOUR, 2), planar)
            with pytest.raises(ZeroNormInput):
                check(AtomicMeasure.from_atoms(1, []), FrequencySet.from_scalars([]))

    def test_rayleigh_sandwich(self):
        m = level_measure(FOUR, 3)
        freq_set = FrequencySet.from_scalars([0, 2, 5, 8, 9, 13, 17, 21, 25, 30])
        report = frame_bounds(m, freq_set)
        rng = np.random.default_rng(42)
        for _ in range(100):
            f = rng.normal(size=len(m)) + 1j * rng.normal(size=len(m))
            q = bessel_quotient(m, freq_set, f)
            assert report.lower - 1e-9 <= q <= report.upper + 1e-9

    def test_indicator_quotient_dominated_by_mass(self):
        beta = Fraction(1, 2)
        nu = level_measure(SIXTEEN_01, 2)
        freq_set = jp_spectrum(FOUR, [0, 2], 4)
        nu_upper = frame_bounds(nu, freq_set).upper
        coeffs = indicator_coefficients(nu, nu.locations[:2])
        q = bessel_quotient(nu, freq_set, coeffs)
        assert q <= nu_upper * 1.0 + 1e-9  # Rayleigh bound survives windowing


class TestTranslationInvariance:
    def test_twenty_random_instances(self):
        rng = np.random.default_rng(2024)
        for _ in range(20):
            atoms = int(rng.integers(4, 25))
            support = rng.choice(np.arange(64), size=atoms, replace=False)
            measure = AtomicMeasure.from_atoms(
                1,
                [
                    ((Fraction(int(x), 32),), Fraction(int(w), 8))
                    for x, w in zip(support, rng.integers(1, 7, size=atoms))
                ],
            )
            freq_count = int(rng.integers(atoms, 2 * atoms + 1))
            freqs = FrequencySet.from_scalars(
                sorted(set(np.round(rng.uniform(-8, 8, size=freq_count), 5).tolist()))
            )
            shift = float(rng.uniform(-1, 1))
            base = frame_bounds(measure, freqs)
            moved = frame_bounds(translate(measure, shift), freqs)
            assert abs(base.lower - moved.lower) < 1e-10
            assert abs(base.upper - moved.upper) < 1e-10


class TestRestrictionMonotonicity:
    def test_disjoint_sums(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            size_a = int(rng.integers(2, 7))
            size_b = int(rng.integers(2, 7))
            support = rng.choice(np.arange(40), size=size_a + size_b, replace=False)
            pairs = [
                ((Fraction(int(x), 16),), Fraction(int(w), 4))
                for x, w in zip(support, rng.integers(1, 5, size=size_a + size_b))
            ]
            a = AtomicMeasure.from_atoms(1, pairs[:size_a])
            b = AtomicMeasure.from_atoms(1, pairs[size_a:])
            m = add(a, b)
            freqs = FrequencySet.from_scalars(
                sorted(set(np.round(rng.uniform(-6, 6, size=2 * (size_a + size_b)), 5).tolist()))
            )
            bound_m = frame_bounds(m, freqs)
            bound_a = frame_bounds(a, freqs)
            bound_b = frame_bounds(b, freqs)
            assert bound_m.lower <= min(bound_a.lower, bound_b.lower) + 1e-9
            assert bound_m.upper >= max(bound_a.upper, bound_b.upper) - 1e-9


def _transported(freq_set, t_map) -> tuple:
    """The frequencies that ``frames._shear_transport`` maps ``freq_set`` to, each exact rational rounded once."""
    rows, d = frames._shear_transport((freq_set.numerators, freq_set.denominator), t_map)
    return tuple(tuple(x / d for x in row) for row in rows)  # int / int rounds correctly


class TestShear:
    def test_rotation_blocks(self):
        theta = math.radians(30)
        data = shear_blocks(BlockedLinearMap.rotation_2d(theta))
        assert abs(data.shear[0][0] + math.tan(theta)) < 1e-12

    def test_identity_has_zero_shear(self):
        data = shear_blocks(BlockedLinearMap.from_matrix(np.eye(2), 1))
        assert data.shear[0][0] == 0

    def test_right_angle_singular(self):
        with pytest.raises(SingularA4):
            shear_blocks(BlockedLinearMap.rotation_2d(math.radians(90)))

    def test_transform_spectrum_identity(self):
        freq_set = FrequencySet(dim=2, freqs=((1.0, 2.0), (3.0, 5.0)))
        assert _transported(freq_set, BlockedLinearMap.from_matrix(np.eye(2), 1)) == freq_set.freqs

    def test_transform_spectrum_rotation(self):
        theta = math.radians(30)
        freq_set = FrequencySet(dim=2, freqs=((1.0, 2.0),))
        out = _transported(freq_set, BlockedLinearMap.rotation_2d(theta))
        assert abs(out[0][1] - (2.0 + math.tan(theta) * 1.0)) < 1e-12

    @pytest.mark.parametrize(
        "t_map",
        [BlockedLinearMap.rotation_2d(math.radians(a)) for a in (10, 33, 45, 120, -70)]
        + [BlockedLinearMap.from_matrix(np.random.default_rng(5).uniform(-2, 2, (3, 3)), m) for m in (1, 2)],
        ids=["10deg", "33deg", "45deg", "120deg", "-70deg", "3x3-m1", "3x3-m2"],
    )
    def test_transform_spectrum_is_correctly_rounded(self, t_map):
        rng = np.random.default_rng(33)
        freq_set = FrequencySet(dim=t_map.dim, freqs=tuple(map(tuple, rng.uniform(-40, 40, (33, t_map.dim)))))
        assert _transported(freq_set, t_map) == oracle_shear_transport(freq_set, t_map)

    def test_gram_matrices_agree_after_transport(self):
        theta = math.radians(40)
        mu = level_measure(FOUR, 2)
        nu = level_measure(SIXTEEN_01, 2)
        base_w = mu.weights + nu.weights
        base_locs = [(x, 0) for (x,) in mu.locations] + [(0, y) for (y,) in nu.locations]
        cos_t, sin_t = math.cos(theta), math.sin(theta)
        rot_locs = [(x, 0) for (x,) in mu.locations] + [(-sin_t * y, cos_t * y) for (y,) in nu.locations]
        # Not the product of the two jp spectra, whose orthogonality would hide a wrong shear.
        freq_set = FrequencySet(dim=2, freqs=tuple((a, b) for a in (0, 1, 3, 10) for b in (0, 1, 5, 136)))
        scaled = FrequencySet(dim=2, freqs=tuple((f[0], f[1] / cos_t) for f in freq_set.freqs))
        transported = _transported(scaled, BlockedLinearMap.rotation_2d(theta))
        phi_base = oracle_synthesis(base_locs, base_w, freq_set.freqs)
        phi_rot = oracle_synthesis(rot_locs, base_w, transported)
        gram_base = phi_base.conj().T @ phi_base
        gram_rot = phi_rot.conj().T @ phi_rot
        assert np.max(np.abs(gram_base - gram_rot)) < 1e-10


class TestEigenOracle:
    @pytest.mark.parametrize("name,measure,freq_set", build_instances())
    def test_production_matches_oracle(self, name, measure, freq_set):
        report = frame_bounds(measure, freq_set)
        assert report.atom_count <= 64
        lower, upper = oracle_frame_bounds(measure, freq_set)
        assert abs(report.upper - upper) < 1e-8, name
        assert abs(report.lower - lower) < 1e-8, name


def _translate_instance(seed: int):
    """128 atoms over 256 against 256 float frequencies, translated by a float shift."""
    rng = random.Random(seed)
    support = rng.sample(range(512), 128)
    raw = [rng.randint(1, 8) for _ in support]
    pairs = [((Fraction(x, 256),), Fraction(w, sum(raw))) for x, w in zip(support, raw)]
    freqs: set = set()
    while len(freqs) < 256:
        freqs.add(round(rng.uniform(-8.0, 8.0), 5))
    measure = translate(AtomicMeasure.from_atoms(1, pairs), rng.uniform(-1.0, 1.0))
    return measure, FrequencySet.from_scalars(sorted(freqs))


def _collapse_instance(n: int):
    """The measure and pool of ``collinear_lower_bounds`` at sum level n, t = 0."""
    nu = level_measure(SIXTEEN_01, n // 2)
    rho = add(convolve(nu, level_measure(SIXTEEN_04, (n + 1) // 2)), nu)
    return rho, FrequencySet.from_scalars(range(2 * len(rho)))


def _report_cases():
    # Every eigenvalue of an orthonormal jp spectrum is 1: a fully clustered spectrum.
    cases = [(f"jp-level{n}", level_measure(FOUR, n), jp_spectrum(FOUR, [0, 2], n)) for n in range(3, 9)]
    cases += [(f"collapse-level{n}", *_collapse_instance(n)) for n in range(2, 6)]
    cases.append(("rank-deficient", level_measure(FOUR, 5), FrequencySet.from_scalars(range(20))))
    cases.append(("translate-128x256", *_translate_instance(7)))
    symmetric = AtomicMeasure.from_atoms(1, [((Fraction(k, 7),), Fraction(1, 7)) for k in range(-3, 4)])
    cases.append(("symmetric-7-symmetric-freqs", symmetric, FrequencySet.from_scalars(range(-3, 4))))
    cases.append(("symmetric-7-asymmetric-freqs", symmetric, FrequencySet.from_scalars([0, 1, 2, 3, 5, 8, 13])))
    first, second = jp_spectrum(FOUR, [0, 2], 3).freqs, jp_spectrum(SIXTEEN_01, [0, 8], 3).freqs
    planar = [(a[0], b[0]) for a in first for b in second]
    cases.append(("planar-sum-level3", _planar_sum(3), FrequencySet(dim=2, freqs=tuple(planar))))
    return cases


REPORT_CASES = _report_cases()


class TestEigenvaluesAlone:
    """One ``eigvalsh`` of the Gram, against the full ``eigh`` report of the symmetrized complex Gram."""

    @pytest.mark.parametrize("name,measure,freq_set", REPORT_CASES, ids=[c[0] for c in REPORT_CASES])
    def test_matches_eigh_oracle(self, name, measure, freq_set):
        phi = frames._synthesis_rows(measure, np.sqrt(_weights(measure)), freq_set)
        expected = oracle_eigh_report(phi)
        report = frame_bounds(measure, freq_set)
        assert abs(report.lower - expected.lower) <= report.resolution
        assert abs(report.upper - expected.upper) <= report.resolution
        assert report.rank == expected.rank


def _weights(measure):
    """The float weights the report path forms."""
    return np.array([w / measure.mass_denominator for w in measure.masses])


def _gram_and_rows(measure, freq_set):
    sqrt_w = np.sqrt(_weights(measure))
    return frames._gram(measure, sqrt_w, freq_set), frames._synthesis_rows(measure, sqrt_w, freq_set)


def _centre_phases(measure, freq_set):
    """e(<c, x>) at every atom x, with c the centre of a centrally symmetric frequency set, from exact phases."""
    first, last = freq_set.freqs[0], freq_set.freqs[-1]
    centre = tuple(Fraction(a + b, 2) for a, b in zip(first, last))
    return np.exp(2j * np.pi * oracle_phase_matrix(measure, FrequencySet(dim=freq_set.dim, freqs=(centre,)))[0])


def _symmetric_gram_cases():
    measure = level_measure(FOUR, 3)
    cases = [
        (f"jp-{base}:0,{digit}-level{n}", measure, jp_spectrum(DigitSystem.one_dimensional(base, [0, 1]), [0, digit], n))
        for base, digit in ((4, 2), (8, 4), (16, 8))
        for n in range(1, 9)
    ]
    cases += [(f"pool-{size}", measure, integer_pool(size)) for size in (1, 7, 8)]
    planar = next(case for case in REPORT_CASES if case[0] == "planar-sum-level3")
    cases.append(("planar-jp-product", *planar[1:]))
    cases.append(("half-integers", measure, FrequencySet.from_scalars([0.5, 1.5, 2.5])))
    return cases


SYMMETRIC_GRAM_CASES = _symmetric_gram_cases()
ASYMMETRIC_GRAM_CASES = [
    ("zero-one-three", level_measure(FOUR, 3), FrequencySet.from_scalars([0, 1, 3])),
    ("translate-128x256", *_translate_instance(7)),
    # -0.3 + (0.1 + 0.2) is 5.6e-17, so this is symmetric about 0 only after rounding. The pair
    # {-0.3, 0.1 + 0.2} alone would not do: any two points are symmetric about their midpoint.
    ("rounded-triple", level_measure(FOUR, 3), FrequencySet.from_scalars([-0.3, 0.0, 0.1 + 0.2])),
]


def _cross_bessel_cases():
    eight = DigitSystem.one_dimensional(8, [0, 1])
    return [(f"cross-bessel-level{n}", level_measure(FOUR, n), jp_spectrum(eight, [0, 4], n)) for n in range(2, 9)]


ORACLE_CASES = REPORT_CASES + _cross_bessel_cases() + [(f"collapse-level{n}", *_collapse_instance(n)) for n in (6, 7)]
# The only oracle cases whose frequency sets are not centrally symmetric.
COMPLEX_ORACLE_CASES = {"translate-128x256", "symmetric-7-asymmetric-freqs"}


class TestRealGram:
    """Centrally symmetric frequency sets take the real Gram; every other set keeps the complex one."""

    @pytest.mark.parametrize("name,measure,freq_set", SYMMETRIC_GRAM_CASES, ids=[c[0] for c in SYMMETRIC_GRAM_CASES])
    def test_symmetric_set_builds_real_gram(self, name, measure, freq_set):
        gram, phi = _gram_and_rows(measure, freq_set)
        assert gram.dtype == np.float64
        d = _centre_phases(measure, freq_set)
        full = d[:, None] * gram * d.conj()[None, :]
        assert np.max(np.abs(full - phi.conj().T @ phi)) <= 1e-12 * len(freq_set)

    @pytest.mark.parametrize("name,measure,freq_set", ASYMMETRIC_GRAM_CASES, ids=[c[0] for c in ASYMMETRIC_GRAM_CASES])
    def test_other_set_keeps_complex_gram_bit_for_bit(self, name, measure, freq_set):
        gram, phi = _gram_and_rows(measure, freq_set)
        assert gram.dtype == np.complex128
        assert np.array_equal(gram, phi.conj().T @ phi)

    @pytest.mark.parametrize("name,measure,freq_set", ORACLE_CASES, ids=[c[0] for c in ORACLE_CASES])
    def test_matches_complex_oracle(self, name, measure, freq_set):
        gram, phi = _gram_and_rows(measure, freq_set)
        assert (gram.dtype == np.complex128) == (name in COMPLEX_ORACLE_CASES)
        expected = oracle_eigh_report(phi)
        report = frame_bounds(measure, freq_set)
        assert abs(report.lower - expected.lower) <= report.resolution
        assert abs(report.upper - expected.upper) <= report.resolution
        assert report.rank == expected.rank


def _gram_report(measure, freq_set):
    """The report of the Gram and its eigensolve, the path every set took before exact diagonals."""
    return frames._frame_report(frames._gram(measure, np.sqrt(_weights(measure)), freq_set), len(freq_set))


def _same_report(first, second) -> bool:
    return repr(first) == repr(second)


def _vanishes(measure, freq_set) -> bool:
    return frames._vanishing_off_diagonal(measure, freq_set)


SIX_01 = DigitSystem.one_dimensional(6, [0, 1])
# R^-1 (1, 0) = (1/2, 0), so L = {0, (1, 0)} is a Hadamard pair for B = {0, (1, 0)}; atoms lie over 6^n.
PLANAR_TWO_DIGIT = DigitSystem(((2, 1), (0, 3)), ((0, 0), (1, 0)))
# With the digits 0, 2, 8, 10 its jp spectrum at level n is that of FOUR at level 2n.
SIXTEEN_0145 = DigitSystem.one_dimensional(16, [0, 1, 4, 5])


def _exact_cases():
    cases = [(f"jp-level{n}", level_measure(FOUR, n), jp_spectrum(FOUR, [0, 2], n)) for n in range(1, 11)]
    cases.append(("jp-level6-third", translate(level_measure(FOUR, 6), Fraction(1, 3)), jp_spectrum(FOUR, [0, 2], 6)))
    cases += [(f"six-level{n}", level_measure(SIX_01, n), jp_spectrum(SIX_01, [0, 3], n)) for n in (1, 4, 7)]
    cases += [
        (f"planar-level{n}", level_measure(PLANAR_TWO_DIGIT, n), jp_spectrum(PLANAR_TWO_DIGIT, [(0, 0), (1, 0)], n))
        for n in (1, 3, 6)
    ]
    # The atoms of mu16 lie in mu4's level-4 set, with other weights: the Gram is diagonal but not I.
    cases.append(("sub-level", level_measure(SIXTEEN_01, 2), jp_spectrum(FOUR, [0, 2], 4)))
    cases.append(("uneven-weights", add(level_measure(FOUR, 2), level_measure(SIXTEEN_01, 1)), jp_spectrum(FOUR, [0, 2], 2)))
    # Equal sets take one path, however they were built.
    cases.append(("jp-level5-copy", level_measure(FOUR, 5), FrequencySet(dim=1, freqs=jp_spectrum(FOUR, [0, 2], 5).freqs)))
    cases += [(f"four-digits-level{n}", level_measure(FOUR, 2 * n), jp_spectrum(SIXTEEN_0145, [0, 2, 8, 10], n)) for n in (1, 2, 4)]
    cases.append(("planar-jp-product-level3", *rotation_pool_instance(3)))
    # Frequencies over p = 2: the residues are taken mod 2q, and q = 1 alone is odd.
    two_atoms = AtomicMeasure.from_atoms(1, [((0,), Fraction(1, 3)), ((1,), Fraction(2, 3))])
    cases.append(("half-integer-step", two_atoms, FrequencySet.from_scalars([0, Fraction(1, 2)])))
    half_shift = FrequencySet.from_scalars([f + Fraction(1, 2) for (f,) in jp_spectrum(FOUR, [0, 2], 4).freqs])
    cases.append(("jp-level4-half-shift", level_measure(FOUR, 4), half_shift))
    return cases


def _fallback_cases():
    eight = DigitSystem.one_dimensional(8, [0, 1])
    three = DigitSystem.one_dimensional(6, [0, 2, 4])
    cases = [(f"cross-bessel-level{n}", level_measure(FOUR, n), jp_spectrum(eight, [0, 4], n)) for n in range(2, 9)]
    cases += [(f"f-below-m-level{n}", level_measure(FOUR, n + 1), jp_spectrum(FOUR, [0, 2], n)) for n in (1, 4, 7)]
    cases.append(("atoms-over-3^5", level_measure(DigitSystem.one_dimensional(3, [0, 1]), 5), jp_spectrum(FOUR, [0, 2], 5)))
    cases.append(("three-digits", level_measure(three, 3), jp_spectrum(three, [0, 1, 2], 3)))
    cases.append(("even-integers", level_measure(FOUR, 4), FrequencySet.from_scalars(range(0, 160, 2))))
    return cases


EXACT_CASES, FALLBACK_CASES = _exact_cases(), _fallback_cases()
DYADIC_EXACT_CASES = [c for c in EXACT_CASES if c[0].startswith(("jp-level", "sub-level", "uneven")) and "third" not in c[0]]


def _subset_sums(least, steps) -> set:
    sums = {least}
    for step in steps:
        sums |= {tuple(x + y for x, y in zip(s, step)) for s in sums}
    return sums


class TestCubeSteps:
    """A frequency set is a cube c + {sum_j e_j v_j} of 2^n distinct sums, read off its numerators, or is refused."""

    @pytest.mark.parametrize(
        "values",
        [[], [0, 1, 2], [0, 1, 2, 3, 4, 5], [0, 1, 2, 4], [0, 1, 3, 4, 5, 6, 7, 8]],
        ids=["empty", "three", "six", "second-step-leaves", "third-step-leaves"],
    )
    def test_refuses_other_sets(self, values):
        assert frames._cube_steps(sorted((v,) for v in values)) is None

    @pytest.mark.parametrize(
        "values, steps",
        [([5], []), ([0, 1, 2, 3], [1, 2]), ([-2, 0, 1, 3], [2, 3]), ([0, 3, 5, 8], [3, 5])],
        ids=["one-row", "binary", "negative-corner", "uneven-steps"],
    )
    def test_steps_of_small_cubes(self, values, steps):
        assert frames._cube_steps(sorted((v,) for v in values)) == [(v,) for v in steps]

    @pytest.mark.parametrize("name,measure,freq_set", EXACT_CASES, ids=[c[0] for c in EXACT_CASES])
    def test_every_exact_case_is_a_cube(self, name, measure, freq_set):
        rows = freq_set.numerators
        steps = frames._cube_steps(rows)
        assert 2 ** len(steps) == len(rows) and _subset_sums(rows[0], steps) == set(rows)


class TestExactDiagonal:
    """Cube frequency sets whose Gram is decided exactly diagonal are reported without an eigensolve."""

    def test_equal_sets_give_one_report(self):
        for n in range(1, 11):
            measure, jp = level_measure(FOUR, n), jp_spectrum(FOUR, [0, 2], n)
            copy = FrequencySet(dim=1, freqs=jp.freqs)
            data = json.loads(json.dumps({"dim": 1, "freqs": [list(f) for f in jp.freqs]}))
            loaded = FrequencySet(dim=data["dim"], freqs=tuple(tuple(f) for f in data["freqs"]))
            report = frame_bounds(measure, jp)
            assert copy == loaded == jp and report.lower == report.upper == 1.0
            assert _same_report(frame_bounds(measure, copy), report)
            assert _same_report(frame_bounds(measure, loaded), report)

    @pytest.mark.parametrize("name,measure,freq_set", EXACT_CASES, ids=[c[0] for c in EXACT_CASES])
    def test_diagonal_report_is_exact(self, name, measure, freq_set, monkeypatch):
        assert _vanishes(measure, freq_set)
        for solver in ("eigvalsh", "eigh", "solve"):
            monkeypatch.setattr(np.linalg, solver, None)
        report = frame_bounds(measure, freq_set)
        m, f = len(measure), len(freq_set)
        weights = [Fraction(w, measure.mass_denominator) for w in measure.masses]
        assert (report.lower, report.upper) == (float(f * min(weights)), float(f * max(weights)))
        assert report.ratio == report.upper / report.lower
        assert (report.rank, report.atom_count, report.freq_count) == (m, m, f)
        assert report.resolution == max(m, f) * np.finfo(float).eps * max(report.upper, 1.0)

    @pytest.mark.parametrize("name,measure,freq_set", DYADIC_EXACT_CASES, ids=[c[0] for c in DYADIC_EXACT_CASES])
    def test_arrays_take_the_exact_path(self, name, measure, freq_set):
        # Dyadic atoms and masses are exact as floats: float arrays read as a measure give it back, so its report.
        locations, weights = np.array(measure.locations, dtype=float), np.array(measure.weights, dtype=float)
        assert AtomicMeasure.from_atoms(measure.dim, zip(locations, weights)) == measure

    @pytest.mark.parametrize("n", range(1, 11))
    def test_jp_levels_read_exactly_one(self, n):
        report = frame_bounds(level_measure(FOUR, n), jp_spectrum(FOUR, [0, 2], n))
        assert report.lower == report.upper == report.ratio == 1.0

    @pytest.mark.parametrize("name,measure,freq_set", EXACT_CASES, ids=[c[0] for c in EXACT_CASES])
    def test_diagonal_report_matches_eigensolve(self, name, measure, freq_set):
        report, solved = frame_bounds(measure, freq_set), _gram_report(measure, freq_set)
        # The float Gram is off by rounding: at level 1 its upper reads 1.0000000000000007.
        tol = max(report.resolution, 1e-12 * report.upper)
        assert abs(report.lower - solved.lower) <= tol and abs(report.upper - solved.upper) <= tol
        assert report.rank == solved.rank

    @pytest.mark.parametrize("name,measure,freq_set", FALLBACK_CASES, ids=[c[0] for c in FALLBACK_CASES])
    def test_other_sets_keep_the_eigensolve_bit_for_bit(self, name, measure, freq_set):
        assert not _vanishes(measure, freq_set)
        report = frame_bounds(measure, freq_set)
        assert _same_report(report, _gram_report(measure, freq_set))
        if name.startswith("f-below-m"):
            assert report.lower == 0 and report.rank <= len(freq_set) < report.atom_count

    @pytest.mark.parametrize("n", range(2, 9))
    def test_period_pool_reads_the_optimal_ratio(self, n, monkeypatch):
        # On nu * lam + nu, the pool {0..Q-1} over the skeleton's denominator Q has the Gram Q diag(w),
        # so B/A is w_max / w_min = 1 + 2^ceil(n/2), the least ratio any frequency set attains.
        nu, lam = level_measure(SIXTEEN_01, n // 2), level_measure(SIXTEEN_04, -(-n // 2))
        measure = add(convolve(nu, lam), translate(nu, 0))
        monkeypatch.setattr(np.linalg, "eigvalsh", None)
        assert frame_bounds(measure, integer_pool(measure.denominator)).ratio == 1 + 2 ** -(-n // 2)

    @pytest.mark.parametrize("level", range(1, 6))
    def test_full_rotation_pool_reads_ratio_two(self, level, monkeypatch):
        base, pool = rotation_pool_instance(level)
        monkeypatch.setattr(np.linalg, "eigvalsh", None)
        report = frame_bounds(base, pool)
        assert (report.lower, report.upper, report.ratio) == (2.0**level, 2.0 ** (level + 1), 2.0)

    def test_single_atom_is_diagonal(self):
        # One atom over an odd denominator: no pair to decide.
        measure = AtomicMeasure.from_atoms(1, [((Fraction(1, 3),), Fraction(1))])
        freq_set = jp_spectrum(FOUR, [0, 2], 2)
        assert _vanishes(measure, freq_set)
        assert frame_bounds(measure, freq_set).lower == frame_bounds(measure, freq_set).upper == 4.0

    def test_wide_atoms_decide_on_python_ints(self):
        # A float shift puts the atoms over 2^56, past the int64 residues of _phase_path.
        measure, freq_set = translate(level_measure(FOUR, 5), 0.1), jp_spectrum(FOUR, [0, 2], 5)
        atoms = measure.numerators, measure.denominator
        assert frames._phase_path(1, [(2 * 4**j,) for j in range(5)], atoms[0], atoms[1]) != "int64"
        assert _vanishes(measure, freq_set)
        assert frame_bounds(measure, freq_set).lower == 1.0
        duplicate = FrequencySet.from_scalars([0, 2, 8, 10, 32, 34, 40, 42, 128])
        assert not _vanishes(measure, duplicate)


def _no_phases(*args, **kwargs):
    raise AssertionError("phases computed")


class TestEigenBudget:
    """The eigen budget bounds eigensolves only: an exactly diagonal Gram is reported at any size."""

    def test_diagonal_report_past_the_budget(self, monkeypatch):
        measure, freq_set = level_measure(FOUR, 13), jp_spectrum(FOUR, [0, 2], 13)
        monkeypatch.setattr(frames, "_exact_phase_matrix", _no_phases)
        report = frame_bounds(measure, freq_set)
        assert report.lower == report.upper == 1.0
        assert report.atom_count == report.rank == 8192 > frames.DEFAULT_EIGEN_BUDGET

    def test_empty_set_is_refused_before_the_budget(self, monkeypatch):
        monkeypatch.setattr(frames, "_exact_phase_matrix", _no_phases)
        with pytest.raises(EmptyFrequencySet):
            frame_bounds(level_measure(FOUR, 13), FrequencySet.from_scalars([]))

    def test_small_budget_spares_a_diagonal_report(self, monkeypatch):
        measure, freq_set = level_measure(FOUR, 3), jp_spectrum(FOUR, [0, 2], 3)
        full = frame_bounds(measure, freq_set)
        monkeypatch.setattr(frames, "DEFAULT_EIGEN_BUDGET", 4)
        assert _same_report(frame_bounds(measure, freq_set), full)
        with pytest.raises(EigenBudgetExceeded):
            frame_bounds(measure, FrequencySet.from_scalars(range(8)))

    def test_gram_past_the_budget_is_refused_before_any_phase(self, monkeypatch):
        measure = level_measure(FOUR, 13)
        cross = jp_spectrum(DigitSystem.one_dimensional(8, [0, 1]), [0, 4], 13)
        monkeypatch.setattr(frames, "_exact_phase_matrix", _no_phases)
        assert not _vanishes(measure, cross)
        with pytest.raises(EigenBudgetExceeded, match="8192 atoms exceed the eigen budget 4096"):
            frame_bounds(measure, cross)

    def test_fewer_frequencies_than_atoms_skip_the_cube(self, monkeypatch):
        # F < M: the Gram has rank at most F, so it cannot be diagonal and the cube is never read.
        monkeypatch.setattr(frames, "_cube_steps", _no_phases)
        monkeypatch.setattr(frames, "_exact_phase_matrix", _no_phases)
        with pytest.raises(EigenBudgetExceeded, match="8192 atoms"):
            frame_bounds(level_measure(FOUR, 13), jp_spectrum(FOUR, [0, 2], 12))


def _phase_oracle(freq_nums, p, atom_nums, q) -> np.ndarray:
    return np.array(
        [[float(Fraction(sum(x * y for x, y in zip(f, a)) % (p * q), p * q)) for a in atom_nums] for f in freq_nums]
    )


@pytest.mark.parametrize(
    "dim, k, path",
    [(64, 672, "limbs"), (2048, 21, "limbs"), (65, 672, "object"), (2049, 21, "object")],
    ids=["64x32-limbs", "2048x1-limb", "65x32-limbs", "2049x1-limb"],
)
def test_limb_products_exact_up_to_their_bound(dim, k, path):
    # All-ones limbs make every limb sum as large as it gets: dim * limbs * (2^21 - 1)^2.
    rng = random.Random(dim + k)
    top = (1 << k) - 1
    freq_nums = [(top,) * dim, tuple(rng.randrange(-(2**80), 2**80) for _ in range(dim)), (1,) + (0,) * (dim - 1)]
    atom_nums = [(top,) * dim, tuple(rng.randrange(2**k) for _ in range(dim)), (-1,) * dim]
    kp = 3
    assert frames._phase_path(dim, freq_nums, atom_nums, 2**k) == path
    phases = frames._exact_phase_matrix(dim, (freq_nums, 2**kp), (atom_nums, 2 ** (k - kp)))
    assert np.array_equal(phases, _phase_oracle(freq_nums, 2**kp, atom_nums, 2 ** (k - kp)))


@pytest.mark.parametrize("dim", [1, 3])
@pytest.mark.parametrize("k", [20, 63, 64, 84, 85, 105, 106, 1022])
def test_limb_head_assembly_matches_the_oracle(dim, k):
    # k = 20 is one limb; at k = 63 no bit is cut; cut = k - 63 falls on a digit boundary at
    # k = 84 and 105 and inside a digit at 64, 85, 106 and 1022. The frequency 1 against the
    # atoms 1 and 2^cut + 1 gives phases below 2^-9 with bits cut off: the Python-int fallback.
    rng = random.Random(k * dim)
    cut, pad = max(k - 63, 0), (0,) * (dim - 1)
    freq_nums = [(1, *pad), (3 << 62, *pad)]
    freq_nums += [tuple(rng.randrange(-(2 ** (k + 8)), 2 ** (k + 8)) for _ in range(dim)) for _ in range(6)]
    atom_nums = [(1, *pad), ((1 << cut) + 1, *pad), ((1 << k) - 1,) * dim]
    atom_nums += [tuple(rng.randrange(2**k) for _ in range(dim)) for _ in range(6)]
    kp = k // 3
    assert frames._phase_path(dim, freq_nums, atom_nums, 2**k) == "limbs"
    phases = frames._exact_phase_matrix(dim, (freq_nums, 2**kp), (atom_nums, 2 ** (k - kp)))
    assert np.array_equal(phases, _phase_oracle(freq_nums, 2**kp, atom_nums, 2 ** (k - kp)))


def test_int64_phases_peak_at_one_product_and_the_phase_array():
    # The product is reduced in place and divided into the phase array: about 2 * 8 * F * M bytes.
    # A remainder or quotient formed as a new F x M array raises the peak to about 3 * 8 * F * M.
    rng = random.Random(512)
    freq_nums = [(rng.randrange(-(2**20), 2**20),) for _ in range(512)]
    atom_nums = [(rng.randrange(-(2**20), 2**20),) for _ in range(512)]
    assert frames._phase_path(1, freq_nums, atom_nums, 2**30) == "int64"
    tracemalloc.start()
    try:
        frames._exact_phase_matrix(1, (freq_nums, 2**10), (atom_nums, 2**20))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * 8 * 512 * 512
