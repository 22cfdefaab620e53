import math
from fractions import Fraction

import numpy as np
import pytest

from cantorframes import (
    AtomicMeasure,
    BlockedLinearMap,
    DigitSystem,
    EmptyFrequencySet,
    FrequencySet,
    HadamardCheckFailed,
    PoolExhausted,
    SingularA4,
    SizeMismatch,
    ZeroNormInput,
    add,
    as_float_arrays,
    bessel_quotient,
    frame_bounds,
    frame_bounds_from_arrays,
    greedy_frame_search,
    hadamard_triple_check,
    indicator_coefficients,
    jp_spectrum,
    level_measure,
    shear_blocks,
    synthesis_matrix,
    transform_spectrum,
    translate,
)
from cantorframes.serialize import frame_report_to_jsonable
from instances import build_instances
from oracles import oracle_frame_bounds

FOUR = DigitSystem.one_dimensional(4, [0, 1])
SIXTEEN_01 = DigitSystem.one_dimensional(16, [0, 1])


class TestHadamard:
    def test_quarter_system_pair(self):
        assert hadamard_triple_check(((4,),), [(0,), (1,)], [0, 2])

    def test_quarter_system_consecutive_fails(self):
        assert not hadamard_triple_check(((4,),), [(0,), (1,)], [0, 1])

    def test_sixteenth_system_pair(self):
        assert hadamard_triple_check(((16,),), [(0,), (1,)], [0, 8])

    def test_odd_base_fails(self):
        assert not hadamard_triple_check(((3,),), [(0,), (1,)], [0, 1])

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatch):
            hadamard_triple_check(((4,),), [(0,), (1,)], [0, 1, 2])


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
        assert data["schema"] == "frame-report/2"
        assert data["resolution"] == report.resolution

    def test_empty_frequency_set(self):
        with pytest.raises(EmptyFrequencySet):
            frame_bounds(level_measure(FOUR, 1), FrequencySet(dim=1, freqs=()))

    def test_unitary_iff_tight_at_one(self):
        m = level_measure(FOUR, 3)
        freq_set = jp_spectrum(FOUR, [0, 2], 3)
        locations, weights = as_float_arrays(m)
        phi = synthesis_matrix(locations, weights, freq_set.as_array())
        assert np.max(np.abs(phi.conj().T @ phi - np.eye(len(m)))) < 1e-12
        report = frame_bounds(m, freq_set)
        assert abs(report.lower - 1) < 1e-10 and abs(report.upper - 1) < 1e-10

    def test_worst_vector_attains_lower_bound(self):
        m = level_measure(FOUR, 3)
        freq_set = FrequencySet.from_scalars([0, 1, 3, 4, 9, 11, 12, 15])
        report = frame_bounds(m, freq_set)
        assert abs(bessel_quotient(m, freq_set, report.worst_vector) - report.lower) < 1e-8

    def test_one_eigh_per_gram(self, monkeypatch):
        calls = []
        for name in ("eigh", "eigvalsh"):
            original = getattr(np.linalg, name)

            def counted(*args, _name=name, _fn=original, **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        frame_bounds(level_measure(FOUR, 3), FrequencySet.from_scalars([0, 1, 3, 4, 9, 11, 12, 15]))
        assert calls == ["eigh"]

    def test_more_than_1024_atoms_agrees_with_eigvalsh(self):
        # 1088 atoms against 1000 frequencies: F < M, so no frame.
        measure = add(level_measure(FOUR, 10), translate(level_measure(FOUR, 6), Fraction(1, 3)))
        locations, weights = as_float_arrays(measure)
        freq_set = FrequencySet.from_scalars(range(1000))
        report = frame_bounds_from_arrays(locations, weights, freq_set)
        assert report.atom_count == 1088
        assert report.lower == 0
        assert report.rank <= len(freq_set)
        phi = synthesis_matrix(locations, weights, freq_set.as_array())
        eigvals = np.linalg.eigvalsh(phi.conj().T @ phi)
        tol = 1088 * np.finfo(float).eps * max(report.upper, 1.0)
        assert report.rank == int(np.count_nonzero(eigvals > tol))
        assert abs(report.upper - eigvals[-1]) < 1e-10


ENTRY_POINTS = {
    "frame_bounds": frame_bounds,
    "frame_bounds_from_arrays": lambda m, fs: frame_bounds_from_arrays(*as_float_arrays(m), fs),
    "greedy_frame_search": lambda m, fs: greedy_frame_search(m, fs, len(fs)),
}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_entry_points_share_input_checks(entry):
    call, pair = ENTRY_POINTS[entry], FrequencySet.from_scalars([0, 1])
    with pytest.raises(ZeroNormInput):
        call(AtomicMeasure.from_atoms(1, []), pair)
    with pytest.raises(SizeMismatch):
        call(level_measure(FOUR, 2), FrequencySet(dim=2, freqs=((0.0, 1.0), (2.0, 3.0))))
    if entry == "frame_bounds_from_arrays":
        locations, weights = as_float_arrays(level_measure(FOUR, 2))
        with pytest.raises(SizeMismatch):
            frame_bounds_from_arrays(locations, weights[1:], pair)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
def test_frequency_set_rejects_non_finite(bad):
    with pytest.raises(ValueError) as one_d:
        FrequencySet.from_scalars([0.0, bad])
    assert str(one_d.value) == f"frequency {(bad,)} is not finite"
    with pytest.raises(ValueError) as planar:
        FrequencySet(dim=2, freqs=((0.0, 1.0), (2.0, bad)))
    assert str(planar.value) == f"frequency {(2.0, bad)} is not finite"


class TestBesselQuotient:
    def test_dimension_mismatch_rejected(self):
        planar = FrequencySet(dim=2, freqs=((0.0, 1.0), (2.0, 3.0)))
        with pytest.raises(SizeMismatch):
            bessel_quotient(level_measure(FOUR, 2), planar, [1, 0, 0, 0])

    def test_zero_norm_rejected(self):
        m = level_measure(FOUR, 2)
        with pytest.raises(ZeroNormInput):
            bessel_quotient(m, FrequencySet.from_scalars([0, 1]), [0, 0, 0, 0])

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
        out = transform_spectrum(freq_set, BlockedLinearMap.from_matrix(np.eye(2), 1))
        assert out.freqs == freq_set.freqs

    def test_transform_spectrum_rotation(self):
        theta = math.radians(30)
        freq_set = FrequencySet(dim=2, freqs=((1.0, 2.0),))
        out = transform_spectrum(freq_set, BlockedLinearMap.rotation_2d(theta))
        assert abs(out.freqs[0][1] - (2.0 + math.tan(theta) * 1.0)) < 1e-12

    def test_gram_matrices_agree_after_transport(self):
        theta = math.radians(40)
        mu = level_measure(FOUR, 2)
        nu = level_measure(SIXTEEN_01, 2)
        mu_locs, mu_w = as_float_arrays(mu)
        nu_locs, nu_w = as_float_arrays(nu)
        base_locs = np.array(
            [(float(x), 0.0) for x in mu_locs[:, 0]] + [(0.0, float(y)) for y in nu_locs[:, 0]]
        )
        base_w = np.concatenate([mu_w, nu_w])
        cos_t, sin_t = math.cos(theta), math.sin(theta)
        rot_locs = np.array(
            [(float(x), 0.0) for x in mu_locs[:, 0]]
            + [(-sin_t * float(y), cos_t * float(y)) for y in nu_locs[:, 0]]
        )
        freq_set = FrequencySet(
            dim=2, freqs=tuple((float(a), float(b)) for a in (0, 2, 8, 10) for b in (0, 8, 128, 136))
        )
        scaled = FrequencySet(dim=2, freqs=tuple((f[0], f[1] / cos_t) for f in freq_set.freqs))
        transported = transform_spectrum(scaled, BlockedLinearMap.rotation_2d(theta))
        phi_base = synthesis_matrix(base_locs, base_w, freq_set.as_array())
        phi_rot = synthesis_matrix(rot_locs, base_w, transported.as_array())
        gram_base = phi_base.conj().T @ phi_base
        gram_rot = phi_rot.conj().T @ phi_rot
        assert np.max(np.abs(gram_base - gram_rot)) < 1e-10


class TestGreedy:
    def test_four_atoms_integer_pool(self):
        m = level_measure(FOUR, 2)
        pool = FrequencySet.from_scalars(range(16), provenance="lattice-pool")
        selection = greedy_frame_search(m, pool, 4)
        assert selection.report.lower > 0
        assert selection.report.rank == 4

    def test_orthonormal_pool_returns_basis(self):
        m = level_measure(FOUR, 2)
        selection = greedy_frame_search(m, jp_spectrum(FOUR, [0, 2], 2), 4)
        assert abs(selection.report.lower - 1) < 1e-9
        assert abs(selection.report.upper - 1) < 1e-9

    def test_small_target_warns_and_reports_zero(self):
        m = level_measure(FOUR, 2)
        pool = FrequencySet.from_scalars(range(16))
        with pytest.warns(UserWarning):
            selection = greedy_frame_search(m, pool, 2)
        assert selection.report.lower == 0

    def test_pool_smaller_than_target(self):
        m = level_measure(FOUR, 2)
        with pytest.raises(PoolExhausted):
            greedy_frame_search(m, FrequencySet.from_scalars([0, 1]), 4)

    def test_inadequate_pool_detected(self):
        m = level_measure(FOUR, 2)
        duplicate_phase = FrequencySet.from_scalars([0, 16, 32, 48, 64])
        with pytest.raises(PoolExhausted):
            greedy_frame_search(m, duplicate_phase, 5)

    def test_deterministic_selection(self):
        m = level_measure(FOUR, 2)
        pool = FrequencySet.from_scalars(range(16))
        first = greedy_frame_search(m, pool, 6)
        second = greedy_frame_search(m, pool, 6)
        assert first.selected_indices == second.selected_indices


class TestEigenOracle:
    @pytest.mark.parametrize("name,measure,freq_set", build_instances())
    def test_production_matches_oracle(self, name, measure, freq_set):
        report = frame_bounds(measure, freq_set)
        assert report.atom_count <= 64
        lower, upper = oracle_frame_bounds(measure, freq_set)
        assert abs(report.upper - upper) < 1e-8, name
        assert abs(report.lower - lower) < 1e-8, name
