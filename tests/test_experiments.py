import math
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from cantorframes import (
    BlockedLinearMap,
    DigitSystem,
    EigenBudgetExceeded,
    NotCertifiedPacking,
    ZeroNormInput,
    collinear_lower_bounds,
    cross_bessel_experiment,
    degeneracy_experiment,
    experiments,
    frames,
    jp_spectrum,
    rotation_experiment,
)
from cantorframes.measures import _common_numerators
from instances import _planar_sum
from oracles import oracle_laplacian_bounds, oracle_rotated_phases, oracle_rotation_bounds

FOUR = DigitSystem.one_dimensional(4, [0, 1])
EIGHT = DigitSystem.one_dimensional(8, [0, 1])
SIXTEEN_01 = DigitSystem.one_dimensional(16, [0, 1])
SIXTEEN_04 = DigitSystem.one_dimensional(16, [0, 4])
ROOT = Path(__file__).resolve().parent.parent
IDENTITY_ANGLES = (0.0, 30.0, 45.0, 120.0, -45.0) + tuple(np.random.default_rng(2017).uniform(1, 89, 3).tolist())


class TestDegeneracy:
    def test_quarter_sum_table(self):
        freq_set = jp_spectrum(FOUR, [0, 2], 4)
        result = degeneracy_experiment(SIXTEEN_01, SIXTEEN_04, 0, 2, freq_set, [2, 8, 32, 128])
        masses = {r.k: r.ball_mass for r in result.rows}
        assert masses == {2: 1, 8: Fraction(1, 2), 32: Fraction(1, 2), 128: Fraction(1, 4)}
        assert abs(result.upper_estimate - 5) < 1e-9
        assert abs(result.nu_upper_estimate - 4) < 1e-9
        for row in result.rows:
            assert row.quotient <= result.upper_estimate * float(row.ball_mass) + 1e-10
            assert row.quotient_over_mass <= result.nu_upper_estimate + 1e-9

    def test_large_ball_is_trivial(self):
        freq_set = jp_spectrum(FOUR, [0, 2], 2)
        result = degeneracy_experiment(SIXTEEN_01, SIXTEEN_04, 0, 1, freq_set, [1])
        assert result.rows[0].ball_mass == 1
        assert result.rows[0].inverse_mass == 1

    def test_empty_ball_names_k(self):
        # No atom of 16:{1,4} at level 2 lies within 1/64 of 0.
        freq_set = jp_spectrum(FOUR, [0, 2], 2)
        lam = DigitSystem.one_dimensional(16, [1, 4])
        with pytest.raises(ZeroNormInput, match=r"within 1/64 of 0: the window for k=64 is empty"):
            degeneracy_experiment(SIXTEEN_01, lam, 0, 2, freq_set, [2, 64])

    def test_refuses_non_packing_pair(self):
        freq_set = jp_spectrum(FOUR, [0, 2], 2)
        with pytest.raises(NotCertifiedPacking, match="^the two systems are certified not to pack$"):
            degeneracy_experiment(SIXTEEN_01, SIXTEEN_01, 0, 1, freq_set, [2])

    def test_refuses_undecided_pair(self):
        # 4:{0,1} with 4:{0,2} does not pack, but neither the digit criterion nor the clouds decide it.
        freq_set = jp_spectrum(FOUR, [0, 2], 2)
        with pytest.raises(NotCertifiedPacking, match="^no packing certificate available for the pair$"):
            degeneracy_experiment(FOUR, DigitSystem.one_dimensional(4, [0, 2]), 0, 2, freq_set, [2])

    def test_planar_pair_table(self):
        # 16 I with {0,1}^2 and {0,4}^2: the level-1 second factor sits at {0, 1/4}^2,
        # so the balls of radius 1/2, 1/4 and 1/8 about the planar origin hold 4, 3 and 1 atoms.
        square = [(0, 0), (1, 0), (0, 1), (1, 1)]
        nu, lam = (DigitSystem(((16, 0), (0, 16)), [(k * x, k * y) for x, y in square]) for k in (1, 4))
        freq_set = jp_spectrum(DigitSystem(((4, 0), (0, 4)), square), [(2 * x, 2 * y) for x, y in square], 2)
        result = degeneracy_experiment(nu, lam, (0, 0), 1, freq_set, [2, 4, 8], collapse_levels=())
        assert {r.k: r.ball_mass for r in result.rows} == {2: 1, 4: Fraction(3, 4), 8: Fraction(1, 4)}
        for row in result.rows:
            assert row.quotient <= result.upper_estimate * float(row.ball_mass) + 1e-10
        assert result.collapse == ()

    def test_k_list_is_read_as_integers(self):
        # int() read 2.5 as k = 2; a numpy integer is still an integer.
        freq_set = jp_spectrum(FOUR, [0, 2], 2)
        with pytest.raises(TypeError):
            degeneracy_experiment(SIXTEEN_01, SIXTEEN_04, 0, 1, freq_set, [2.5])
        result = degeneracy_experiment(SIXTEEN_01, SIXTEEN_04, 0, 1, freq_set, np.array([2]))
        assert result == degeneracy_experiment(SIXTEEN_01, SIXTEEN_04, 0, 1, freq_set, [2])
        assert type(result.rows[0].k) is int

    @pytest.mark.parametrize("k", [0, -2])
    def test_k_below_one_refused_first(self, monkeypatch, k):
        def nothing_built(*args, **kwargs):
            raise AssertionError("a skeleton or frame bound was built before k was checked")

        for name in ("_certified_packing", "_skeletons", "level_measure", "frame_bounds"):
            monkeypatch.setattr(experiments, name, nothing_built)
        with pytest.raises(ValueError, match=rf"^k must be >= 1, got {k}$"):
            degeneracy_experiment(SIXTEEN_01, SIXTEEN_04, 0, 2, jp_spectrum(FOUR, [0, 2], 2), [2, k])


class TestCollapse:
    def test_strictly_decreasing_lower_bounds(self):
        values = collinear_lower_bounds(SIXTEEN_01, SIXTEEN_04, 0, (2, 3, 4, 5))
        bounds = [a for _, a in values]
        assert all(bounds[i] > bounds[i + 1] for i in range(len(bounds) - 1))
        assert bounds[0] > 1e-3

    def test_levels_below_two_rejected(self):
        with pytest.raises(ValueError):
            collinear_lower_bounds(SIXTEEN_01, SIXTEEN_04, 0, (1,))

    def test_sum_levels_are_read_as_integers(self):
        with pytest.raises(TypeError):
            collinear_lower_bounds(SIXTEEN_01, SIXTEEN_04, 0, (2.5,))
        values = collinear_lower_bounds(SIXTEEN_01, SIXTEEN_04, 0, np.array([2]))
        assert values == collinear_lower_bounds(SIXTEEN_01, SIXTEEN_04, 0, (2,))

    def test_eigen_budget_applies(self, monkeypatch):
        # Sum level 13 has 8192 atoms, twice the default eigen budget.
        def no_phases(*args, **kwargs):
            raise AssertionError("phases computed before the budget check")

        monkeypatch.setattr(frames, "_exact_phase_matrix", no_phases)
        with pytest.raises(EigenBudgetExceeded):
            collinear_lower_bounds(SIXTEEN_01, SIXTEEN_04, 0, (13,))


class TestRotation:
    def test_bounds_are_theta_independent(self):
        result = rotation_experiment(3, [0, 10, 30, 45, 60, 80])
        for row in result.rows:
            assert row.status == "ok"
            assert row.lower_deviation < 1e-8
            assert row.upper_deviation < 1e-8
        assert result.base_report.lower > 0

    def test_right_angle_reports_singular_block(self):
        result = rotation_experiment(2, [90, -90, 270, 450])
        assert all(r.status == "singular-a4" for r in result.rows)

    def test_near_right_angles_carry_base_bounds(self):
        # Both cosines are about 1.7e-16, under the 1e-12 margin of shear_blocks.
        result = rotation_experiment(2, [89.99999999999999, 90.00000000000001])
        base = result.base_report
        for row in result.rows:
            assert row.status == "ok", row.theta_degrees
            assert (row.lower, row.upper, row.lower_deviation, row.upper_deviation) == (base.lower, base.upper, 0.0, 0.0)

    def test_collapse_branch_attached(self):
        result = rotation_experiment(2, [0], collapse_levels=(2, 3))
        assert len(result.collapse) == 2
        assert result.collapse[0][1] > result.collapse[1][1]


class TestRotationIdentity:
    @pytest.mark.parametrize("level", [3, 4, 5])
    def test_rows_carry_base_bounds_exactly(self, level):
        result = rotation_experiment(level, IDENTITY_ANGLES)
        base = result.base_report
        assert [r.status for r in result.rows] == ["ok"] * len(IDENTITY_ANGLES)
        for row in result.rows:
            assert (row.lower, row.upper) == (base.lower, base.upper)
            assert (row.lower_deviation, row.upper_deviation) == (0.0, 0.0)

    def test_float_pipeline_agrees(self):
        result = rotation_experiment(4, IDENTITY_ANGLES)
        for row in result.rows:
            lower, upper = oracle_rotation_bounds(4, result.base_frequencies, row.theta_degrees)
            assert abs(lower - row.lower) < 1e-8, row.theta_degrees
            assert abs(upper - row.upper) < 1e-8, row.theta_degrees

    def test_wrong_transport_raises(self, monkeypatch):
        # First coordinates are integers and stay so under the shear; this
        # moves the numerator of one of them by one.
        transport = experiments._shear_transport

        def off_by_one(freq_rows, t_map):
            rows, d = transport(freq_rows, t_map)
            return [(rows[0][0] + d, *rows[0][1:])] + rows[1:], d

        monkeypatch.setattr(experiments, "_shear_transport", off_by_one)
        with pytest.raises(RuntimeError, match="phase identity"):
            rotation_experiment(3, [30])

    def test_linear_wrong_transport_raises(self, monkeypatch):
        # A linear map, so only the values on the basis can expose it: it adds l1 to l2.
        transport = experiments._shear_transport

        def skewed(freq_rows, t_map):
            rows, d = transport(freq_rows, t_map)
            return [(f0, f1 + f0) for f0, f1 in rows], d

        monkeypatch.setattr(experiments, "_shear_transport", skewed)
        with pytest.raises(RuntimeError, match="phase identity"):
            rotation_experiment(3, [30])

    @pytest.mark.parametrize("level", [2, 3, 4])
    def test_rotated_phases_equal_base(self, level):
        freqs = rotation_experiment(level, []).base_frequencies
        planar = _planar_sum(level)
        for theta in IDENTITY_ANGLES:
            rotated, base = oracle_rotated_phases(level, freqs, theta)
            assert np.array_equal(rotated, base), theta
            # The library's shear maps through the phase kernel give the same matrix.
            t_map = BlockedLinearMap.rotation_2d(math.radians(theta))
            scaled = _common_numerators([(f0, Fraction(f1) / Fraction(t_map.a4[0][0])) for f0, f1 in freqs.freqs])
            atoms = experiments._sheared_atoms((planar.numerators, planar.denominator), t_map)
            assert np.array_equal(frames._exact_phase_matrix(2, frames._shear_transport(scaled, t_map), atoms), base)

    def test_no_phase_matrix_per_angle(self, monkeypatch):
        calls = []
        original = frames._exact_phase_matrix

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        for module in (frames, experiments):
            monkeypatch.setattr(module, "_exact_phase_matrix", counted, raising=False)
        counts = []
        for thetas in ([0.0], IDENTITY_ANGLES + (90.0,)):
            calls.clear()
            rotation_experiment(3, thetas)
            counts.append(len(calls))
        assert counts[0] == counts[1]

    def test_no_eigensolve_per_angle(self, monkeypatch):
        calls = []
        for name in ("eigh", "eigvalsh"):
            original = getattr(np.linalg, name)

            def counted(*args, _fn=original, **kwargs):
                calls.append(1)
                return _fn(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        counts = []
        for thetas in ([0.0], IDENTITY_ANGLES + (90.0,)):
            calls.clear()
            rotation_experiment(3, thetas)
            counts.append(len(calls))
        assert counts[0] == counts[1] > 0

    @pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
    def test_non_finite_angle_refused_first(self, monkeypatch, theta):
        def nothing_built(*args, **kwargs):
            raise AssertionError("a skeleton was built before the angles were checked")

        monkeypatch.setattr(experiments, "level_measure", nothing_built)
        with pytest.raises(ValueError, match=rf"^angle {theta} is not finite$"):
            rotation_experiment(2, [30, theta])

    def test_right_angle_fields_are_none(self):
        (row,) = rotation_experiment(2, [90]).rows
        assert (row.lower, row.upper, row.lower_deviation, row.upper_deviation) == (None,) * 4


def _graph_edges(freq_set, level: int) -> list:
    """The rotation frame as edges (i, j): indices into the level-n jp spectra J4 and J16; KeyError off J4 x J16."""
    j4 = {f: i for i, (f,) in enumerate(jp_spectrum(FOUR, [0, 2], level).freqs)}
    j16 = {f: j for j, (f,) in enumerate(jp_spectrum(SIXTEEN_01, [0, 8], level).freqs)}
    return [(j4[a], j16[b]) for a, b in freq_set.freqs]


class TestGraphFrame:
    """The rotation frame is a fixed min(4, N)-regular bipartite graph on J4 and J16, N = 2^level of each."""

    @pytest.mark.parametrize("level", range(2, 7))
    def test_bounds_are_the_laplacian_extremes(self, level):
        result = rotation_experiment(level, [])
        report = result.base_report
        lower, upper = oracle_laplacian_bounds(_graph_edges(result.base_frequencies, level), 2**level)
        assert abs(report.lower - lower) <= report.resolution
        assert abs(report.upper - upper) <= report.resolution
        assert report.rank == report.atom_count == 2 ** (level + 1) - 1

    @pytest.mark.parametrize("level", range(1, 7))
    def test_graph_is_regular_simple_and_connected(self, level):
        n, edges = 2**level, _graph_edges(rotation_experiment(level, []).base_frequencies, level)
        degree = min(4, n)
        assert len(set(edges)) == len(edges) == degree * n
        for side in (0, 1):
            assert Counter(e[side] for e in edges) == dict.fromkeys(range(n), degree)
        neighbours = {v: set() for v in range(2 * n)}
        for i, j in edges:
            neighbours[i].add(n + j)
            neighbours[n + j].add(i)
        seen, frontier = {0}, [0]
        while frontier:
            frontier = [w for v in frontier for w in neighbours[v] - seen]
            seen.update(frontier)
        assert len(seen) == 2 * n

    @pytest.mark.parametrize("level", range(3, 9))
    def test_bounds_stay_away_from_zero(self, level):
        report = rotation_experiment(level, []).base_report
        assert report.lower >= 0.5
        assert abs(report.upper - 8) <= report.resolution

    def test_edges_do_not_depend_on_the_process(self):
        code = "from cantorframes import rotation_experiment\nprint(rotation_experiment(5, []).base_frequencies.freqs)\n"
        path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        expected = f"{rotation_experiment(5, []).base_frequencies.freqs}\n"
        for seed, threads in (("1", "1"), ("2", "2")):
            env = dict(os.environ, PYTHONHASHSEED=seed, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
            done = subprocess.run(
                [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120, check=True
            )
            assert done.stdout == expected


class TestCrossBessel:
    def test_self_spectrum_stays_orthonormal(self):
        result = cross_bessel_experiment(FOUR, [0, 2], FOUR, range(1, 5))
        assert all(abs(r.upper - 1) < 1e-9 for r in result.rows)

    def test_eighth_into_quarter_grows(self):
        result = cross_bessel_experiment(EIGHT, [0, 4], FOUR, range(1, 7))
        uppers = [r.upper for r in result.rows]
        assert all(uppers[i] <= uppers[i + 1] + 1e-12 for i in range(len(uppers) - 1))
        assert uppers[-1] > 3 * uppers[0]

    def test_hand_checkable_first_level(self):
        result = cross_bessel_experiment(EIGHT, [0, 4], FOUR, [1])
        # both frequencies are integers, so they act identically on the
        # quarter-integer atoms {0, 1/4}: the Gram is rank one with trace 2
        assert abs(result.rows[0].upper - 2) < 1e-12

    def test_levels_are_read_as_integers(self):
        with pytest.raises(TypeError):
            cross_bessel_experiment(EIGHT, [0, 4], FOUR, [1.5])
        result = cross_bessel_experiment(EIGHT, [0, 4], FOUR, np.array([1]))
        assert result == cross_bessel_experiment(EIGHT, [0, 4], FOUR, [1])

    def test_depth_ratio_scales_measure(self):
        result = cross_bessel_experiment(EIGHT, [0, 4], FOUR, [2], depth_ratio=2)
        assert result.rows[0].atom_count == 16

    @pytest.mark.parametrize("ratio", [0, -1])
    def test_depth_ratio_below_one_refused(self, ratio):
        # A ratio of 0 used to be clamped to level 1 without a word.
        with pytest.raises(ValueError, match="depth ratio must be >= 1"):
            cross_bessel_experiment(EIGHT, [0, 4], FOUR, [3], depth_ratio=ratio)
