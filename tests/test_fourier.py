import ast
import cmath
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from cantorframes import (
    AtomicMeasure,
    DigitSystem,
    DimensionMismatch,
    FrequencySet,
    MaskPolynomial,
    NotCertifiedPacking,
    PointCloud,
    ToleranceUnreachable,
    TransformValue,
    convolve,
    cylinder_points,
    factorization_check,
    jp_spectrum,
    level_measure,
    mask_eval,
    mu_hat,
    packing_certificate_from_clouds,
    translate,
    windowed_transform,
)
from cantorframes import fourier, frames
from cantorframes.fourier import _mu_hat_grid
from cantorframes.packing import CERTIFIED_PACKING
from oracles import oracle_factorization, oracle_mu_hat, oracle_phase_matrix, oracle_windowed_sums

FOUR = DigitSystem.one_dimensional(4, [0, 1])
SIXTEEN_01 = DigitSystem.one_dimensional(16, [0, 1])
SIXTEEN_04 = DigitSystem.one_dimensional(16, [0, 4])
PLANAR = DigitSystem(((4, 0), (0, 4)), ((0, 0), (1, 0), (0, 1)))
SHEARED = DigitSystem(((2, 1), (0, 3)), ((0, 0), (1, 0), (0, 1)))
THREE = DigitSystem.one_dimensional(3, [0, 2])


def _mixed_grid() -> list:
    """Zero, signed zero, tiny and huge |xi|, so factor counts run from 0 to the most."""
    rng = np.random.default_rng(9)
    tiny = [1e-300, -5e-324, 1e-14, -3e-11, 2e-9]
    spread = 10 ** rng.uniform(-12, 4, 200) * rng.choice([-1.0, 1.0], 200)
    return [0.0, -0.0, *tiny, *np.linspace(-1e4, 1e4, 401).tolist(), *spread.tolist(), 1e4, -1e4]


class TestMask:
    def test_at_zero(self):
        assert mask_eval([(0,), (1,)], 0) == 1

    def test_binary_zero_at_half(self):
        assert abs(mask_eval([(0,), (1,)], 0.5)) < 1e-15

    def test_four_digit_zero_at_eighth(self):
        assert abs(mask_eval([(0,), (4,)], 0.125)) < 1e-15

    @pytest.mark.parametrize("call", [lambda: mask_eval([], 0.5), lambda: MaskPolynomial.of([])], ids=["eval", "of"])
    def test_empty_digit_set_refused(self, call):
        with pytest.raises(ValueError) as refused:
            call()
        assert str(refused.value) == "digit set is empty"

    def test_polynomial_wrapper_normalized(self):
        mask = MaskPolynomial.of([0, 1, 5])
        assert mask(0) == 1

    def test_polynomial_digits_kept_sorted(self):
        listed = MaskPolynomial.of([5, 0, 1])
        assert listed == MaskPolynomial.of([0, 1, 5]) and listed.digits == ((0,), (1,), (5,))

    @pytest.mark.parametrize("digits", [[(0,), (1,), (5,)], [(0, 0), (2, 1), (1, 3), (-1, 2)]], ids=["1d", "planar"])
    def test_mask_sums_each_phase_in_coordinate_order(self, digits):
        # <xi, b> is added left to right, never fused into one multiply-add, and reduced mod 1, as the grid does.
        rng = np.random.default_rng(4)
        for xi in rng.uniform(-50, 50, (200, len(digits[0]))).tolist():
            total = 0j
            for b in digits:
                dot = xi[0] * b[0]
                for x, y in zip(xi[1:], b[1:]):
                    dot = dot + x * y
                total += cmath.exp(-2j * np.pi * (dot - round(dot)))
            value = mask_eval(digits, xi)
            assert (value.real, value.imag) == (total.real / len(digits), total.imag / len(digits))

    def test_mask_refuses_wrong_dimension(self):
        with pytest.raises(ValueError, match="frequency has dimension 1, expected 2"):
            mask_eval([(0, 0), (1, 0)], 0.5)

    @pytest.mark.parametrize("digits", [[(0,), (2.5,)], [0, 2.5], [(0, 0), (1, 0.5)]])
    def test_polynomial_refuses_non_integer_digits(self, digits):
        with pytest.raises(ValueError, match="integer"):
            MaskPolynomial.of(digits)


class TestMuHat:
    def test_at_zero(self):
        assert mu_hat(FOUR, 0.0, 1e-10).value == 1

    def test_jp_frequency_orthogonality(self):
        freqs = [f[0] for f in jp_spectrum(FOUR, [0, 2], 4).freqs]
        worst = 0.0
        for i, a in enumerate(freqs):
            for b in freqs[i + 1 :]:
                worst = max(worst, abs(mu_hat(FOUR, a - b, 1e-10).value))
        assert worst < 1e-8

    def test_matches_deep_level_measure(self):
        deep = level_measure(FOUR, 12)
        for xi in (1.0, 0.3, -2.7):
            direct = windowed_transform(deep, None, xi)
            truncated = mu_hat(FOUR, xi, 1e-10)
            assert abs(direct - truncated.value) < 1e-5

    def test_hermitian_symmetry(self):
        for xi in (0.25, 1.7, 5.0):
            assert abs(mu_hat(FOUR, xi, 1e-12).value - mu_hat(FOUR, -xi, 1e-12).value.conjugate()) < 1e-12

    def test_modulus_bounded_by_one(self):
        for xi in np.linspace(-30, 30, 61):
            assert abs(mu_hat(FOUR, float(xi), 1e-10).value) <= 1 + 1e-12

    def test_refinement_equation(self):
        tol = 1e-11
        for xi in (0.9, 3.3, -1.2):
            full = mu_hat(FOUR, xi, tol)
            quarter = xi / 4.0
            factored = mask_eval(FOUR.digits, quarter) * mu_hat(FOUR, quarter, tol).value
            assert abs(full.value - factored) <= 2 * tol + 1e-12

    def test_tolerance_floor(self):
        with pytest.raises(ToleranceUnreachable):
            mu_hat(FOUR, 1.0, 1e-18)

    @pytest.mark.parametrize(
        "ds, xi",
        [(FOUR, float("nan")), (FOUR, float("inf")), (FOUR, float("-inf")), (PLANAR, (0.5, float("nan")))],
    )
    def test_non_finite_frequency_raises(self, ds, xi):
        with pytest.raises(ValueError, match="not finite"):
            mu_hat(ds, xi, 1e-10)


def _grid_values(ds, grid, tol) -> list:
    """The arrays of ``_mu_hat_grid`` as one ``TransformValue`` per point."""
    re, im, bound, factors = (a.tolist() for a in _mu_hat_grid(ds, grid, tol))
    return [TransformValue(complex(r, i), t, n) for r, i, t, n in zip(re, im, bound, factors)]


class TestMuHatGrid:
    @pytest.mark.parametrize("ds", [FOUR, SIXTEEN_04, THREE], ids=["4:0,1", "16:0,4", "3:0,2"])
    @pytest.mark.parametrize("tol", [1e-10, 1e-15, 1e-3])
    def test_bit_identical_to_per_point_product(self, ds, tol):
        grid = _mixed_grid()
        values = _grid_values(ds, grid, tol)
        assert len({v.factors for v in values}) > 5 and min(v.factors for v in values) == 0
        for xi, got in zip(grid, values):
            value, tail_bound, factors = oracle_mu_hat(ds, xi, tol)
            assert (got.value.real, got.value.imag, got.tail_bound, got.factors) == (
                value.real, value.imag, tail_bound, factors
            ), xi

    def test_public_mu_hat_is_the_one_point_grid(self):
        for xi in (0.0, 1e-12, 0.3, -2.7, 9999.5):
            value, tail_bound, factors = oracle_mu_hat(FOUR, xi, 1e-10)
            assert mu_hat(FOUR, xi, 1e-10) == _grid_values(FOUR, [xi], 1e-10)[0]
            assert _grid_values(FOUR, [xi], 1e-10)[0] == TransformValue(value, tail_bound, factors)

    @pytest.mark.parametrize("ds", [PLANAR, SHEARED], ids=["diagonal", "sheared"])
    def test_planar_matches_per_point_product(self, ds):
        rng = np.random.default_rng(4)
        grid = [(0.0, 0.0), (1e-9, -2e-9), *(tuple(p) for p in rng.uniform(-10, 10, (150, 2)).tolist())]
        for xi, got in zip(grid, _grid_values(ds, grid, 1e-10)):
            value, tail_bound, factors = oracle_mu_hat(ds, xi, 1e-10)
            assert abs(got.value - value) <= 1e-15, xi
            assert got.factors == factors
            assert abs(got.tail_bound - tail_bound) <= 4 * np.finfo(float).eps * tail_bound

    def test_empty_grid(self):
        arrays = _mu_hat_grid(FOUR, [], 1e-10)
        assert [(a.shape, a.dtype.kind) for a in arrays] == [((0,), "f")] * 3 + [((0,), "i")]

    def test_digit_order_reaches_no_value(self):
        grid = np.linspace(-50.0, 50.0, 10_001)
        listed, ordered = (DigitSystem.one_dimensional(16, digits) for digits in ([5, 4, 1, 0], [0, 1, 4, 5]))
        assert _grid_values(listed, grid, 1e-10) == _grid_values(ordered, grid, 1e-10)

    @pytest.mark.parametrize("ds", [FOUR, SIXTEEN_01, SIXTEEN_04], ids=["4:0,1", "16:0,1", "16:0,4"])
    def test_large_frequencies_within_the_printed_tail_bound(self, ds):
        # Here eta and <eta, b> are exact floats, so the reduced phases are exact and only the tail remains.
        mpmath = pytest.importorskip("mpmath")
        base, digits = ds.matrix[0][0], [b for (b,) in ds.digits]
        for k in range(51):
            xi = 2.0**k + 0.3
            with mpmath.workdps(60):
                product, eta = mpmath.mpc(1), mpmath.mpf(xi)
                while abs(eta) > mpmath.mpf(10) ** -40:
                    eta /= base
                    product *= mpmath.fsum(mpmath.expj(-2 * mpmath.pi * eta * b) for b in digits) / len(digits)
                got = mu_hat(ds, xi, 1e-10)
                assert abs(mpmath.mpc(got.value) - product) <= got.tail_bound, k

    def test_non_finite_middle_point_is_named(self):
        with pytest.raises(ValueError, match=r"frequency \(nan,\) is not finite"):
            _mu_hat_grid(FOUR, [0.0, 1.5, float("nan"), 2.0], 1e-10)
        with pytest.raises(ValueError, match=r"frequency \(0\.5, inf\) is not finite"):
            _mu_hat_grid(PLANAR, [(0.0, 1.0), (0.5, float("inf")), (2.0, 2.0)], 1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension 1, expected 2"):
            _mu_hat_grid(PLANAR, [0.5, 1.0], 1e-10)

    @pytest.mark.parametrize("tol", [1e-18, 0.0, -1.0, float("nan")])
    def test_tolerance_floor(self, tol):
        with pytest.raises(ToleranceUnreachable, match="below float resolution"):
            _mu_hat_grid(FOUR, [0.0, 1.0], tol)

    def test_too_many_factors(self):
        # |xi|^2 overflows, so the tail bound stays infinite at every factor.
        with pytest.raises(ToleranceUnreachable, match="too many factors"):
            _mu_hat_grid(FOUR, [1.0, 1e200, 2.0], 1e-10)


class TestWindowedTransform:
    def test_total_mass_at_zero(self):
        m = level_measure(FOUR, 3)
        assert windowed_transform(m, None, 0) == m.total

    def test_indicator_window(self):
        m = level_measure(FOUR, 1)
        value = windowed_transform(m, [(Fraction(0),)], 0)
        assert value == Fraction(1, 2)

    def test_convolution_identity_in_frequency(self):
        a = level_measure(SIXTEEN_01, 2)
        b = level_measure(SIXTEEN_04, 2)
        c = convolve(a, b)
        rng = np.random.default_rng(3)
        for xi in rng.uniform(-40, 40, size=100):
            lhs = windowed_transform(c, None, float(xi))
            rhs = windowed_transform(a, None, float(xi)) * windowed_transform(b, None, float(xi))
            assert abs(lhs - rhs) < 1e-10

    def test_phase_of_translation(self):
        m = level_measure(FOUR, 2)
        xi = 1.3
        shifted = translate(m, Fraction(3, 8))
        expected = cmath.exp(-2j * cmath.pi * xi * 3 / 8) * windowed_transform(m, None, xi)
        assert abs(windowed_transform(shifted, None, xi) - expected) < 1e-12

    @pytest.mark.parametrize("window", [[(0, 0)], {(0, 0): 1.0}], ids=["set", "dict"])
    def test_window_point_of_wrong_dimension_raises(self, window):
        with pytest.raises(DimensionMismatch):
            windowed_transform(level_measure(FOUR, 2), window, 0.5)

    def test_large_frequency_matches_fraction_phases(self):
        # A float product <xi, x> at xi ~ 2^30 keeps only ~7 phase digits.
        m = level_measure(FOUR, 6)
        xi = 2.0**30 + 0.3
        phases = oracle_phase_matrix(m, FrequencySet.from_scalars([xi]))[0]
        expected = sum(float(w) * cmath.exp(-2j * cmath.pi * p) for w, p in zip(m.weights, phases))
        assert abs(windowed_transform(m, None, xi) - expected) < 1e-12

    def test_integer_frequency_past_exact_doubles(self):
        # 2^60 + 1 is 1 mod 16, the atoms' denominator; as a float it used to read 2^60, which is 0 mod 16.
        m = level_measure(FOUR, 2)
        assert windowed_transform(m, None, 2**60 + 1) == windowed_transform(m, None, 1) != m.total
        assert windowed_transform(m, None, Fraction(1, 3)) == windowed_transform(m, None, Fraction(1, 3) + 2**60)


class TestFactorization:
    def test_cylinder_window_sums_match_row_fsum_oracle(self):
        # Criterion 4's four cylinder windows on an offset grid; each sum bit for bit.
        nu, lam = level_measure(SIXTEEN_01, 4), level_measure(SIXTEEN_04, 4)
        mu = convolve(nu, lam)
        xis = [np.array([xi]) for xi in np.linspace(-25.0, 25.0, 100) + 0.1372]
        windows = [
            (cylinder_points(SIXTEEN_01, 4, [(0,)]), lam.locations),
            (nu.locations, cylinder_points(SIXTEEN_04, 4, [(4,)])),
            (cylinder_points(SIXTEEN_01, 4, [(1,), (0,)]), cylinder_points(SIXTEEN_04, 4, [(0,)])),
            (nu.locations, lam.locations),
        ]
        for window_e, window_f in windows:
            sums = {tuple(a + b for a, b in zip(p, q)) for p in window_e for q in window_f}
            for measure, window in ((nu, window_e), (lam, window_f), (mu, sums)):
                values = [windowed_transform(measure, window, xi) for xi in xis]
                assert values == oracle_windowed_sums(measure, window, xis)

    def test_certified_pair_has_tiny_deviation(self):
        nu = level_measure(SIXTEEN_01, 3)
        lam = level_measure(SIXTEEN_04, 3)
        grid = np.linspace(-25, 25, 120)
        report = factorization_check(nu, lam, cylinder_points(SIXTEEN_01, 3, [(0,)]), lam.locations, grid)
        assert report.certified
        assert report.max_deviation < 1e-10
        assert len(report.argmax_xi) == 1 and type(report.argmax_xi[0]) is float
        assert report.argmax_xi[0] in grid.tolist()

    def test_empty_window_vanishes(self):
        nu = level_measure(SIXTEEN_01, 2)
        lam = level_measure(SIXTEEN_04, 2)
        report = factorization_check(nu, lam, [], lam.locations, [0.0, 1.0])
        assert report.max_deviation == 0

    def test_dirac_pair_is_certified(self):
        # One atom a side leaves no gap for a zero-tail certificate to measure, yet the pair packs.
        nu, lam = AtomicMeasure.dirac(Fraction(1, 3)), AtomicMeasure.dirac(Fraction(1, 4))
        report = factorization_check(nu, lam, nu.locations, lam.locations, np.linspace(-5.0, 5.0, 21))
        assert report.certified
        assert report.max_deviation <= 1e-15

    @pytest.mark.parametrize("dim", [1, 2])
    def test_certified_matches_zero_tail_certificate(self, dim):
        rng = np.random.default_rng(2017 + dim)

        def support():
            # Small numerators over 1, 2 or 3, so that atom sums often coincide; repeated points merge.
            points = [
                [Fraction(int(x), int(rng.choice([1, 2, 3]))) for x in rng.integers(-3, 4, dim)]
                for _ in range(rng.integers(2, 7))
            ]
            return AtomicMeasure.from_atoms(dim, [(p, 1) for p in points])

        seen = set()
        for _ in range(150):
            nu, lam = support(), support()
            if min(len(nu), len(lam)) < 2:
                continue
            report = factorization_check(nu, lam, nu.locations, lam.locations, [(0.5,) * dim], force=True)
            clouds = (PointCloud(dim, m.locations, Fraction(0)) for m in (nu, lam))
            assert report.certified == (packing_certificate_from_clouds(*clouds).status == CERTIFIED_PACKING)
            seen.add(report.certified)
        assert seen == {True, False}

    def test_refuses_without_packing(self):
        m = level_measure(DigitSystem.one_dimensional(2, [0, 1]), 2)
        with pytest.raises(NotCertifiedPacking):
            factorization_check(m, m, m.locations, m.locations, [0.0])

    @pytest.mark.parametrize(
        "shift_nu, shift_lam",
        [(0, 0), (Fraction(1, 3), 0), (0.375, -0.5), (Fraction(-5, 4096), 0.1)],
        ids=["no-shift", "third", "float-shifts", "mixed"],
    )
    def test_off_grid_windows_match_fraction_oracle(self, shift_nu, shift_lam):
        # Float offsets, window points off every atom grid, float and repeated points.
        nu = translate(level_measure(SIXTEEN_01, 2), shift_nu)
        lam = translate(level_measure(SIXTEEN_04, 3), shift_lam)
        window_e = list(nu.locations)[::2] + [(Fraction(1, 3),), (0.25,), (0.1,)]
        window_f = list(lam.locations)[1::3] + [(Fraction(-1, 7),), (0.0625,)]
        window_f += window_f[:2]
        grid = np.linspace(-30.0, 30.0, 77)
        report = factorization_check(nu, lam, window_e, window_f, grid, force=True)
        expected = oracle_factorization(nu, lam, window_e, window_f, grid)
        assert (report.max_deviation, report.argmax_xi, report.grid_size) == expected

    @pytest.mark.parametrize("shift, path", [(0, "limbs"), (Fraction(1, 3), "object")], ids=["dyadic", "thirds"])
    def test_window_points_over_three_match_fraction_oracle(self, monkeypatch, shift, path):
        # e + 1/3 and f - 1/3 are no atoms, yet their sum is an atom of the convolution. The one kernel call
        # takes its modulus from the measures only, so dyadic atoms stay on the limb path.
        nu, lam = translate(level_measure(SIXTEEN_01, 2), shift), level_measure(SIXTEEN_04, 2)
        window_e = list(nu.locations)[::2] + [(nu.locations[1][0] + Fraction(1, 3),)]
        window_f = list(lam.locations)[1::2] + [(lam.locations[0][0] - Fraction(1, 3),)]
        grid = np.linspace(-30.0, 30.0, 61) + 0.1372
        choose, paths = frames._phase_path, []
        monkeypatch.setattr(frames, "_phase_path", lambda *a: paths.append(choose(*a)) or paths[-1])
        report = factorization_check(nu, lam, window_e, window_f, grid)
        assert paths == [path]
        expected = oracle_factorization(nu, lam, window_e, window_f, grid)
        assert (report.max_deviation, report.argmax_xi, report.grid_size) == expected

    def test_planar_pair_matches_fraction_oracle(self):
        nu = level_measure(DigitSystem(((4, 0), (0, 4)), ((0, 0), (1, 0))), 2)
        lam = level_measure(DigitSystem(((4, 0), (0, 4)), ((0, 0), (0, 1))), 2)
        grid = [tuple(p) for p in np.random.default_rng(33).uniform(-12.0, 12.0, (40, 2)).tolist()]
        window_e, window_f = list(nu.locations)[:3], list(lam.locations)[1:]
        report = factorization_check(nu, lam, window_e, window_f, grid)
        assert report.certified and 0 < report.max_deviation < 1e-12
        expected = oracle_factorization(nu, lam, window_e, window_f, grid)
        assert (report.max_deviation, report.argmax_xi, report.grid_size) == expected

    def test_forced_violation_is_visible(self):
        m = level_measure(DigitSystem.one_dimensional(2, [0, 1]), 2)
        window_e = [(Fraction(0),), (Fraction(1, 4),)]
        window_f = [(Fraction(1, 4),)]
        report = factorization_check(m, m, window_e, window_f, [0.0], force=True)
        assert not report.certified
        assert report.max_deviation > 0.1

    def test_integer_grid_point_past_exact_doubles(self):
        # 2^60 + 1 rounds to the float 2^60; read exactly it acts as 1 on atoms over 16^k.
        nu, lam = level_measure(SIXTEEN_01, 2), level_measure(SIXTEEN_04, 2)
        report = factorization_check(nu, lam, nu.locations, lam.locations, [2**60 + 1])
        at_one = factorization_check(nu, lam, nu.locations, lam.locations, [1])
        assert report.argmax_xi == (2**60 + 1,) and type(report.argmax_xi[0]) is int
        assert report.max_deviation == at_one.max_deviation

    def test_grid_of_wrong_dimension_raises(self):
        nu, lam = level_measure(SIXTEEN_01, 1), level_measure(SIXTEEN_04, 1)
        with pytest.raises(DimensionMismatch):
            factorization_check(nu, lam, nu.locations, lam.locations, [(0.0, 1.0)])


def test_fourier_imports_nothing_from_packing():
    # The factorization check reads packing off its own convolution, so fourier sits below packing.
    imported = []
    for node in ast.walk(ast.parse(Path(fourier.__file__).read_text())):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported += [f"{node.module or ''}.{alias.name}" for alias in node.names]
    assert not [name for name in imported if "packing" in name.split(".")]
