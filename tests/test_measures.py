import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cantorframes import (
    AtomBudgetExceeded,
    AtomicMeasure,
    DigitSystem,
    DuplicateDigits,
    NonExpandingMatrix,
    OffsetMismatch,
    SingularMatrix,
    add,
    attractor_points,
    ball_mass,
    convolve,
    cylinder_points,
    indicator_coefficients,
    level_measure,
    scaled_digit_layer,
    split_by_index_set,
    tail_radius,
    translate,
    translation_overlap,
    validate_digit_system,
)

FOUR = DigitSystem.one_dimensional(4, [0, 1])
TWO = DigitSystem.one_dimensional(2, [0, 1])
SIXTEEN_01 = DigitSystem.one_dimensional(16, [0, 1])
SIXTEEN_04 = DigitSystem.one_dimensional(16, [0, 4])


def fr(*args):
    return Fraction(*args)


def locs(m):
    return [p[0] for p in m.locations]


class TestValidation:
    def test_quarter_system_valid(self):
        report = validate_digit_system(FOUR)
        assert report.expanding
        assert report.spectral_radius_inverse == 0.25
        assert report.inverse_norm_bound == fr(1, 4)

    def test_sixteen_system_valid(self):
        assert validate_digit_system(SIXTEEN_04).expanding

    def test_triangular_eigenvalue_one_rejected(self):
        ds = DigitSystem(((1, 1), (0, 2)), (((0, 0)),))
        with pytest.raises(NonExpandingMatrix):
            validate_digit_system(ds)

    def test_singular_matrix_rejected(self):
        with pytest.raises(SingularMatrix):
            validate_digit_system(DigitSystem(((0,),), ((0,),)))

    def test_duplicate_digits_rejected(self):
        with pytest.raises(DuplicateDigits):
            validate_digit_system(DigitSystem(((4,),), ((0,), (0,))))

    def test_general_expanding_matrix(self):
        ds = DigitSystem(((0, 2), (3, 0)), ((0, 0), (1, 0)))
        assert validate_digit_system(ds).expanding


class TestLevelMeasure:
    def test_single_layer(self):
        m = level_measure(FOUR, 1)
        assert m.atoms == (((fr(0),), fr(1, 2)), ((fr(1, 4),), fr(1, 2)))

    def test_two_layers(self):
        m = level_measure(FOUR, 2)
        assert locs(m) == [fr(0), fr(1, 16), fr(1, 4), fr(5, 16)]
        assert set(m.weights) == {fr(1, 4)}

    def test_dyadic_no_merging(self):
        m = level_measure(TWO, 3)
        assert locs(m) == [fr(k, 8) for k in range(8)]
        assert set(m.weights) == {fr(1, 8)}

    def test_total_is_one(self):
        assert level_measure(SIXTEEN_04, 3).total == 1

    def test_budget_enforced(self):
        with pytest.raises(AtomBudgetExceeded):
            level_measure(TWO, 10, budget=512)

    def test_layer_index_below_one_rejected(self):
        with pytest.raises(ValueError):
            scaled_digit_layer(FOUR, 0)

    def test_layer_recursion(self):
        for n in (1, 2, 3):
            lhs = level_measure(FOUR, n + 1)
            rhs = convolve(level_measure(FOUR, n), scaled_digit_layer(FOUR, n + 1))
            assert lhs == rhs


class TestAttractor:
    def test_quarter_level2(self):
        cloud = attractor_points(FOUR, 2)
        assert [p[0] for p in cloud.points] == [fr(0), fr(1, 16), fr(1, 4), fr(5, 16)]
        assert cloud.tail_radius == fr(1, 48)

    def test_single_digit(self):
        cloud = attractor_points(DigitSystem.one_dimensional(4, [0]), 3)
        assert [p[0] for p in cloud.points] == [fr(0)]
        assert cloud.tail_radius == 0

    def test_sixteen_four_level1(self):
        cloud = attractor_points(SIXTEEN_04, 1)
        assert [p[0] for p in cloud.points] == [fr(0), fr(1, 4)]
        assert cloud.tail_radius == fr(1, 60)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_tail_radius_nests_levels(self, n):
        coarse = attractor_points(FOUR, n)
        fine = attractor_points(FOUR, n + 1)
        r_sq = coarse.tail_radius**2
        for q in fine.points:
            assert any((q[0] - p[0]) ** 2 <= r_sq for p in coarse.points)


class TestConvolve:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_decomposition_into_even_odd_factors(self, n):
        lhs = convolve(level_measure(SIXTEEN_01, n), level_measure(SIXTEEN_04, n))
        assert lhs == level_measure(FOUR, 2 * n)

    def test_dirac_identity(self):
        m = level_measure(FOUR, 3)
        assert convolve(AtomicMeasure.dirac(0), m) == m

    def test_merging(self):
        half = AtomicMeasure.from_atoms(1, [((fr(0),), fr(1, 2)), ((fr(1),), fr(1, 2))])
        out = convolve(half, half)
        assert out.atoms == (
            ((fr(0),), fr(1, 4)),
            ((fr(1),), fr(1, 2)),
            ((fr(2),), fr(1, 4)),
        )


class TestTranslateAdd:
    def test_translate_identity(self):
        m = level_measure(FOUR, 2)
        assert translate(m, 0) == m

    def test_translate_dirac(self):
        assert translate(AtomicMeasure.dirac(0), fr(3, 4)) == AtomicMeasure.dirac(fr(3, 4))

    def test_translate_roundtrip_float(self):
        m = level_measure(FOUR, 2)
        assert translate(translate(m, 0.3), -0.3) == m

    def test_add_merges_shared_atoms(self):
        s = add(level_measure(FOUR, 2), translate(level_measure(SIXTEEN_01, 1), 0))
        assert s.atoms == (
            ((fr(0),), fr(3, 4)),
            ((fr(1, 16),), fr(3, 4)),
            ((fr(1, 4),), fr(1, 4)),
            ((fr(5, 16),), fr(1, 4)),
        )
        assert s.total == 2

    def test_add_requires_matching_offsets(self):
        m = level_measure(FOUR, 1)
        with pytest.raises(OffsetMismatch):
            add(m, translate(m, 0.1))

    def test_off_grid_point_matches_no_atom(self):
        # 1/3 is not on the quarter grid; truncating 4 * 1/3 would land on 1/4.
        m = level_measure(FOUR, 1)
        assert m.weight_at(fr(1, 3)) == 0
        assert len(translation_overlap(m, [fr(1, 3)], 0)) == 0
        assert not indicator_coefficients(m, [fr(1, 3)]).any()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_offset_rejected(self, bad):
        m = level_measure(FOUR, 2)
        with pytest.raises(ValueError, match="not finite"):
            translate(m, bad)
        with pytest.raises(ValueError, match="not finite"):
            translate(translate(m, 1e308), 1e308)
        with pytest.raises(ValueError, match="not finite"):
            AtomicMeasure.from_atoms(1, m.atoms, offset=[bad])


class TestBallMass:
    def test_sixteen_four_small_ball(self):
        m = level_measure(SIXTEEN_04, 2)
        assert ball_mass(m, 0, fr(1, 60)) == fr(1, 2)

    def test_whole_support(self):
        m = level_measure(FOUR, 3)
        assert ball_mass(m, 0, 10) == m.total

    def test_point_missed(self):
        assert ball_mass(AtomicMeasure.dirac(0), 1, fr(1, 2)) == 0


class TestSplitAndCylinders:
    def test_even_indices_give_sixteen_system(self):
        even, odd = split_by_index_set(FOUR, {2, 4}, 4)
        assert even.points == attractor_points(SIXTEEN_01, 2).points
        assert odd.points == attractor_points(SIXTEEN_04, 2).points

    def test_full_mask_leaves_origin(self):
        full, rest = split_by_index_set(FOUR, {1, 2, 3}, 3)
        assert rest.points == ((fr(0),),)
        assert full.points == attractor_points(FOUR, 3).points

    def test_cylinder_prefix(self):
        pts = cylinder_points(FOUR, 2, [1])
        assert [p[0] for p in pts] == [fr(1, 4), fr(5, 16)]

    def test_cylinder_rejects_non_expanding_matrix(self):
        with pytest.raises(NonExpandingMatrix):
            cylinder_points(DigitSystem.one_dimensional(1, [0, 1]), 2, [])

    def test_cylinder_rejects_duplicate_digits(self):
        with pytest.raises(DuplicateDigits):
            cylinder_points(DigitSystem.one_dimensional(4, [0, 0, 1]), 2, [0])


measures_strategy = st.builds(
    lambda pairs: AtomicMeasure.from_atoms(
        1, [((fr(n, 8),), fr(w, 4)) for n, w in pairs]
    ),
    st.lists(
        st.tuples(st.integers(-8, 8), st.integers(1, 4)), min_size=1, max_size=6
    ),
)


@settings(max_examples=60, deadline=None)
@given(measures_strategy, measures_strategy)
def test_convolution_commutes(a, b):
    assert convolve(a, b) == convolve(b, a)


@settings(max_examples=40, deadline=None)
@given(measures_strategy, measures_strategy, measures_strategy)
def test_convolution_associates(a, b, c):
    assert convolve(convolve(a, b), c) == convolve(a, convolve(b, c))


@settings(max_examples=60, deadline=None)
@given(measures_strategy, measures_strategy)
def test_add_mass_additive(a, b):
    assert add(a, b).total == a.total + b.total


@settings(max_examples=60, deadline=None)
@given(measures_strategy, st.integers(-20, 20))
def test_translate_preserves_structure(m, num):
    shifted = translate(m, fr(num, 16))
    assert shifted.total == m.total
    assert len(shifted) == len(m)
    assert translate(shifted, -fr(num, 16)) == m


def test_tail_radius_formula_quarter_system():
    assert tail_radius(FOUR, 1) == fr(1, 4) ** 2 / (1 - fr(1, 4))
    assert tail_radius(FOUR, 2) == fr(1, 48)
