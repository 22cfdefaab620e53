import ast
import math
from fractions import Fraction
from itertools import permutations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cantorframes import (
    AtomBudgetExceeded,
    AtomicMeasure,
    DigitSystem,
    DimensionMismatch,
    DuplicateDigits,
    NonExpandingMatrix,
    SingularMatrix,
    add,
    as_point,
    attractor_points,
    ball_mass,
    convolve,
    cylinder_points,
    indicator_coefficients,
    jp_spectrum,
    level_measure,
    packing_certificate_from_digits,
    tail_radius,
    translate,
)
from cantorframes import measures
from cantorframes.measures import _fraction_inverse

FOUR = DigitSystem.one_dimensional(4, [0, 1])
TWO = DigitSystem.one_dimensional(2, [0, 1])
WIDE = DigitSystem.one_dimensional(4**15, [0, 1])
SIXTEEN_01 = DigitSystem.one_dimensional(16, [0, 1])
SIXTEEN_04 = DigitSystem.one_dimensional(16, [0, 4])


def fr(*args):
    return Fraction(*args)


def locs(m):
    return [p[0] for p in m.locations]


def _leibniz_determinant(matrix) -> Fraction:
    """Exact determinant as the signed sum over permutations."""
    total = Fraction(0)
    for perm in permutations(range(len(matrix))):
        inversions = sum(perm[i] > perm[j] for i in range(len(perm)) for j in range(i + 1, len(perm)))
        total += (-1) ** inversions * math.prod(matrix[i][perm[i]] for i in range(len(perm)))
    return total


class TestValidation:
    def test_quarter_system_valid(self):
        assert FOUR.inverse == (((1,),), 4)
        assert FOUR.inverse_norm_bound() == fr(1, 4)

    def test_sixteen_system_valid(self):
        assert SIXTEEN_04.inverse == (((1,),), 16)

    def test_triangular_eigenvalue_one_rejected(self):
        with pytest.raises(NonExpandingMatrix):
            DigitSystem(((1, 1), (0, 2)), (((0, 0)),))

    def test_singular_matrix_rejected(self):
        with pytest.raises(SingularMatrix):
            DigitSystem(((0,),), ((0,),))

    def test_duplicate_digits_rejected(self):
        with pytest.raises(DuplicateDigits):
            DigitSystem(((4,),), ((0,), (0,)))

    def test_general_expanding_matrix(self):
        # Not triangular: eigenvalues +-sqrt 6, decided in floats.
        ds = DigitSystem(((0, 2), (3, 0)), ((0, 0), (1, 0)))
        assert ds.inverse == (((0, 2), (3, 0)), 6)

    @pytest.mark.parametrize(
        "matrix", [((4,),), ((-3,),), ((0, 2), (3, 0)), ((1, 2), (-2, 1)), ((2, 1, 0), (0, 3, 1), (1, 0, 2))]
    )
    def test_determinant_is_exact(self, matrix):
        # The one elimination a build runs returns R^-1 exactly: R^-1 R = I, so det R^-1 = 1 / det R.
        inverse = _fraction_inverse(matrix)
        d = len(matrix)
        product = [[sum(inverse[i][k] * matrix[k][j] for k in range(d)) for j in range(d)] for i in range(d)]
        assert product == [[int(i == j) for j in range(d)] for i in range(d)]
        det = round(np.linalg.det(np.array(matrix, dtype=float)))
        assert _leibniz_determinant(inverse) == Fraction(1, det)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: DigitSystem(((4,),), ((0,), (1.5,))),
            lambda: DigitSystem(((4.7,),), ((0,), (1,))),
            lambda: DigitSystem.one_dimensional(4, [0, Fraction(1, 2)]),
            lambda: jp_spectrum(DigitSystem(((4,),), [(0,), (1.5,)]), [0, 2], 1),
            lambda: packing_certificate_from_digits(((16,),), [(0,), (1,)], [(0,), (4.5,)]),
        ],
        ids=["digit", "matrix", "one_dimensional", "jp_spectrum", "packing_certificate_from_digits"],
    )
    def test_non_integer_entries_refused(self, call):
        # int() read 1.5 as the digit 1 and 4.7 as the base 4.
        with pytest.raises(ValueError, match="digit system entries must be integers"):
            call()

    def test_integer_valued_entries_accepted(self):
        assert DigitSystem(((4.0,),), ((0.0,), (1,))) == FOUR
        ds = DigitSystem(np.array([[4]]), ((np.int64(0),), (1.0,)))
        assert ds == FOUR and all(type(x) is int for v in ds.matrix + ds.digits for x in v)

    @pytest.mark.parametrize(
        "matrix, digits",
        [(((2, 0), (0,)), ((0, 0),)), (((2, 0), (0, 2)), ((0, 0), (1,))), (((2, 0), (0, 2)), ((0, 0, 1),))],
        ids=["matrix_not_square", "short_digit", "long_digit"],
    )
    def test_wrong_lengths_raise_dimension_mismatch(self, matrix, digits):
        with pytest.raises(DimensionMismatch):
            DigitSystem(matrix, digits)

    @pytest.mark.parametrize(
        "matrix, digits, error",
        [
            (((0,),), ((0,), (1,)), SingularMatrix),
            (((2, 4), (1, 2)), ((0, 0),), SingularMatrix),
            (((4,),), ((0,), (1,), (0,)), DuplicateDigits),
            (((4,),), (), DuplicateDigits),
            (((1,),), ((0,), (1,)), NonExpandingMatrix),
            (((-1,),), ((0,),), NonExpandingMatrix),
            (((1, 1), (0, 2)), ((0, 0),), NonExpandingMatrix),
            # Eigenvalues (1 +- sqrt 5)/2: not triangular, one of modulus 0.618.
            (((1, 1), (1, 0)), ((0, 0),), NonExpandingMatrix),
        ],
        ids=["singular", "singular_planar", "duplicate", "empty", "identity", "minus_one", "triangular", "general"],
    )
    def test_invalid_system_refused_when_built(self, matrix, digits, error):
        with pytest.raises(error):
            DigitSystem(matrix, digits)

    @pytest.mark.parametrize(
        "matrix",
        [
            ((4,),),
            ((-3,),),
            ((2, 0), (0, 3)),
            ((2, 1), (0, 3)),
            ((3, 0), (5, -2)),
            ((0, 2), (3, 0)),
            ((1, 2), (-2, 1)),
            ((4, 2), (2, 4)),
            ((2, 1, 0), (0, 3, 1), (1, 0, 2)),
        ],
        ids=["1d", "1d_negative", "diagonal", "upper", "lower", "antidiagonal", "rotation", "symmetric", "3x3"],
    )
    def test_inverse_is_exact_over_the_least_denominator(self, matrix):
        ds = DigitSystem(matrix, (tuple(0 for _ in matrix),))
        rows, q = ds.inverse
        exact = _fraction_inverse(matrix)
        assert all(type(x) is int for row in rows for x in row) and type(q) is int
        assert tuple(tuple(Fraction(x, q) for x in row) for row in rows) == exact
        assert q == math.lcm(*(x.denominator for row in exact for x in row))
        assert ds.inverse_matrix() == exact

    def test_inverse_is_derived(self):
        ds = DigitSystem(((2, 1), (0, 3)), ((0, 0), (1, 0)))
        assert "inverse" not in repr(ds)
        twin = DigitSystem(((2, 1), (0, 3)), ((0, 0), (1, 0)))
        assert ds == twin and hash(ds) == hash(twin)
        with pytest.raises(TypeError):
            DigitSystem(ds.matrix, ds.digits, inverse=((((1, 0), (0, 1)),), 1))
        with pytest.raises(AttributeError):
            ds.inverse = ((((1, 0), (0, 1)),), 1)

    def test_unchecked_callers_see_no_invalid_system(self):
        # A Hadamard check on raw (R, B, L) once built R = 1 unchecked and answered.
        with pytest.raises(NonExpandingMatrix):
            jp_spectrum(DigitSystem(((1,),), [(0,)]), [0], 1)

    def test_no_library_module_rechecks_or_reinverts_a_system(self):
        # A DigitSystem is checked and inverted when built; consumers read ds.inverse. Only the build and
        # the shear transport, whose A4 is no digit matrix, run the elimination.
        package = Path(measures.__file__).parent
        eliminations = {("measures.py", "__post_init__"), ("frames.py", "_shear_transport")}
        offenders = []
        for path in sorted(package.glob("*.py")):
            tree, owner = ast.parse(path.read_text()), {}
            # ast.walk is breadth first, so a nested function overwrites its enclosing one.
            for function in ast.walk(tree):
                if isinstance(function, ast.FunctionDef):
                    owner.update(dict.fromkeys(ast.walk(function), function.name))
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                name = node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", None)
                inverts = name == "_fraction_inverse" and (path.name, owner.get(node)) not in eliminations
                if inverts or (name == "inverse_matrix" and path.name != "measures.py"):
                    offenders.append(f"{path.name}:{node.lineno} {name}")
        assert not offenders


@pytest.mark.parametrize(
    "call, expected",
    [
        (lambda: as_point(np.int64(3)), (fr(3),)),
        (lambda: jp_spectrum(FOUR, np.array([0, 2]), 2).freqs, ((0.0,), (2.0,), (8.0,), (10.0,))),
        (lambda: translate(level_measure(FOUR, 1), np.int64(1)), translate(level_measure(FOUR, 1), 1)),
        # 2^40 over the denominator 4^30 = 2^60 overflows an int64 numerator.
        (lambda: translate(level_measure(WIDE, 2), np.int64(2**40)), translate(level_measure(WIDE, 2), 2**40)),
    ],
    ids=["as_point", "jp_spectrum", "translate", "translate_wide"],
)
def test_numpy_scalars_are_exact_points(call, expected):
    assert call() == expected


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

    def test_layer_recursion(self):
        # Level n + 1 is level n convolved with the equal-weight comb on R^-(n+1) B.
        for n in (1, 2, 3):
            layer = AtomicMeasure.from_atoms(1, [(fr(b, 4 ** (n + 1)), fr(1, 2)) for (b,) in FOUR.digits])
            assert level_measure(FOUR, n + 1) == convolve(level_measure(FOUR, n), layer)


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

    def test_add_of_float_translate(self):
        m = level_measure(FOUR, 1)
        s = add(m, translate(m, 0.1))
        assert len(s) == 4 and s.total == 2
        assert s.weight_at(Fraction(0.1) + fr(1, 4)) == fr(1, 2)

    def test_float_translates_compose_exactly(self):
        d = AtomicMeasure.dirac(0)
        twice = translate(translate(d, 0.1), 0.2)
        assert twice == translate(d, Fraction(0.1) + Fraction(0.2))
        assert ball_mass(twice, 0, Fraction(0.1) + Fraction(0.2)) == 1
        assert translate(d, 0.5) == translate(d, fr(1, 2))
        assert translate(d, 0.5).weight_at(0.5) == 1
        assert translate(d, 0.5).weight_at(0) == 0

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=2), st.integers(1, 3))
    def test_float_translate_is_exact_translate(self, shift, level):
        system = FOUR if len(shift) == 1 else DigitSystem(((4, 0), (0, 4)), ((0, 0), (1, 0), (0, 1)))
        m = level_measure(system, level)
        moved = translate(m, shift)
        exact = translate(m, [Fraction(x) for x in shift])
        assert moved == exact and hash(moved) == hash(exact)

    def test_off_grid_point_matches_no_atom(self):
        # 1/3 is not on the quarter grid; truncating 4 * 1/3 would land on 1/4.
        m = level_measure(FOUR, 1)
        assert m.weight_at(fr(1, 3)) == 0
        assert not indicator_coefficients(m, [fr(1, 3)]).any()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_offset_rejected(self, bad):
        m = level_measure(FOUR, 2)
        calls = [
            lambda: translate(m, bad),
            lambda: translate(m, np.float32(bad)),
            lambda: ball_mass(m, bad, 1),
            lambda: AtomicMeasure.from_atoms(1, [((bad,), 1)]),
            lambda: m.weight_at((bad,)),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="not finite"):
                call()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_weight_rejected(self, bad):
        # Fraction(weight) used to raise OverflowError for an infinite weight.
        calls = [
            lambda: AtomicMeasure.from_atoms(1, [((0,), bad)]),
            lambda: AtomicMeasure.from_atoms(1, [((0,), 1), ((1,), np.float32(bad))]),
            lambda: AtomicMeasure.dirac(0, np.float64(bad)),
        ]
        for call in calls:
            with pytest.raises(ValueError) as refused:
                call()
            assert str(refused.value) == f"weight {bad} is not finite"


class TestBallMass:
    def test_sixteen_four_small_ball(self):
        m = level_measure(SIXTEEN_04, 2)
        assert ball_mass(m, 0, fr(1, 60)) == fr(1, 2)

    def test_whole_support(self):
        m = level_measure(FOUR, 3)
        assert ball_mass(m, 0, 10) == m.total

    def test_point_missed(self):
        assert ball_mass(AtomicMeasure.dirac(0), 1, fr(1, 2)) == 0

    def test_radius_zero_reads_the_atom_at_the_center(self):
        m = level_measure(FOUR, 2)
        assert ball_mass(m, fr(1, 4), 0) == fr(1, 4)
        assert ball_mass(m, fr(1, 8), 0.0) == 0

    @pytest.mark.parametrize(
        "radius, message",
        [
            (-1, "radius -1 must be non-negative"),
            (fr(-1, 3), "radius -1/3 must be non-negative"),
            (-0.5, "radius -0.5 must be non-negative"),
            (math.inf, "radius inf is not finite"),
            (-math.inf, "radius -inf is not finite"),
            (math.nan, "radius nan is not finite"),
            (np.float64(math.inf), "radius inf is not finite"),
        ],
    )
    def test_bad_radius_message(self, radius, message):
        # inf raised OverflowError from Fraction, NaN Fraction's own message, and a
        # negative radius said "must be positive" although 0 is accepted.
        with pytest.raises(ValueError) as refused:
            ball_mass(level_measure(FOUR, 2), 0, radius)
        assert str(refused.value) == message


class TestSplitAndCylinders:
    def test_even_indices_give_sixteen_system(self):
        # The even-indexed digits of 4:{0,1} sum to 16:{0,1}, the odd ones to 16:{0,4}: mu_4 = nu * lambda.
        assert convolve(level_measure(SIXTEEN_01, 2), level_measure(SIXTEEN_04, 2)) == level_measure(FOUR, 4)

    def test_cylinder_prefix(self):
        pts = cylinder_points(FOUR, 2, [1])
        assert [p[0] for p in pts] == [fr(1, 4), fr(5, 16)]

    def test_cylinder_prefix_is_read_exactly(self):
        # int(1/2) would be the digit 0; 1/2 is no digit. A float 1.0 is the digit 1.
        with pytest.raises(ValueError, match="outside the digit set"):
            cylinder_points(FOUR, 2, [Fraction(1, 2)])
        assert cylinder_points(FOUR, 2, [1.0]) == cylinder_points(FOUR, 2, [1])

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


def test_tail_radius_reads_an_integer_level():
    # A float level used to return a float where a certified Fraction is documented.
    assert tail_radius(FOUR, np.int64(2)) == fr(1, 48)
    for level in (2.5, 2.0):
        with pytest.raises(TypeError):
            tail_radius(FOUR, level)


def test_tail_radius_refuses_a_negative_level():
    # Level 0 bounds the attractor about 0; a negative level used to return 64/3.
    assert tail_radius(FOUR, 0) == fr(1, 4) / (1 - fr(1, 4))
    with pytest.raises(ValueError, match="level -3 must be >= 0"):
        tail_radius(FOUR, -3)
