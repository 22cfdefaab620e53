"""The integer-numerator code against the Fraction implementations it replaced.

Every skeleton enumeration and every exact measure operation (merging,
translation, sums, axis embedding, ball masses, translated overlaps,
Radon-Nikodym splits, the singularity witness) must equal its reference in
``tests/oracles.py`` exactly: 1D bases 2-7 (and their negatives) with
digit sets whose expansions coincide, so atoms merge; non-triangular
planar matrices, one with a negative determinant; measures translated by
rationals and floats. The atom budget is checked at exactly the budget and
one word past it.
"""
import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cantorframes import (
    AtomBudgetExceeded,
    AtomicMeasure,
    DigitSystem,
    NoWitnessFound,
    add,
    ball_mass,
    convolve,
    cylinder_points,
    difference_set,
    embed_axis,
    jp_spectrum,
    level_measure,
    radon_nikodym_atoms,
    singularity_witness,
    split_by_index_set,
    ssc_certificate,
    translate,
    translation_overlap,
)
from cantorframes.packing import CERTIFIED_OVERLAP, CERTIFIED_SSC
from oracles import (
    oracle_absolute_atoms,
    oracle_add,
    oracle_ball_mass,
    oracle_convolve,
    oracle_cylinder_points,
    oracle_difference_set,
    oracle_embed_axis,
    oracle_jp_spectrum,
    oracle_level_measure,
    oracle_merge,
    oracle_radon_nikodym,
    oracle_singularity_witness,
    oracle_split_by_index_set,
    oracle_ssc_gap,
    oracle_translate,
    oracle_translation_overlap,
)

BASES = [b for b in range(-7, 8) if abs(b) >= 2]
PLANAR_MATRICES = [((0, 2), (3, 0)), ((1, 2), (-2, 1))]
FOUR = DigitSystem.one_dimensional(4, [0, 1])
MAX_WORDS = 256


@st.composite
def digit_systems(draw):
    if draw(st.booleans()):
        base = draw(st.sampled_from(BASES))
        span = 2 * abs(base)
        digits = draw(st.lists(st.integers(-span, span), min_size=1, max_size=4, unique=True))
        return DigitSystem.one_dimensional(base, digits)
    matrix = draw(st.sampled_from(PLANAR_MATRICES))
    vectors = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
    return DigitSystem(matrix, draw(st.lists(vectors, min_size=1, max_size=4, unique=True)))


def _max_level(ds, max_words: int = MAX_WORDS, cap: int = 6) -> int:
    level = 1
    while level < cap and ds.branch ** (level + 1) <= max_words:
        level += 1
    return level


@st.composite
def systems_with_level(draw, max_words: int = MAX_WORDS):
    ds = draw(digit_systems())
    return ds, draw(st.integers(1, _max_level(ds, max_words)))


@st.composite
def measures(draw, dim: int):
    """A level measure, or a random atomic one, translated by a rational and maybe a float."""
    if draw(st.booleans()):
        ds = draw(digit_systems().filter(lambda s: s.dim == dim))
        m = level_measure(ds, draw(st.integers(1, _max_level(ds, 64))))
    else:
        atoms = draw(
            st.lists(
                st.tuples(st.tuples(*[st.integers(-12, 12)] * dim), st.integers(1, 5)),
                min_size=0,
                max_size=8,
            )
        )
        m = AtomicMeasure.from_atoms(dim, [(tuple(Fraction(x, 6) for x in p), Fraction(w, 7)) for p, w in atoms])
    shift = tuple(Fraction(draw(st.integers(-20, 20)), draw(st.integers(1, 12))) for _ in range(dim))
    m = translate(m, shift)
    if draw(st.booleans()):
        m = translate(m, tuple(draw(st.sampled_from([0.1, -0.25, 1e-3])) for _ in range(dim)))
    return m


@settings(max_examples=80, deadline=None)
@given(systems_with_level())
def test_level_measure_matches_oracle(case):
    ds, n = case
    assert level_measure(ds, n) == oracle_level_measure(ds, n)


def test_coinciding_digits_merge_atoms():
    ds = DigitSystem.one_dimensional(2, [0, 1, 2])
    m = level_measure(ds, 4)
    assert len(m) < 3**4
    assert m == oracle_level_measure(ds, 4)


@settings(max_examples=80, deadline=None)
@given(systems_with_level(), st.data())
def test_cylinder_points_matches_oracle(case, data):
    ds, n = case
    word = data.draw(st.lists(st.integers(0, ds.branch - 1), max_size=n))
    prefix = [ds.digits[i] for i in word]
    assert cylinder_points(ds, n, prefix) == oracle_cylinder_points(ds, n, word)


@settings(max_examples=80, deadline=None)
@given(systems_with_level(), st.data())
def test_split_by_index_set_matches_oracle(case, data):
    ds, n = case
    indices = data.draw(st.sets(st.integers(1, n)))
    inside, outside = split_by_index_set(ds, indices, n)
    assert (inside.points, outside.points) == oracle_split_by_index_set(ds, indices, n)


@st.composite
def hadamard_pairs(draw):
    """1D Hadamard pairs c + a*{0..m-1}, t + (N/m)*e*{0..m-1} with gcd(a, m) = gcd(e, m) = 1, or a planar one."""
    if draw(st.booleans()):
        t = draw(st.tuples(st.integers(-3, 3), st.integers(-3, 3)))
        ds = DigitSystem(((0, 2), (3, 0)), ((0, 0), (1, 0)))
        return ds, [t, (t[0], t[1] + 1)]
    base = draw(st.integers(2, 7))
    m = draw(st.sampled_from([k for k in range(2, base + 1) if base % k == 0]))
    units = [u for u in range(1, 2 * m) if math.gcd(u, m) == 1]
    a, e = draw(st.sampled_from(units)), draw(st.sampled_from(units))
    c, t = draw(st.integers(-4, 4)), draw(st.integers(-4, 4))
    ds = DigitSystem.one_dimensional(base, [c + a * j for j in range(m)])
    return ds, [t + (base // m) * e * j for j in range(m)]


@settings(max_examples=60, deadline=None)
@given(hadamard_pairs(), st.data())
def test_jp_spectrum_matches_oracle(pair, data):
    ds, L = pair
    n = data.draw(st.integers(1, _max_level(ds)))
    assert jp_spectrum(ds, L, n).freqs == oracle_jp_spectrum(ds, L, n)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([1, 2]).flatmap(lambda d: st.tuples(measures(d), measures(d))))
def test_convolve_matches_oracle(pair):
    a, b = pair
    assert convolve(a, b) == oracle_convolve(a, b)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([1, 2]).flatmap(lambda d: st.tuples(measures(d), measures(d))))
def test_difference_set_matches_oracle(pair):
    ps, qs = pair[0].locations, pair[1].locations
    assert difference_set(ps, qs) == oracle_difference_set(ps, qs)


@settings(max_examples=60, deadline=None)
@given(digit_systems().filter(lambda s: s.branch >= 2), st.data())
def test_ssc_scan_matches_oracle(ds, data):
    d = data.draw(st.integers(1, max(1, _max_level(ds) - 1)))
    # A budget of exactly branch^(d+1) words scans depth d and no deeper.
    cert = ssc_certificate(ds, d, budget=ds.branch ** (d + 1))
    kind, value = oracle_ssc_gap(ds, d)
    assert cert.depth_used == d
    if kind == "collision":
        assert cert.status == CERTIFIED_OVERLAP
        assert cert.evidence["collision"] == min(value)
    else:
        assert cert.status != CERTIFIED_OVERLAP
        assert cert.evidence["min_gap_squared"] == value
        assert (cert.status == CERTIFIED_SSC) == (value > cert.evidence["threshold_squared"])


FLOAT_SHIFTS = [0.1, -0.25, 1e-3]
DIMS = st.sampled_from([1, 2])


def _rationals(dim: int):
    return st.tuples(*[st.fractions(min_value=-3, max_value=3, max_denominator=12)] * dim)


@st.composite
def _shifts(draw, dim: int):
    """A shift vector whose components are ints, Fractions or floats, mixed."""
    parts = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=12), st.sampled_from(FLOAT_SHIFTS))
    return tuple(draw(parts) for _ in range(dim))


@settings(max_examples=60, deadline=None)
@given(DIMS.flatmap(lambda d: st.tuples(
    st.just(d),
    st.lists(st.tuples(st.tuples(*[st.integers(-4, 4)] * d), st.integers(0, 5)), max_size=8),
    st.none() | st.tuples(*[st.sampled_from([0.0] + FLOAT_SHIFTS)] * d),
)))
def test_from_atoms_matches_oracle(case):
    dim, raw, offset = case
    # Points on a 1/6 grid coincide often; zero weights drop.
    pairs = [(tuple(Fraction(x, 6) for x in p), Fraction(w, 7)) for p, w in raw]
    m = AtomicMeasure.from_atoms(dim, pairs, offset=offset)
    assert (m.atoms, m.offset) == (oracle_merge(pairs), offset or (0.0,) * dim)
    again = AtomicMeasure.from_atoms(dim, pairs[::-1], offset=offset)
    assert again == m and hash(again) == hash(m)


@settings(max_examples=60, deadline=None)
@given(DIMS.flatmap(lambda d: st.tuples(measures(d), _shifts(d))))
def test_translate_matches_oracle(case):
    m, shift = case
    moved = translate(m, shift)
    assert (moved.atoms, moved.offset) == oracle_translate(m, shift)


@settings(max_examples=60, deadline=None)
@given(DIMS.flatmap(lambda d: st.tuples(measures(d), measures(d))))
def test_add_matches_oracle(pair):
    a, b = pair
    b = AtomicMeasure.from_atoms(a.dim, b.atoms, offset=a.offset)
    for x, y in ((a, b), (a, a)):
        total = add(x, y)
        assert (total.atoms, total.offset) == oracle_add(x, y)


@settings(max_examples=40, deadline=None)
@given(measures(1), st.integers(2, 3).flatmap(lambda d: st.tuples(st.just(d), st.integers(-d, d - 1))))
def test_embed_axis_matches_oracle(m, target):
    dim, axis = target
    embedded = embed_axis(m, dim, axis)
    assert (embedded.atoms, embedded.offset) == oracle_embed_axis(m, dim, axis)


@settings(max_examples=60, deadline=None)
@given(DIMS.flatmap(lambda d: st.tuples(measures(d), _shifts(d))), st.integers(0, 12), st.booleans())
def test_ball_mass_matches_oracle(case, k, on_boundary):
    m, center = case
    radius = Fraction(k, 5)
    if on_boundary and len(m):
        # An atom exactly on the sphere: the closed ball must count it.
        atom = oracle_absolute_atoms(m)[k % len(m)][0]
        center = (atom[0] + radius,) + atom[1:]
    assert ball_mass(m, center, radius) == oracle_ball_mass(m, center, radius)


@settings(max_examples=60, deadline=None)
@given(DIMS.flatmap(lambda d: st.tuples(measures(d), _shifts(d), st.lists(_rationals(d), max_size=4))), st.data())
def test_translation_overlap_matches_oracle(case, data):
    rho, shift, extra = case
    # Support points that hit: absolute atoms moved back by the shift, as exact rationals.
    exact = tuple(Fraction(s) for s in shift)
    hits = [tuple(a - s for a, s in zip(p, exact)) for p, _ in oracle_absolute_atoms(rho)]
    support = data.draw(st.lists(st.sampled_from(hits), max_size=6)) if hits else []
    omega = translation_overlap(rho, support + extra, shift)
    assert (omega.atoms, omega.offset) == (oracle_translation_overlap(rho, support + extra, shift), (0.0,) * rho.dim)


@settings(max_examples=60, deadline=None)
@given(DIMS.flatmap(lambda d: st.tuples(measures(d), st.lists(_rationals(d), max_size=4))), st.data())
def test_radon_nikodym_matches_oracle(case, data):
    mu, extra = case
    shared = data.draw(st.lists(st.sampled_from(mu.locations), max_size=6)) if len(mu) else []
    weights = st.fractions(min_value=Fraction(1, 9), max_value=3, max_denominator=9)
    pairs = [(p, data.draw(weights)) for p in shared + extra]
    omega = AtomicMeasure.from_atoms(mu.dim, pairs, offset=mu.offset)
    report = radon_nikodym_atoms(omega, mu)
    assert (report.ac_part, report.ac_mass, report.singular_mass, report.sup_ratio) == oracle_radon_nikodym(omega, mu)


@st.composite
def _packing_pairs(draw):
    """Digit pairs {0, e} and {0, k e'} under N (or N I) that the digit criterion certifies."""
    if draw(st.booleans()):
        k = draw(st.integers(2, 4))
        base = draw(st.integers(2 * k + 3, 2 * k + 8))
        nu, lam = DigitSystem.one_dimensional(base, [0, 1]), DigitSystem.one_dimensional(base, [0, k])
        return nu, lam, draw(st.integers(1, 4))
    base = draw(st.integers(5, 8))
    matrix = ((base, 0), (0, base))
    return DigitSystem(matrix, ((0, 0), (1, 0))), DigitSystem(matrix, ((0, 0), (0, 2))), draw(st.integers(1, 3))


@settings(max_examples=40, deadline=None)
@given(_packing_pairs(), st.data())
def test_singularity_witness_matches_oracle(case, data):
    nu_ds, lam_ds, level = case
    nu, lam = level_measure(nu_ds, level), level_measure(lam_ds, level)
    base = nu_ds.matrix[0][0]
    # Shifts on the level grid make nu + x meet nu + shift for some x; off-grid ones never do.
    on_grid = st.tuples(*[st.integers(-base, base).map(lambda j: Fraction(j, base))] * nu.dim)
    shift = data.draw(st.one_of(on_grid, st.sampled_from(lam.locations), _rationals(nu.dim)))
    expected = oracle_singularity_witness(nu, lam, shift)
    try:
        w = singularity_witness(nu_ds, lam_ds, shift, level)
    except NoWitnessFound as exc:
        assert expected == ("none", exc.max_overlap)
    else:
        found = (w.shift_point, w.witness_points, w.rho_mass, w.overlap_mass, w.overlap_mass_total)
        assert expected == ("witness", *found)


def test_exhausted_witness_search_matches_oracle():
    # Base 7, digits {0, 1} and {0, 2}, shift 1/7: both level-1 translates meet nu + 1/7.
    nu_ds, lam_ds = DigitSystem.one_dimensional(7, [0, 1]), DigitSystem.one_dimensional(7, [0, 2])
    shift = Fraction(1, 7)
    with pytest.raises(NoWitnessFound) as exc:
        singularity_witness(nu_ds, lam_ds, shift, 1)
    expected = oracle_singularity_witness(level_measure(nu_ds, 1), level_measure(lam_ds, 1), (shift,))
    assert expected == ("none", exc.value.max_overlap)


def test_two_constructions_of_one_measure_are_equal():
    # Base-16 digits b + 4c with b, c in {0, 1} are the base-4 pairs: mu_4 at level 12.
    sixteen = convolve(
        level_measure(DigitSystem.one_dimensional(16, [0, 1]), 6),
        level_measure(DigitSystem.one_dimensional(16, [0, 4]), 6),
    )
    four = level_measure(FOUR, 12)
    assert sixteen == four and hash(sixteen) == hash(four)


class TestBudgetBoundary:
    """Each enumeration runs at exactly its budget and raises one word below it."""

    def test_level_measure(self):
        two = DigitSystem.one_dimensional(2, [0, 1])
        assert len(level_measure(two, 9, budget=512)) == 512
        with pytest.raises(AtomBudgetExceeded):
            level_measure(two, 9, budget=511)

    def test_cylinder_points(self):
        assert len(cylinder_points(FOUR, 6, [1], budget=32)) == 32
        with pytest.raises(AtomBudgetExceeded):
            cylinder_points(FOUR, 6, [1], budget=31)

    def test_split_by_index_set(self):
        inside, outside = split_by_index_set(FOUR, {1}, 5, budget=16)
        assert (len(inside.points), len(outside.points)) == (2, 16)
        with pytest.raises(AtomBudgetExceeded):
            split_by_index_set(FOUR, {1}, 5, budget=15)
        with pytest.raises(AtomBudgetExceeded):
            split_by_index_set(FOUR, {1, 2, 3, 4}, 5, budget=15)

    def test_jp_spectrum(self):
        assert len(jp_spectrum(FOUR, [0, 2], 6, budget=64)) == 64
        with pytest.raises(AtomBudgetExceeded):
            jp_spectrum(FOUR, [0, 2], 6, budget=63)

    def test_convolve(self):
        a, b = level_measure(FOUR, 2), translate(level_measure(FOUR, 3), Fraction(1, 3))
        assert convolve(a, b, budget=32) == oracle_convolve(a, b)
        with pytest.raises(AtomBudgetExceeded):
            convolve(a, b, budget=31)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: level_measure(FOUR, 10**5),
            lambda: cylinder_points(FOUR, 10**5, [1]),
            lambda: split_by_index_set(FOUR, {1}, 10**5),
            lambda: jp_spectrum(FOUR, [0, 2], 10**5),
        ],
        ids=["level_measure", "cylinder_points", "split_by_index_set", "jp_spectrum"],
    )
    def test_deep_level_fails_fast(self, call):
        # Layers are built lazily and counted before any sum is formed: the
        # budget stops a level of 10^5 after a handful of layers, without
        # scaling all of them or enumerating up to the budget.
        start = time.perf_counter()
        with pytest.raises(AtomBudgetExceeded):
            call()
        assert time.perf_counter() - start < 5.0
