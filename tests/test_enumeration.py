"""The integer-numerator code against the Fraction implementations it replaced.

Every skeleton enumeration and every exact measure operation (merging,
translation, sums, axis embedding, ball masses, translated overlaps,
Radon-Nikodym splits, the singularity witness) must equal its reference in
``tests/oracles.py`` exactly: 1D bases 2-7 (and their negatives) with
digit sets whose expansions coincide, so atoms merge; non-triangular
planar matrices, one with a negative determinant; measures translated by
rationals and floats. The atom budget is checked at exactly the budget and
one word past it. Each regime of ``_sumset`` (the dict merge below the
word-count constant and for big integers, the int64 path from it, both
sides of its 2^62 guard) also equals the dict path.
"""
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cantorframes import (
    AtomBudgetExceeded,
    AtomicMeasure,
    DigitSystem,
    FrequencySet,
    NoWitnessFound,
    add,
    ball_mass,
    convolve,
    cylinder_points,
    difference_set,
    embed_axis,
    frame_bounds,
    jp_spectrum,
    level_measure,
    radon_nikodym_atoms,
    singularity_witness,
    ssc_certificate,
    translate,
    translation_overlap,
)
import cantorframes.measures as skeletons
from cantorframes.fourier import _mu_hat_grid
from cantorframes.packing import CERTIFIED_OVERLAP, CERTIFIED_SSC
from oracles import (
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


@settings(max_examples=40, deadline=None)
@given(digit_systems(), st.data())
def test_listing_order_reaches_nothing(ds, data):
    """Digits and frequencies listed in any order give equal objects, hashes, measures, transforms and reports."""
    listed = DigitSystem(ds.matrix, data.draw(st.permutations(ds.digits)))
    assert listed == ds and hash(listed) == hash(ds)
    level = min(_max_level(ds, 64), 3)
    measure = level_measure(listed, level)
    assert measure == level_measure(ds, level)
    grid = np.random.default_rng(0).uniform(-20.0, 20.0, (50, ds.dim))
    assert [a.tolist() for a in _mu_hat_grid(listed, grid, 1e-8)] == [a.tolist() for a in _mu_hat_grid(ds, grid, 1e-8)]
    denominator = data.draw(st.sampled_from([1, 6]))
    vectors = data.draw(st.lists(st.tuples(*[st.integers(-12, 12)] * ds.dim), min_size=1, max_size=8, unique=True))
    rows = [tuple(Fraction(x, denominator) for x in v) for v in vectors]
    freq_set = FrequencySet(dim=ds.dim, freqs=tuple(rows))
    shuffled = FrequencySet(dim=ds.dim, freqs=tuple(data.draw(st.permutations(rows))))
    assert shuffled == freq_set and hash(shuffled) == hash(freq_set)
    first, second = frame_bounds(measure, shuffled), frame_bounds(level_measure(ds, level), freq_set)
    assert repr(first) == repr(second) and np.array_equal(first.worst_vector, second.worst_vector)


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
)))
def test_from_atoms_matches_oracle(case):
    dim, raw = case
    # Points on a 1/6 grid coincide often; zero weights drop.
    pairs = [(tuple(Fraction(x, 6) for x in p), Fraction(w, 7)) for p, w in raw]
    m = AtomicMeasure.from_atoms(dim, pairs)
    assert m.atoms == oracle_merge(pairs)
    again = AtomicMeasure.from_atoms(dim, pairs[::-1])
    assert again == m and hash(again) == hash(m)


@settings(max_examples=60, deadline=None)
@given(DIMS.flatmap(lambda d: st.tuples(measures(d), _shifts(d))))
def test_translate_matches_oracle(case):
    m, shift = case
    moved = translate(m, shift)
    assert moved.atoms == oracle_translate(m, shift)


@settings(max_examples=60, deadline=None)
@given(DIMS.flatmap(lambda d: st.tuples(measures(d), measures(d))))
def test_add_matches_oracle(pair):
    a, b = pair
    for x, y in ((a, b), (a, a)):
        assert add(x, y).atoms == oracle_add(x, y)


@settings(max_examples=40, deadline=None)
@given(measures(1), st.integers(2, 3).flatmap(lambda d: st.tuples(st.just(d), st.integers(-d, d - 1))))
def test_embed_axis_matches_oracle(m, target):
    dim, axis = target
    embedded = embed_axis(m, dim, axis)
    assert embedded.atoms == oracle_embed_axis(m, dim, axis)


@settings(max_examples=60, deadline=None)
@given(DIMS.flatmap(lambda d: st.tuples(measures(d), _shifts(d))), st.integers(0, 12), st.booleans())
def test_ball_mass_matches_oracle(case, k, on_boundary):
    m, center = case
    radius = Fraction(k, 5)
    if on_boundary and len(m):
        # An atom exactly on the sphere: the closed ball must count it.
        atom = m.locations[k % len(m)]
        center = (atom[0] + radius,) + atom[1:]
    assert ball_mass(m, center, radius) == oracle_ball_mass(m, center, radius)


@settings(max_examples=60, deadline=None)
@given(DIMS.flatmap(lambda d: st.tuples(measures(d), _shifts(d), st.lists(_rationals(d), max_size=4))), st.data())
def test_translation_overlap_matches_oracle(case, data):
    rho, shift, extra = case
    # Support points that hit: atoms moved back by the shift, as exact rationals.
    exact = tuple(Fraction(s) for s in shift)
    hits = [tuple(a - s for a, s in zip(p, exact)) for p in rho.locations]
    support = data.draw(st.lists(st.sampled_from(hits), max_size=6)) if hits else []
    omega = translation_overlap(rho, support + extra, shift)
    assert omega.atoms == oracle_translation_overlap(rho, support + extra, shift)


@settings(max_examples=60, deadline=None)
@given(DIMS.flatmap(lambda d: st.tuples(measures(d), st.lists(_rationals(d), max_size=4))), st.data())
def test_radon_nikodym_matches_oracle(case, data):
    mu, extra = case
    shared = data.draw(st.lists(st.sampled_from(mu.locations), max_size=6)) if len(mu) else []
    weights = st.fractions(min_value=Fraction(1, 9), max_value=3, max_denominator=9)
    pairs = [(p, data.draw(weights)) for p in shared + extra]
    omega = AtomicMeasure.from_atoms(mu.dim, pairs)
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


@pytest.fixture
def int64_calls(monkeypatch):
    """The dims of the ``_sumset`` calls that take the int64 path, recorded as they run."""
    calls, int64_path = [], skeletons._sumset_int64
    monkeypatch.setattr(skeletons, "_sumset_int64", lambda dim, layers: calls.append(dim) or int64_path(dim, layers))
    return calls


def _on_dict_path(monkeypatch, call):
    """``call()`` with the int64 path switched off, so every enumeration merges in the dict."""
    with monkeypatch.context() as patch:
        patch.setattr(skeletons, "_ARRAY_WORDS", math.inf)
        return call()


def _line_measure(positions, masses) -> AtomicMeasure:
    """A 1-D measure with the given masses at the given positions."""
    return AtomicMeasure.from_atoms(1, [((x,), w) for x, w in zip(positions, masses)])


GUARD = 2**62
ARRAY_WORDS = skeletons._ARRAY_WORDS


class TestSumsetPaths:
    """Every regime of ``_sumset`` equals the dict path and the oracles, and runs the path its guard names."""

    def _check(self, monkeypatch, int64_calls, call, expected_atoms, int64: bool):
        int64_calls.clear()
        result = call()
        assert bool(int64_calls) == int64
        assert result.atoms == expected_atoms
        assert _on_dict_path(monkeypatch, call) == result

    @pytest.mark.parametrize("words", [ARRAY_WORDS - 1, ARRAY_WORDS])
    def test_word_count_constant(self, monkeypatch, int64_calls, words):
        m = _line_measure([Fraction(k * k, 7) for k in range(words)], range(1, words + 1))
        shift = AtomicMeasure.dirac(Fraction(-5, 3))
        self._check(
            monkeypatch, int64_calls, lambda: convolve(m, shift), oracle_convolve(m, shift).atoms, words >= ARRAY_WORDS
        )

    @pytest.mark.parametrize("level", [5, 6])
    def test_level_measure_at_the_constant(self, monkeypatch, int64_calls, level):
        expected = oracle_level_measure(FOUR, level).atoms
        self._check(monkeypatch, int64_calls, lambda: level_measure(FOUR, level), expected, 2**level >= ARRAY_WORDS)

    def test_negative_planar_coordinates(self, monkeypatch, int64_calls):
        ds = DigitSystem(((1, 2), (-2, 1)), ((0, 0), (1, -1), (-2, 1), (3, -2)))
        self._check(monkeypatch, int64_calls, lambda: level_measure(ds, 3), oracle_level_measure(ds, 3).atoms, True)
        m = level_measure(ds, 3)
        assert min(x for p in m.numerators for x in p) < 0
        assert list(m.numerators) == sorted(m.numerators)
        # The SSC scan reads cylinder tags off neighbours in the sorted order.
        scan = lambda: ssc_certificate(ds, 2, budget=64)
        assert scan() == _on_dict_path(monkeypatch, scan)
        ps = m.locations[:8]
        assert difference_set(ps, ps) == oracle_difference_set(ps, ps)

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("reach, int64", [(GUARD - 1, True), (GUARD, False)])
    def test_coordinate_guard(self, monkeypatch, int64_calls, sign, reach, int64):
        # Sum over the layers of max |coordinate| = 7 + (reach - 7).
        a = _line_measure(range(8), [1] * 8)
        b = _line_measure([*range(7), sign * (reach - 7)], [1] * 8)
        self._check(monkeypatch, int64_calls, lambda: convolve(a, b), oracle_convolve(a, b).atoms, int64)

    @pytest.mark.parametrize("mass_b, int64", [(2**31 - 1, True), (2**31, False)])
    def test_multiplicity_guard(self, monkeypatch, int64_calls, mass_b, int64):
        # Product over the layers of the weight sums: (2^31 + 1) * mass_b, which is
        # 2^62 - 1 or just over 2^62; the atoms merge, so multiplicities add up to it.
        mass_a = 2**31 + 1
        a = _line_measure(range(8), [1] * 7 + [mass_a - 7])
        b = _line_measure(range(8), [mass_b - 7] + [1] * 7)
        assert (mass_a * mass_b < GUARD) == int64
        self._check(monkeypatch, int64_calls, lambda: convolve(a, b), oracle_convolve(a, b).atoms, int64)

    @pytest.mark.parametrize("shift", [-1e-20, 3 * 2.0**-64, (2.0**-70 + 2.0**-100,)])
    def test_float_translated_big_integers(self, monkeypatch, int64_calls, shift):
        m = translate(level_measure(FOUR, 7), shift)
        assert max(abs(x) for p in m.numerators for x in p) >= GUARD
        other = level_measure(FOUR, 1)
        self._check(monkeypatch, int64_calls, lambda: convolve(m, other), oracle_convolve(m, other).atoms, False)
        base = level_measure(FOUR, 7)
        self._check(monkeypatch, int64_calls, lambda: translate(base, shift), oracle_translate(base, shift), False)

    def test_small_float_translate_takes_the_int64_path(self, monkeypatch, int64_calls):
        m = level_measure(FOUR, 7)
        self._check(monkeypatch, int64_calls, lambda: translate(m, -0.25), oracle_translate(m, -0.25), True)

    def test_merged_words(self, monkeypatch, int64_calls):
        ds = DigitSystem.one_dimensional(2, [0, 1, 2, 3])
        self._check(monkeypatch, int64_calls, lambda: level_measure(ds, 3), oracle_level_measure(ds, 3).atoms, True)
        assert len(level_measure(ds, 3)) < 4**3

    @pytest.mark.parametrize("int64", [False, True])
    def test_zero_mass_keys_dropped(self, monkeypatch, int64_calls, int64):
        layers = [{(k,): k % 3 for k in range(8)}, {(5 * k,): 1 for k in range(8)}]
        enumerate_words = lambda: skeletons._sumset(1, layers)
        rows, mults = enumerate_words() if int64 else _on_dict_path(monkeypatch, enumerate_words)
        assert bool(int64_calls) == int64 and 0 in mults
        assert all(type(x) is int for row in rows for x in row) and all(type(w) is int for w in mults)
        measure = AtomicMeasure._from_sums(1, (rows, mults), 1, 1)
        pairs = [((x + y,), w) for (x,), w in layers[0].items() for (y,) in layers[1]]
        assert measure.atoms == oracle_merge(pairs)


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

    def test_jp_spectrum(self):
        assert len(jp_spectrum(FOUR, [0, 2], 6, budget=64)) == 64
        with pytest.raises(AtomBudgetExceeded):
            jp_spectrum(FOUR, [0, 2], 6, budget=63)

    def test_convolve(self):
        a, b = level_measure(FOUR, 2), translate(level_measure(FOUR, 3), Fraction(1, 3))
        assert convolve(a, b, budget=32) == oracle_convolve(a, b)
        with pytest.raises(AtomBudgetExceeded):
            convolve(a, b, budget=31)

    @pytest.mark.parametrize("int64", [False, True])
    @pytest.mark.parametrize(
        "call",
        [
            lambda words, budget: level_measure(FOUR, words.bit_length() - 1, budget=budget),
            lambda words, budget: cylinder_points(FOUR, words.bit_length(), [1], budget=budget),
            lambda words, budget: jp_spectrum(FOUR, [0, 2], words.bit_length() - 1, budget=budget),
            lambda words, budget: convolve(
                level_measure(FOUR, 1), _line_measure(range(0, 5 * words, 10), [1] * (words // 2)), budget
            ),
        ],
        ids=["level_measure", "cylinder_points", "jp_spectrum", "convolve"],
    )
    def test_limit_on_both_paths(self, int64_calls, call, int64):
        # 2^k words, below the word-count constant for the dict path and past it for int64.
        words = 2 * ARRAY_WORDS if int64 else ARRAY_WORDS // 2
        assert len(call(words, words)) == words and bool(int64_calls) == int64
        int64_calls.clear()
        with pytest.raises(AtomBudgetExceeded):
            call(words, words - 1)
        assert not int64_calls

    @pytest.mark.parametrize(
        "call",
        [
            lambda: level_measure(FOUR, 10**5),
            lambda: cylinder_points(FOUR, 10**5, [1]),
            lambda: jp_spectrum(FOUR, [0, 2], 10**5),
        ],
        ids=["level_measure", "cylinder_points", "jp_spectrum"],
    )
    def test_deep_level_fails_fast(self, call):
        # Layers are built lazily and counted before any sum is formed: the
        # budget stops a level of 10^5 after a handful of layers, without
        # scaling all of them or enumerating up to the budget.
        start = time.perf_counter()
        with pytest.raises(AtomBudgetExceeded):
            call()
        assert time.perf_counter() - start < 5.0
