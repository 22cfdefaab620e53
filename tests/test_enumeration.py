"""The integer-numerator sumset against the Fraction enumerations it replaced.

Every skeleton enumeration must equal its reference in ``tests/oracles.py``
exactly: 1D bases 2-7 (and their negatives) with digit sets whose
expansions coincide, so atoms merge; non-triangular planar matrices, one
with a negative determinant; measures translated by rationals and floats.
The atom budget is checked at exactly the budget and one word past it.
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
    convolve,
    cylinder_points,
    difference_set,
    jp_spectrum,
    level_measure,
    split_by_index_set,
    ssc_certificate,
    translate,
)
from cantorframes.packing import CERTIFIED_OVERLAP, CERTIFIED_SSC
from oracles import (
    oracle_convolve,
    oracle_cylinder_points,
    oracle_difference_set,
    oracle_jp_spectrum,
    oracle_level_measure,
    oracle_split_by_index_set,
    oracle_ssc_gap,
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
