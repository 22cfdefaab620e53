import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cantorframes import (
    AtomBudgetExceeded,
    DigitSystem,
    DimensionMismatch,
    NoWitnessFound,
    NotCertifiedPacking,
    PointCloud,
    attractor_points,
    convolve,
    cylinder_points,
    factorization_check,
    indicator_coefficients,
    level_measure,
    packing_certificate_from_clouds,
    packing_certificate_from_digits,
    singularity_witness,
    ssc_certificate,
    tail_radius,
)
from cantorframes import measures, packing
from cantorframes.packing import (
    CERTIFIED_NOT_PACKING,
    CERTIFIED_OVERLAP,
    CERTIFIED_PACKING,
    CERTIFIED_SSC,
    INCONCLUSIVE,
    _differences,
    _min_gap_sq,
)
from oracles import (
    oracle_difference_set,
    oracle_min_gap_sq,
    oracle_packing_certificate_from_clouds,
    oracle_packing_certificate_from_digits,
)

FOUR = DigitSystem.one_dimensional(4, [0, 1])
TWO = DigitSystem.one_dimensional(2, [0, 1])
SIXTEEN_01 = DigitSystem.one_dimensional(16, [0, 1])
SIXTEEN_04 = DigitSystem.one_dimensional(16, [0, 4])


def fr(*args):
    return Fraction(*args)


class TestDifferenceSet:
    """``packing._differences``, the integer difference sets of the packing certificates."""

    @staticmethod
    def _checked(xs, ys) -> list:
        rows = _differences(xs, ys)
        assert rows == list(oracle_difference_set(xs, ys))
        return rows

    def test_binary_digits(self):
        assert self._checked([(0,), (1,)], [(0,), (1,)]) == [(-1,), (0,), (1,)]

    def test_four_digits(self):
        assert self._checked([(0,), (4,)], [(0,), (4,)]) == [(-4,), (0,), (4,)]

    def test_singleton(self):
        assert self._checked([(1, -3)], [(1, -3)]) == [(0, 0)]

    def test_pair_budget_refuses_before_forming_sums(self):
        # 2049^2 words exceed the 2^22 pair budget; 2048^2 would fit it exactly.
        points = [(k,) for k in range(2049)]
        with pytest.raises(AtomBudgetExceeded):
            _differences(points, points)


class TestDigitCriterion:
    def test_sixteen_certifies(self):
        cert = packing_certificate_from_digits(((16,),), [(0,), (1,)], [(0,), (4,)])
        assert cert.status == CERTIFIED_PACKING
        assert cert.evidence["D"] == 5
        assert cert.evidence["bound"] == fr(5, 11)

    def test_ten_inconclusive_with_unit_bound(self):
        cert = packing_certificate_from_digits(((10,),), [(0,), (1,)], [(0,), (4,)])
        assert cert.status == INCONCLUSIVE
        assert cert.evidence["bound"] == 1

    def test_identical_digits_refuted(self):
        cert = packing_certificate_from_digits(((16,),), [(0,), (1,)], [(0,), (1,)])
        assert cert.status == CERTIFIED_NOT_PACKING
        assert cert.evidence["witness"][0] in (fr(-1), fr(1))

    def test_divergent_bound_inconclusive(self):
        cert = packing_certificate_from_digits(((3,),), [(0,), (1,)], [(0,), (4,)])
        assert cert.status == INCONCLUSIVE
        assert cert.evidence["bound"] is None


class TestFiniteLevelCertificate:
    def test_sixteen_pair_certifies_at_level_two(self):
        cert = packing_certificate_from_clouds(
            attractor_points(SIXTEEN_01, 2), attractor_points(SIXTEEN_04, 2)
        )
        assert cert.status == CERTIFIED_PACKING
        gap_sq = cert.evidence["gap_squared"]
        threshold_sq = cert.evidence["threshold_squared"]
        assert gap_sq > threshold_sq

    def test_digit_criterion_implies_finite_level(self):
        digit_cert = packing_certificate_from_digits(((16,),), [(0,), (1,)], [(0,), (4,)])
        assert digit_cert.status == CERTIFIED_PACKING
        cloud_cert = packing_certificate_from_clouds(
            attractor_points(SIXTEEN_01, 3), attractor_points(SIXTEEN_04, 3)
        )
        assert cloud_cert.status == CERTIFIED_PACKING

    def test_common_difference_refutes(self):
        from cantorframes import PointCloud

        cloud = PointCloud(1, ((fr(0),), (fr(1),)), fr(0))
        cert = packing_certificate_from_clouds(cloud, cloud)
        assert cert.status == CERTIFIED_NOT_PACKING

    @pytest.mark.parametrize(
        "points, tail, error",
        [
            (((0,), (fr(1, 2), 7)), fr(1, 100), DimensionMismatch),
            (((0,), (math.inf,)), None, ValueError),
            (attractor_points(DigitSystem.one_dimensional(4, [0, 2]), 3).points, fr(-1, 10), ValueError),
            ((), None, ValueError),
        ],
        ids=["wrong-length-point", "not-finite", "negative-tail", "no-points"],
    )
    def test_invalid_cloud_is_refused(self, points, tail, error):
        with pytest.raises(error):
            PointCloud(1, points, tail)

    def test_dyadic_split_inconclusive_at_shallow_depth(self):
        # Digits 2 and 4 of 2:{0,1} sum to 4:{0,1} at level 2, digits 1 and 3 to 4:{0,2}; both keep the level-4 tail.
        tail = tail_radius(TWO, 4)
        even = PointCloud(1, attractor_points(DigitSystem.one_dimensional(4, [0, 1]), 2).points, tail)
        odd = PointCloud(1, attractor_points(DigitSystem.one_dimensional(4, [0, 2]), 2).points, tail)
        cert = packing_certificate_from_clouds(even, odd)
        assert cert.status == INCONCLUSIVE


def _sweep_coordinate(rng, kind):
    """An int, a Fraction, or a float (dyadic or not, so a binary rational with a large denominator)."""
    k = rng.randint(-12, 12)
    kind = rng.choice(["int", "fraction", "float"]) if kind == "mixed" else kind
    if kind == "int":
        return k
    if kind == "fraction":
        return Fraction(k, rng.choice([1, 3, 4, 7, 16]))
    return k / rng.choice([1, 4, 10, 32])


def _sweep_cloud(rng, dim, kind, points=None):
    if points is None:
        points = tuple(tuple(_sweep_coordinate(rng, kind) for _ in range(dim)) for _ in range(rng.randint(1, 6)))
    return PointCloud(dim, points, rng.choice([None, Fraction(0), Fraction(1, 64), Fraction(1, 3), Fraction(2)]))


class TestCertificateOracles:
    """Both certificates against their ``Fraction``-path oracles, compared by repr."""

    @pytest.mark.parametrize("seed", range(48))
    def test_cloud_certificate_matches_oracle(self, seed):
        rng = random.Random(seed)
        dim, kind = 1 + seed % 2, ["int", "fraction", "float", "mixed"][seed // 2 % 4]
        cloud1 = _sweep_cloud(rng, dim, kind)
        if seed % 3 == 0:
            # A translate of cloud1 shares every difference, so two points or more refute packing.
            shift = tuple(_sweep_coordinate(rng, kind) for _ in range(dim))
            cloud2 = _sweep_cloud(rng, dim, kind, tuple(tuple(x + s for x, s in zip(p, shift)) for p in cloud1.points))
        else:
            cloud2 = _sweep_cloud(rng, dim, kind)
        cert = packing_certificate_from_clouds(cloud1, cloud2)
        assert repr(cert) == repr(oracle_packing_certificate_from_clouds(cloud1, cloud2))

    def test_cloud_sweep_reaches_every_outcome(self):
        # The seeded sweep above is only a check if it certifies, refutes and stays inconclusive.
        statuses = set()
        for seed in range(48):
            rng = random.Random(seed)
            dim = 1 + seed % 2
            clouds = [_sweep_cloud(rng, dim, "mixed") for _ in range(2)]
            statuses.add(packing_certificate_from_clouds(*clouds).status)
        assert statuses == {CERTIFIED_PACKING, CERTIFIED_NOT_PACKING, INCONCLUSIVE}

    @pytest.mark.parametrize("levels", [(2, 2), (3, 2)])
    def test_attractor_clouds_match_oracle(self, levels):
        planar = DigitSystem(((4, 0), (0, 4)), ((0, 0), (1, 0), (0, 1)))
        other = DigitSystem(((4, 0), (0, 4)), ((0, 0), (2, 0), (0, 2)))
        for nu, lam in [(SIXTEEN_01, SIXTEEN_04), (TWO, FOUR), (planar, other)]:
            cloud1, cloud2 = attractor_points(nu, levels[0]), attractor_points(lam, levels[1])
            cert = packing_certificate_from_clouds(cloud1, cloud2)
            assert repr(cert) == repr(oracle_packing_certificate_from_clouds(cloud1, cloud2))

    @pytest.mark.parametrize("seed", range(40))
    def test_digit_certificate_matches_oracle(self, seed):
        rng = random.Random(seed)
        if seed % 2:
            base = rng.randint(2, 20)
            matrix = ((base,),)
            draw = lambda: [(b,) for b in rng.sample(range(-2 * base, 2 * base + 1), rng.randint(1, 4))]
        else:
            matrix = rng.choice([((3, 0), (0, 3)), ((4, 1), (0, 5)), ((2, 1), (1, 3)), ((16, 0), (0, 16))])
            span = range(-4, 5)
            draw = lambda: list({(rng.choice(span), rng.choice(span)) for _ in range(rng.randint(1, 4))})
        digits_b, digits_c = draw(), draw()
        cert = packing_certificate_from_digits(matrix, digits_b, digits_c)
        assert repr(cert) == repr(oracle_packing_certificate_from_digits(matrix, digits_b, digits_c))

    def test_digit_sweep_reaches_every_outcome(self):
        statuses = set()
        for seed in range(40):
            rng = random.Random(seed)
            base = rng.randint(2, 20)
            digits = [[(b,) for b in rng.sample(range(-2 * base, 2 * base + 1), rng.randint(1, 4))] for _ in "bc"]
            statuses.add(packing_certificate_from_digits(((base,),), *digits).status)
        assert statuses == {CERTIFIED_PACKING, CERTIFIED_NOT_PACKING, INCONCLUSIVE}


class TestIterableInputs:
    """Generators and sets give what lists give."""

    def test_factorization_check(self):
        nu, lam = level_measure(SIXTEEN_01, 2), level_measure(SIXTEEN_04, 2)
        window_e, window_f = list(nu.locations[::2]) + [(fr(1, 3),)], list(lam.locations)
        grid = [0.0, 0.7, -3.25]
        expected = repr(factorization_check(nu, lam, window_e, window_f, grid))
        assert repr(factorization_check(nu, lam, iter(window_e), (q for q in window_f), grid)) == expected
        assert repr(factorization_check(nu, lam, set(window_e), set(window_f), grid)) == expected

    def test_indicator_coefficients(self):
        m = level_measure(FOUR, 3)
        points = list(m.locations[1::3]) + [(0.125,), (fr(1, 3),)]
        expected = indicator_coefficients(m, points)
        assert expected.any()
        for same in (iter(points), set(points)):
            assert np.array_equal(indicator_coefficients(m, same), expected)


class TestSsc:
    def test_quarter_system(self):
        assert ssc_certificate(FOUR, 3).status == CERTIFIED_SSC

    def test_middle_thirds(self):
        assert ssc_certificate(DigitSystem.one_dimensional(3, [0, 2]), 2).status == CERTIFIED_SSC

    def test_full_binary_inconclusive(self):
        assert ssc_certificate(TWO, 3, budget=2**12).status == INCONCLUSIVE

    def test_overlapping_digits_certified(self):
        cert = ssc_certificate(DigitSystem.one_dimensional(2, [0, 1, 2]), 2)
        assert cert.status == CERTIFIED_OVERLAP

    def test_overlap_reports_smallest_collision(self):
        cert = ssc_certificate(DigitSystem.one_dimensional(2, [0, 1, 2]), 2)
        assert cert.evidence == {"collision": (fr(1, 2),), "cylinders": (0, 1)}

    def test_single_digit_system_returns(self):
        # One cylinder and no pair to scan; without an early return the depth doubles forever.
        code = (
            "from cantorframes import DigitSystem, ssc_certificate\n"
            "print(ssc_certificate(DigitSystem.one_dimensional(4, [0]), 3).status)\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=5)
        assert done.stdout.strip() == CERTIFIED_SSC
        cert = ssc_certificate(DigitSystem.one_dimensional(4, [0]), 3)
        assert (cert.status, cert.depth_used, cert.evidence) == (CERTIFIED_SSC, 3, {"reason": "single cylinder"})

    def test_certified_depth_is_the_requested_one(self):
        cert = ssc_certificate(FOUR, 7)
        assert (cert.status, cert.depth_used) == (CERTIFIED_SSC, 7)

    def test_budget_stop_reports_last_scanned_depth(self):
        # Depths 1, 2, 4, 8 fit the default budget of 2^16 words; 16 needs 2^17.
        cert = ssc_certificate(TWO, 1)
        assert cert.status == INCONCLUSIVE
        assert cert.depth_used == 8
        assert cert.evidence["reason"] == "atom budget reached"
        assert cert.evidence["depth"] == 8
        assert cert.evidence["min_gap_squared"] <= cert.evidence["threshold_squared"]

    def test_budget_stop_before_any_scan(self):
        cert = ssc_certificate(FOUR, 20)
        assert (cert.status, cert.depth_used) == (INCONCLUSIVE, 20)
        assert cert.evidence == {"reason": "atom budget reached"}

    @pytest.mark.parametrize("depth", range(1, 16))
    def test_one_dimensional_scan_has_no_pair_budget(self, depth):
        # Depth 15 scans 2^16 words, far past the 2^11 a pair scan could afford.
        cert = ssc_certificate(FOUR, depth)
        assert (cert.status, cert.depth_used) == (CERTIFIED_SSC, depth)
        # The cylinders' closest points are sum_{k=2}^{depth+1} 4^-k and 1/4.
        assert cert.evidence["min_gap_squared"] == (Fraction(1, 6) + Fraction(1, 12 * 4**depth)) ** 2

    def test_planar_scan_stops_at_pair_budget(self):
        # The four quarter squares touch, so no depth separates them; depth 5 has 4^6 words.
        square = DigitSystem(((2, 0), (0, 2)), ((0, 0), (1, 0), (0, 1), (1, 1)))
        cert = ssc_certificate(square, 5)
        assert (cert.status, cert.depth_used) == (INCONCLUSIVE, 5)
        assert cert.evidence == {"reason": "pair scan budget reached", "depth": 5}
        assert ssc_certificate(square, 4, budget=4**5).evidence["min_gap_squared"] == Fraction(1, 32**2)


def _gap_clouds(dim: int):
    """Two or three integer clouds with duplicates, a point they may all share, single points and empty ones."""
    point = st.tuples(*[st.integers(-12, 12)] * dim)
    cloud = st.lists(point, max_size=8).flatmap(lambda pts: st.sampled_from([pts, pts + [(0,) * dim]]))
    return st.tuples(st.just(dim), st.lists(cloud, min_size=2, max_size=3))


class TestGapScan:
    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([1, 2]).flatmap(_gap_clouds), st.integers(1, 5))
    def test_matches_all_pairs(self, case, denominator):
        dim, clouds = case
        expected = oracle_min_gap_sq(clouds)
        expected = None if expected is None else Fraction(expected, denominator**2)
        assert _min_gap_sq(dim, clouds, denominator) == expected

    def test_shared_zero_hides_no_neighbour(self):
        # Sorted by value alone, the zeros of the two sets would sit between -3 and 2.
        assert _min_gap_sq(1, [[(-3,), (0,)], [(0,), (2,)]], 1) == 4
        assert _min_gap_sq(1, [[(0,)], [(0,)]], 1) is None
        assert _min_gap_sq(1, [[(5,)], []], 1) is None


class TestMassFactorization:
    def test_cylinder_masses_factor(self):
        nu = level_measure(SIXTEEN_01, 2)
        lam = level_measure(SIXTEEN_04, 2)
        mu = convolve(nu, lam)
        cylinders_nu = [cylinder_points(SIXTEEN_01, 2, pre) for pre in ([], [(0,)], [(1,)], [(1,), (1,)])]
        cylinders_lam = [cylinder_points(SIXTEEN_04, 2, pre) for pre in ([], [(0,)], [(4,)])]
        for e_pts in cylinders_nu:
            for f_pts in cylinders_lam:
                sums = {tuple(a + b for a, b in zip(p, q)) for p in e_pts for q in f_pts}
                mass = sum((w for p, w in mu.atoms if p in sums), fr(0))
                nu_mass = sum((w for p, w in nu.atoms if p in set(e_pts)), fr(0))
                lam_mass = sum((w for p, w in lam.atoms if p in set(f_pts)), fr(0))
                assert mass == nu_mass * lam_mass

    def test_disjoint_translates(self):
        nu_pts = set(level_measure(SIXTEEN_01, 2).locations)
        lam_pts = level_measure(SIXTEEN_04, 2).locations
        translated = []
        for x in lam_pts:
            translated.append({(p[0] + x[0],) for p in nu_pts})
        for i in range(len(translated)):
            for j in range(i + 1, len(translated)):
                assert not (translated[i] & translated[j])


class TestSingularityWitness:
    @pytest.mark.parametrize("level", [2, 3, 4])
    def test_witness_masses(self, level):
        witness = singularity_witness(SIXTEEN_01, SIXTEEN_04, 0, level)
        assert witness.rho_mass <= fr(1, 2**level)
        assert witness.overlap_mass == 1
        assert witness.overlap_mass_total == 1 + fr(1, 2**level)

    def test_search_skips_coinciding_translate(self):
        lam = level_measure(SIXTEEN_04, 3)
        taken = lam.locations[1]
        witness = singularity_witness(SIXTEEN_01, SIXTEEN_04, taken, 3)
        assert witness.shift_point != taken
        assert witness.overlap_mass == 1

    def test_single_digit_system_rejected(self):
        with pytest.raises(NoWitnessFound):
            singularity_witness(SIXTEEN_01, DigitSystem.one_dimensional(16, [0]), 0, 3)

    def test_non_packing_pair_rejected(self):
        with pytest.raises(NotCertifiedPacking, match="^the two systems are certified not to pack$"):
            singularity_witness(SIXTEEN_01, SIXTEEN_01, 0, 3)

    def test_undecided_pair_rejected(self):
        # 4:{0,1} with 4:{0,2} does not pack, but neither the digit criterion nor the clouds decide it.
        with pytest.raises(NotCertifiedPacking, match="^no packing certificate available for the pair$"):
            singularity_witness(FOUR, DigitSystem.one_dimensional(4, [0, 2]), 0, 3)

    def test_undecided_pair_is_inconclusive_on_both_criteria(self):
        nu, lam = FOUR, DigitSystem.one_dimensional(4, [0, 2])
        assert packing_certificate_from_digits(nu.matrix, nu.digits, lam.digits).status == INCONCLUSIVE
        for level in (1, 3, 6):
            clouds = attractor_points(nu, level), attractor_points(lam, level)
            assert packing_certificate_from_clouds(*clouds).status == INCONCLUSIVE

    @pytest.mark.parametrize("shift", [0, Fraction(1, 3), Fraction(1, 16), -Fraction(1, 15)])
    def test_sum_measure_is_never_formed(self, monkeypatch, shift):
        expected = singularity_witness(SIXTEEN_01, SIXTEEN_04, shift, 4)

        def never(*args, **kwargs):
            raise AssertionError("the witness formed the sum measure")

        for module in (packing, measures):
            monkeypatch.setattr(module, "add", never, raising=False)
            monkeypatch.setattr(module, "translate", never, raising=False)
        assert singularity_witness(SIXTEEN_01, SIXTEEN_04, shift, 4) == expected
