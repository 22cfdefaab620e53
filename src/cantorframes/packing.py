"""Packing-pair certification and translational-singularity witnesses.

All set operations run on exact rational skeletons; tail-radius inflation
turns finite-level separation into certificates about the infinite
attractors. Certificates are tri-state: a failed sufficient criterion is
reported as inconclusive, never as a refutation. Packing certificates decide
on integer difference sets; only their evidence is built as ``Fraction``
values. Every exact point is read through ``measures._exact_point``.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations

from .errors import (
    AtomBudgetExceeded,
    DimensionMismatch,
    NoWitnessFound,
    NotCertifiedPacking,
)
from .measures import DigitSystem, PointCloud, attractor_points, convolve, level_measure, tail_radius
from .measures import _common_numerators, _digit_layers, _exact_point, _over
from .measures import _sqrt_upper_bound, _sumset

CERTIFIED_PACKING = "certified-packing"
CERTIFIED_NOT_PACKING = "certified-not-packing"
INCONCLUSIVE = "inconclusive"

METHOD_DIGIT_CRITERION = "digit-criterion"
METHOD_FINITE_LEVEL = "finite-level-separation"
METHOD_DIFFERENCE_INTERSECTION = "difference-intersection"

CERTIFIED_SSC = "certified-ssc"
CERTIFIED_OVERLAP = "certified-overlap"

# Words a difference set or a planar all-pairs distance scan may form.
_PAIR_BUDGET = 1 << 22


@dataclass(frozen=True)
class PackingCertificate:
    status: str
    method: str
    evidence: dict
    inputs: dict

    @property
    def certified(self) -> bool:
        return self.status == CERTIFIED_PACKING


@dataclass(frozen=True)
class SscCertificate:
    status: str
    depth_used: int
    evidence: dict


@dataclass(frozen=True)
class SingularityWitness:
    """Finite-resolution witness for translational singularity.

    Here F = nu_n + x is the witness set and rho = nu_n * lambda_n +
    delta_t * nu_n. ``rho_mass`` is rho(F), which shrinks with the level.
    Moved by t - x onto the support E of nu_n * lambda_n, rho charges F;
    ``overlap_mass`` is the part of that mass delta_t * nu_n carries and
    ``overlap_mass_total`` all of it. Two identities hold for every
    witness. F misses nu_n + t, where all of delta_t * nu_n sits, so
    rho_mass = (nu_n * lambda_n)(F). Every point of F lies in E, since x
    is an atom of lambda_n, so overlap_mass is the total mass of nu_n and
    overlap_mass_total = (nu_n * lambda_n)(nu_n + t) + overlap_mass.
    """

    shift_point: tuple
    witness_points: tuple
    rho_mass: Fraction
    overlap_mass: Fraction
    overlap_mass_total: Fraction
    level: int
    certificate: PackingCertificate


def _differences(xs, ys) -> list:
    """The distinct integer points x - y, sorted; at most _PAIR_BUDGET words, checked before any sum."""
    layers = [dict.fromkeys(xs, 1), {tuple(-v for v in y): 1 for y in ys}]
    return _sumset(len(xs[0]) if xs else 0, layers, budget=_PAIR_BUDGET)[0]


def _min_gap_sq(dim: int, clouds, denominator: int):
    """Smallest nonzero |x - y|^2 over x, y in different clouds of integer points over ``denominator``, or None.

    In one dimension one sorted scan, O(N log N) and with no budget: each
    value carries the bit set of the clouds that hold it, and the smallest
    gap lies between sorted neighbours, since a value strictly between x
    and y belongs to a cloud other than x's or other than y's and so makes
    a smaller gap. Neighbours count unless both lie in the same single
    cloud; a value shared by two clouds (the zero of two difference sets)
    is one entry, so it hides neither neighbour. In more dimensions every
    pair of clouds is scanned within _PAIR_BUDGET.
    """
    if dim == 1:
        tags: dict = {}
        for i, cloud in enumerate(clouds):
            for (x,) in cloud:
                tags[x] = tags.get(x, 0) | 1 << i
        keys = sorted(tags)
        pairs = zip(keys, keys[1:])
        gaps = ((b - a) ** 2 for a, b in pairs if tags[a] != tags[b] or tags[a] & (tags[a] - 1))
    else:
        gaps = (_norm_sq(w) for xs, ys in combinations(clouds, 2) for w in _differences(xs, ys) if any(w))
    gap = min(gaps, default=None)
    return None if gap is None else Fraction(gap, denominator**2)


def _norm_sq(v):
    return sum(x * x for x in v)


def _self_differences(first, second, denominator: int, inputs) -> tuple:
    """Both self-difference sets of integer points over ``denominator``, and the refutation by a common nonzero one.

    The refutation is None when the sets meet only in zero; else its
    witness is their least common nonzero difference.
    """
    d1, d2 = _differences(first, first), _differences(second, second)
    common = [v for v in set(d1).intersection(d2) if any(v)]
    if not common:
        return d1, d2, None
    evidence = {"witness": tuple(Fraction(x, denominator) for x in min(common))}
    return d1, d2, PackingCertificate(CERTIFIED_NOT_PACKING, METHOD_DIFFERENCE_INTERSECTION, evidence, inputs)


def packing_certificate_from_digits(R, B, C) -> PackingCertificate:
    """Certify a packing pair for two digit sets under a common matrix.

    Requires (B-B) and (C-C) to meet only in zero (decided exactly) and
    the geometric contraction bound D*r/(1 - D*r) < 1, where r is the
    certified inverse-norm bound and D the largest Euclidean norm in
    (B-B)-(C-C). The bound is sufficient, not necessary, so a failed
    inequality yields an inconclusive certificate.
    """
    return _digit_certificate(DigitSystem(R, B), DigitSystem(R, C))


def _digit_certificate(ds_b: DigitSystem, ds_c: DigitSystem) -> PackingCertificate:
    """``packing_certificate_from_digits`` on two built systems; ValueError unless they share their matrix."""
    if ds_b.matrix != ds_c.matrix:
        raise ValueError("the digit criterion needs a common matrix")
    inputs = {"matrix": ds_b.matrix, "digits_b": ds_b.digits, "digits_c": ds_c.digits}

    bb, cc, refutation = _self_differences(ds_b.digits, ds_c.digits, 1, inputs)
    if refutation is not None:
        return refutation
    d_sq = Fraction(max(_norm_sq(v) for v in _differences(bb, cc)))
    d_ub = _sqrt_upper_bound(d_sq)
    inv = ds_b.inverse_norm_bound()
    contraction = d_ub * inv
    bound = contraction / (1 - contraction) if contraction < 1 else None
    evidence = {
        "difference_intersection": "trivial",
        "D": d_ub,
        "D_squared": d_sq,
        "inverse_norm": inv,
        "bound": bound,
    }
    status = CERTIFIED_PACKING if bound is not None and bound < 1 else INCONCLUSIVE
    return PackingCertificate(
        status=status, method=METHOD_DIGIT_CRITERION, evidence=evidence, inputs=inputs
    )


def packing_certificate_from_clouds(cloud1: PointCloud, cloud2: PointCloud) -> PackingCertificate:
    """Certify packing from two finite point clouds with tail radii.

    An exact common nonzero difference refutes packing. Otherwise the
    certificate asserts that any common difference of the underlying
    attractors lies within 2*(r1+r2) of the origin: separation of the two
    inflated difference sets away from the shared zero cannot exclude
    sub-resolution collisions near zero.
    """
    if cloud1.dim != cloud2.dim:
        raise DimensionMismatch("clouds live in different dimensions")
    inputs = {
        "points_1": cloud1.points,
        "tail_1": cloud1.tail_radius,
        "points_2": cloud2.points,
        "tail_2": cloud2.tail_radius,
    }
    numerators, denominator = _common_numerators([*cloud1.points, *cloud2.points])
    c1, c2 = numerators[: len(cloud1.points)], numerators[len(cloud1.points) :]
    d1, d2, refutation = _self_differences(c1, c2, denominator, inputs)
    if refutation is not None:
        return refutation
    if cloud1.tail_radius is None or cloud2.tail_radius is None:
        return PackingCertificate(
            status=INCONCLUSIVE,
            method=METHOD_FINITE_LEVEL,
            evidence={"reason": "no certified tail radius"},
            inputs=inputs,
        )
    threshold = 2 * (cloud1.tail_radius + cloud2.tail_radius)
    threshold_sq = threshold * threshold
    # No common nonzero difference is left, so u - v vanishes only for u = v = 0.
    gap_sq = _min_gap_sq(cloud1.dim, [d1, d2], denominator)
    evidence = {
        "gap_squared": gap_sq,
        "threshold": threshold,
        "threshold_squared": threshold_sq,
        "resolution": threshold,
    }
    status = CERTIFIED_PACKING if gap_sq is not None and gap_sq > threshold_sq else INCONCLUSIVE
    return PackingCertificate(
        status=status, method=METHOD_FINITE_LEVEL, evidence=evidence, inputs=inputs
    )


def ssc_certificate(ds: DigitSystem, depth: int, budget: int | None = None) -> SscCertificate:
    """Decide the strong separation condition at finite resolution.

    Compares the first-digit cylinders of the attractor on level-(d+1)
    clouds, doubling d up to the atom budget. An exact cross-cylinder
    collision certifies overlap (append any common digit tail to both
    expansions); separation beyond twice the tail radius certifies SSC.
    A single-digit system has one cylinder and certifies SSC at once.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if ds.branch == 1:
        evidence = {"reason": "single cylinder"}
        return SscCertificate(status=CERTIFIED_SSC, depth_used=depth, evidence=evidence)
    d = depth
    depth_used, last_evidence = depth, {}
    while True:
        # Level d+1, each sum tagged with its first digit index: one budget for branch^(d+1) words.
        layers, denominator = _digit_layers(ds, [range(ds.branch)] * (d + 1))
        first = {s + (i,): 1 for i, s in enumerate(next(layers))}
        tagged = chain([first], ({s + (0,): 1 for s in layer} for layer in layers))
        try:
            keys, _ = _sumset(ds.dim + 1, tagged, budget)
        except AtomBudgetExceeded:
            evidence = {"reason": "atom budget reached", **last_evidence}
            return SscCertificate(status=INCONCLUSIVE, depth_used=depth_used, evidence=evidence)
        for a, b in zip(keys, keys[1:]):
            if a[:-1] == b[:-1]:
                collision = tuple(Fraction(x, denominator) for x in a[:-1])
                return SscCertificate(
                    status=CERTIFIED_OVERLAP,
                    depth_used=d,
                    evidence={"collision": collision, "cylinders": (a[-1], b[-1])},
                )
        clouds = [[key[:-1] for key in keys if key[-1] == i] for i in range(ds.branch)]
        radius = tail_radius(ds, d + 1)
        if radius is None:
            return SscCertificate(
                status=INCONCLUSIVE, depth_used=d, evidence={"reason": "no certified tail radius"}
            )
        threshold_sq = (2 * radius) ** 2
        if ds.dim > 1 and len(keys) ** 2 > _PAIR_BUDGET:
            evidence = {"reason": "pair scan budget reached", "depth": d}
            return SscCertificate(status=INCONCLUSIVE, depth_used=d, evidence=evidence)
        min_gap_sq = _min_gap_sq(ds.dim, clouds, denominator)
        evidence = {"min_gap_squared": min_gap_sq, "threshold_squared": threshold_sq}
        if min_gap_sq is not None and min_gap_sq > threshold_sq:
            return SscCertificate(status=CERTIFIED_SSC, depth_used=d, evidence=evidence)
        depth_used, last_evidence = d, {**evidence, "depth": d}
        d *= 2


def _certified_packing(nu_ds: DigitSystem, lam_ds: DigitSystem, level: int, budget: int | None) -> PackingCertificate:
    """The pair's packing certificate: the digit criterion's if it decides, else the level clouds'."""
    cert = _digit_certificate(nu_ds, lam_ds) if nu_ds.matrix == lam_ds.matrix else None
    if cert is None or cert.status == INCONCLUSIVE:
        cert = packing_certificate_from_clouds(
            attractor_points(nu_ds, level, budget), attractor_points(lam_ds, level, budget)
        )
    if cert.status == CERTIFIED_NOT_PACKING:
        raise NotCertifiedPacking("the two systems are certified not to pack")
    if not cert.certified:
        raise NotCertifiedPacking("no packing certificate available for the pair")
    return cert


def _skeletons(nu_ds: DigitSystem, lam_ds: DigitSystem, nu_level: int, lam_level: int, budget: int | None) -> tuple:
    """nu_n, lambda_n and nu_n * lambda_n at their two levels."""
    nu_n = level_measure(nu_ds, nu_level, budget)
    lam_n = level_measure(lam_ds, lam_level, budget)
    return nu_n, lam_n, convolve(nu_n, lam_n, budget)


def singularity_witness(
    nu_ds: DigitSystem,
    lam_ds: DigitSystem,
    shift,
    level: int,
    budget: int | None = None,
) -> SingularityWitness:
    """Search for a translate of the first support that misses the shifted copy.

    Scans the level-n points x of the second attractor in lexicographic
    order for one where (K_nu + shift) and (K_nu + x) share no exact
    point, then reports the witness set F = K_nu-points + x together with
    the sum-measure mass of F and the translated-overlap masses. This is a
    finite-resolution demonstration, not a proof about Borel supports.
    The sum measure is never formed; ``SingularityWitness`` says why.
    """
    if nu_ds.branch < 2 or lam_ds.branch < 2:
        raise NoWitnessFound(
            "a single-digit system has an atomic limit measure; no witness exists"
        )
    cert = _certified_packing(nu_ds, lam_ds, level, budget)
    (t,), t_denominator = _common_numerators([_exact_point(shift, nu_ds.dim)])
    nu_n, lam_n, mu_n = _skeletons(nu_ds, lam_ds, level, level, budget)

    # Points below are numerators over one denominator.
    denominator = math.lcm(nu_n.denominator, lam_n.denominator, mu_n.denominator, t_denominator)
    t = tuple(x * (denominator // t_denominator) for x in t)
    nu_points = _over(nu_n, denominator)
    shifted_nu = {tuple(map(operator.add, p, t)) for p in nu_points}
    mu_masses = dict(zip(_over(mu_n, denominator), mu_n.masses))

    max_overlap = 0
    for i, x in enumerate(_over(lam_n, denominator)):
        # Each translate carries the masses of nu's atoms, in nu's order.
        translated = {tuple(map(operator.add, p, x)): w for p, w in zip(nu_points, nu_n.masses)}
        collisions = translated.keys() & shifted_nu
        if collisions:
            max_overlap = max(max_overlap, sum(translated[p] for p in collisions))
            continue
        on_shifted = Fraction(sum(mu_masses.get(p, 0) for p in shifted_nu), mu_n.mass_denominator)
        return SingularityWitness(
            shift_point=lam_n.locations[i],
            # nu's sorted atoms moved by one x stay sorted.
            witness_points=tuple(tuple(Fraction(v, denominator) for v in p) for p in translated),
            rho_mass=Fraction(sum(mu_masses[y] for y in translated), mu_n.mass_denominator),
            overlap_mass=nu_n.total,
            overlap_mass_total=on_shifted + nu_n.total,
            level=level,
            certificate=cert,
        )
    raise NoWitnessFound(
        "every level-%d translate meets the shifted copy" % level,
        max_overlap=Fraction(max_overlap, nu_n.mass_denominator),
        suggested_level=level + 1,
    )
