"""Packing-pair certification and translational-singularity witnesses.

All set operations run on exact rational skeletons; tail-radius inflation
turns finite-level separation into certificates about the infinite
attractors. Certificates are tri-state: a failed sufficient criterion is
reported as inconclusive, never as a refutation.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations

from .errors import (
    AtomBudgetExceeded,
    DimensionMismatch,
    NoWitnessFound,
    NotCertifiedPacking,
)
from .measures import (
    AtomicMeasure,
    DigitSystem,
    PointCloud,
    absolute_atoms,
    add,
    as_point,
    attractor_points,
    convolve,
    level_measure,
    tail_radius,
    translate,
    validate_digit_system,
)
from .measures import _common_numerators, _digit_layers, _fraction_points, _sqrt_upper_bound, _sumset

CERTIFIED_PACKING = "certified-packing"
CERTIFIED_NOT_PACKING = "certified-not-packing"
INCONCLUSIVE = "inconclusive"

METHOD_DIGIT_CRITERION = "digit-criterion"
METHOD_FINITE_LEVEL = "finite-level-separation"
METHOD_DIFFERENCE_INTERSECTION = "difference-intersection"

CERTIFIED_SSC = "certified-ssc"
CERTIFIED_OVERLAP = "certified-overlap"

# Words a difference set or an all-pairs distance scan may form.
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
class OverlapReport:
    """Decomposition of one atomic measure against another.

    ``ac_part`` lists (location, density ratio) over shared atoms;
    ``ac_mass`` is the total mass carried on those atoms and
    ``singular_mass`` the mass sitting on locations the reference measure
    does not charge.
    """

    ac_part: tuple
    ac_mass: Fraction
    singular_mass: Fraction
    sup_ratio: object  # Fraction, or math.inf when singular mass is present


@dataclass(frozen=True)
class SingularityWitness:
    """Finite-resolution witness for translational singularity.

    ``rho_mass`` is the full sum-measure mass of the witness set, which
    shrinks with the level; ``overlap_mass`` is the mass the shifted copy
    contributes to the translated overlap (exactly 1 when the witness
    translate is exactly disjoint); ``overlap_mass_total`` is the overlap
    of the whole sum measure, which exceeds ``overlap_mass`` by the
    discretization leakage of the convolution part.
    """

    shift_point: tuple
    witness_points: tuple
    rho_mass: Fraction
    overlap_mass: Fraction
    overlap_mass_total: Fraction
    level: int
    certificate: PackingCertificate


def difference_set(p_points, q_points) -> tuple:
    """All pairwise differences p - q, deduplicated and sorted."""
    ps = [as_point(p) for p in p_points]
    qs = [as_point(q) for q in q_points]
    if ps and qs and len(ps[0]) != len(qs[0]):
        raise DimensionMismatch("difference_set requires equal dimensions")
    numerators, denominator = _common_numerators(ps + qs)
    return _fraction_points(_differences(numerators[: len(ps)], numerators[len(ps) :]), denominator)


def _differences(xs, ys) -> dict:
    """The integer points x - y with multiplicities; at most _PAIR_BUDGET words, checked before any sum."""
    layers = [dict.fromkeys(xs, 1), {tuple(-v for v in y): 1 for y in ys}]
    return _sumset(len(xs[0]) if xs else 0, layers, budget=_PAIR_BUDGET)


def _min_gap_sq(xs, ys, denominator: int):
    """Smallest nonzero |x - y|^2 of integer points over ``denominator``, or None if there is none."""
    gap = min((_norm_sq(w) for w in _differences(xs, ys) if any(w)), default=None)
    return None if gap is None else Fraction(gap, denominator**2)


def _norm_sq(v):
    return sum(x * x for x in v)


def packing_certificate_from_digits(R, B, C) -> PackingCertificate:
    """Certify a packing pair for two digit sets under a common matrix.

    Requires (B-B) and (C-C) to meet only in zero (decided exactly) and
    the geometric contraction bound D*r/(1 - D*r) < 1, where r is the
    certified inverse-norm bound and D the largest Euclidean norm in
    (B-B)-(C-C). The bound is sufficient, not necessary, so a failed
    inequality yields an inconclusive certificate.
    """
    ds_b = DigitSystem(R, B)
    ds_c = DigitSystem(R, C)
    validate_digit_system(ds_b)
    validate_digit_system(ds_c)
    inputs = {"matrix": ds_b.matrix, "digits_b": ds_b.digits, "digits_c": ds_c.digits}

    bb = difference_set(ds_b.digits, ds_b.digits)
    cc = difference_set(ds_c.digits, ds_c.digits)
    zero = (Fraction(0),) * ds_b.dim
    common = sorted(set(bb) & set(cc))
    witnesses = [v for v in common if v != zero]
    if witnesses:
        return PackingCertificate(
            status=CERTIFIED_NOT_PACKING,
            method=METHOD_DIFFERENCE_INTERSECTION,
            evidence={"witness": witnesses[0]},
            inputs=inputs,
        )

    dd = difference_set(bb, cc)
    d_sq = max(_norm_sq(v) for v in dd)
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
    d1 = difference_set(cloud1.points, cloud1.points)
    d2 = difference_set(cloud2.points, cloud2.points)
    inputs = {
        "points_1": cloud1.points,
        "tail_1": cloud1.tail_radius,
        "points_2": cloud2.points,
        "tail_2": cloud2.tail_radius,
    }
    zero = (Fraction(0),) * cloud1.dim
    common = [v for v in set(d1) & set(d2) if v != zero]
    if common:
        return PackingCertificate(
            status=CERTIFIED_NOT_PACKING,
            method=METHOD_DIFFERENCE_INTERSECTION,
            evidence={"witness": min(common)},
            inputs=inputs,
        )
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
    numerators, denominator = _common_numerators(d1 + d2)
    gap_sq = _min_gap_sq(numerators[: len(d1)], numerators[len(d1) :], denominator)
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
    validate_digit_system(ds)
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
            sums = _sumset(ds.dim + 1, tagged, budget)
        except AtomBudgetExceeded:
            evidence = {"reason": "atom budget reached", **last_evidence}
            return SscCertificate(status=INCONCLUSIVE, depth_used=depth_used, evidence=evidence)
        keys = sorted(sums)
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
        if len(sums) ** 2 > _PAIR_BUDGET:
            evidence = {"reason": "pair scan budget reached", "depth": d}
            return SscCertificate(status=INCONCLUSIVE, depth_used=d, evidence=evidence)
        pairs = combinations(range(ds.branch), 2)
        min_gap_sq = min((_min_gap_sq(clouds[i], clouds[j], denominator) for i, j in pairs), default=None)
        evidence = {"min_gap_squared": min_gap_sq, "threshold_squared": threshold_sq}
        if min_gap_sq is not None and min_gap_sq > threshold_sq:
            return SscCertificate(status=CERTIFIED_SSC, depth_used=d, evidence=evidence)
        depth_used, last_evidence = d, {**evidence, "depth": d}
        d *= 2


def translation_overlap(rho: AtomicMeasure, support_points, shift) -> AtomicMeasure:
    """The measure F -> rho((F + shift) on (E + shift)) as an atomic measure.

    Atoms sit at x with x + shift an atom of rho inside E + shift, carrying
    rho's weight there. All membership tests are exact.
    """
    t = as_point(shift, rho.dim)
    shifted_support = {tuple(a + b for a, b in zip(as_point(p, rho.dim), t)) for p in support_points}
    atoms = []
    for loc, w in absolute_atoms(rho):
        if loc in shifted_support:
            atoms.append((tuple(a - b for a, b in zip(loc, t)), w))
    return AtomicMeasure.from_atoms(rho.dim, atoms)


def radon_nikodym_atoms(omega: AtomicMeasure, mu: AtomicMeasure) -> OverlapReport:
    """Split omega into a part with density against mu and a singular part."""
    if omega.dim != mu.dim:
        raise DimensionMismatch("measures live in different dimensions")
    mu_abs = dict(absolute_atoms(mu))
    ac = []
    ac_mass = Fraction(0)
    singular = Fraction(0)
    for loc, w in absolute_atoms(omega):
        if loc in mu_abs:
            ac.append((loc, w / mu_abs[loc]))
            ac_mass += w
        else:
            singular += w
    if singular > 0:
        sup = float("inf")
    else:
        sup = max((r for _, r in ac), default=Fraction(0))
    return OverlapReport(ac_part=tuple(ac), ac_mass=ac_mass, singular_mass=singular, sup_ratio=sup)


def _packing_certificate_for_pair(
    nu_ds: DigitSystem, lam_ds: DigitSystem, level: int, budget: int | None
) -> PackingCertificate:
    if nu_ds.matrix == lam_ds.matrix:
        cert = packing_certificate_from_digits(nu_ds.matrix, nu_ds.digits, lam_ds.digits)
        if cert.status != INCONCLUSIVE:
            return cert
    return packing_certificate_from_clouds(
        attractor_points(nu_ds, level, budget), attractor_points(lam_ds, level, budget)
    )


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
    """
    if nu_ds.branch < 2 or lam_ds.branch < 2:
        raise NoWitnessFound(
            "a single-digit system has an atomic limit measure; no witness exists"
        )
    cert = _packing_certificate_for_pair(nu_ds, lam_ds, level, budget)
    if cert.status == CERTIFIED_NOT_PACKING:
        raise NotCertifiedPacking("the two systems are certified not to pack")
    if cert.status != CERTIFIED_PACKING:
        raise NotCertifiedPacking("no packing certificate available for the pair")

    t = as_point(shift, nu_ds.dim)
    nu_n = level_measure(nu_ds, level, budget)
    lam_n = level_measure(lam_ds, level, budget)
    points, denominator = _common_numerators(nu_n.locations + lam_n.locations + (t,))
    (nu_weights,), weight_denominator = _common_numerators([nu_n.weights])
    nu_layer = dict(zip(points[: len(nu_n)], nu_weights))
    shifted_nu = _sumset(nu_ds.dim, [nu_layer, {points[-1]: 1}], budget)

    mu_n = convolve(nu_n, lam_n, budget)
    rho = add(mu_n, translate(nu_n, t))

    max_overlap = Fraction(0)
    for x, x_numerators in zip(lam_n.locations, points[len(nu_n) : -1]):
        # Each translate carries the weight numerators of nu's atoms.
        translated = _sumset(nu_ds.dim, [nu_layer, {x_numerators: 1}], budget)
        collisions = translated.keys() & shifted_nu.keys()
        if collisions:
            overlap_mass = Fraction(sum(translated[p] for p in collisions), weight_denominator)
            max_overlap = max(max_overlap, overlap_mass)
            continue
        witness_points = _fraction_points(translated, denominator)
        witness_set = set(witness_points)
        rho_mass = sum((w for p, w in rho.atoms if p in witness_set), Fraction(0))
        shift_back = tuple(a - b for a, b in zip(t, x))
        support_e = mu_n.locations
        omega_total = translation_overlap(rho, support_e, shift_back)
        omega_nu = translation_overlap(translate(nu_n, t), support_e, shift_back)
        overlap_total = sum((w for p, w in omega_total.atoms if p in witness_set), Fraction(0))
        overlap_nu = sum((w for p, w in omega_nu.atoms if p in witness_set), Fraction(0))
        return SingularityWitness(
            shift_point=x,
            witness_points=witness_points,
            rho_mass=rho_mass,
            overlap_mass=overlap_nu,
            overlap_mass_total=overlap_total,
            level=level,
            certificate=cert,
        )
    raise NoWitnessFound(
        "every level-%d translate meets the shifted copy" % level,
        max_overlap=max_overlap,
        suggested_level=level + 1,
    )
