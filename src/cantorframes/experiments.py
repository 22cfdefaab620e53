"""The three frame experiments: degeneracy, rotation invariance, cross-Bessel.

Each experiment is a pure function returning a result dataclass with
plain-tuple rows ready for CSV emission. Finite-level lower-bound collapse
runs are mechanism demonstrations, not proofs about the limit measures.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .errors import ZeroNormInput
from .frames import (
    BlockedLinearMap,
    FrameReport,
    FrequencySet,
    _shear_transport,
    bessel_quotient,
    frame_bounds,
    indicator_coefficients,
    jp_spectrum,
)
from .measures import (
    DigitSystem,
    add,
    as_point,
    embed_axis,
    level_measure,
    translate,
)
from .measures import _common_numerators
from .packing import _certified_packing, _skeletons


@dataclass(frozen=True)
class DegeneracyRow:
    k: int
    ball_mass: Fraction
    quotient: float
    quotient_over_mass: float
    inverse_mass: Fraction


@dataclass(frozen=True)
class DegeneracyResult:
    rows: tuple
    upper_estimate: float  # largest eigenvalue of the sum measure's Gram
    nu_upper_estimate: float  # Bessel constant of the spectrum against the first factor
    collapse: tuple  # ((level, lower bound), ...) under the fixed pool rule
    certificate_status: str  # always "certified-packing": every other gate answer raises NotCertifiedPacking


def degeneracy_experiment(
    nu_ds: DigitSystem,
    lam_ds: DigitSystem,
    shift,
    level: int,
    freq_set: FrequencySet,
    k_list,
    collapse_levels=(),
    budget: int | None = None,
) -> DegeneracyResult:
    """Quotient-versus-ball-mass table for the sum measure mechanism.

    For each k the window is V_k = (first support) + (second support
    inside the 1/k ball); the quotient of its indicator against the
    convolution factor is compared with the ball mass, so the table
    exhibits quotient <= upper_estimate * mass and hence a lower bound
    1/mass on the condition ratio of any common frame.
    """
    ks = sorted(map(operator.index, k_list))
    if ks and ks[0] < 1:
        raise ValueError(f"k must be >= 1, got {ks[0]}")
    cert = _certified_packing(nu_ds, lam_ds, level, budget)
    t = as_point(shift, nu_ds.dim)
    nu_n, lam_n, mu_n = _skeletons(nu_ds, lam_ds, level, level, budget)
    rho = add(mu_n, translate(nu_n, t))

    upper = frame_bounds(rho, freq_set).upper
    nu_upper = frame_bounds(nu_n, freq_set).upper

    rows, q = [], lam_n.denominator
    for k in ks:
        # |p / q| <= 1/k about the origin of R^d, on the numerators p of lambda_n: the ball and its mass.
        ball = [i for i, p in enumerate(lam_n.numerators) if k * k * sum(x * x for x in p) <= q * q]
        if not ball:
            raise ZeroNormInput(f"no atom of the second factor lies within 1/{k} of 0: the window for k={k} is empty")
        beta = Fraction(sum(lam_n.masses[i] for i in ball), lam_n.mass_denominator)
        window = {tuple(a + b for a, b in zip(p, lam_n.locations[i])) for p in nu_n.locations for i in ball}
        coeffs = indicator_coefficients(mu_n, window)
        quotient = bessel_quotient(mu_n, freq_set, coeffs)
        rows.append(
            DegeneracyRow(
                k=k,
                ball_mass=beta,
                quotient=quotient,
                quotient_over_mass=quotient / float(beta),
                inverse_mass=1 / beta,
            )
        )
    collapse = collinear_lower_bounds(nu_ds, lam_ds, t, collapse_levels, budget=budget)
    return DegeneracyResult(
        rows=tuple(rows),
        upper_estimate=upper,
        nu_upper_estimate=nu_upper,
        collapse=collapse,
        certificate_status=cert.status,
    )


def integer_pool(size: int) -> FrequencySet:
    return FrequencySet.from_scalars(range(size))


def collinear_lower_bounds(
    nu_ds: DigitSystem,
    lam_ds: DigitSystem,
    shift,
    sum_levels,
    budget: int | None = None,
) -> tuple:
    """Lower frame bound of the collinear sum under a fixed pool-growth rule.

    ``sum_levels`` count digit layers of the convolution measure: level n
    uses the first factor at depth floor(n/2) and the second at
    ceil(n/2). Each sum measure gets the integer frequency pool
    {0, ..., 2 * atoms - 1}; the lower bound collapsing with n
    is the finite-level shadow of frame degeneracy.
    """
    t = as_point(shift, nu_ds.dim)
    out = []
    for n in sorted(map(operator.index, sum_levels)):
        if n < 2:
            raise ValueError("sum levels must be >= 2")
        nu_n, _, mu_n = _skeletons(nu_ds, lam_ds, n // 2, (n + 1) // 2, budget)
        rho = add(mu_n, translate(nu_n, t))
        pool = integer_pool(2 * len(rho))
        report = frame_bounds(rho, pool)
        out.append((n, report.lower))
    return tuple(out)


@dataclass(frozen=True)
class RotationRow:
    theta_degrees: float
    status: str  # "ok" or "singular-a4"; the four floats are None on "singular-a4" rows
    lower: float | None
    upper: float | None
    lower_deviation: float | None
    upper_deviation: float | None


@dataclass(frozen=True)
class RotationResult:
    base_report: FrameReport
    base_frequencies: FrequencySet
    rows: tuple
    collapse: tuple


def _sheared_atoms(atoms, t_map: BlockedLinearMap) -> tuple:
    """Planar atoms (x, y) mapped to (x + a2 y, a4 y), in their given order, as numerators over one denominator.

    ``atoms`` are integer numerators over a positive denominator; the map's
    floats enter as the binary rationals they are.
    """
    numerators, q = atoms
    ((n2, n4),), scale = _common_numerators([(t_map.a2[0][0], t_map.a4[0][0])])
    return [(x * scale + n2 * y, n4 * y) for x, y in numerators], q * scale


# The rotation frame's graph is drawn from this splitmix64 seed; the JSON table names it.
_GRAPH_SEED = 0
_ROTATION_FRAME = f"4-regular bipartite graph on J4 x J16, splitmix64 seed {_GRAPH_SEED}"
_MASK64 = (1 << 64) - 1


def _splitmix64(seed: int):
    """The splitmix64 stream (Steele, Lea and Flood, OOPSLA 2014) on Python ints: one stream on every platform."""
    state = seed
    while True:
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        yield z ^ (z >> 31)


def _regular_bipartite_edges(n: int) -> list:
    """Sorted edges (i, j) of a connected simple min(4, n)-regular bipartite graph on two copies of range(n).

    The union of min(4, n) perfect matchings, each a Fisher-Yates shuffle
    drawn from ``_splitmix64(_GRAPH_SEED)``. A matching that repeats an
    edge is drawn again; a graph that union-find finds disconnected is
    drawn again whole, from the continuing stream.
    """
    def root(x):
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    stream = _splitmix64(_GRAPH_SEED)
    while True:
        edges: set = set()
        while len(edges) < min(4, n) * n:
            perm = list(range(n))
            for i in range(n - 1, 0, -1):
                k = next(stream) % (i + 1)
                perm[i], perm[k] = perm[k], perm[i]
            if edges.isdisjoint(matching := set(enumerate(perm))):
                edges |= matching
        parent = list(range(2 * n))
        for i, j in edges:
            parent[root(i)] = root(n + j)
        if len({root(x) for x in range(2 * n)}) == 1:
            return sorted(edges)


def rotation_experiment(
    level: int,
    thetas_degrees,
    collapse_levels=(),
    budget: int | None = None,
) -> RotationResult:
    """Frame-bound invariance of the planar two-Cantor sum under rotation.

    The axis-aligned sum is (mu4 x delta0) + (delta0 x mu16) at ``level``,
    and its frequencies are the edges (J4[i], J16[j]) of the fixed
    min(4, N)-regular bipartite graph ``_regular_bipartite_edges(N)`` on
    the two level-n orthonormal spectra J4 and J16, N = 2^level of each:
    for such a set the frame bounds are the second-smallest and the largest
    Laplacian eigenvalues of the graph, 8 the largest once it is
    4-regular. Levels 1 and 2 give the complete graph, the whole product.
    A rotation with
    (c, s) the floats ``BlockedLinearMap.rotation_2d`` stores, taken as
    the binary rationals they are, maps the atoms through [[1, -s], [0, c]]
    and the spectrum, scaled by 1/c on its second coordinate, through the
    shear transport. Both maps are linear over the rationals, so running
    them on the two basis frequencies and the two basis atoms, and checking
    in integers that the images pair to the identity, proves that every
    rotated phase equals the base one exactly; the kernel rounds each
    exact phase once, so the two synthesis matrices are identical and the
    row carries the base bounds with deviations 0.0, without an eigensolve.
    A mismatch raises. An angle that is exactly 90 mod 180 degrees reports
    the singular block instead, with None for every bound; it is decided
    on the angle itself, before a cosine is rounded. A NaN or infinite
    angle is refused before any skeleton is built.
    """
    thetas = [float(theta) for theta in thetas_degrees]
    if bad := [theta for theta in thetas if not math.isfinite(theta)]:
        raise ValueError(f"angle {bad[0]} is not finite")
    four, sixteen = DigitSystem.one_dimensional(4, [0, 1]), DigitSystem.one_dimensional(16, [0, 1])
    mu_1d, nu_1d = level_measure(four, level, budget), level_measure(sixteen, level, budget)
    base = add(embed_axis(mu_1d, 2, 0), embed_axis(nu_1d, 2, 1))

    jp_mu, jp_nu = jp_spectrum(four, [0, 2], level, budget), jp_spectrum(sixteen, [0, 8], level, budget)
    edges = _regular_bipartite_edges(len(jp_mu))
    frame = FrequencySet(dim=2, freqs=tuple((jp_mu.freqs[i][0], jp_nu.freqs[j][0]) for i, j in edges))
    base_report = frame_bounds(base, frame)

    rows = []
    for theta in thetas:
        if Fraction(theta) % 180 == 90:
            rows.append(RotationRow(theta, "singular-a4", None, None, None, None))
            continue
        t_map = BlockedLinearMap.rotation_2d(math.radians(theta))
        freqs, p = _shear_transport(_common_numerators([(1, 0), (0, 1 / Fraction(t_map.a4[0][0]))]), t_map)
        atoms, q = _sheared_atoms(([(1, 0), (0, 1)], 1), t_map)
        # (F/p)(A/q)^t = I on the bases, so by linearity <Tf, Sa> = <f, a> for every frequency and atom.
        if [[sum(x * y for x, y in zip(f, a)) for a in atoms] for f in freqs] != [[p * q, 0], [0, p * q]]:
            raise RuntimeError(f"rotation by {theta} degrees breaks the exact phase identity")
        rows.append(RotationRow(theta, "ok", base_report.lower, base_report.upper, 0.0, 0.0))
    collapse = collinear_lower_bounds(sixteen, DigitSystem.one_dimensional(16, [0, 4]), 0, collapse_levels, budget)
    return RotationResult(
        base_report=base_report, base_frequencies=frame, rows=tuple(rows), collapse=collapse
    )


@dataclass(frozen=True)
class CrossBesselRow:
    level: int
    freq_count: int
    atom_count: int
    upper: float


@dataclass(frozen=True)
class CrossBesselResult:
    rows: tuple


def cross_bessel_experiment(
    src_ds: DigitSystem,
    src_freq_digits,
    dst_ds: DigitSystem,
    levels,
    depth_ratio: int = 1,
    budget: int | None = None,
) -> CrossBesselResult:
    """Bessel constant of one measure's orthonormal spectrum against another.

    Exploratory by design: the growth of the constant with the level is
    reported without a pass/fail threshold.
    """
    if depth_ratio < 1:
        raise ValueError(f"depth ratio must be >= 1, got {depth_ratio}")
    rows = []
    for n in sorted(map(operator.index, levels)):
        freq_set = jp_spectrum(src_ds, src_freq_digits, n, budget)
        measure = level_measure(dst_ds, depth_ratio * n, budget)
        report = frame_bounds(measure, freq_set)
        rows.append(
            CrossBesselRow(
                level=n, freq_count=len(freq_set), atom_count=len(measure), upper=report.upper
            )
        )
    return CrossBesselResult(rows=tuple(rows))
