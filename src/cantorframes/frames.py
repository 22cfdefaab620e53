"""Frequency sets, frame/Bessel bounds, and shear transport of spectra.

Frame bounds of a discretized measure are the extremal eigenvalues of the
atom-indexed Hermitian square of the synthesis matrix. Every frame entry
point shares one set of input checks and one dense eigendecomposition per
reported Gram. Everything is deterministic, with fixed tie-breaks. Greedy
frame search builds rank by pivoted Gram-Schmidt, then does one
eigendecomposition per step and scores every candidate by bisection on
the secular equation of its rank-one update, dropping candidates that
can no longer win or tie and stopping once one is left. In both phases
scores within 1e-12 * max||v||^2 of the best tie (v a candidate's
synthesis row), and the lowest pool index wins.

Every exponential sum over atoms, here and in ``fourier``, takes its
phases <freq, atom> mod 1 from one kernel: exact integer residues
(F @ A.T) mod p*q over common denominators p (frequencies) and q (atoms),
rounded once to float, with float coordinates taken as the exact binary
rationals they are. The kernel runs in int64 when
dim * max|F| * max|A| < 2^62 and p*q <= 2^53, and on Python-int object
arrays otherwise (float coordinates with long binary expansions); both
give the correctly rounded phase.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    EigenBudgetExceeded,
    EmptyFrequencySet,
    HadamardCheckFailed,
    PoolExhausted,
    SingularA4,
    SizeMismatch,
    ZeroNormInput,
)
from .measures import AtomicMeasure, DigitSystem, as_point
from .measures import _absolute, _common_numerators, _matvec, _numerators_over, _sumset

DEFAULT_EIGEN_BUDGET = 4096
_DISTINCT_RESOLUTION = 1e-12
_INT64_PRODUCT_LIMIT = 2**62
_EXACT_DOUBLE_LIMIT = 2**53
_OBJECT_BLOCK = 2**12
# Greedy picks within _TIE_RTOL * max||v||^2 of the best tie; the lowest
# pool index wins, so rounding noise cannot decide a pick.
_TIE_RTOL = 1e-12
# 50 halvings leave a secular bracket of 2^-50 of its width, still at least
# 4 ulps, so every midpoint stays strictly inside and no d_i - lambda is 0.
_BISECTIONS = 50


@dataclass(frozen=True)
class FrequencySet:
    """A finite list of real frequency vectors with a provenance tag."""

    dim: int
    freqs: tuple
    provenance: str = "user"

    def __post_init__(self):
        freqs = tuple(tuple(float(x) for x in f) for f in self.freqs)
        object.__setattr__(self, "freqs", freqs)
        if any(len(f) != self.dim for f in freqs):
            raise SizeMismatch("frequency dimension mismatch")
        seen = {}
        for f in freqs:
            if not all(map(math.isfinite, f)):
                raise ValueError(f"frequency {f} is not finite")
            key = tuple(round(x / _DISTINCT_RESOLUTION) for x in f)
            if key in seen:
                raise ValueError(f"frequencies {seen[key]} and {f} coincide within resolution")
            seen[key] = f

    @classmethod
    def from_scalars(cls, values, provenance: str = "user") -> "FrequencySet":
        return cls(dim=1, freqs=tuple((float(v),) for v in values), provenance=provenance)

    def __len__(self) -> int:
        return len(self.freqs)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.freqs, dtype=float).reshape(len(self.freqs), self.dim)


@dataclass(frozen=True)
class FrameReport:
    """Extremal frame bounds of an exponential system on a discrete measure.

    ``resolution`` is the eigenvalue tolerance of the float eigensolve:
    eigenvalues at or below it count as zero, so ``lower`` reads 0 and
    ``rank`` falls short of ``atom_count`` whenever the smallest does.
    """

    lower: float
    upper: float
    ratio: float
    rank: int
    worst_vector: tuple
    atom_count: int
    freq_count: int
    resolution: float


@dataclass(frozen=True)
class GreedySelection:
    frequencies: FrequencySet
    report: FrameReport
    selected_indices: tuple


def hadamard_triple_check(R, B, L, tol: float = 1e-12) -> bool:
    """True iff the normalized exponential matrix of (R, B, L) is unitary."""
    ds = DigitSystem(R, B)
    freqs = [(l,) if isinstance(l, int) else tuple(l) for l in L]
    if len(freqs) != ds.branch:
        raise SizeMismatch("digit and frequency sets must have equal size")
    rinv = ds.inverse_matrix()
    scaled = [_matvec(rinv, b) for b in ds.digits]
    phases = _exact_phase_matrix(ds.dim, freqs, *_common_numerators(scaled))
    matrix = np.exp(2j * np.pi * phases) / math.sqrt(ds.branch)
    return bool(np.max(np.abs(matrix @ matrix.conj().T - np.eye(ds.branch))) <= tol)


def jp_spectrum(ds: DigitSystem, L, n: int, budget: int | None = None) -> FrequencySet:
    """Level-n truncation of the orthonormal spectrum of a Hadamard pair.

    Frequencies are all sums l_0 + R^t l_1 + ... + (R^t)^(n-1) l_(n-1).
    """
    if n < 1:
        raise ValueError("level must be >= 1")
    freq_digits = tuple((l,) if isinstance(l, int) else tuple(int(x) for x in l) for l in L)
    if not hadamard_triple_check(ds.matrix, ds.digits, freq_digits):
        raise HadamardCheckFailed("the digit and frequency sets do not form a Hadamard pair")
    rt = tuple(zip(*ds.matrix))

    def layers():
        vecs = freq_digits
        for _ in range(n):
            yield dict.fromkeys(vecs, 1)
            vecs = [_matvec(rt, v) for v in vecs]

    freqs = sorted(_sumset(ds.dim, layers(), budget))
    return FrequencySet(
        dim=ds.dim, freqs=tuple(tuple(float(x) for x in f) for f in freqs), provenance="jp-spectrum"
    )


def _phase_path(dim: int, freq_nums, atom_nums, modulus: int) -> str:
    """The kernel that is exact on these operands: "int64" or "object".

    int64 needs dim * max|F| * max|A| < 2^62, so no entry of F @ A.T and
    no partial sum can wrap (an all-zero side counts as 1, so both arrays
    fit int64 too), and p*q <= 2^53, so residues and modulus are exact
    doubles and one IEEE division rounds the quotient correctly.
    """
    def bound(rows):
        return max((abs(x) for row in rows for x in row), default=0) or 1

    if dim * bound(freq_nums) * bound(atom_nums) < _INT64_PRODUCT_LIMIT and modulus <= _EXACT_DOUBLE_LIMIT:
        return "int64"
    return "object"


def _exact_phase_matrix(dim: int, freq_rows, atom_nums, q: int) -> np.ndarray:
    """Phases <freq, atom> reduced mod 1 for every frequency row and atom row.

    The only code that computes a phase of an exponential sum over atoms.
    Atoms come as integer numerators A over a positive denominator q.
    Frequency coordinates are ints, Fractions or floats; a float enters as
    the binary rational it is. Large integer frequencies against deep-level
    atoms would lose several digits in a float dot product. Instead, with
    F the frequency numerators over p, the phase is (F @ A.T mod p*q) /
    (p*q). Both paths round that exact rational once, correctly, as
    ``float(Fraction)`` does: int64 arrays and a float64 division within
    the guards of ``_phase_path``, Python int object arrays and int true
    division outside them. Nothing wraps.
    """
    freq_nums, p = _common_numerators(freq_rows)
    modulus = p * q
    path = _phase_path(dim, freq_nums, atom_nums, modulus)
    dtype = np.int64 if path == "int64" else object
    freqs = np.array(freq_nums, dtype=dtype).reshape(len(freq_nums), dim)
    atoms = np.array(atom_nums, dtype=dtype).reshape(len(atom_nums), dim)
    if path == "int64":
        return (freqs @ atoms.T) % modulus / modulus
    # In blocks of rows, so at most about _OBJECT_BLOCK Python ints are alive at once.
    phases = np.empty((len(freqs), len(atoms)))
    step = max(1, _OBJECT_BLOCK // max(len(atoms), 1))
    for i in range(0, len(freqs), step):
        phases[i : i + step] = (freqs[i : i + step] @ atoms.T) % modulus / modulus
    return phases


def synthesis_matrix(locations: np.ndarray, weights: np.ndarray, freqs: np.ndarray) -> np.ndarray:
    """Rows indexed by frequency, columns by atom: sqrt(w) exp(-2*pi*i <l, x>), exact phases."""
    locations, freqs = np.asarray(locations), np.asarray(freqs)
    phases = _exact_phase_matrix(locations.shape[-1], freqs.tolist(), *_common_numerators(locations.tolist()))
    return np.exp(-2j * np.pi * phases) * np.sqrt(weights)[None, :]


def _exact_atoms(m: AtomicMeasure) -> tuple:
    """Atom numerators with the offset folded in exactly and their denominator, and float weights."""
    m = _absolute(m)
    return (m.numerators, m.denominator), np.array([w / m.mass_denominator for w in m.masses], dtype=float)


def _synthesis_rows(dim: int, atoms, weights: np.ndarray, freq_set: FrequencySet, eigen_budget: int):
    """Synthesis rows of ``freq_set`` on atoms (numerators, denominator), after the checks every entry point shares."""
    count = len(atoms[0])
    if freq_set.dim != dim:
        raise SizeMismatch("frequency dimension does not match the measure")
    if count == 0:
        raise ZeroNormInput("measure has no atoms")
    if len(weights) != count:
        raise SizeMismatch("weight count does not match the atom count")
    if count > eigen_budget:
        raise EigenBudgetExceeded(f"{count} atoms exceed the eigen budget {eigen_budget}")
    return np.exp(-2j * np.pi * _exact_phase_matrix(dim, freq_set.freqs, *atoms)) * np.sqrt(weights)[None, :]


def _frame_report(phi: np.ndarray, weights: np.ndarray) -> FrameReport:
    """Frame bounds from one ``eigh`` of the Gram of the synthesis rows ``phi``."""
    freq_count, m = phi.shape
    if freq_count == 0:
        raise EmptyFrequencySet("frequency set is empty")
    gram = phi.conj().T @ phi
    gram = (gram + gram.conj().T) / 2.0
    values, vectors = np.linalg.eigh(gram)
    upper = max(float(values[-1]), 0.0)
    tol = max(m, freq_count) * np.finfo(float).eps * max(upper, 1.0)
    rank = int(np.count_nonzero(values > tol))
    lower = max(float(values[0]), 0.0) if rank == m else 0.0
    ratio = upper / lower if lower > 0 else math.inf
    worst = tuple(np.conj(vectors[:, 0]) / np.sqrt(weights))
    return FrameReport(
        lower=lower,
        upper=upper,
        ratio=ratio,
        rank=rank,
        worst_vector=worst,
        atom_count=m,
        freq_count=freq_count,
        resolution=float(tol),
    )


def frame_bounds_from_arrays(
    locations: np.ndarray,
    weights: np.ndarray,
    freq_set: FrequencySet,
    eigen_budget: int = DEFAULT_EIGEN_BUDGET,
) -> FrameReport:
    """Frame bounds of the exponential system on explicit weighted points, exact phases."""
    atoms = _common_numerators(np.asarray(locations).tolist())
    phi = _synthesis_rows(np.shape(locations)[-1], atoms, weights, freq_set, eigen_budget)
    return _frame_report(phi, weights)


def frame_bounds(
    m: AtomicMeasure, freq_set: FrequencySet, eigen_budget: int = DEFAULT_EIGEN_BUDGET
) -> FrameReport:
    """Frame bounds of E(freqs) on a discretized measure, with exact phases."""
    atoms, weights = _exact_atoms(m)
    return _frame_report(_synthesis_rows(m.dim, atoms, weights, freq_set, eigen_budget), weights)


def bessel_quotient(m: AtomicMeasure, freq_set: FrequencySet, coefficients) -> float:
    """Rayleigh quotient sum_l |(f dm)^(l)|^2 / ||f||^2 for atom coefficients f."""
    if freq_set.dim != m.dim:
        raise SizeMismatch("frequency dimension does not match the measure")
    atoms, weights = _exact_atoms(m)
    f = np.asarray(coefficients, dtype=complex).reshape(-1)
    if f.shape[0] != weights.shape[0]:
        raise SizeMismatch("coefficient vector length does not match the atom count")
    norm_sq = float(np.sum(np.abs(f) ** 2 * weights))
    if norm_sq == 0.0:
        raise ZeroNormInput("coefficients have zero norm in L2(m)")
    phases = _exact_phase_matrix(m.dim, freq_set.freqs, *atoms)
    analysis = np.exp(2j * np.pi * phases) @ (f * weights)
    return float(np.sum(np.abs(analysis) ** 2) / norm_sq)


def indicator_coefficients(m: AtomicMeasure, points) -> np.ndarray:
    """Indicator of an exact point set, aligned with the canonical atom order."""
    m = _absolute(m)
    wanted = {_numerators_over(as_point(p, m.dim), m.denominator) for p in points}
    return np.array([1.0 if p in wanted else 0.0 for p in m.numerators], dtype=complex)


@dataclass(frozen=True)
class BlockedLinearMap:
    """An invertible map in block form ((A1, A2), (A3, A4)) splitting at m."""

    m: int
    a1: tuple
    a2: tuple
    a3: tuple
    a4: tuple

    @classmethod
    def from_matrix(cls, matrix, m: int) -> "BlockedLinearMap":
        t = np.asarray(matrix, dtype=float)
        d = t.shape[0]
        if t.shape != (d, d):
            raise SizeMismatch("matrix is not square")
        if not 0 < m < d:
            raise SizeMismatch("block split must be strictly inside the dimension")
        if abs(np.linalg.det(t)) <= 1e-12 * max(1.0, float(np.abs(t).max()) ** d):
            raise ValueError("map is not invertible within margin")
        to_tuple = lambda a: tuple(tuple(float(x) for x in row) for row in a)
        return cls(
            m=m,
            a1=to_tuple(t[:m, :m]),
            a2=to_tuple(t[:m, m:]),
            a3=to_tuple(t[m:, :m]),
            a4=to_tuple(t[m:, m:]),
        )

    @classmethod
    def rotation_2d(cls, theta_radians: float) -> "BlockedLinearMap":
        c, s = math.cos(theta_radians), math.sin(theta_radians)
        return cls.from_matrix([[c, -s], [s, c]], m=1)

    @property
    def dim(self) -> int:
        return self.m + len(self.a4)

    def matrix(self) -> np.ndarray:
        top = np.hstack([np.asarray(self.a1), np.asarray(self.a2)])
        bottom = np.hstack([np.asarray(self.a3), np.asarray(self.a4)])
        return np.vstack([top, bottom])


@dataclass(frozen=True)
class ShearData:
    shear: tuple  # A2 @ A4^-1
    a4: tuple
    a4_condition: float


def shear_blocks(t: BlockedLinearMap) -> ShearData:
    """Shear data of the map; raises when the lower-right block is singular.

    Singularity of that block means the image of the second factor meets
    the first coordinate subspace nontrivially, where the straightening
    change of variables breaks down.
    """
    a4 = np.asarray(t.a4, dtype=float)
    singular_values = np.linalg.svd(a4, compute_uv=False)
    scale = max(1.0, float(np.abs(t.matrix()).max()))
    if singular_values.size == 0 or singular_values[-1] <= 1e-12 * scale:
        raise SingularA4("lower-right block is singular within margin")
    a2 = np.asarray(t.a2, dtype=float)
    shear = a2 @ np.linalg.inv(a4)
    condition = float(singular_values[0] / singular_values[-1])
    return ShearData(
        shear=tuple(tuple(float(x) for x in row) for row in shear),
        a4=t.a4,
        a4_condition=condition,
    )


def transform_spectrum(freq_set: FrequencySet, t: BlockedLinearMap) -> FrequencySet:
    """Transport a spectrum for the axis-aligned sum to the sheared sum.

    Maps (l1, l2) to (l1, l2 - (A4^t)^-1 A2^t l1), which makes the
    synthesis matrix on the transformed measure equal entry by entry to
    the one of the original pair.
    """
    shear_blocks(t)  # raises SingularA4 when not applicable
    m = t.m
    if freq_set.dim != t.dim:
        raise SizeMismatch("spectrum dimension does not match the map")
    a2 = np.asarray(t.a2, dtype=float)
    a4 = np.asarray(t.a4, dtype=float)
    correction = np.linalg.solve(a4.T, a2.T)
    mapped = []
    for f in freq_set.freqs:
        l1 = np.asarray(f[:m])
        l2 = np.asarray(f[m:])
        mapped.append(tuple(l1) + tuple(l2 - correction @ l1))
    return FrequencySet(dim=freq_set.dim, freqs=tuple(mapped), provenance="sheared")


def _first_best(values: np.ndarray, scale: float) -> int:
    """Lowest index whose value is within _TIE_RTOL * scale of the largest."""
    return int(np.flatnonzero(values >= values.max() - _TIE_RTOL * scale)[0])


def _rank_building_picks(rows: np.ndarray, norms_sq: np.ndarray, count: int, scale: float) -> list:
    """Pivoted Gram-Schmidt picks on v = conj(row), at most ``count``.

    Stops once the picks span C^M. The residuals ||v||^2 - ||Q^H v||^2
    take one pool-by-atom product per pick: with v = conj(r), |q^H v| is
    |r . q|. A stalled pool (no residual above M * eps * scale) fills the
    remaining picks with the lowest unchosen indices.
    """
    atoms = rows.shape[1]
    basis = np.zeros((atoms, atoms), dtype=complex)
    residual = norms_sq.copy()
    selected: list[int] = []
    for rank in range(min(count, atoms)):
        if residual.max() <= atoms * np.finfo(float).eps * scale:
            unchosen = np.flatnonzero(residual != -np.inf)
            return selected + [int(i) for i in unchosen[: count - rank]]
        idx = _first_best(residual, scale)
        v = rows[idx].conj()
        q = basis[:, :rank]
        for _ in range(2):
            v = v - q @ (q.conj().T @ v)
        basis[:, rank] = v / np.linalg.norm(v)
        residual -= np.abs(rows @ basis[:, rank]) ** 2
        residual[idx] = -np.inf
        selected.append(idx)
    return selected


def _secular_pick(d: np.ndarray, z_sq: np.ndarray, scale: float) -> int:
    """First best row of z_sq = |z|^2 by lambda_min(diag(d) + z z^H); d ascending.

    The root of 1 + sum_i |z_i|^2 / (d_i - lambda) = 0 in (d_0, min(d_1,
    d_0 + ||z||^2)), where the left side rises from -inf, is bisected in
    t = lambda - d_0; a row scores d_0 + its last midpoint. A dead row
    (z_0 = 0, or d_1 = d_0) scores d_0, the least score: it ties only if
    every row ties, and then row 0 wins. Rows with hi < max(lo) - margin
    are dropped: margin = _TIE_RTOL * scale + 8 eps (|d_0| + H), H the
    widest bracket, exceeds the tie tolerance by more than the roundings
    in between (d_0 + t twice, the margin, the tie and drop thresholds),
    at most 6 eps (|d_0| + H) in all, as a drop needs H > margin.
    """
    delta = d - d[0]
    hi = np.minimum(z_sq.sum(axis=1), delta[1] if len(d) > 1 else np.inf)
    live = (hi > 0) & (z_sq[:, 0] > 0)
    if not live.any():
        return 0
    rows, z_sq, hi = np.flatnonzero(live), z_sq[live], hi[live]
    lo, dead = np.zeros_like(hi), not live.all()
    margin = _TIE_RTOL * scale + 8 * np.finfo(float).eps * (abs(d[0]) + hi.max())
    for _ in range(_BISECTIONS):
        t = (lo + hi) / 2
        below = 1 + np.sum(z_sq / (delta - t[:, None]), axis=1) < 0
        lo, hi = np.where(below, t, lo), np.where(below, hi, t)
        floor = lo.max() - margin
        dead = dead and floor <= 0
        keep = hi >= floor
        rows, lo, hi, z_sq = rows[keep], lo[keep], hi[keep], z_sq[keep]
        if len(rows) == 1 and not dead:
            return int(rows[0])
    values = d[0] + (lo + hi) / 2
    if dead and d[0] >= values.max() - _TIE_RTOL * scale:
        return 0
    return int(rows[_first_best(values, scale)])


def greedy_frame_search(
    m: AtomicMeasure,
    pool: FrequencySet,
    target_count: int,
    eigen_budget: int = DEFAULT_EIGEN_BUDGET,
) -> GreedySelection:
    """Select frequencies greedily to maximize the smallest Gram eigenvalue.

    Picking pool row r adds v v^H to the Gram G, with v = conj(r). The
    search runs in two phases:

    - Rank building, while the picks span less than C^M (M atoms). Every
      lambda_min is 0 here, so the pick has the largest residual
      ||v||^2 - ||Q^H v||^2 against an orthonormal basis Q of the picks
      (pivoted Gram-Schmidt, orthogonalized twice). Once no residual
      exceeds M * eps * max||v||^2, the lowest unchosen indices follow.
    - After full rank, one ``eigh`` of G per step, and lambda_min(G + v v^H)
      by bisection on the secular equation of the rank-one update (Golub
      1973; Bunch, Nielsen and Sorensen 1978), all candidates at once.
      Each pass drops every candidate whose bracket top lies below the
      best bracket bottom by more than the tie tolerance plus rounding;
      one left is the pick. A dropped candidate ends at most at its top,
      the best at least at the best bottom, so it can neither win nor tie;
      survivors run the passes of the full bisection bit for bit.

    Deterministic: in both phases values within 1e-12 * max||v||^2 of the
    best tie, and the lowest pool index wins; zero-gain steps are allowed.
    Raises PoolExhausted when a full-rank system is requested but the pool
    cannot provide one.
    """
    exact_atoms, weights = _exact_atoms(m)
    rows = _synthesis_rows(m.dim, exact_atoms, weights, pool, eigen_budget)
    atoms = len(weights)
    if target_count > len(pool):
        raise PoolExhausted("target count exceeds the pool size")
    if target_count < atoms:
        warnings.warn("target count below atom count: the selection cannot be a frame", stacklevel=2)
    norms_sq = np.sum(np.abs(rows) ** 2, axis=1)
    scale = float(np.max(norms_sq, initial=0.0))
    selected = _rank_building_picks(rows, norms_sq, target_count, scale)
    gram = np.zeros((atoms, atoms), dtype=complex)
    for idx in selected:
        gram += np.outer(rows[idx].conj(), rows[idx])
    open_mask = np.ones(len(pool), dtype=bool)
    open_mask[selected] = False
    for _ in range(target_count - len(selected)):
        values, vectors = np.linalg.eigh(gram)
        open_idx = np.flatnonzero(open_mask)
        z_sq = np.abs(rows[open_idx] @ vectors) ** 2
        best = int(open_idx[_secular_pick(values, z_sq, scale)])
        selected.append(best)
        open_mask[best] = False
        gram += np.outer(rows[best].conj(), rows[best])
    freq_set = FrequencySet(
        dim=pool.dim, freqs=tuple(pool.freqs[i] for i in selected), provenance="greedy"
    )
    report = _frame_report(rows[selected], weights)
    if target_count >= atoms and report.rank < atoms:
        raise PoolExhausted("pool cannot span the atom space: rank %d < %d" % (report.rank, atoms))
    return GreedySelection(frequencies=freq_set, report=report, selected_indices=tuple(selected))
