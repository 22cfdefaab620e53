"""Frequency sets, frame/Bessel bounds, and shear transport of spectra.

Frame bounds of a discretized measure are the extremal eigenvalues of
the atom-indexed Hermitian square of the synthesis matrix. Every report
comes from ``frame_bounds``, on exact atoms and masses: one set of input
checks, one Gram builder (``_gram``) and one ``eigvalsh`` per reported
Gram (``_frame_report``). A report is eigenvalues and nothing more: no
eigenvector is formed. The eigen budget bounds eigensolves only. When
the frequency set is centrally symmetric, decided exactly, the Gram is a
real symmetric matrix up to a unitary diagonal, built from half the
synthesis rows: jp spectra of two-digit sets and integer pools all are.
A cube of frequencies (``_cube_steps``), as a two-digit jp spectrum is,
whose Gram is exactly diagonal, decided in integers
(``_vanishing_off_diagonal``), needs neither: its report is read off the
diagonal F w (``_diagonal_report``).

Every exponential sum over atoms, here and in ``fourier``, takes its
phases <freq, atom> mod 1 from one exact kernel, ``_exact_phase_matrix``,
which rounds each once to float on the path that ``_phase_path`` picks:
int64 or Python-int rows, read by one helper (``_integer_rows``) that the
diagonal test shares, or 21-bit limbs whose sums are carried in place.
It reads integer numerators only: a ``FrequencySet`` keeps its
coordinates exactly, its rows sorted, and forms its numerators once, so
no caller converts or reorders a frequency set and no report depends on
a listing order. The Hadamard check needs no phases: it decides exactly
whether sums of roots of unity vanish.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

import numpy as np

from .errors import (
    EigenBudgetExceeded,
    EmptyFrequencySet,
    HadamardCheckFailed,
    SingularA4,
    SizeMismatch,
    ZeroNormInput,
)
from .measures import AtomicMeasure, DigitSystem
from .measures import _common_numerators, _exact_point, _fraction_inverse, _matvec, _points_over
from .measures import _INT64_GUARD, _sumset

DEFAULT_EIGEN_BUDGET = 4096
_DISTINCT_RESOLUTION = 1e-12
_EXACT_DOUBLE_LIMIT = 2**53
_OBJECT_BLOCK = 2**12
_LIMB_BLOCK = 2**16
_LIMB_BITS = 21
_LIMB_MASK = (1 << _LIMB_BITS) - 1
_LIMB_MAX_EXPONENT = 1022
# At most 2^11 limb products below 2^42 per sum keep every float64 partial sum exact.
_LIMB_TERMS = 2**11
_PAIR_BLOCK = 2**20


@dataclass(frozen=True)
class FrequencySet:
    """A finite set of exact real frequency vectors, kept in lexicographic order.

    Coordinates are read as ``measures.as_point`` reads them and kept as
    ints when integral, Fractions otherwise. Every phase is computed from
    ``numerators`` over ``denominator``, sorted as the frequencies are.
    Frequencies that round to one multiple of _DISTINCT_RESOLUTION in
    every coordinate coincide and are refused.
    """

    dim: int
    freqs: tuple
    numerators: tuple = field(init=False, repr=False, compare=False)
    denominator: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rows = [_exact_point(f, self.dim) for f in self.freqs]
        nums, p = (rows, 1) if all(type(x) is int for f in rows for x in f) else _common_numerators(rows)
        nums = tuple(sorted(nums))
        freqs = nums if p == 1 else tuple(tuple(x // p if x % p == 0 else Fraction(x, p) for x in f) for f in nums)
        object.__setattr__(self, "freqs", freqs)
        object.__setattr__(self, "numerators", nums)
        object.__setattr__(self, "denominator", p)
        # Distinct integer rows lie at least 1 apart, far above _DISTINCT_RESOLUTION.
        if p == 1 and len(set(nums)) == len(nums):
            return
        # The key of numerators n over p is n / (p r) = nb / (pa), rounded half up, with r = a / b.
        a, b = _DISTINCT_RESOLUTION.as_integer_ratio()
        half, seen = p * a, {}
        for f, row in zip(freqs, nums):
            key = tuple((2 * b * x + half) // (2 * half) for x in row)
            if key in seen:
                raise ValueError(f"frequencies {seen[key]} and {f} coincide within resolution")
            seen[key] = f

    @classmethod
    def from_scalars(cls, values) -> "FrequencySet":
        return cls(dim=1, freqs=tuple((v,) for v in values))

    def __len__(self) -> int:
        return len(self.freqs)


@dataclass(frozen=True)
class FrameReport:
    """Extremal frame bounds of an exponential system on a discrete measure.

    Eigenvalues alone: no vector attaining ``lower`` is carried, since no
    bound, experiment or output reads one. ``resolution`` is the
    eigenvalue tolerance of the float eigensolve: eigenvalues at or below
    it count as zero, so ``lower`` reads 0 and ``rank`` falls short of
    ``atom_count`` whenever the smallest does.
    When the Gram is decided exactly diagonal, no eigensolve runs: lower
    and upper are exact eigenvalues rounded once, rank is ``atom_count``,
    and ``resolution`` is the tolerance the eigensolve would have used.
    """

    lower: float
    upper: float
    ratio: float
    rank: int
    atom_count: int
    freq_count: int
    resolution: float


def _hadamard_digits(ds: DigitSystem, L) -> list | None:
    """The frequency digits L as integer vectors if (R, B, L) is a Hadamard triple, else None.

    Decided exactly: (R, B, L) is one iff the normalized exponential
    matrix is unitary. With R^-1 B = A/N over the least common denominator
    N (a divisor of |det R|), the Gram entry of frequencies l != l' is the
    mean over b of exp(2*pi*i*e_b/N), e_b = <l - l', A_b>. A sum of N-th
    roots of unity vanishes iff the integer polynomial sum_b x^(e_b mod N)
    is divisible by the cyclotomic polynomial Phi_N, the minimal
    polynomial of exp(2*pi*i/N).
    """
    freq_nums = _points_over(L, ds.dim, 1)
    if len(freq_nums) != ds.branch:
        raise SizeMismatch("digit and frequency sets must have equal size")
    if None in freq_nums:
        raise ValueError("frequency digits must be integer vectors")
    inverse, q = ds.inverse
    atom_nums, n = _common_numerators([[Fraction(x, q) for x in _matvec(inverse, b)] for b in ds.digits])
    phi = _cyclotomic(n)
    for f, g in combinations(freq_nums, 2):
        poly = [0] * n
        for a in atom_nums:
            poly[sum((x - y) * z for x, y, z in zip(f, g, a)) % n] += 1
        if any(_divide_monic(poly, phi)[1]):
            return None
    return freq_nums


def _cyclotomic(n: int) -> list:
    """Integer coefficients of Phi_n, lowest degree first.

    x^d - 1 is the product of Phi_e over the divisors e of d, so each Phi_d
    is x^d - 1 divided exactly by the Phi_e already found.
    """
    found = {}
    for d in (d for d in range(1, n + 1) if n % d == 0):
        poly = [-1] + [0] * (d - 1) + [1]
        for e, phi in found.items():
            if d % e == 0:
                poly = _divide_monic(poly, phi)[0]
        found[d] = poly
    return found[n]


def _divide_monic(poly: list, divisor: list) -> tuple:
    """Quotient and remainder of integer polynomials, lowest degree first, by a monic divisor."""
    rem, deg = list(poly), len(divisor) - 1
    quotient = [0] * max(len(rem) - deg, 0)
    for i in range(len(rem) - 1, deg - 1, -1):
        c = quotient[i - deg] = rem[i]
        for j, coefficient in enumerate(divisor):
            rem[i - deg + j] -= c * coefficient
    return quotient, rem[:deg]


def jp_spectrum(ds: DigitSystem, L, n: int, budget: int | None = None) -> FrequencySet:
    """Level-n truncation of the orthonormal spectrum of a Hadamard pair.

    Frequencies are all sums l_0 + R^t l_1 + ... + (R^t)^(n-1) l_(n-1).
    """
    if n < 1:
        raise ValueError("level must be >= 1")
    freq_digits = _hadamard_digits(ds, L)
    if freq_digits is None:
        raise HadamardCheckFailed("the digit and frequency sets do not form a Hadamard pair")
    rt = tuple(zip(*ds.matrix))

    def layers():
        vecs = freq_digits
        for _ in range(n):
            yield dict.fromkeys(vecs, 1)
            vecs = [_matvec(rt, v) for v in vecs]

    freqs, _ = _sumset(ds.dim, layers(), budget)
    return FrequencySet(dim=ds.dim, freqs=tuple(freqs))


def _phase_path(dim: int, freq_nums, atom_nums, modulus: int) -> str:
    """The kernel that is exact on these operands: "int64", "limbs" or "object".

    int64 needs dim * max|F| * max|A| < 2^62, so no entry of F @ A.T and
    no partial sum can wrap (an all-zero side counts as 1, so both arrays
    fit int64 too), and p*q <= 2^53, so residues and modulus are exact
    doubles and one IEEE division rounds the quotient correctly. limbs
    needs p*q = 2^k with k <= 1022, so 2^-k is a normal double, and
    dim * ceil(k/21) <= 2^11, so every sum of 21-bit limb products, and
    every partial sum, stays below 2^53 and is exact in float64.
    Every other modulus, such as atoms over 3^n, takes the object path.
    |x| is taken as math.gcd(x), which refuses a non-integer with TypeError.
    """
    def bound(rows):
        return max((math.gcd(x) for row in rows for x in row), default=0) or 1

    if dim * bound(freq_nums) * bound(atom_nums) < _INT64_GUARD and modulus <= _EXACT_DOUBLE_LIMIT:
        return "int64"
    k = modulus.bit_length() - 1
    if modulus == 1 << k and k <= _LIMB_MAX_EXPONENT and dim * -(-k // _LIMB_BITS) <= _LIMB_TERMS:
        return "limbs"
    return "object"


def _integer_rows(rows, dim: int, path: str) -> np.ndarray:
    """Integer rows as an (n, dim) array: int64 on the "int64" path of ``_phase_path``, Python ints on any other."""
    return np.array(rows, dtype=np.int64 if path == "int64" else object).reshape(len(rows), dim)


def _exact_phase_matrix(dim: int, freqs, atoms) -> np.ndarray:
    """Phases <freq, atom> reduced mod 1 for every frequency row and atom row.

    The only code that computes a phase of an exponential sum over atoms.
    Frequencies and atoms each come as a pair (integer numerator rows,
    positive denominator): F over p and A over q; nothing is converted
    here. A float dot product would lose digits on large frequencies
    against deep atoms, so the phase is (F @ A.T mod p*q) / (p*q), rounded
    once, correctly, as ``float(Fraction)`` rounds it, on the path that
    ``_phase_path`` picks. On int64 or Python-int rows (``_integer_rows``)
    the product is reduced in place and divided into the phase array, all
    rows at once on int64 and in blocks of rows on Python ints. A power of
    two p*q, as float coordinates against dyadic atoms give, takes 21-bit
    limbs in blocks of rows (``_limb_phases``). Nothing wraps.
    """
    (freq_nums, p), (atom_nums, q) = freqs, atoms
    modulus = p * q
    path = _phase_path(dim, freq_nums, atom_nums, modulus)
    phases = np.empty((len(freq_nums), len(atom_nums)))
    if path == "limbs":
        k = modulus.bit_length() - 1
        freqs, atoms = _limbs(freq_nums, dim, k), _limbs(atom_nums, dim, k)
        width = atoms.shape[1] * dim
        freqs = freqs.reshape(len(freq_nums), width)
        # Row block b of atoms_rev holds limb count - 1 - b of every atom, as columns.
        atoms_rev = np.ascontiguousarray(atoms[:, ::-1].reshape(len(atom_nums), width).T)
        step = _LIMB_BLOCK // max(atoms.size, 1)
    else:
        freqs, atoms = _integer_rows(freq_nums, dim, path), _integer_rows(atom_nums, dim, path).T
        step = len(phases) if path == "int64" else _OBJECT_BLOCK // max(len(atom_nums), 1)
    step = max(1, step)
    for i in range(0, len(phases), step):
        rows, out = slice(i, i + step), phases[i : i + step]
        if path == "limbs":
            out[...] = _limb_phases(freqs[rows], atoms_rev, dim, k)
        else:
            products = freqs[rows] @ atoms
            np.divide(np.remainder(products, modulus, out=products), modulus, out=out, casting="unsafe")
    return phases


def _limbs(rows, dim: int, k: int) -> np.ndarray:
    """The residues mod 2^k of integer rows as 21-bit float64 limbs, shape (rows, limbs, dim), low limb first."""
    count = max(1, -(-k // _LIMB_BITS))
    residues = _integer_rows(rows, dim, "limbs")[:, None] & ((1 << k) - 1)
    shifts = np.array([_LIMB_BITS * i for i in range(count)], dtype=object).reshape(1, count, 1)
    return ((residues >> shifts) & _LIMB_MASK).astype(np.float64)


def _limb_phases(freqs: np.ndarray, atoms_rev: np.ndarray, dim: int, k: int) -> np.ndarray:
    """(F @ A.T mod 2^k) / 2^k from limbs, correctly rounded to float64.

    Column block a of ``freqs`` holds limb a of F; row block b of
    ``atoms_rev`` holds limb count - 1 - b of A as columns. Only limb
    products of weight below 2^k count: limb s of the sums, F_a A_b.T
    over a + b = s, is one float64 product of the first s + 1 column
    blocks of F with the last s + 1 row blocks of atoms_rev. Its
    (s + 1) * dim <= 2^11 terms are each below 2^42, so every partial sum
    is an integer below 2^53, exact in any order, with or without fused
    multiply-adds. Carried in place, low first, the sums become the
    21-bit digits of R = F @ A.T mod 2^k. With cut = max(k - 63, 0), the
    digits at and above bit cut make the top 63 bits of the k-bit field,
    R >> cut, and a sticky bit is set for any 1 below cut: in the low bits
    of the digit that straddles cut or in any digit under it. Their int64
    converts to float64 once, rounding R to nearest, ties to even,
    whenever R has at least 55 significant bits (the sticky bit then lies
    below the rounding position) or nothing was cut off; ``ldexp`` scales
    it by 2^-k exactly. The rest, phases below 2^-9 with bits cut off, are
    divided exactly as Python ints from the digits.
    """
    (rows, width), m = freqs.shape, atoms_rev.shape[1]
    count = width // dim
    sums = np.empty((count, rows, m), dtype=np.int64)
    for s in range(count):
        sums[s] = freqs[:, : (s + 1) * dim] @ atoms_rev[(count - 1 - s) * dim :]
    for s in range(count - 1):
        sums[s + 1] += sums[s] >> _LIMB_BITS
        sums[s] &= _LIMB_MASK
    sums[-1] &= (1 << (k - _LIMB_BITS * (count - 1))) - 1
    cut = max(k - 63, 0)
    low, split = divmod(cut, _LIMB_BITS)
    head = sums[low] >> split
    for s in range(low + 1, count):
        head |= sums[s] << (_LIMB_BITS * s - cut)
    sticky = ((sums[low] & ((1 << split) - 1)) != 0) | sums[:low].any(axis=0)
    head |= sticky
    phases = np.ldexp(head.astype(np.float64), cut - k)
    inexact = sticky & (head < 2**54)
    if inexact.any():
        exact = sum(sums[s][inexact].astype(object) << (_LIMB_BITS * s) for s in range(count))
        phases[inexact] = (exact / (1 << k)).astype(np.float64)
    return phases


def _checked_weights(m: AtomicMeasure, freq_set: FrequencySet) -> np.ndarray:
    """The float weights of m, after the checks every report shares, before any phase."""
    if freq_set.dim != m.dim:
        raise SizeMismatch("frequency dimension does not match the measure")
    if not m.masses:
        raise ZeroNormInput("measure has no atoms")
    if not len(freq_set):
        raise EmptyFrequencySet("frequency set is empty")
    return np.array([w / m.mass_denominator for w in m.masses], dtype=float)


def _synthesis_rows(m: AtomicMeasure, sqrt_w: np.ndarray, freq_set: FrequencySet) -> np.ndarray:
    """Synthesis rows of ``freq_set`` on the atoms of m, of weights sqrt_w**2."""
    phases = _exact_phase_matrix(m.dim, (freq_set.numerators, freq_set.denominator), (m.numerators, m.denominator))
    # In place: the complex rows are the one array formed after the phases.
    rows = np.multiply(phases, -2j * np.pi)
    return np.multiply(np.exp(rows, out=rows), sqrt_w, out=rows)


def _gram(m: AtomicMeasure, sqrt_w: np.ndarray, freq_set: FrequencySet) -> np.ndarray:
    """A matrix with the eigenvalues of the Gram Phi^H Phi of the synthesis rows.

    It is real whenever the frequency set is centrally symmetric,
    Lambda = 2c - Lambda. That is decided exactly on the frequency
    numerators over p, which the set keeps sorted: negation reverses
    lexicographic order, so the set is symmetric iff rows[i] + rows[F-1-i]
    is one vector s for every i, and then c = s / (2p). Pairing
    mu = f - c with -mu turns e(<mu, x - y>) into cosines, so
    Phi^H Phi = diag(d) G diag(d)^* with d = e(<c, x>) unitary and the
    real G = 2 (C^T C + S^T S), C and S the cosines and sines of
    2 pi <mu, x> times sqrt(w) on the floor(F/2) half rows, plus
    sqrt(w) sqrt(w)^T for mu = 0 when F is odd. G alone is formed, since
    d changes no eigenvalue. One kernel call gives the half-row phases,
    each the exact rational (2f - s) . a / (2pq) rounded once. Any other
    set keeps the complex Phi^H Phi.
    """
    rows, p = freq_set.numerators, freq_set.denominator
    pair_sums = {tuple(x + y for x, y in zip(f, g)) for f, g in zip(rows, reversed(rows))}
    if len(pair_sums) != 1:
        phi = _synthesis_rows(m, sqrt_w, freq_set)
        return phi.conj().T @ phi
    (s,) = pair_sums
    half = len(rows) // 2
    centred = [tuple(2 * x - y for x, y in zip(f, s)) for f in rows[:half]]
    angles = 2 * np.pi * _exact_phase_matrix(m.dim, (centred, 2 * p), (m.numerators, m.denominator))
    real_rows = np.empty((len(rows), len(sqrt_w)))
    np.cos(angles, out=real_rows[:half])
    np.sin(angles, out=real_rows[half : 2 * half])
    real_rows[: 2 * half] *= math.sqrt(2) * sqrt_w
    real_rows[2 * half :] = sqrt_w
    return real_rows.T @ real_rows


def _cube_steps(rows) -> list | None:
    """Steps v_j with sorted integer rows c + {sum_j e_j v_j : e in {0,1}^n}, the 2^n sums distinct; else None.

    Lexicographic order is compatible with addition, so with every step made
    positive, the least row not yet a subset sum is c plus the next step.
    """
    if not rows or len(rows) & (len(rows) - 1):
        return None
    members, sums, steps = set(rows), {rows[0]}, []
    for row in rows:
        if row not in sums:
            steps.append(tuple(map(operator.sub, row, rows[0])))
            for total in [tuple(map(operator.add, s, steps[-1])) for s in sums]:
                if total not in members or total in sums:
                    return None
                sums.add(total)
    return steps


def _vanishing_off_diagonal(measure: AtomicMeasure, freq_set: FrequencySet) -> bool:
    """True iff the frequency set is a cube and every off-diagonal Gram entry is exactly 0, decided in integers.

    With numerators over p a cube c + {sum_j e_j v_j} (``_cube_steps``),
    the entry of atoms x = a_x / q and y = a_y / q is a unit phase times
    sqrt(w_x w_y) prod_j (1 + e(<v_j, a_x - a_y> / pq)). It vanishes iff
    for some j the residues r_j = <v_j, a> mod pq differ by exactly pq/2:
    r_j(y) = s_j(x) := (r_j(x) + pq/2) mod pq, a symmetric relation never
    true at x = y. Residues are read by ``_integer_rows`` on the path of
    ``_phase_path``; Python ints are then coded by rank. The first atom's
    row is checked first, so a Gram that is not diagonal is usually refused
    in O(M n); then blocks of rows against the atoms from the block on.
    """
    dim, atom_nums, m = measure.dim, measure.numerators, len(measure)
    modulus = freq_set.denominator * measure.denominator
    # F < M frequencies give a Gram of rank at most F, never the full-rank F diag(w).
    v = _cube_steps(freq_set.numerators) if len(freq_set) >= m else None
    if v is None or (modulus % 2 and m > 1):
        return False
    path = _phase_path(dim, v, atom_nums, modulus)
    r = _integer_rows(v, dim, path) @ _integer_rows(atom_nums, dim, path).T % modulus
    r = np.stack([r, (r + modulus // 2) % modulus])
    if r.dtype == object:
        r = np.unique(r, return_inverse=True)[1].reshape(r.shape)
    r, s = r
    if not (r[:, 1:] == s[:, :1]).any(axis=0).all():
        return False
    step = max(1, _PAIR_BLOCK // m)
    for i in range(0, m, step):
        hits = np.zeros((min(step, m - i), m - i), dtype=bool)
        for j in range(len(v)):
            hits |= s[j, i : i + step, None] == r[j, None, i:]
        if np.count_nonzero(hits) != hits.shape[0] * (m - i - 1):
            return False
    return True


def _resolution(atom_count: int, freq_count: int, upper: float) -> float:
    """``FrameReport.resolution`` of an M x M Gram of F rows: max(M, F) * eps * max(upper, 1)."""
    return float(max(atom_count, freq_count) * np.finfo(float).eps * max(upper, 1.0))


def _diagonal_report(m: AtomicMeasure, freq_count: int) -> FrameReport:
    """The report of the exactly diagonal Gram F diag(w) of m: no Gram, no eigensolve.

    lower and upper are F w_x at the smallest and the largest weight, each
    the exact rational rounded once; rank is M, and ``resolution`` is the
    tolerance an eigensolve would have used.
    """
    nums, den, n = m.masses, m.mass_denominator, len(m)
    lower, upper = freq_count * min(nums) / den, freq_count * max(nums) / den
    return FrameReport(lower, upper, upper / lower, n, n, freq_count, _resolution(n, freq_count, upper))


def _frame_report(gram: np.ndarray, freq_count: int) -> FrameReport:
    """Frame bounds from one ``eigvalsh`` of a Gram of ``freq_count`` synthesis rows, as ``_gram`` forms it.

    ``eigvalsh`` reads one triangle, so the Gram is never symmetrized.
    Eigenvalues at or below the resolution count as zero.
    """
    m = len(gram)
    values = np.linalg.eigvalsh(gram)
    upper = max(float(values[-1]), 0.0)
    tol = _resolution(m, freq_count, upper)
    rank = int(np.count_nonzero(values > tol))
    lower = max(float(values[0]), 0.0) if rank == m else 0.0
    ratio = upper / lower if lower > 0 else math.inf
    return FrameReport(lower, upper, ratio, rank, m, freq_count, tol)


def frame_bounds(m: AtomicMeasure, freq_set: FrequencySet) -> FrameReport:
    """Frame bounds of E(freqs) on a discretized measure, with exact phases.

    An exactly diagonal Gram is reported from its diagonal, at any size;
    every other Gram, within ``DEFAULT_EIGEN_BUDGET`` atoms, takes ``_gram``
    and ``_frame_report``. No phase is computed before either decision.
    """
    weights = _checked_weights(m, freq_set)
    if _vanishing_off_diagonal(m, freq_set):
        return _diagonal_report(m, len(freq_set))
    if len(m) > DEFAULT_EIGEN_BUDGET:
        raise EigenBudgetExceeded(f"{len(m)} atoms exceed the eigen budget {DEFAULT_EIGEN_BUDGET}")
    return _frame_report(_gram(m, np.sqrt(weights), freq_set), len(freq_set))


def bessel_quotient(m: AtomicMeasure, freq_set: FrequencySet, coefficients) -> float:
    """Rayleigh quotient sum_l |(f dm)^(l)|^2 / ||f||^2 for atom coefficients f."""
    weights = _checked_weights(m, freq_set)
    f = np.asarray(coefficients, dtype=complex).reshape(-1)
    if f.shape[0] != weights.shape[0]:
        raise SizeMismatch("coefficient vector length does not match the atom count")
    norm_sq = float(np.sum(np.abs(f) ** 2 * weights))
    if norm_sq == 0.0:
        raise ZeroNormInput("coefficients have zero norm in L2(m)")
    phases = _exact_phase_matrix(m.dim, (freq_set.numerators, freq_set.denominator), (m.numerators, m.denominator))
    analysis = np.exp(2j * np.pi * phases) @ (f * weights)
    return float(np.sum(np.abs(analysis) ** 2) / norm_sq)


def indicator_coefficients(m: AtomicMeasure, points) -> np.ndarray:
    """Indicator of an exact point set, aligned with the canonical atom order."""
    wanted = set(_points_over(points, m.dim, m.denominator))
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
        blocks = (t[:m, :m], t[:m, m:], t[m:, :m], t[m:, m:])  # A1, A2, A3, A4
        return cls(m, *(tuple(tuple(float(x) for x in row) for row in b) for b in blocks))

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
    shear = np.asarray(t.a2, dtype=float) @ np.linalg.inv(a4)
    condition = float(singular_values[0] / singular_values[-1])
    return ShearData(shear=tuple(tuple(float(x) for x in row) for row in shear), a4=t.a4, a4_condition=condition)


def _shear_transport(freqs, t: BlockedLinearMap) -> tuple:
    """Rows (l1, l2 - (A4^t)^-1 A2^t l1) of frequencies (numerators, denominator), exactly, in the same form."""
    a2 = [[Fraction(a) for a in row] for row in t.a2]
    correction, d = _common_numerators([_matvec(a2, row) for row in _fraction_inverse(tuple(zip(*t.a4)))])
    nums, p = freqs
    shifts = [_matvec(correction, f[: t.m]) for f in nums]
    rows = [(*(x * d for x in f[: t.m]), *(y * d - x for y, x in zip(f[t.m :], e))) for f, e in zip(nums, shifts)]
    return rows, p * d
