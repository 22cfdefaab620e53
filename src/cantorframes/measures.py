"""Finite-level atomic approximations of self-affine measures.

Skeletons are enumerated on integer numerators over one common
denominator and returned with exact ``fractions.Fraction`` coordinates; an
optional shared real-valued offset vector carries irrational translations
so that set operations on the skeleton stay exact.
"""
from __future__ import annotations

import math
import operator
import os
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    AtomBudgetExceeded,
    DimensionMismatch,
    DuplicateDigits,
    NonExpandingMatrix,
    OffsetMismatch,
    SingularMatrix,
)

Point = tuple  # tuple[Fraction, ...]

DEFAULT_ATOM_BUDGET = 2**16
ATOM_BUDGET_ENV = "CANTORFRAMES_ATOM_BUDGET"

# Margin for the float eigenvalue test |lambda_i| >= 1 + margin.
EXPANDING_MARGIN = 1e-9
# Relative inflation applied to float singular values so the resulting
# rational bound stays a true upper bound.
NORM_INFLATION = 1e-12


def atom_budget(budget: int | None = None) -> int:
    if budget is not None:
        return budget
    env = os.environ.get(ATOM_BUDGET_ENV)
    return int(env) if env else DEFAULT_ATOM_BUDGET


def as_point(value, dim: int | None = None) -> Point:
    """Coerce a scalar or sequence into a tuple of exact Fractions."""
    if isinstance(value, (int, float, Fraction)):
        value = (value,)
    pt = tuple(Fraction(v) for v in value)
    if dim is not None and len(pt) != dim:
        raise DimensionMismatch(f"expected dimension {dim}, got {len(pt)}")
    return pt


def _matvec(matrix, vec):
    return tuple(sum(row[j] * vec[j] for j in range(len(vec))) for row in matrix)


def _fraction_inverse(matrix):
    """Exact inverse of an integer matrix via Gauss-Jordan elimination."""
    d = len(matrix)
    aug = [[Fraction(matrix[i][j]) for j in range(d)] + [Fraction(int(i == j)) for j in range(d)] for i in range(d)]
    for col in range(d):
        pivot = next((r for r in range(col, d) if aug[r][col] != 0), None)
        if pivot is None:
            raise SingularMatrix("matrix is singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv_p = 1 / aug[col][col]
        aug[col] = [x * inv_p for x in aug[col]]
        for r in range(d):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    return tuple(tuple(row[d:]) for row in aug)


def _int_determinant(matrix) -> int:
    d = len(matrix)
    rows = [[Fraction(x) for x in row] for row in matrix]
    det = Fraction(1)
    for col in range(d):
        pivot = next((r for r in range(col, d) if rows[r][col] != 0), None)
        if pivot is None:
            return 0
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det *= rows[col][col]
        for r in range(col + 1, d):
            factor = rows[r][col] / rows[col][col]
            rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    return int(det)


def _is_triangular(matrix) -> bool:
    d = len(matrix)
    upper = all(matrix[i][j] == 0 for i in range(d) for j in range(i))
    lower = all(matrix[i][j] == 0 for i in range(d) for j in range(i + 1, d))
    return upper or lower


def _sqrt_upper_bound(value: Fraction) -> Fraction:
    """A certified rational upper bound for sqrt(value), exact on perfect squares."""
    if value < 0:
        raise ValueError("negative argument")
    num, den = value.numerator, value.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    approx = math.sqrt(num / den) * (1.0 + NORM_INFLATION) + 1e-300
    return Fraction(approx)


@dataclass(frozen=True)
class DigitSystem:
    """An expanding integer matrix together with an integer digit set."""

    matrix: tuple
    digits: tuple

    def __post_init__(self):
        matrix = tuple(tuple(int(x) for x in row) for row in self.matrix)
        digits = tuple(tuple(int(x) for x in b) for b in self.digits)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "digits", digits)
        d = len(matrix)
        if any(len(row) != d for row in matrix):
            raise DimensionMismatch("matrix is not square")
        if not digits:
            raise DuplicateDigits("digit set is empty")
        if any(len(b) != d for b in digits):
            raise DimensionMismatch("digit dimension does not match matrix")

    @classmethod
    def one_dimensional(cls, base: int, digits) -> "DigitSystem":
        return cls(((base,),), tuple((int(b),) for b in digits))

    @property
    def dim(self) -> int:
        return len(self.matrix)

    @property
    def branch(self) -> int:
        return len(self.digits)

    def inverse_matrix(self):
        return _fraction_inverse(self.matrix)

    def inverse_norm_bound(self) -> Fraction:
        """Certified upper bound for the operator 2-norm of R^-1.

        Exact for 1x1 and diagonal matrices, float singular value inflated
        by a relative margin otherwise.
        """
        d = self.dim
        if d == 1 or all(self.matrix[i][j] == 0 for i in range(d) for j in range(d) if i != j):
            return max(Fraction(1, abs(self.matrix[i][i])) for i in range(d))
        inv = np.array([[float(x) for x in row] for row in self.inverse_matrix()])
        sv = float(np.linalg.svd(inv, compute_uv=False)[0])
        return Fraction(sv * (1.0 + NORM_INFLATION))

    def max_digit_norm_bound(self) -> Fraction:
        """Certified upper bound for max_b |b| (Euclidean), exact in 1D."""
        best = Fraction(0)
        for b in self.digits:
            sq = Fraction(sum(x * x for x in b))
            best = max(best, _sqrt_upper_bound(sq))
        return best


@dataclass(frozen=True)
class ValidationReport:
    dim: int
    determinant: int
    expanding: bool
    spectral_radius_inverse: float
    inverse_norm_bound: Fraction
    digits_distinct: bool


def validate_digit_system(ds: DigitSystem) -> ValidationReport:
    """Check that the matrix is expanding and the digits are distinct.

    1x1 and triangular integer matrices are decided exactly; otherwise the
    eigenvalues are computed in floats and required to clear a margin.
    """
    det = _int_determinant(ds.matrix)
    if det == 0:
        raise SingularMatrix("matrix determinant is zero")
    if len(set(ds.digits)) != len(ds.digits):
        raise DuplicateDigits("digit set contains duplicates")
    d = ds.dim
    if _is_triangular(ds.matrix):
        diag = [abs(ds.matrix[i][i]) for i in range(d)]
        if min(diag) < 2:
            raise NonExpandingMatrix(f"eigenvalue of modulus {min(diag)} is not > 1")
        rho_inv = 1.0 / min(diag)
    else:
        eigvals = np.linalg.eigvals(np.array(ds.matrix, dtype=float))
        moduli = np.abs(eigvals)
        if float(moduli.min()) < 1.0 + EXPANDING_MARGIN:
            raise NonExpandingMatrix(f"eigenvalue of modulus {moduli.min():.6g} is not > 1")
        rho_inv = float(1.0 / moduli.min())
    return ValidationReport(
        dim=d,
        determinant=det,
        expanding=True,
        spectral_radius_inverse=rho_inv,
        inverse_norm_bound=ds.inverse_norm_bound(),
        digits_distinct=True,
    )


@dataclass(frozen=True)
class AtomicMeasure:
    """A finite weighted point set in canonical form.

    Atom locations are exact rational skeleton coordinates, pairwise
    distinct and sorted lexicographically; weights are positive rationals.
    The shared ``offset`` shifts every atom by a real vector.
    """

    dim: int
    atoms: tuple  # tuple[(Point, Fraction), ...]
    offset: tuple = None

    def __post_init__(self):
        if self.offset is None:
            object.__setattr__(self, "offset", (0.0,) * self.dim)

    @classmethod
    def from_atoms(cls, dim: int, pairs, offset=None) -> "AtomicMeasure":
        merged: dict = {}
        for loc, weight in pairs:
            pt = as_point(loc, dim)
            w = Fraction(weight)
            if w < 0:
                raise ValueError("negative atom weight")
            merged[pt] = merged.get(pt, Fraction(0)) + w
        atoms = tuple(sorted((p, w) for p, w in merged.items() if w != 0))
        off = (0.0,) * dim if offset is None else tuple(float(x) for x in offset)
        if len(off) != dim:
            raise DimensionMismatch("offset dimension mismatch")
        return cls(dim=dim, atoms=atoms, offset=off)

    @classmethod
    def dirac(cls, location, weight=1) -> "AtomicMeasure":
        pt = as_point(location)
        return cls.from_atoms(len(pt), [(pt, Fraction(weight))])

    @property
    def total(self) -> Fraction:
        return sum((w for _, w in self.atoms), Fraction(0))

    @property
    def locations(self) -> tuple:
        return tuple(p for p, _ in self.atoms)

    @property
    def weights(self) -> tuple:
        return tuple(w for _, w in self.atoms)

    def __len__(self) -> int:
        return len(self.atoms)

    def weight_at(self, location) -> Fraction:
        pt = as_point(location, self.dim)
        for p, w in self.atoms:
            if p == pt:
                return w
        return Fraction(0)


def absolute_atoms(m: AtomicMeasure):
    """Atoms with the offset folded in exactly (floats are rationals)."""
    if all(x == 0.0 for x in m.offset):
        return list(m.atoms)
    off = tuple(Fraction(x) for x in m.offset)
    return [(tuple(a + b for a, b in zip(p, off)), w) for p, w in m.atoms]


def as_float_arrays(m: AtomicMeasure):
    """Locations (with offset applied) and weights as float arrays."""
    locs = np.array([[float(x) for x in p] for p in m.locations], dtype=float)
    if locs.size == 0:
        locs = locs.reshape(0, m.dim)
    locs = locs + np.array(m.offset, dtype=float)
    weights = np.array([float(w) for w in m.weights], dtype=float)
    return locs, weights


def _common_numerators(rows) -> tuple:
    """Integer numerators of exact rows over the lcm of their denominators.

    Entries are ints, Fractions or floats; a float is the binary rational it is.
    """
    ratios = [[x.as_integer_ratio() for x in row] for row in rows]
    denominator = math.lcm(*(d for row in ratios for _, d in row))
    return [tuple(n * (denominator // d) for n, d in row) for row in ratios], denominator


def _sumset(dim: int, layers, budget: int | None = None) -> dict:
    """Every sum of one vector from each layer, with its multiplicity.

    Layers map integer numerator vectors over one common denominator to
    integer weights; multiplicities add the words' weight products. All
    layers, which may be lazy, are read first; reading stops at the budget.
    """
    max_atoms = atom_budget(budget)
    words, read = 1, []
    for layer in layers:
        words *= len(layer)
        if words > max_atoms:
            raise AtomBudgetExceeded(f"enumeration exceeds the atom budget {max_atoms}")
        read.append(layer)
    sums = {(0,) * dim: 1}
    for layer in read:
        merged: dict = {}
        for p, w in sums.items():
            for s, v in layer.items():
                q = tuple(map(operator.add, p, s))
                merged[q] = merged.get(q, 0) + w * v
        sums = merged
    return sums


def _fraction_points(sums, denominator: int) -> tuple:
    """The points of ``sums`` over a positive denominator, which keeps their order, as sorted Fractions."""
    return tuple(tuple(Fraction(x, denominator) for x in p) for p in sorted(sums))


def _measure_from_sums(dim: int, sums, denominator: int, weight_denominator: int, offset=None) -> AtomicMeasure:
    """The canonical measure with mass multiplicity/weight_denominator at each point/denominator."""
    keys = sorted(sums)
    points = _fraction_points(keys, denominator)
    weights = (Fraction(sums[p], weight_denominator) for p in keys)
    return AtomicMeasure(dim=dim, atoms=tuple(zip(points, weights)), offset=offset)


def _digit_layers(ds: DigitSystem, picks) -> tuple:
    """Lazy numerator layers of R^-k B over one denominator q^n, and q^n.

    ``picks[k-1]`` lists the digit indices kept at level k <= n = len(picks),
    or is None to leave level k out. With R^-1 = M/q for an integer M, the
    numerator of R^-k b over q^n is q^(n-k) M^k b.
    """
    inverse, q = _common_numerators(ds.inverse_matrix())

    def layers():
        vecs = ds.digits
        for k, pick in enumerate(picks, start=1):
            vecs = [_matvec(inverse, v) for v in vecs]
            if pick is not None:
                scale = q ** (len(picks) - k)
                yield {tuple(scale * x for x in vecs[i]): 1 for i in pick}

    return layers(), q ** len(picks)


def scaled_digit_layer(ds: DigitSystem, k: int) -> AtomicMeasure:
    """The equal-weight Dirac comb on R^-k B."""
    if k < 1:
        raise ValueError("layer index must be >= 1")
    validate_digit_system(ds)
    layers, denominator = _digit_layers(ds, [None] * (k - 1) + [range(ds.branch)])
    return _measure_from_sums(ds.dim, _sumset(ds.dim, layers), denominator, ds.branch)


def level_measure(ds: DigitSystem, n: int, budget: int | None = None) -> AtomicMeasure:
    """Convolution of the first n scaled digit layers: the level-n measure.

    Atoms sit at sum_{k<=n} R^-k b_k over all digit words; coinciding
    expansions merge. Total mass is exactly 1.
    """
    if n < 1:
        raise ValueError("level must be >= 1")
    validate_digit_system(ds)
    layers, denominator = _digit_layers(ds, [range(ds.branch)] * n)
    return _measure_from_sums(ds.dim, _sumset(ds.dim, layers, budget), denominator, ds.branch**n)


@dataclass(frozen=True)
class PointCloud:
    """A finite exact point set with a certified tail radius.

    Every point of the underlying infinite attractor piece lies within
    ``tail_radius`` of some listed point; ``None`` means no certified bound
    (the inverse norm bound is >= 1).
    """

    dim: int
    points: tuple
    tail_radius: Fraction | None


def tail_radius(ds: DigitSystem, n: int) -> Fraction | None:
    """Certified bound for sup |sum_{k>n} R^-k b_k| via the geometric series."""
    inv = ds.inverse_norm_bound()
    if inv >= 1:
        return None
    return ds.max_digit_norm_bound() * inv ** (n + 1) / (1 - inv)


def attractor_points(ds: DigitSystem, n: int, budget: int | None = None) -> PointCloud:
    """Level-n truncations of the attractor with their tail radius."""
    measure = level_measure(ds, n, budget)
    return PointCloud(dim=ds.dim, points=measure.locations, tail_radius=tail_radius(ds, n))


def cylinder_points(ds: DigitSystem, n: int, prefix, budget: int | None = None) -> tuple:
    """Level-n points whose leading digit word equals ``prefix``."""
    validate_digit_system(ds)
    picks = []
    for b in prefix:
        b = (b,) if isinstance(b, int) else tuple(int(x) for x in b)
        if b not in ds.digits:
            raise ValueError("prefix contains a vector outside the digit set")
        picks.append((ds.digits.index(b),))
    if len(picks) > n:
        raise ValueError("prefix longer than the level")
    layers, denominator = _digit_layers(ds, picks + [range(ds.branch)] * (n - len(picks)))
    return _fraction_points(_sumset(ds.dim, layers, budget), denominator)


def split_by_index_set(
    ds: DigitSystem, indices, n: int, budget: int | None = None
) -> tuple[PointCloud, PointCloud]:
    """Level-n truncations of the sums over ``indices`` and its complement.

    Both clouds carry the full level-n tail radius, which bounds any
    continuation of either index class past n.
    """
    validate_digit_system(ds)
    mask = set(int(k) for k in indices)
    if any(k < 1 or k > n for k in mask):
        raise ValueError("index set must lie inside 1..n")
    tail = tail_radius(ds, n)

    def cloud(active: bool) -> PointCloud:
        picks = [range(ds.branch) if (k in mask) == active else None for k in range(1, n + 1)]
        layers, denominator = _digit_layers(ds, picks)
        return PointCloud(ds.dim, _fraction_points(_sumset(ds.dim, layers, budget), denominator), tail)

    return cloud(True), cloud(False)


def convolve(a: AtomicMeasure, b: AtomicMeasure, budget: int | None = None) -> AtomicMeasure:
    """Convolution: atoms at all pairwise sums, weights multiplied."""
    if a.dim != b.dim:
        raise DimensionMismatch("convolve requires equal dimensions")
    locations, denominator = _common_numerators(a.locations + b.locations)
    weights, weight_denominator = _common_numerators([a.weights, b.weights])
    layers = [dict(zip(locations[: len(a)], weights[0])), dict(zip(locations[len(a) :], weights[1]))]
    offset = tuple(x + y for x, y in zip(a.offset, b.offset))
    sums = _sumset(a.dim, layers, budget)
    return _measure_from_sums(a.dim, sums, denominator, weight_denominator**2, offset)


def translate(m: AtomicMeasure, shift) -> AtomicMeasure:
    """Shift every atom by ``shift``.

    Rational components (int/Fraction) move the exact skeleton; float
    components accumulate on the shared real offset.
    """
    if isinstance(shift, (int, float, Fraction)):
        shift = (shift,)
    shift = tuple(shift)
    if len(shift) != m.dim:
        raise DimensionMismatch("translation vector dimension mismatch")
    skeleton = tuple(Fraction(s) if not isinstance(s, float) else Fraction(0) for s in shift)
    extra = tuple(s if isinstance(s, float) else 0.0 for s in shift)
    atoms = [(tuple(x + dx for x, dx in zip(p, skeleton)), w) for p, w in m.atoms]
    offset = tuple(o + e for o, e in zip(m.offset, extra))
    return AtomicMeasure.from_atoms(m.dim, atoms, offset=offset)


def add(a: AtomicMeasure, b: AtomicMeasure) -> AtomicMeasure:
    """Sum of measures; shared locations merge, total mass adds."""
    if a.dim != b.dim:
        raise DimensionMismatch("add requires equal dimensions")
    if a.offset != b.offset:
        raise OffsetMismatch("cannot add measures with different real offsets")
    return AtomicMeasure.from_atoms(a.dim, list(a.atoms) + list(b.atoms), offset=a.offset)


def ball_mass(m: AtomicMeasure, center, radius) -> Fraction:
    """Mass inside the closed Euclidean ball, decided exactly."""
    if radius < 0:
        raise ValueError("radius must be positive")
    c = as_point(center, m.dim)
    r_sq = Fraction(radius) ** 2
    total = Fraction(0)
    for p, w in absolute_atoms(m):
        dist_sq = sum((x - y) ** 2 for x, y in zip(p, c))
        if dist_sq <= r_sq:
            total += w
    return total


def embed_axis(m: AtomicMeasure, dim: int, axis: int) -> AtomicMeasure:
    """Place a 1D measure on a coordinate axis of R^dim."""
    if m.dim != 1:
        raise DimensionMismatch("embed_axis expects a one-dimensional measure")
    atoms = []
    for p, w in m.atoms:
        loc = [Fraction(0)] * dim
        loc[axis] = p[0]
        atoms.append((tuple(loc), w))
    offset = [0.0] * dim
    offset[axis] = m.offset[0]
    return AtomicMeasure.from_atoms(dim, atoms, offset=offset)
