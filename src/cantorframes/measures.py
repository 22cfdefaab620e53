"""Finite-level atomic approximations of self-affine measures.

An ``AtomicMeasure`` stores its skeleton once, as integers: sorted,
distinct numerator vectors over one positive denominator and positive
masses over one mass denominator, both reduced. Enumeration, merging,
translation, sums, convolution and ball masses all run on these integers;
``atoms``, ``locations`` and ``weights`` are the exact
``fractions.Fraction`` view, built on first use. An optional shared
real-valued offset vector carries irrational translations so that set
operations on the skeleton stay exact.
"""
from __future__ import annotations

import math
import operator
import os
from dataclasses import dataclass, replace
from functools import cached_property
from fractions import Fraction
from itertools import chain

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
    """A finite weighted point set in canonical integer form.

    Atom j sits at ``numerators[j] / denominator`` and carries mass
    ``masses[j] / mass_denominator``; the shared real ``offset`` shifts
    every atom. The numerator vectors are distinct and sorted
    lexicographically, the masses positive, and both fractions are
    reduced, so equal measures have equal fields. Build one with
    ``from_atoms`` or ``dirac``; ``atoms``, ``locations`` and ``weights``
    are the exact ``Fraction`` view, built on first use.
    """

    dim: int
    numerators: tuple  # tuple[tuple[int, ...], ...]
    denominator: int
    masses: tuple  # tuple[int, ...]
    mass_denominator: int
    offset: tuple = None

    def __post_init__(self):
        offset = (0.0,) * self.dim if self.offset is None else tuple(float(x) for x in self.offset)
        if len(offset) != self.dim:
            raise DimensionMismatch("offset dimension mismatch")
        if not all(map(math.isfinite, offset)):
            raise ValueError(f"offset {offset} is not finite")
        object.__setattr__(self, "offset", offset)

    @classmethod
    def from_atoms(cls, dim: int, pairs, offset=None) -> "AtomicMeasure":
        pairs = [(as_point(loc, dim), Fraction(weight)) for loc, weight in pairs]
        if any(w < 0 for _, w in pairs):
            raise ValueError("negative atom weight")
        points, denominator = _common_numerators([p for p, _ in pairs])
        (weights,), mass_denominator = _common_numerators([[w for _, w in pairs]])
        merged: dict = {}
        for p, w in zip(points, weights):
            merged[p] = merged.get(p, 0) + w
        return cls._from_sums(dim, merged, denominator, mass_denominator, offset)

    @classmethod
    def _from_sums(cls, dim: int, sums, denominator: int, mass_denominator: int, offset=None) -> "AtomicMeasure":
        """The canonical measure with mass sums[p]/mass_denominator at each point p/denominator."""
        keys = sorted(p for p, w in sums.items() if w)
        masses = [sums[p] for p in keys]
        # Reduced: the gcd of all numerators and the denominator is 1, and likewise for the masses.
        g, h = math.gcd(denominator, *chain.from_iterable(keys)), math.gcd(mass_denominator, *masses)
        numerators = tuple(keys) if g == 1 else tuple(tuple(x // g for x in p) for p in keys)
        return cls(dim, numerators, denominator // g, tuple(w // h for w in masses), mass_denominator // h, offset)

    @classmethod
    def dirac(cls, location, weight=1) -> "AtomicMeasure":
        pt = as_point(location)
        return cls.from_atoms(len(pt), [(pt, Fraction(weight))])

    @property
    def total(self) -> Fraction:
        return Fraction(sum(self.masses), self.mass_denominator)

    @cached_property
    def locations(self) -> tuple:
        return tuple(tuple(Fraction(x, self.denominator) for x in p) for p in self.numerators)

    @cached_property
    def weights(self) -> tuple:
        return tuple(Fraction(w, self.mass_denominator) for w in self.masses)

    @cached_property
    def atoms(self) -> tuple:
        """(location, weight) pairs: tuple[(Point, Fraction), ...]."""
        return tuple(zip(self.locations, self.weights))

    def __len__(self) -> int:
        return len(self.numerators)

    def weight_at(self, location) -> Fraction:
        return dict(self.atoms).get(as_point(location, self.dim), Fraction(0))


def _over(m: AtomicMeasure, denominator: int) -> tuple:
    """The atom numerators of ``m`` over a multiple of its denominator."""
    scale = denominator // m.denominator
    return m.numerators if scale == 1 else tuple(tuple(x * scale for x in p) for p in m.numerators)


def _numerators_over(point, denominator: int):
    """The integer numerators of an exact point over ``denominator``, or None if it has none."""
    ratios = [x.as_integer_ratio() for x in point]
    if any(denominator % d for _, d in ratios):
        return None
    return tuple(n * (denominator // d) for n, d in ratios)


def _absolute(m: AtomicMeasure) -> AtomicMeasure:
    """``m`` with its offset folded exactly into the skeleton (floats are rationals)."""
    if not any(m.offset):
        return m
    return translate(replace(m, offset=None), tuple(Fraction(x) for x in m.offset))


def absolute_atoms(m: AtomicMeasure):
    """Atoms with the offset folded in exactly (floats are rationals)."""
    return list(_absolute(m).atoms)


def as_float_arrays(m: AtomicMeasure):
    """Locations (with offset applied) and weights as float arrays."""
    locs = np.array([[x / m.denominator for x in p] for p in m.numerators], dtype=float)
    locs = locs.reshape(len(m), m.dim) + np.array(m.offset, dtype=float)
    weights = np.array([w / m.mass_denominator for w in m.masses], dtype=float)
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
    return AtomicMeasure._from_sums(ds.dim, _sumset(ds.dim, layers), denominator, ds.branch)


def level_measure(ds: DigitSystem, n: int, budget: int | None = None) -> AtomicMeasure:
    """Convolution of the first n scaled digit layers: the level-n measure.

    Atoms sit at sum_{k<=n} R^-k b_k over all digit words; coinciding
    expansions merge. Total mass is exactly 1.
    """
    if n < 1:
        raise ValueError("level must be >= 1")
    validate_digit_system(ds)
    layers, denominator = _digit_layers(ds, [range(ds.branch)] * n)
    return AtomicMeasure._from_sums(ds.dim, _sumset(ds.dim, layers, budget), denominator, ds.branch**n)


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
    return AtomicMeasure._from_sums(ds.dim, _sumset(ds.dim, layers, budget), denominator, 1).locations


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
        points = AtomicMeasure._from_sums(ds.dim, _sumset(ds.dim, layers, budget), denominator, 1).locations
        return PointCloud(ds.dim, points, tail)

    return cloud(True), cloud(False)


def convolve(a: AtomicMeasure, b: AtomicMeasure, budget: int | None = None) -> AtomicMeasure:
    """Convolution: atoms at all pairwise sums, weights multiplied."""
    if a.dim != b.dim:
        raise DimensionMismatch("convolve requires equal dimensions")
    denominator = math.lcm(a.denominator, b.denominator)
    layers = [dict(zip(_over(m, denominator), m.masses)) for m in (a, b)]
    offset = tuple(x + y for x, y in zip(a.offset, b.offset))
    sums = _sumset(a.dim, layers, budget)
    return AtomicMeasure._from_sums(a.dim, sums, denominator, a.mass_denominator * b.mass_denominator, offset)


def translate(m: AtomicMeasure, shift) -> AtomicMeasure:
    """Shift every atom by ``shift``.

    Rational components (int/Fraction) move the exact skeleton; float
    components accumulate on the shared real offset, which must stay finite.
    """
    shift = (shift,) if isinstance(shift, (int, float, Fraction)) else tuple(shift)
    skeleton = [0 if isinstance(s, float) else s for s in shift]
    extra = [s if isinstance(s, float) else 0.0 for s in shift]
    # The Dirac mass at the skeleton shift: one word per atom of m, whatever the atom budget.
    return convolve(m, AtomicMeasure.from_atoms(m.dim, [(skeleton, 1)], offset=extra), budget=len(m))


def add(a: AtomicMeasure, b: AtomicMeasure) -> AtomicMeasure:
    """Sum of measures; shared locations merge, total mass adds."""
    if a.dim != b.dim:
        raise DimensionMismatch("add requires equal dimensions")
    if a.offset != b.offset:
        raise OffsetMismatch("cannot add measures with different real offsets")
    denominator = math.lcm(a.denominator, b.denominator)
    mass_denominator = math.lcm(a.mass_denominator, b.mass_denominator)
    sums: dict = {}
    for m in (a, b):
        scale = mass_denominator // m.mass_denominator
        for p, w in zip(_over(m, denominator), m.masses):
            sums[p] = sums.get(p, 0) + w * scale
    return AtomicMeasure._from_sums(a.dim, sums, denominator, mass_denominator, a.offset)


def ball_mass(m: AtomicMeasure, center, radius) -> Fraction:
    """Mass inside the closed Euclidean ball, decided exactly."""
    if radius < 0:
        raise ValueError("radius must be positive")
    r = Fraction(radius)
    # Centred at the origin, |x|^2 <= r^2 reads |p|^2 * r.den^2 <= (r.num * den)^2 on numerators p over den.
    m = translate(_absolute(m), tuple(-x for x in as_point(center, m.dim)))
    bound, r_den_sq = (r.numerator * m.denominator) ** 2, r.denominator**2
    inside = (r_den_sq * sum(x * x for x in p) <= bound for p in m.numerators)
    return Fraction(sum(w for w, hit in zip(m.masses, inside) if hit), m.mass_denominator)


def embed_axis(m: AtomicMeasure, dim: int, axis: int) -> AtomicMeasure:
    """Place a 1D measure on a coordinate axis of R^dim."""
    if m.dim != 1:
        raise DimensionMismatch("embed_axis expects a one-dimensional measure")
    offset = [0.0] * dim
    offset[axis] = m.offset[0]
    # Zeros off the axis keep the numerators sorted and reduced.
    numerators = tuple(tuple(x if i == axis % dim else 0 for i in range(dim)) for (x,) in m.numerators)
    return AtomicMeasure(dim, numerators, m.denominator, m.masses, m.mass_denominator, offset)
