"""Finite-level atomic approximations of self-affine measures.

An ``AtomicMeasure`` stores its skeleton once, as integers: sorted,
distinct numerator vectors over one positive denominator and positive
masses over one mass denominator, both reduced. Enumeration, merging,
translation, sums, convolution and ball masses all run on these integers;
``atoms``, ``locations`` and ``weights`` are the exact
``fractions.Fraction`` view, built on first use. Exact points from outside
enter a skeleton through one map, ``_points_over``. A float is the binary
rational it is, so a translation by floats moves the skeleton exactly and
the skeleton is the only record of where atoms sit.

Every digit-word enumeration (level measures, cylinders, convolutions, jp
spectra, difference sets, the SSC scan) goes through ``_sumset``, which
has two arithmetic paths. int64 arrays, one broadcast per layer and one
sort-merge, run when the word count reaches ``_ARRAY_WORDS`` and no sum
or multiplicity can wrap, both decided exactly on Python ints. Otherwise
a dict of Python int tuples merges word by word: below the constant,
where it is faster, and for big-integer numerators, such as those of a
measure translated by a float.
"""
from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from itertools import chain

import numpy as np

from .errors import (
    AtomBudgetExceeded,
    DimensionMismatch,
    DuplicateDigits,
    NonExpandingMatrix,
    SingularMatrix,
)

DEFAULT_ATOM_BUDGET = 2**16

# Word count from which ``_sumset`` runs on int64 arrays when nothing can
# wrap; below it the dict merge is faster (the paths cross at 64 words).
_ARRAY_WORDS = 64
# Bound on every |coordinate| and multiplicity sum on the int64 path.
_INT64_GUARD = 2**62

# Margin for the float eigenvalue test |lambda_i| >= 1 + margin.
EXPANDING_MARGIN = 1e-9
# Relative inflation applied to float singular values so the resulting
# rational bound stays a true upper bound.
NORM_INFLATION = 1e-12


def _exact_number(x):
    """``x`` as the int, float or Fraction of its value.

    A numpy integer becomes an int, as a numerator would wrap on overflow;
    a real that is not rational, numpy's float32 and float16 among them,
    goes through ``float``, which is exact for those two.
    """
    if type(x) in (int, float, Fraction):
        return x
    if isinstance(x, numbers.Integral):
        return int(x)
    return float(x) if isinstance(x, numbers.Real) and not isinstance(x, numbers.Rational) else Fraction(x)


def as_point(value, dim: int | None = None) -> tuple:
    """Coerce a scalar (numpy's included) or sequence into a tuple of exact Fractions; NaN and inf are refused."""
    return tuple(map(Fraction, _exact_point(value, dim)))


def _exact_point(value, dim: int | None = None) -> tuple:
    """Every exact point's reader: ``as_point`` before the Fractions, each coordinate as ``_exact_number`` reads it."""
    value = (value,) if isinstance(value, numbers.Number) else tuple(value)
    exact = tuple(map(_exact_number, value))
    if any(type(v) is float and not math.isfinite(v) for v in exact):
        raise ValueError(f"point {exact} is not finite")
    if dim is not None and len(exact) != dim:
        raise DimensionMismatch(f"expected dimension {dim}, got {len(exact)}")
    return exact


def _matvec(matrix, vec):
    return tuple(sum(row[j] * vec[j] for j in range(len(vec))) for row in matrix)


def _fraction_inverse(matrix):
    """Exact inverse of a rational matrix (ints, Fractions or floats, taken exactly), by Gauss-Jordan elimination."""
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
    """An expanding integer matrix R with distinct integer digits, kept sorted, checked when built.

    ``inverse`` is R^-1 exactly: integer numerator rows over their least common denominator.
    """

    matrix: tuple
    digits: tuple
    inverse: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # Rows and digits are exact points over 1: a row or digit of the wrong length raises DimensionMismatch.
        d = len(self.matrix)
        matrix, digits = tuple(_points_over(self.matrix, d, 1)), _points_over(self.digits, d, 1)
        if None in matrix or None in digits:
            raise ValueError("digit system entries must be integers")
        digits = tuple(sorted(digits))
        if not digits:
            raise DuplicateDigits("digit set is empty")
        inverse = _fraction_inverse(matrix)  # raises SingularMatrix when det R = 0
        if len(set(digits)) != len(digits):
            raise DuplicateDigits("digit set contains duplicates")
        _check_expanding(matrix)
        rows, q = _common_numerators(inverse)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "digits", digits)
        object.__setattr__(self, "inverse", (tuple(rows), q))

    @classmethod
    def one_dimensional(cls, base, digits) -> "DigitSystem":
        return cls(((base,),), tuple((b,) for b in digits))

    @property
    def dim(self) -> int:
        return len(self.matrix)

    @property
    def branch(self) -> int:
        return len(self.digits)

    def inverse_matrix(self):
        """R^-1 as Fractions."""
        rows, q = self.inverse
        return tuple(tuple(Fraction(x, q) for x in row) for row in rows)

    def inverse_norm_bound(self) -> Fraction:
        """Certified upper bound for the operator 2-norm of R^-1.

        Exact for 1x1 and diagonal matrices, float singular value inflated
        by a relative margin otherwise.
        """
        d = self.dim
        if d == 1 or all(self.matrix[i][j] == 0 for i in range(d) for j in range(d) if i != j):
            return max(Fraction(1, abs(self.matrix[i][i])) for i in range(d))
        rows, q = self.inverse
        inv = np.array([[x / q for x in row] for row in rows])
        sv = float(np.linalg.svd(inv, compute_uv=False)[0])
        return Fraction(sv * (1.0 + NORM_INFLATION))

    def max_digit_norm_bound(self) -> Fraction:
        """Certified upper bound for max_b |b| (Euclidean), exact in 1D."""
        return max(_sqrt_upper_bound(Fraction(sum(x * x for x in b))) for b in self.digits)


def _check_expanding(matrix) -> None:
    """NonExpandingMatrix unless every eigenvalue of an integer matrix has modulus above 1.

    1x1 and triangular matrices are decided exactly; otherwise the
    eigenvalues are computed in floats and required to clear a margin.
    """
    d = len(matrix)
    below = any(matrix[i][j] for i in range(d) for j in range(i))
    above = any(matrix[j][i] for i in range(d) for j in range(i))
    if not (below and above):  # triangular
        smallest = min(abs(matrix[i][i]) for i in range(d))
        if smallest < 2:
            raise NonExpandingMatrix(f"eigenvalue of modulus {smallest} is not > 1")
        return
    moduli = np.abs(np.linalg.eigvals(np.array(matrix, dtype=float)))
    if float(moduli.min()) < 1.0 + EXPANDING_MARGIN:
        raise NonExpandingMatrix(f"eigenvalue of modulus {moduli.min():.6g} is not > 1")


@dataclass(frozen=True)
class AtomicMeasure:
    """A finite weighted point set in canonical integer form.

    Atom j sits at ``numerators[j] / denominator`` and carries mass
    ``masses[j] / mass_denominator``. The numerator vectors are distinct
    and sorted lexicographically, the masses positive, and both fractions
    are reduced, so equal measures have equal fields. Build one with
    ``from_atoms`` or ``dirac``; ``atoms``, ``locations`` and ``weights``
    are the exact ``Fraction`` view, built on first use.
    """

    dim: int
    numerators: tuple  # tuple[tuple[int, ...], ...]
    denominator: int
    masses: tuple  # tuple[int, ...]
    mass_denominator: int

    @classmethod
    def from_atoms(cls, dim: int, pairs) -> "AtomicMeasure":
        pairs = [(_exact_point(loc, dim), _exact_number(weight)) for loc, weight in pairs]
        for _, w in pairs:
            if type(w) is float and not math.isfinite(w):
                raise ValueError(f"weight {w} is not finite")
        if any(w < 0 for _, w in pairs):
            raise ValueError("negative atom weight")
        points, denominator = _common_numerators([p for p, _ in pairs])
        (weights,), mass_denominator = _common_numerators([[w for _, w in pairs]])
        merged: dict = {}
        for p, w in zip(points, weights):
            merged[p] = merged.get(p, 0) + w
        return cls._from_sums(dim, _sorted_items(merged), denominator, mass_denominator)

    @classmethod
    def _from_sums(cls, dim: int, sums, denominator: int, mass_denominator: int) -> "AtomicMeasure":
        """The canonical measure with mass w/mass_denominator at each point p/denominator.

        ``sums`` is (rows, masses) as ``_sumset`` and ``_sorted_items``
        return it: distinct integer rows in lexicographic order, which are
        not sorted again, and their integer masses. Zero masses are dropped.
        """
        rows, masses = sums
        if 0 in masses:
            rows, masses = [p for p, w in zip(rows, masses) if w], [w for w in masses if w]
        # Reduced: the gcd of all numerators and the denominator is 1, and likewise for the masses.
        g, h = math.gcd(denominator, *chain.from_iterable(rows)), math.gcd(mass_denominator, *masses)
        numerators = tuple(rows) if g == 1 else tuple(tuple(x // g for x in p) for p in rows)
        masses = tuple(masses) if h == 1 else tuple(w // h for w in masses)
        return cls(dim, numerators, denominator // g, masses, mass_denominator // h)

    @classmethod
    def dirac(cls, location, weight=1) -> "AtomicMeasure":
        pt = _exact_point(location)
        return cls.from_atoms(len(pt), [(pt, weight)])

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
        """(location, weight) pairs: tuple[(tuple[Fraction, ...], Fraction), ...]."""
        return tuple(zip(self.locations, self.weights))

    def __len__(self) -> int:
        return len(self.numerators)

    def weight_at(self, location) -> Fraction:
        (key,) = _points_over([location], self.dim, self.denominator)
        return Fraction(dict(zip(self.numerators, self.masses)).get(key, 0), self.mass_denominator)


def _over(m: AtomicMeasure, denominator: int) -> tuple:
    """The atom numerators of ``m`` over a multiple of its denominator."""
    scale = denominator // m.denominator
    return m.numerators if scale == 1 else tuple(tuple(x * scale for x in p) for p in m.numerators)


def _common_numerators(rows) -> tuple:
    """Integer numerators of exact rows over the lcm of their denominators.

    Entries are ints, Fractions or floats; a float is the binary rational it is.
    """
    ratios = [[x.as_integer_ratio() for x in row] for row in rows]
    denominator = math.lcm(*(d for row in ratios for _, d in row))
    return [tuple(n * (denominator // d) for n, d in row) for row in ratios], denominator


def _points_over(points, dim: int, denominator: int) -> list:
    """Numerators over ``denominator`` of exact points (as ``as_point`` reads them), in order; None off that grid."""
    rows, common = _common_numerators([_exact_point(p, dim) for p in points])
    g = math.gcd(common, denominator)
    step, scale = common // g, denominator // g
    return [None if any(x % step for x in row) else tuple(x // step * scale for x in row) for row in rows]


def _sorted_items(sums: dict) -> tuple:
    """(rows, values) of an integer-keyed dict, the keys in lexicographic order."""
    rows = sorted(sums)
    return rows, [sums[p] for p in rows]


def _sumset(dim: int, layers, budget: int | None = None) -> tuple:
    """Every sum of one vector from each layer, with its multiplicity.

    Layers map integer numerator vectors over one common denominator to
    integer weights; multiplicities add the words' weight products. All
    layers, which may be lazy, are read first; reading stops at the budget,
    so no sum is formed past it. Returns (rows, multiplicities): the
    distinct sums as tuples of ints in lexicographic order, and their
    multiplicities as ints.

    Two paths give the same result. The int64 path runs when there are at
    least ``_ARRAY_WORDS`` words and, on Python ints, the sum over layers
    of max |coordinate| and the product over layers of sum |weight| both
    stay below 2^62, so no partial sum or multiplicity wraps: each layer is
    added to all partial sums in one broadcast, and the words merge once by
    a stable lexicographic sort, a comparison of neighbours and
    ``np.add.reduceat``. Otherwise a dict merges layer by layer on Python
    ints, which is exact at any size.
    """
    max_atoms = DEFAULT_ATOM_BUDGET if budget is None else budget
    words, read = 1, []
    for layer in layers:
        words *= len(layer)
        if words > max_atoms:
            raise AtomBudgetExceeded(f"enumeration exceeds the atom budget {max_atoms}")
        read.append(layer)
    if words >= _ARRAY_WORDS and _fits_int64(read):
        return _sumset_int64(dim, read)
    sums = {(0,) * dim: 1}
    for layer in read:
        merged: dict = {}
        for p, w in sums.items():
            for s, v in layer.items():
                q = tuple(map(operator.add, p, s))
                merged[q] = merged.get(q, 0) + w * v
        sums = merged
    return _sorted_items(sums)


def _fits_int64(layers) -> bool:
    """Whether no partial sum or multiplicity of these nonempty layers can reach 2^62 in magnitude."""
    reach, mass = 0, 1
    for layer in layers:
        reach += max(map(abs, chain.from_iterable(layer)))
        mass *= sum(map(abs, layer.values()))
    return reach < _INT64_GUARD and mass < _INT64_GUARD


def _sumset_int64(dim: int, layers) -> tuple:
    """``_sumset`` on int64 arrays for layers that ``_fits_int64`` accepts, with dim >= 1."""
    sums, mults = np.zeros((1, dim), dtype=np.int64), np.ones(1, dtype=np.int64)
    for layer in layers:
        vectors = np.array(list(layer), dtype=np.int64).reshape(len(layer), dim)
        weights = np.fromiter(layer.values(), dtype=np.int64, count=len(layer))
        sums = (sums[:, None, :] + vectors[None, :, :]).reshape(-1, dim)
        mults = np.multiply.outer(mults, weights).reshape(-1)
    # lexsort's last key is its primary one; signed int64 order is Python's order.
    order = np.lexsort(sums.T[::-1])
    sums = sums[order]
    first = np.empty(len(sums), dtype=bool)
    first[0] = True
    np.any(sums[1:] != sums[:-1], axis=1, out=first[1:])
    starts = np.flatnonzero(first)
    return list(zip(*sums[starts].T.tolist())), np.add.reduceat(mults[order], starts).tolist()


def _digit_layers(ds: DigitSystem, picks) -> tuple:
    """Lazy numerator layers of R^-k B over one denominator q^n, and q^n.

    ``picks[k-1]`` lists the digit indices kept at level k <= n = len(picks).
    With R^-1 = M/q for an integer M, the numerator of R^-k b over q^n is
    q^(n-k) M^k b.
    """
    inverse, q = ds.inverse

    def layers():
        vecs = ds.digits
        for k, pick in enumerate(picks, start=1):
            vecs = [_matvec(inverse, v) for v in vecs]
            scale = q ** (len(picks) - k)
            yield {tuple(scale * x for x in vecs[i]): 1 for i in pick}

    return layers(), q ** len(picks)


def level_measure(ds: DigitSystem, n: int, budget: int | None = None) -> AtomicMeasure:
    """Convolution of the first n scaled digit layers: the level-n measure.

    Atoms sit at sum_{k<=n} R^-k b_k over all digit words; coinciding
    expansions merge. Total mass is exactly 1.
    """
    if n < 1:
        raise ValueError("level must be >= 1")
    layers, denominator = _digit_layers(ds, [range(ds.branch)] * n)
    return AtomicMeasure._from_sums(ds.dim, _sumset(ds.dim, layers, budget), denominator, ds.branch**n)


@dataclass(frozen=True)
class PointCloud:
    """A finite exact point set with a certified tail radius.

    Every point of the underlying infinite attractor piece lies within
    ``tail_radius`` of some listed point; ``None`` means no certified bound
    (the inverse norm bound is >= 1). A cloud holds at least one point,
    each of length ``dim`` and finite, and its tail radius is None or >= 0.
    """

    dim: int
    points: tuple
    tail_radius: Fraction | None

    def __post_init__(self):
        if not self.points:
            raise ValueError("a point cloud needs at least one point")
        for point in self.points:
            _exact_point(tuple(point), self.dim)  # DimensionMismatch or ValueError (not finite)
        if self.tail_radius is not None and not self.tail_radius >= 0:
            raise ValueError(f"tail radius {self.tail_radius} must be None or >= 0")


def tail_radius(ds: DigitSystem, n: int) -> Fraction | None:
    """Certified bound for sup |sum_{k>n} R^-k b_k| via the geometric series; the level is an integer >= 0."""
    if (n := operator.index(n)) < 0:  # an int, so inv ** (n + 1) cannot wrap as a numpy integer would
        raise ValueError(f"level {n} must be >= 0")
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
    picks = []
    for b in _points_over(prefix, ds.dim, 1):
        if b not in ds.digits:
            raise ValueError("prefix contains a vector outside the digit set")
        picks.append((ds.digits.index(b),))
    if len(picks) > n:
        raise ValueError("prefix longer than the level")
    layers, denominator = _digit_layers(ds, picks + [range(ds.branch)] * (n - len(picks)))
    return AtomicMeasure._from_sums(ds.dim, _sumset(ds.dim, layers, budget), denominator, 1).locations


def convolve(a: AtomicMeasure, b: AtomicMeasure, budget: int | None = None) -> AtomicMeasure:
    """Convolution: atoms at all pairwise sums, weights multiplied."""
    if a.dim != b.dim:
        raise DimensionMismatch("convolve requires equal dimensions")
    denominator = math.lcm(a.denominator, b.denominator)
    layers = [dict(zip(_over(m, denominator), m.masses)) for m in (a, b)]
    sums = _sumset(a.dim, layers, budget)
    return AtomicMeasure._from_sums(a.dim, sums, denominator, a.mass_denominator * b.mass_denominator)


def translate(m: AtomicMeasure, shift) -> AtomicMeasure:
    """Shift every atom by ``shift``, an exact point as ``as_point`` reads it.

    A float component moves the skeleton by the binary rational it is, so
    shifts compose exactly and a NaN or infinite one is refused.
    """
    # The Dirac mass at the shift: one word per atom of m, whatever the atom budget.
    return convolve(m, AtomicMeasure.from_atoms(m.dim, [(shift, 1)]), budget=len(m))


def add(a: AtomicMeasure, b: AtomicMeasure) -> AtomicMeasure:
    """Sum of measures; shared locations merge, total mass adds."""
    if a.dim != b.dim:
        raise DimensionMismatch("add requires equal dimensions")
    denominator = math.lcm(a.denominator, b.denominator)
    mass_denominator = math.lcm(a.mass_denominator, b.mass_denominator)
    sums: dict = {}
    for m in (a, b):
        scale = mass_denominator // m.mass_denominator
        for p, w in zip(_over(m, denominator), m.masses):
            sums[p] = sums.get(p, 0) + w * scale
    return AtomicMeasure._from_sums(a.dim, _sorted_items(sums), denominator, mass_denominator)


def ball_mass(m: AtomicMeasure, center, radius) -> Fraction:
    """Mass inside the closed Euclidean ball, decided exactly; a radius of 0 reads the atom at the center."""
    r = _exact_number(radius)
    if type(r) is float and not math.isfinite(r):
        raise ValueError(f"radius {r} is not finite")
    if r < 0:
        raise ValueError(f"radius {r} must be non-negative")
    r = Fraction(r)
    # Centred at the origin, |x|^2 <= r^2 reads |p|^2 * r.den^2 <= (r.num * den)^2 on numerators p over den.
    m = translate(m, tuple(-x for x in as_point(center, m.dim)))
    bound, r_den_sq = (r.numerator * m.denominator) ** 2, r.denominator**2
    inside = (r_den_sq * sum(x * x for x in p) <= bound for p in m.numerators)
    return Fraction(sum(w for w, hit in zip(m.masses, inside) if hit), m.mass_denominator)


def embed_axis(m: AtomicMeasure, dim: int, axis: int) -> AtomicMeasure:
    """Place a 1D measure on a coordinate axis of R^dim."""
    if m.dim != 1:
        raise DimensionMismatch("embed_axis expects a one-dimensional measure")
    # Zeros off the axis keep the numerators sorted and reduced.
    numerators = tuple(tuple(x if i == axis % dim else 0 for i in range(dim)) for (x,) in m.numerators)
    return AtomicMeasure(dim, numerators, m.denominator, m.masses, m.mass_denominator)
