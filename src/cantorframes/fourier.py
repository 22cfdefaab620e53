"""Fourier transforms of atomic and self-affine measures.

The transform of a self-affine measure is an infinite product of digit
masks; truncations carry a certified tail bound derived from the
Lipschitz estimate |1 - mask(eta)| <= 2*pi*max|b|*|eta| and the geometric
decay of the scaled frequencies. Every truncation, one point (``mu_hat``)
or a whole grid (``ft grid``), runs through one vectorized pass,
``_mu_hat_grid``, which multiplies complex values out in real arithmetic
so that no value depends on whether the CPU fuses multiply-adds. Each
mask phase t = <eta, b> is reduced exactly mod 1, as t - rint(t), before
it meets 2*pi, whose product with a large t would lose the phase digits.
A ``DigitSystem`` keeps its digits sorted, so the masks sum in one order.

A factorization check compares windowed sums, exponential sums over a
measure's skeleton atoms (``_skeleton_sums``): their phases come from the
exact kernel of ``frames``, one call for the whole frequency grid and all
three windows, and each sum is correctly rounded by ``math.fsum``.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import pairwise

import numpy as np

from .errors import NotCertifiedPacking, ToleranceUnreachable
from .measures import AtomicMeasure, DigitSystem, convolve
from .frames import _exact_phase_matrix
from .measures import _common_numerators, _exact_point, _over

_MAX_FACTORS = 10_000


def _masks(digits, eta: np.ndarray) -> tuple:
    """Real and imaginary parts of (1/#B) sum_b exp(-2*pi*i <eta, b>) at each row of ``eta``, b in order.

    Each t = <eta, b>, summed in coordinate order, is reduced mod 1 as t - rint(t), exact for every float t.
    """
    mask = np.zeros(len(eta), dtype=complex)
    for b in digits:
        t = _fixed_order_dot(b, eta)
        mask += np.exp(-2j * math.pi * (t - np.rint(t)))
    return mask.real / len(digits), mask.imag / len(digits)


@dataclass(frozen=True)
class TransformValue:
    value: complex
    tail_bound: float
    factors: int


def _mu_hat_grid(ds: DigitSystem, xis, tol: float) -> tuple:
    """``mu_hat`` at every point of ``xis``, in one vectorized pass: arrays (re, im, tail bound, factor count).

    R^-T and the norm bounds are formed once per grid, from the exact R^-1
    the system keeps. Each point gets the float sequence of the per-point
    definition: its factor count comes from the same ``bound *= inv``
    loop, applied only to the points still above ``tol``; then all points
    take as many steps as the largest count, and a point's product takes a
    step's mask only while the step is below its own count: no point's eta
    depends on another's. A step maps eta to R^-T eta by elementwise sums
    in a fixed order (no BLAS), and the mask is exp(-2*pi*i <eta, b>),
    the phase reduced exactly mod 1 (``_masks``), summed over the digits
    in order, over #B.

    The running product is multiplied out in real arithmetic. numpy's
    complex ``*`` may fuse a multiply into an add (FMA) and then differs
    from CPython's ``complex * complex`` in the last bit, so a grid value
    would depend on the CPU; the explicit real form rounds every product
    and sum on its own, as CPython does. In one dimension each value, tail
    bound and factor count is therefore bit-identical to a per-point loop
    of ``cmath.exp`` of the reduced phases over the digits. An empty grid
    returns empty arrays unchecked; a NaN ``tol`` is refused with the
    tolerances below float resolution.
    """
    points = np.asarray(xis, dtype=float)
    if len(points) == 0:
        return np.zeros(0), np.zeros(0), np.zeros(0), np.zeros(0, dtype=np.int64)
    if not tol >= 1e-15:  # NaN included
        raise ToleranceUnreachable("tolerance below float resolution")
    inv = float(ds.inverse_norm_bound())
    if inv >= 1.0:
        raise ToleranceUnreachable("inverse norm bound >= 1; geometric tail does not converge")
    points = points.reshape(len(points), -1)
    if points.shape[1] != ds.dim:
        raise ValueError(f"frequency has dimension {points.shape[1]}, expected {ds.dim}")
    finite = np.isfinite(points).all(axis=1)
    if not finite.all():
        bad = points[np.argmin(finite)]
        raise ValueError(f"frequency {tuple(bad.tolist())} is not finite")

    max_b = float(ds.max_digit_norm_bound())
    with np.errstate(over="ignore"):  # |xi|^2 = inf leaves an infinite tail bound: too many factors
        norm = np.sqrt(_fixed_order_dot(points.T, points))  # squares summed in coordinate order
    prefactor = 2.0 * math.pi * max_b * norm / (1.0 - inv)
    bound = prefactor * inv
    factors = np.zeros(len(points), dtype=np.int64)
    while (live := bound >= tol).any():
        factors += live  # a live point has been live at every step, so its count is the step number
        if factors.max() > _MAX_FACTORS:
            raise ToleranceUnreachable("tolerance requires too many factors")
        bound = np.where(live, bound * inv, bound)

    re, im = np.ones(len(points)), np.zeros(len(points))
    rows, q = ds.inverse
    rinv_t = [[x / q for x in column] for column in zip(*rows)]
    digits = [[float(x) for x in b] for b in ds.digits]
    eta = points
    for step in range(int(factors.max())):
        running = factors > step
        eta = np.stack([_fixed_order_dot(row, eta) for row in rinv_t], axis=1)
        mr, mi = _masks(digits, eta)
        re, im = np.where(running, re * mr - im * mi, re), np.where(running, re * mi + im * mr, im)
    return re, im, bound, factors


def _fixed_order_dot(coefficients, vectors: np.ndarray) -> np.ndarray:
    """sum_j coefficients[j] * vectors[:, j], added left to right."""
    total = coefficients[0] * vectors[:, 0]
    for j in range(1, len(coefficients)):
        total = total + coefficients[j] * vectors[:, j]
    return total


def mu_hat(ds: DigitSystem, xi, tol: float) -> TransformValue:
    """Truncated mask product for the self-affine measure's transform.

    The number of factors is chosen so the certified tail bound drops
    below ``tol``; the achieved bound is returned alongside the value.
    A non-finite coordinate of ``xi`` raises ValueError. This is the
    one-point grid of ``_mu_hat_grid``, the only mask-product path.
    """
    (re,), (im,), (bound,), (factors,) = _mu_hat_grid(ds, [xi], tol)
    return TransformValue(value=complex(re, im), tail_bound=float(bound), factors=int(factors))


def _skeleton_sums(groups, xis, denominator: int) -> list:
    """Windowed sums at frequencies (numerators, denominator): one list per (measure, window) group, one sum per row.

    Windows are keyed over ``denominator``, a multiple of each measure's. All window atoms meet the kernel in one call,
    over the lcm of the measures' denominators; each group's terms in a row are summed by ``math.fsum``.
    """
    common = math.lcm(*(m.denominator for m, _ in groups))
    locations, coefficients, ends = [], [], []
    for m, window in groups:
        for p, key, w in zip(_over(m, common), _over(m, denominator), m.masses):
            f = 1.0 if window is None else window.get(key, 0.0)
            if f != 0:
                locations.append(p)
                coefficients.append(f * (w / m.mass_denominator))
        ends.append(len(locations))
    phases = _exact_phase_matrix(groups[0][0].dim, xis, (locations, common))
    terms = np.asarray(coefficients) * np.exp(-2j * np.pi * phases)
    flat = memoryview(terms.view(float).ravel())  # each row's re, im interleaved
    starts = [2 * len(locations) * i for i in range(len(terms))]
    return [
        [complex(math.fsum(flat[i + a : i + b : 2]), math.fsum(flat[i + a + 1 : i + b : 2])) for i in starts]
        for a, b in pairwise([0, *(2 * e for e in ends)])
    ]


@dataclass(frozen=True)
class FactorizationReport:
    max_deviation: float
    argmax_xi: tuple
    grid_size: int
    certified: bool


def factorization_check(
    nu: AtomicMeasure,
    lam: AtomicMeasure,
    window_e,
    window_f,
    xi_grid,
    force: bool = False,
) -> FactorizationReport:
    """Deviation of the windowed transform of a convolution from the product.

    The atom supports pack exactly iff no two atom sums of nu * lam
    coincide, that is iff the convolution keeps all len(nu) * len(lam)
    atoms; a single atom on each side packs. For packing supports the
    identity holds up to float rounding; otherwise the operation refuses
    unless forced, and then reports the violation magnitude. Each grid
    point is read exactly, as ``as_point`` reads it; ``argmax_xi`` keeps
    its numbers.
    """
    mu = convolve(nu, lam)
    certified = len(mu) == len(nu) * len(lam)
    if not certified and not force:
        raise NotCertifiedPacking(
            "atom supports do not form an exact packing pair; pass force=True to measure the violation"
        )
    e_pts = [_exact_point(p, nu.dim) for p in window_e]
    rows, common = _common_numerators(e_pts + [_exact_point(q, lam.dim) for q in window_f])
    # E, F and E + F over one denominator: a multiple of each measure's and of every window coordinate's.
    den = math.lcm(nu.denominator, lam.denominator, mu.denominator, common)
    rows = [tuple(x * (den // common) for x in p) for p in rows]
    e_rows, f_rows = rows[: len(e_pts)], rows[len(e_pts) :]
    sum_rows = {tuple(map(operator.add, p, q)) for p in e_rows for q in f_rows}
    xis = [_exact_point(xi, nu.dim) for xi in xi_grid]
    if not xis:
        raise ValueError("empty frequency grid")
    exact = _common_numerators(xis)
    windows = [(mu, sum_rows), (nu, e_rows), (lam, f_rows)]
    lhs, e_sums, f_sums = _skeleton_sums([(m, dict.fromkeys(w, 1.0)) for m, w in windows], exact, den)
    rhs = [a * b for a, b in zip(e_sums, f_sums)]
    deviations = [abs(a - b) for a, b in zip(lhs, rhs)]
    worst = max(range(len(xis)), key=deviations.__getitem__)
    return FactorizationReport(
        max_deviation=deviations[worst], argmax_xi=xis[worst], grid_size=len(xis), certified=certified
    )
