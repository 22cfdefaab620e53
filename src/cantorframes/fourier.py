"""Fourier transforms of atomic and self-affine measures.

The transform of a self-affine measure is an infinite product of digit
masks; truncations carry a certified tail bound derived from the
Lipschitz estimate |1 - mask(eta)| <= 2*pi*max|b|*|eta| and the geometric
decay of the scaled frequencies. Windowed transforms of atomic measures
are exponential sums over atoms: their phases come from the exact kernel
of ``frames``, one call per measure for a whole frequency grid.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import NotCertifiedPacking, ToleranceUnreachable
from .measures import (
    AtomicMeasure,
    DigitSystem,
    PointCloud,
    as_point,
    convolve,
    validate_digit_system,
)
from .frames import _exact_phase_matrix
from .measures import _absolute, _numerators_over
from .packing import CERTIFIED_PACKING, packing_certificate_from_clouds

_MAX_FACTORS = 10_000


def _as_vector(xi, dim: int) -> np.ndarray:
    if isinstance(xi, (int, float)):
        xi = (float(xi),)
    arr = np.asarray(xi, dtype=float).reshape(-1)
    if arr.shape[0] != dim:
        raise ValueError(f"frequency has dimension {arr.shape[0]}, expected {dim}")
    return arr


def mask_eval(digits, xi) -> complex:
    """(1/#B) sum_b exp(-2*pi*i <xi, b>)."""
    digits = [(b,) if isinstance(b, int) else tuple(b) for b in digits]
    xi = _as_vector(xi, len(digits[0]))
    total = 0j
    for b in digits:
        total += cmath.exp(-2j * math.pi * float(np.dot(xi, b)))
    return total / len(digits)


@dataclass(frozen=True)
class MaskPolynomial:
    """Fourier factor of a single digit layer; normalized so mask(0) = 1."""

    digits: tuple
    dim: int

    @classmethod
    def of(cls, digits) -> "MaskPolynomial":
        digits = tuple((b,) if isinstance(b, int) else tuple(int(x) for x in b) for b in digits)
        return cls(digits=digits, dim=len(digits[0]))

    def __call__(self, xi) -> complex:
        return mask_eval(self.digits, xi)


@dataclass(frozen=True)
class TransformValue:
    value: complex
    tail_bound: float
    factors: int


def mu_hat(ds: DigitSystem, xi, tol: float) -> TransformValue:
    """Truncated mask product for the self-affine measure's transform.

    The number of factors is chosen so the certified tail bound drops
    below ``tol``; the achieved bound is returned alongside the value.
    A non-finite coordinate of ``xi`` raises ValueError.
    """
    if tol <= 0 or tol < 1e-15:
        raise ToleranceUnreachable("tolerance below float resolution")
    validate_digit_system(ds)
    inv = float(ds.inverse_norm_bound())
    if inv >= 1.0:
        raise ToleranceUnreachable("inverse norm bound >= 1; geometric tail does not converge")
    xi = _as_vector(xi, ds.dim)
    if not np.isfinite(xi).all():
        raise ValueError(f"frequency {tuple(xi.tolist())} is not finite")
    max_b = float(ds.max_digit_norm_bound())
    xi_norm = float(np.linalg.norm(xi))
    prefactor = 2.0 * math.pi * max_b * xi_norm / (1.0 - inv)

    n_factors = 0
    bound = prefactor * inv
    while bound >= tol:
        n_factors += 1
        bound *= inv
        if n_factors > _MAX_FACTORS:
            raise ToleranceUnreachable("tolerance requires too many factors")

    rinv_t = np.array([[float(x) for x in row] for row in ds.inverse_matrix()], dtype=float).T
    value = 1.0 + 0j
    eta = xi.copy()
    for _ in range(n_factors):
        eta = rinv_t @ eta
        value *= mask_eval(ds.digits, eta)
    return TransformValue(value=value, tail_bound=bound, factors=n_factors)


def _windowed_sums(m: AtomicMeasure, window, xi_rows) -> list:
    """``windowed_transform`` at every row of ``xi_rows``, from one kernel call."""
    m = _absolute(m)
    if window is not None:
        if not isinstance(window, dict):
            window = dict.fromkeys((as_point(p, m.dim) for p in window), 1.0)
        window = {_numerators_over(as_point(p), m.denominator): f for p, f in window.items()}
    locations, coefficients = [], []
    for p, w in zip(m.numerators, m.masses):
        f = 1.0 if window is None else window.get(p, 0.0)
        if f != 0:
            locations.append(p)
            coefficients.append(f * (w / m.mass_denominator))
    phases = _exact_phase_matrix(m.dim, xi_rows, locations, m.denominator)
    terms = np.asarray(coefficients) * np.exp(-2j * np.pi * phases)
    return [complex(math.fsum(row.real), math.fsum(row.imag)) for row in terms]


def windowed_transform(m: AtomicMeasure, window, xi) -> complex:
    """sum_x f(x) w_x exp(-2*pi*i <xi, x>) with exact phases and compensated accumulation.

    ``window`` is None for the constant 1, a set of exact points for an
    indicator, or a dict from exact points to coefficients. The phases
    <xi, x> mod 1 are exact, with a float xi taken as the binary rational
    it is, so a large xi loses no digits.
    """
    return _windowed_sums(m, window, [_as_vector(xi, m.dim)])[0]


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

    For exactly packing atom supports the identity holds up to float
    rounding; without a packing check the operation refuses unless forced,
    and then reports the violation magnitude.
    """
    support_nu = PointCloud(nu.dim, nu.locations, Fraction(0))
    support_lam = PointCloud(lam.dim, lam.locations, Fraction(0))
    cert = packing_certificate_from_clouds(support_nu, support_lam)
    certified = cert.status == CERTIFIED_PACKING
    if not certified and not force:
        raise NotCertifiedPacking(
            "atom supports do not form an exact packing pair; pass force=True to measure the violation"
        )
    e_pts = {as_point(p, nu.dim) for p in window_e}
    f_pts = {as_point(p, lam.dim) for p in window_f}
    sum_pts = {tuple(a + b for a, b in zip(p, q)) for p in e_pts for q in f_pts}
    mu = convolve(nu, lam)
    xis = [_as_vector(xi, nu.dim) for xi in xi_grid]
    if not xis:
        raise ValueError("empty frequency grid")
    lhs = _windowed_sums(mu, sum_pts, xis)
    rhs = [a * b for a, b in zip(_windowed_sums(nu, e_pts, xis), _windowed_sums(lam, f_pts, xis))]
    deviations = [abs(a - b) for a, b in zip(lhs, rhs)]
    worst = max(range(len(xis)), key=deviations.__getitem__)
    return FactorizationReport(
        max_deviation=deviations[worst], argmax_xi=tuple(xis[worst]), grid_size=len(xis), certified=certified
    )
