"""Independent oracles for the test suite.

Eigenvalues: power iteration on the Gram matrix and on its spectral shift
(upper + 1) * I - G locates the extremes; inverse iteration polishes the
smallest eigenvalue when the shifted ratio is too flat. No call into the
production eigendecomposition path.

Phases: one ``Fraction`` dot product per (frequency, atom) pair, the
reference for the integer phase kernel.
"""
from fractions import Fraction

import numpy as np

_RESIDUAL_TOL = 1e-11
_POWER_MAXIT = 20_000
_REFINE_MAXIT = 60


def _rayleigh(matrix: np.ndarray, vec: np.ndarray) -> float:
    return float(np.real(np.vdot(vec, matrix @ vec)))


def _power_largest(matrix: np.ndarray) -> tuple:
    size = matrix.shape[0]
    vec = np.ones(size, dtype=complex) / np.sqrt(size)
    for iteration in range(_POWER_MAXIT):
        nxt = matrix @ vec
        norm = np.linalg.norm(nxt)
        if norm == 0.0:
            return 0.0, vec
        vec = nxt / norm
        value = _rayleigh(matrix, vec)
        residual = np.linalg.norm(matrix @ vec - value * vec)
        if residual <= _RESIDUAL_TOL * max(1.0, abs(value)):
            return value, vec
        if iteration == _POWER_MAXIT // 2:
            # restart once with a ramp in case the flat start is deficient
            vec = np.arange(1, size + 1, dtype=complex)
            vec /= np.linalg.norm(vec)
    return _rayleigh(matrix, vec), vec


def _inverse_refine_smallest(gram: np.ndarray, vec: np.ndarray, scale: float) -> float:
    """Shift-and-invert polishing of the smallest eigenvalue estimate."""
    size = gram.shape[0]
    value = _rayleigh(gram, vec)
    for _ in range(_REFINE_MAXIT):
        residual = np.linalg.norm(gram @ vec - value * vec)
        if residual <= 1e-13 * max(1.0, scale):
            break
        shift = value - 1e-12 * max(1.0, scale)
        try:
            nxt = np.linalg.solve(gram - shift * np.eye(size), vec)
        except np.linalg.LinAlgError:
            break
        norm = np.linalg.norm(nxt)
        if not np.isfinite(norm) or norm == 0.0:
            break
        vec = nxt / norm
        value = _rayleigh(gram, vec)
    # Rayleigh quotients of a Hermitian matrix bound the true eigenvalue
    # within the final residual.
    return value


def oracle_extremes(gram: np.ndarray) -> tuple:
    """(smallest, largest) eigenvalue of a Hermitian PSD matrix."""
    gram = np.asarray(gram)
    upper, _ = _power_largest(gram)
    shift = upper + 1.0
    shifted = shift * np.eye(gram.shape[0]) - gram
    shifted_value, vec = _power_largest(shifted)
    lower = _inverse_refine_smallest(gram, vec, scale=upper)
    return min(lower, shift - shifted_value), upper


def oracle_frame_bounds(measure, freq_set) -> tuple:
    """Frame bounds recomputed from scratch: explicit sums, power iteration."""
    import math

    from cantorframes import absolute_atoms

    atoms = absolute_atoms(measure)
    locations = [tuple(float(x) for x in p) for p, _ in atoms]
    weights = [float(w) for _, w in atoms]
    size = len(atoms)
    gram = np.zeros((size, size), dtype=complex)
    for row in range(size):
        for col in range(size):
            acc = 0j
            for freq in freq_set.freqs:
                phase = sum(f * (locations[col][i] - locations[row][i]) for i, f in enumerate(freq))
                acc += complex(math.cos(2 * math.pi * phase), -math.sin(2 * math.pi * phase))
            gram[row, col] = math.sqrt(weights[row] * weights[col]) * acc
    return oracle_extremes(gram)


def oracle_phase_matrix(measure, freq_set) -> np.ndarray:
    """Phases <freq, atom> mod 1, each an exact Fraction rounded once to float."""
    offset = [Fraction(o) for o in measure.offset]
    columns = [[x + o for x, o in zip(p, offset)] for p, _ in measure.atoms]
    rows = np.empty((len(freq_set), len(columns)), dtype=float)
    for i, f in enumerate(freq_set.freqs):
        exact = [Fraction(v) for v in f]
        for j, col in enumerate(columns):
            value = sum((a * b for a, b in zip(exact, col)), Fraction(0))
            rows[i, j] = float(value - (value.numerator // value.denominator))
    return rows
