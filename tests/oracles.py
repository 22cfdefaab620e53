"""Independent oracles for the test suite.

Eigenvalues: power iteration on the Gram matrix and on its spectral shift
(upper + 1) * I - G locates the extremes; inverse iteration polishes the
smallest eigenvalue when the shifted ratio is too flat. No call into the
production eigendecomposition path.

Frame reports: the full ``eigh`` of the symmetrized Gram that
``frames._frame_report`` ran before it took eigenvalues alone, with the
worst vector read off the first eigenvector.

Phases: one ``Fraction`` dot product per (frequency, atom) pair, the
reference for the integer phase kernel.

Skeletons: the ``Fraction`` set-comprehension enumerations that the
integer-numerator sumset replaced, without atom budgets.

Measure operations: the ``Fraction`` implementations of atom merging,
translation, sums, axis embedding, ball masses, translated overlaps,
Radon-Nikodym splits and the singularity-witness search that the integer
numerator representation replaced. They read a measure's public
``Fraction`` view and return atom tuples and masses, never a measure
built by the code under test.

Graph frames: the eigenvalues of a bipartite graph's integer Laplacian,
which bound the frame of the rotation experiment's frequency set.

Transforms: the per-point truncated mask product, one ``cmath.exp`` per
digit and factor, that the vectorized grid replaced.

Serialization: the ``atomic-measure/1`` object built from the measure's
``Fraction`` view, which the integer writer replaced.

Windowed sums: the ``Fraction`` phase of every atom in an exact window,
one numpy term row per frequency, and ``math.fsum`` over that row's real
and imaginary numpy scalars, the summation the Python-float lists
replaced. Each sum is correctly rounded, so the values must agree bit for
bit.

Factorization windows: E, F and every sum e + f as sets of ``Fraction``
points, the windows that the integer numerator maps replaced. Their sums
are the windowed-sum oracle's, ``Fraction`` phases and one ``fsum`` per
row, so the report must match ``factorization_check`` bit for bit.

Packing certificates: the digit and cloud certificates on ``Fraction``
difference sets, the path that integer difference sets replaced, with
every difference set a sorted ``Fraction`` set comprehension and the gap
taken over all pairs.

Shear transport: (l1, l2 - (A4^t)^-1 A2^t l1) in ``Fraction`` arithmetic,
with A4^t inverted by cofactors, each coordinate rounded once at the end.

Synthesis rows: sqrt(w) exp(-2 pi i <l, x>) formed in numpy floats from
float locations, weights and frequencies, without the exact phase kernel.

Rotation rows: the float pipeline that the exact phase identity replaced.
Float cos/sin atoms merged in a dict, the spectrum scaled by 1/cos and
sheared by a float ``np.linalg.solve``, and one ``eigvalsh`` per angle
of the Gram of those synthesis rows.

Rotated phases: the per-angle check that the basis certificate replaced.
Every base frequency and every base atom is mapped in ``Fraction``
arithmetic, written out from cos and sin without the library's shear
maps, and both phase matrices are ``Fraction`` phases rounded once.
"""
import cmath
import math
from fractions import Fraction
from itertools import combinations

import numpy as np

from cantorframes.errors import ToleranceUnreachable

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

    atoms = list(measure.atoms)
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


def oracle_eigh_report(phi: np.ndarray, weights: np.ndarray) -> tuple:
    """(FrameReport, smallest eigenvalue) from one ``eigh`` of the symmetrized Gram of ``phi``."""
    import math

    from cantorframes import FrameReport

    freq_count, m = phi.shape
    gram = phi.conj().T @ phi
    gram = (gram + gram.conj().T) / 2.0
    values, vectors = np.linalg.eigh(gram)
    upper = max(float(values[-1]), 0.0)
    tol = max(m, freq_count) * np.finfo(float).eps * max(upper, 1.0)
    rank = int(np.count_nonzero(values > tol))
    lower = max(float(values[0]), 0.0) if rank == m else 0.0
    ratio = upper / lower if lower > 0 else math.inf
    worst = tuple(np.conj(vectors[:, 0]) / np.sqrt(weights))
    return FrameReport(lower, upper, ratio, rank, worst, m, freq_count, float(tol)), float(values[0])


def oracle_laplacian_bounds(edges, n: int) -> tuple:
    """(second-smallest, largest) eigenvalue of the integer Laplacian D - A of the bipartite graph on range(n) + range(n).

    Edge (i, j) joins vertex i of the first copy to vertex n + j of the second.
    """
    laplacian = np.zeros((2 * n, 2 * n), dtype=np.int64)
    for i, j in edges:
        laplacian[[i, n + j], [n + j, i]] -= 1
        laplacian[[i, n + j], [i, n + j]] += 1
    values = np.linalg.eigvalsh(laplacian.astype(float))
    return float(values[1]), float(values[-1])


def oracle_phase_matrix(measure, freq_set) -> np.ndarray:
    """Phases <freq, atom> mod 1, each an exact Fraction rounded once to float."""
    return _oracle_phases(freq_set.freqs, measure.locations)


def _oracle_phases(freqs, atoms) -> np.ndarray:
    """Phases <freq, atom> mod 1 of exact rows, each a Fraction rounded once to float."""
    rows = np.empty((len(freqs), len(atoms)), dtype=float)
    for i, f in enumerate(freqs):
        exact = [Fraction(v) for v in f]
        for j, col in enumerate(atoms):
            value = sum((a * b for a, b in zip(exact, col)), Fraction(0))
            rows[i, j] = float(value - (value.numerator // value.denominator))
    return rows


def _oracle_digit_layers(ds, level: int) -> list:
    """R^-k B for k = 1..level, as lists of exact Fraction vectors."""
    rinv = ds.inverse_matrix()
    layers = []
    current = [tuple(Fraction(x) for x in b) for b in ds.digits]
    for _ in range(level):
        current = [tuple(sum(row[j] * v[j] for j in range(len(v))) for row in rinv) for v in current]
        layers.append(current)
    return layers


def _oracle_add(p, s) -> tuple:
    return tuple(a + b for a, b in zip(p, s))


def oracle_level_measure(ds, n: int):
    from cantorframes import AtomicMeasure

    share = Fraction(1, ds.branch)
    acc = {(Fraction(0),) * ds.dim: Fraction(1)}
    for layer in _oracle_digit_layers(ds, n):
        nxt: dict = {}
        for p, w in acc.items():
            for s in layer:
                q = _oracle_add(p, s)
                nxt[q] = nxt.get(q, Fraction(0)) + w * share
        acc = nxt
    return AtomicMeasure.from_atoms(ds.dim, acc.items())


def oracle_cylinder_points(ds, n: int, word) -> tuple:
    """Level-n points whose leading digit indices equal ``word``."""
    layers = _oracle_digit_layers(ds, n)
    base = (Fraction(0),) * ds.dim
    for k, idx in enumerate(word):
        base = _oracle_add(base, layers[k][idx])
    pts = {base}
    for layer in layers[len(word):]:
        pts = {_oracle_add(p, s) for p in pts for s in layer}
    return tuple(sorted(pts))


def oracle_jp_spectrum(ds, L, n: int) -> tuple:
    """Sorted sums l_0 + R^t l_1 + ... + (R^t)^(n-1) l_(n-1), as float tuples."""
    d = ds.dim
    rt = [[ds.matrix[j][i] for j in range(d)] for i in range(d)]
    layer = [(l,) if isinstance(l, int) else tuple(l) for l in L]
    current = {(0,) * d}
    for _ in range(n):
        current = {_oracle_add(p, v) for p in current for v in layer}
        layer = [tuple(sum(rt[i][k] * v[k] for k in range(d)) for i in range(d)) for v in layer]
    return tuple(tuple(float(x) for x in f) for f in sorted(current))


def oracle_convolve(a, b):
    from cantorframes import AtomicMeasure

    acc: dict = {}
    for p, wp in a.atoms:
        for q, wq in b.atoms:
            s = _oracle_add(p, q)
            acc[s] = acc.get(s, Fraction(0)) + wp * wq
    return AtomicMeasure.from_atoms(a.dim, acc.items())


def oracle_difference_set(ps, qs) -> tuple:
    return tuple(sorted({tuple(a - b for a, b in zip(p, q)) for p in ps for q in qs}))


def oracle_ssc_gap(ds, d: int):
    """Cross-cylinder collision or squared gap of the level-(d+1) first-digit cylinders.

    Returns ("collision", point set) with every colliding point, or
    ("gap", smallest squared distance between points of distinct cylinders).
    """
    layers = _oracle_digit_layers(ds, d + 1)
    clouds = []
    for i in range(ds.branch):
        pts = {layers[0][i]}
        for layer in layers[1:]:
            pts = {_oracle_add(p, s) for p in pts for s in layer}
        clouds.append(pts)
    pairs = [(i, j) for i in range(ds.branch) for j in range(i + 1, ds.branch)]
    collisions = {p for i, j in pairs for p in clouds[i] & clouds[j]}
    if collisions:
        return "collision", collisions
    gaps = [
        sum(((a - b) ** 2 for a, b in zip(p, q)), Fraction(0))
        for i, j in pairs
        for p in clouds[i]
        for q in clouds[j]
    ]
    return "gap", min(gaps, default=None)


def _oracle_sub(p, s) -> tuple:
    return tuple(a - b for a, b in zip(p, s))


def oracle_merge(pairs) -> tuple:
    """Sorted (point, weight) atoms with coinciding points merged and zero weights dropped."""
    merged: dict = {}
    for loc, weight in pairs:
        pt, w = tuple(Fraction(x) for x in loc), Fraction(weight)
        if w < 0:
            raise ValueError("negative atom weight")
        merged[pt] = merged.get(pt, Fraction(0)) + w
    return tuple(sorted((p, w) for p, w in merged.items() if w != 0))


def oracle_translate(measure, shift) -> tuple:
    """Atoms moved by ``shift``, each component (a float too) taken as the exact rational it is."""
    shift = (shift,) if isinstance(shift, (int, float, Fraction)) else tuple(shift)
    return oracle_merge((_oracle_add(p, tuple(Fraction(s) for s in shift)), w) for p, w in measure.atoms)


def oracle_add(a, b) -> tuple:
    """Atoms of a + b."""
    return oracle_merge(a.atoms + b.atoms)


def oracle_embed_axis(measure, dim: int, axis: int) -> tuple:
    """Atoms of a 1D measure placed on coordinate ``axis`` of R^dim."""
    atoms = []
    for p, w in measure.atoms:
        loc = [Fraction(0)] * dim
        loc[axis] = p[0]
        atoms.append((tuple(loc), w))
    return oracle_merge(atoms)


def oracle_ball_mass(measure, center, radius) -> Fraction:
    c = tuple(Fraction(x) for x in center)
    r_sq = Fraction(radius) ** 2
    return sum(
        (w for p, w in measure.atoms if sum((x - y) ** 2 for x, y in zip(p, c)) <= r_sq),
        Fraction(0),
    )


def oracle_translation_overlap(rho, support_points, shift) -> tuple:
    """Atoms at x with x + shift an atom of rho inside support + shift."""
    t = tuple(Fraction(x) for x in shift)
    shifted_support = {_oracle_add(tuple(Fraction(x) for x in p), t) for p in support_points}
    return oracle_merge(
        (_oracle_sub(loc, t), w) for loc, w in rho.atoms if loc in shifted_support
    )


def oracle_radon_nikodym(omega, mu) -> tuple:
    """(ac_part, ac_mass, singular_mass, sup_ratio) of omega against mu."""
    mu_abs = dict(mu.atoms)
    ac, ac_mass, singular = [], Fraction(0), Fraction(0)
    for loc, w in omega.atoms:
        if loc in mu_abs:
            ac.append((loc, w / mu_abs[loc]))
            ac_mass += w
        else:
            singular += w
    sup = float("inf") if singular > 0 else max((r for _, r in ac), default=Fraction(0))
    return tuple(ac), ac_mass, singular, sup


def oracle_singularity_witness(nu, lam, shift) -> tuple:
    """The witness search over level measures nu and lam with a rational shift.

    Returns ("witness", shift_point, witness_points, rho_mass, overlap_mass,
    overlap_mass_total) for the first atom x of lam, in order, whose nu + x
    misses nu + shift, or ("none", largest overlap mass) when every one
    meets it. rho = nu * lam + delta_shift * nu, E its convolution support.
    """
    t = tuple(Fraction(x) for x in shift)
    mu: dict = {}
    for p, wp in nu.atoms:
        for q, wq in lam.atoms:
            s = _oracle_add(p, q)
            mu[s] = mu.get(s, Fraction(0)) + wp * wq
    shifted = {_oracle_add(p, t): w for p, w in nu.atoms}
    rho = dict(mu)
    for p, w in shifted.items():
        rho[p] = rho.get(p, Fraction(0)) + w
    max_overlap = Fraction(0)
    for x in lam.locations:
        translated = {_oracle_add(p, x): w for p, w in nu.atoms}
        collisions = translated.keys() & shifted.keys()
        if collisions:
            max_overlap = max(max_overlap, sum((translated[p] for p in collisions), Fraction(0)))
            continue
        back = _oracle_sub(t, x)
        # The overlaps moved back by t - x onto E, summed over the witness set.
        omega_total = {_oracle_sub(p, back): w for p, w in rho.items() if _oracle_sub(p, back) in mu}
        omega_nu = {_oracle_sub(p, back): w for p, w in shifted.items() if _oracle_sub(p, back) in mu}
        return (
            "witness",
            x,
            tuple(sorted(translated)),
            sum((rho.get(p, Fraction(0)) for p in translated), Fraction(0)),
            sum((w for p, w in omega_nu.items() if p in translated), Fraction(0)),
            sum((w for p, w in omega_total.items() if p in translated), Fraction(0)),
        )
    return "none", max_overlap


def oracle_mu_hat(ds, xi, tol: float) -> tuple:
    """(value, tail_bound, factors) of the truncated mask product at one point."""
    if tol <= 0 or tol < 1e-15:
        raise ToleranceUnreachable("tolerance below float resolution")
    inv = float(ds.inverse_norm_bound())
    if inv >= 1.0:
        raise ToleranceUnreachable("inverse norm bound >= 1; geometric tail does not converge")
    xi = np.asarray((float(xi),) if isinstance(xi, (int, float)) else xi, dtype=float).reshape(-1)
    if xi.shape[0] != ds.dim:
        raise ValueError(f"frequency has dimension {xi.shape[0]}, expected {ds.dim}")
    if not np.isfinite(xi).all():
        raise ValueError(f"frequency {tuple(xi.tolist())} is not finite")
    max_b = float(ds.max_digit_norm_bound())
    prefactor = 2.0 * math.pi * max_b * float(np.linalg.norm(xi)) / (1.0 - inv)
    n_factors = 0
    bound = prefactor * inv
    while bound >= tol:
        n_factors += 1
        bound *= inv
        if n_factors > 10_000:
            raise ToleranceUnreachable("tolerance requires too many factors")
    rinv_t = np.array([[float(x) for x in row] for row in ds.inverse_matrix()], dtype=float).T
    value = 1.0 + 0j
    eta = xi.copy()
    for _ in range(n_factors):
        eta = rinv_t @ eta
        total = 0j
        for b in ds.digits:
            t = float(np.dot(eta, b))
            total += cmath.exp(-2j * math.pi * (t - round(t)))
        value *= total / len(ds.digits)
    return value, bound, n_factors


def _oracle_fraction_str(value) -> str:
    value = Fraction(value)
    return str(value.numerator) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"


def oracle_measure_jsonable(measure) -> dict:
    """The ``atomic-measure/1`` object, every string formatted from the Fraction view."""
    return {
        "schema": "atomic-measure/1",
        "dim": measure.dim,
        "offset": [0.0] * measure.dim,
        "atoms": [
            {"location": [_oracle_fraction_str(x) for x in p], "weight": _oracle_fraction_str(w)}
            for p, w in measure.atoms
        ],
        "total": _oracle_fraction_str(measure.total),
    }


def oracle_windowed_sums(measure, window, xis) -> list:
    """sum over window atoms of w_x exp(-2*pi*i <xi, x>) per xi: ``Fraction`` phases, ``fsum`` per numpy row."""
    wanted = {tuple(Fraction(x) for x in p) for p in window}
    atoms = [(p, w) for p, w in measure.atoms if p in wanted]
    phases = np.empty((len(xis), len(atoms)))
    for i, xi in enumerate(xis):
        for j, (p, _) in enumerate(atoms):
            value = sum((Fraction(float(a)) * b for a, b in zip(np.ravel(xi), p)), Fraction(0))
            phases[i, j] = float(value - (value.numerator // value.denominator))
    terms = np.asarray([float(w) for _, w in atoms]) * np.exp(-2j * np.pi * phases)
    return [complex(math.fsum(row.real), math.fsum(row.imag)) for row in terms]


def oracle_factorization(nu, lam, window_e, window_f, xi_grid) -> tuple:
    """(max_deviation, argmax_xi, grid_size) of the factorization check, windows as ``Fraction`` sets."""
    from cantorframes import convolve

    e_pts = {tuple(Fraction(x) for x in p) for p in window_e}
    f_pts = {tuple(Fraction(x) for x in p) for p in window_f}
    sum_pts = {tuple(a + b for a, b in zip(p, q)) for p in e_pts for q in f_pts}
    xis = [np.asarray(xi, dtype=float).reshape(-1) for xi in xi_grid]
    lhs = oracle_windowed_sums(convolve(nu, lam), sum_pts, xis)
    rhs = [a * b for a, b in zip(oracle_windowed_sums(nu, e_pts, xis), oracle_windowed_sums(lam, f_pts, xis))]
    deviations = [abs(a - b) for a, b in zip(lhs, rhs)]
    worst = max(range(len(xis)), key=deviations.__getitem__)
    return deviations[worst], tuple(xis[worst].tolist()), len(xis)


def oracle_min_gap_sq(clouds):
    """Smallest nonzero squared distance between integer points of different clouds, by all pairs."""
    pairs = [(x, y) for i, j in combinations(range(len(clouds)), 2) for x in clouds[i] for y in clouds[j]]
    return min((d for d in (sum((a - b) ** 2 for a, b in zip(x, y)) for x, y in pairs) if d), default=None)


def oracle_shear_transport(freq_set, t) -> tuple:
    """Transported frequencies, each coordinate a ``Fraction`` rounded once; A4 is 1x1 or 2x2."""
    m = t.m
    a2 = [[Fraction(x) for x in row] for row in t.a2]
    a4t = [[Fraction(x) for x in column] for column in zip(*t.a4)]
    if len(a4t) == 1:
        inverse = [[1 / a4t[0][0]]]
    else:
        (a, b), (c, d) = a4t
        det = a * d - b * c
        inverse = [[d / det, -b / det], [-c / det, a / det]]
    out = []
    for f in freq_set.freqs:
        l1 = [Fraction(x) for x in f[:m]]
        a2t_l1 = [sum(a2[j][k] * l1[j] for j in range(m)) for k in range(len(a4t))]
        l2 = [Fraction(y) - sum(r * x for r, x in zip(row, a2t_l1)) for y, row in zip(f[m:], inverse)]
        out.append(tuple(float(x) for x in l1 + l2))
    return tuple(out)


def oracle_synthesis(locations, weights, freqs) -> np.ndarray:
    """sqrt(w) exp(-2 pi i <l, x>) in floats: one row per frequency l, one column per atom x."""
    locations, freqs = np.asarray(locations, dtype=float), np.asarray(freqs, dtype=float)
    return np.sqrt(np.asarray(weights, dtype=float)) * np.exp(-2j * np.pi * (freqs @ locations.T))


def oracle_rotation_bounds(level: int, base_freqs, theta_degrees: float) -> tuple:
    """(lower, upper) of the rotated planar sum, all in floats, with a fresh eigensolve.

    lower reads 0 when the smallest eigenvalue is within the resolution
    max(M, F) * eps * max(upper, 1), as in a frame report.
    """
    from cantorframes import BlockedLinearMap, DigitSystem, level_measure

    theta = math.radians(theta_degrees)
    c, s = math.cos(theta), math.sin(theta)
    mu = level_measure(DigitSystem.one_dimensional(4, [0, 1]), level)
    nu = level_measure(DigitSystem.one_dimensional(16, [0, 1]), level)
    points: dict = {}
    for (x,), w in mu.atoms:
        points[(float(x), 0.0)] = points.get((float(x), 0.0), 0.0) + float(w)
    for (y,), w in nu.atoms:
        key = (-s * float(y), c * float(y))
        points[key] = points.get(key, 0.0) + float(w)
    items = sorted(points.items())
    t_map = BlockedLinearMap.rotation_2d(theta)
    correction = np.linalg.solve(np.asarray(t_map.a4).T, np.asarray(t_map.a2).T)
    freqs = []
    for f in base_freqs.freqs:
        l1, l2 = np.asarray(f[:1], dtype=float), np.asarray([f[1] / c])
        freqs.append(tuple(l1) + tuple(l2 - correction @ l1))
    phi = oracle_synthesis([k for k, _ in items], [v for _, v in items], freqs)
    values = np.linalg.eigvalsh(phi.conj().T @ phi)
    upper = max(float(values[-1]), 0.0)
    tol = max(phi.shape) * np.finfo(float).eps * max(upper, 1.0)
    return (float(values[0]) if values[0] > tol else 0.0), upper


def oracle_rotated_phases(level: int, base_freqs, theta_degrees: float) -> tuple:
    """(rotated, base) phase matrices of the planar sum at one non-right angle, in ``Fraction`` arithmetic.

    With c and s the floats cos(theta) and sin(theta) read as the binary
    rationals they are, the atoms (x, y) shear to (x - s y, c y) and the
    frequencies (f1, f2) go to (f1, f2 / c + s f1 / c).
    """
    from cantorframes import DigitSystem, add, embed_axis, level_measure

    mu = level_measure(DigitSystem.one_dimensional(4, [0, 1]), level)
    nu = level_measure(DigitSystem.one_dimensional(16, [0, 1]), level)
    atoms = add(embed_axis(mu, 2, 0), embed_axis(nu, 2, 1)).locations
    theta = math.radians(theta_degrees)
    c, s = Fraction(math.cos(theta)), Fraction(math.sin(theta))
    freqs = [tuple(map(Fraction, f)) for f in base_freqs.freqs]
    sheared = [(x - s * y, c * y) for x, y in atoms]
    transported = [(f1, f2 / c + s * f1 / c) for f1, f2 in freqs]
    return _oracle_phases(transported, sheared), _oracle_phases(freqs, atoms)


def _oracle_points(points) -> list:
    return [tuple(Fraction(x) for x in p) for p in points]


def oracle_packing_certificate_from_digits(R, B, C):
    """The digit certificate with its difference sets as ``Fraction`` sets."""
    from cantorframes.measures import DigitSystem, _sqrt_upper_bound
    from cantorframes.packing import PackingCertificate

    ds_b, ds_c = DigitSystem(R, B), DigitSystem(R, C)
    inputs = {"matrix": ds_b.matrix, "digits_b": ds_b.digits, "digits_c": ds_c.digits}
    bb = oracle_difference_set(*[_oracle_points(ds_b.digits)] * 2)
    cc = oracle_difference_set(*[_oracle_points(ds_c.digits)] * 2)
    witnesses = [v for v in sorted(set(bb) & set(cc)) if any(v)]
    if witnesses:
        evidence = {"witness": witnesses[0]}
        return PackingCertificate("certified-not-packing", "difference-intersection", evidence, inputs)
    d_sq = max(sum((x * x for x in v), Fraction(0)) for v in oracle_difference_set(bb, cc))
    d_ub = _sqrt_upper_bound(d_sq)
    inv = ds_b.inverse_norm_bound()
    contraction = d_ub * inv
    bound = contraction / (1 - contraction) if contraction < 1 else None
    evidence = {
        "difference_intersection": "trivial", "D": d_ub, "D_squared": d_sq, "inverse_norm": inv, "bound": bound
    }
    status = "certified-packing" if bound is not None and bound < 1 else "inconclusive"
    return PackingCertificate(status, "digit-criterion", evidence, inputs)


def oracle_packing_certificate_from_clouds(cloud1, cloud2):
    """The cloud certificate with both difference sets as ``Fraction`` sets and the gap over all pairs."""
    from cantorframes.packing import PackingCertificate

    d1 = oracle_difference_set(*[_oracle_points(cloud1.points)] * 2)
    d2 = oracle_difference_set(*[_oracle_points(cloud2.points)] * 2)
    inputs = {
        "points_1": cloud1.points, "tail_1": cloud1.tail_radius, "points_2": cloud2.points, "tail_2": cloud2.tail_radius
    }
    common = [v for v in set(d1) & set(d2) if any(v)]
    if common:
        return PackingCertificate("certified-not-packing", "difference-intersection", {"witness": min(common)}, inputs)
    if cloud1.tail_radius is None or cloud2.tail_radius is None:
        evidence = {"reason": "no certified tail radius"}
        return PackingCertificate("inconclusive", "finite-level-separation", evidence, inputs)
    threshold = 2 * (cloud1.tail_radius + cloud2.tail_radius)
    threshold_sq = threshold * threshold
    gaps = (sum(((a - b) ** 2 for a, b in zip(u, v)), Fraction(0)) for u in d1 for v in d2)
    gap_sq = min((g for g in gaps if g), default=None)
    evidence = {
        "gap_squared": gap_sq, "threshold": threshold, "threshold_squared": threshold_sq, "resolution": threshold
    }
    status = "certified-packing" if gap_sq is not None and gap_sq > threshold_sq else "inconclusive"
    return PackingCertificate(status, "finite-level-separation", evidence, inputs)
