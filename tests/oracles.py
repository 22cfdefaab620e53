"""Independent oracles for the test suite.

Eigenvalues: power iteration on the Gram matrix and on its spectral shift
(upper + 1) * I - G locates the extremes; inverse iteration polishes the
smallest eigenvalue when the shifted ratio is too flat. No call into the
production eigendecomposition path.

Phases: one ``Fraction`` dot product per (frequency, atom) pair, the
reference for the integer phase kernel.

Skeletons: the ``Fraction`` set-comprehension enumerations that the
integer-numerator sumset replaced, without atom budgets.

Measure operations: the ``Fraction`` implementations of atom merging,
translation, sums, axis embedding, ball masses, translated overlaps,
Radon-Nikodym splits and the singularity-witness search that the integer
numerator representation replaced. They read a measure's public
``Fraction`` view and return atom tuples, offsets and masses, never a
measure built by the code under test.

Greedy search: one ``eigvalsh`` of G + v v^H per candidate, the loop that
the secular-equation scoring replaced; and the plain secular bisection,
every row through every pass, that the eliminating pick replaced.
"""
from fractions import Fraction

import numpy as np

from cantorframes.frames import _BISECTIONS

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


def oracle_greedy_values(gram: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of gram + v v^H, v = conj(row), for each synthesis row."""
    return np.array([np.linalg.eigvalsh(gram + np.outer(row.conj(), row))[0] for row in rows])


def oracle_secular_smallest(d: np.ndarray, z_sq: np.ndarray) -> np.ndarray:
    """lambda_min(diag(d) + z z^H) for each row of z_sq = |z|^2; d ascending.

    The smallest root of 1 + sum_i |z_i|^2 / (d_i - lambda) = 0 lies in
    (d_0, min(d_1, d_0 + ||z||^2)), where the left side increases from
    -inf; bisection there runs in t = lambda - d_0, on all rows at once.
    A row with z_0 = 0, or with an empty bracket (d_1 = d_0), keeps d_0.
    """
    delta = d - d[0]
    hi = z_sq.sum(axis=1)
    if len(d) > 1:
        hi = np.minimum(hi, delta[1])
    shift = np.zeros_like(hi)
    live = (hi > 0) & (z_sq[:, 0] > 0)
    z_sq, hi = z_sq[live], hi[live]
    lo = np.zeros_like(hi)
    for _ in range(_BISECTIONS):
        t = (lo + hi) / 2
        below = 1 + np.sum(z_sq / (delta - t[:, None]), axis=1) < 0
        lo = np.where(below, t, lo)
        hi = np.where(below, hi, t)
    shift[live] = (lo + hi) / 2
    return d[0] + shift


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


def oracle_split_by_index_set(ds, indices, n: int) -> tuple:
    layers = _oracle_digit_layers(ds, n)

    def enumerate_sums(active) -> tuple:
        pts = {(Fraction(0),) * ds.dim}
        for k in sorted(active):
            pts = {_oracle_add(p, s) for p in pts for s in layers[k - 1]}
        return tuple(sorted(pts))

    mask = set(indices)
    return enumerate_sums(mask), enumerate_sums(set(range(1, n + 1)) - mask)


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
    offset = tuple(x + y for x, y in zip(a.offset, b.offset))
    return AtomicMeasure.from_atoms(a.dim, acc.items(), offset=offset)


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


def oracle_absolute_atoms(measure) -> tuple:
    """Atoms with the float offset folded in as the binary rational it is."""
    offset = tuple(Fraction(x) for x in measure.offset)
    return tuple((_oracle_add(p, offset), w) for p, w in measure.atoms)


def oracle_translate(measure, shift) -> tuple:
    """(atoms, offset): rational components move the atoms, float components the offset."""
    shift = (shift,) if isinstance(shift, (int, float, Fraction)) else tuple(shift)
    skeleton = tuple(Fraction(0) if isinstance(s, float) else Fraction(s) for s in shift)
    offset = tuple(o + (s if isinstance(s, float) else 0.0) for o, s in zip(measure.offset, shift))
    return oracle_merge((_oracle_add(p, skeleton), w) for p, w in measure.atoms), offset


def oracle_add(a, b) -> tuple:
    """(atoms, offset) of a + b for measures with one offset."""
    return oracle_merge(a.atoms + b.atoms), a.offset


def oracle_embed_axis(measure, dim: int, axis: int) -> tuple:
    """(atoms, offset) of a 1D measure placed on coordinate ``axis`` of R^dim."""
    atoms = []
    for p, w in measure.atoms:
        loc = [Fraction(0)] * dim
        loc[axis] = p[0]
        atoms.append((tuple(loc), w))
    offset = [0.0] * dim
    offset[axis] = measure.offset[0]
    return oracle_merge(atoms), tuple(offset)


def oracle_ball_mass(measure, center, radius) -> Fraction:
    c = tuple(Fraction(x) for x in center)
    r_sq = Fraction(radius) ** 2
    return sum(
        (w for p, w in oracle_absolute_atoms(measure) if sum((x - y) ** 2 for x, y in zip(p, c)) <= r_sq),
        Fraction(0),
    )


def oracle_translation_overlap(rho, support_points, shift) -> tuple:
    """Atoms at x with x + shift an atom of rho (offset folded in) inside support + shift."""
    t = tuple(Fraction(x) for x in shift)
    shifted_support = {_oracle_add(tuple(Fraction(x) for x in p), t) for p in support_points}
    return oracle_merge(
        (_oracle_sub(loc, t), w) for loc, w in oracle_absolute_atoms(rho) if loc in shifted_support
    )


def oracle_radon_nikodym(omega, mu) -> tuple:
    """(ac_part, ac_mass, singular_mass, sup_ratio) of omega against mu, offsets folded in."""
    mu_abs = dict(oracle_absolute_atoms(mu))
    ac, ac_mass, singular = [], Fraction(0), Fraction(0)
    for loc, w in oracle_absolute_atoms(omega):
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
