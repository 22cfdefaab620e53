"""Greedy frame search: rank-building picks, secular scoring and determinism.

The secular values are checked against ``oracles.oracle_greedy_values``
(one ``eigvalsh`` per candidate) on random Grams, a repeated smallest
eigenvalue, candidates orthogonal to the bottom eigenvector, and the
Gram that the rotation experiment's search reaches at full rank. The
eliminating pick is checked against the first best of
``oracles.oracle_secular_smallest`` (every row through every pass).
"""
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from cantorframes import (
    DigitSystem,
    FrequencySet,
    PoolExhausted,
    frame_bounds,
    greedy_frame_search,
    jp_spectrum,
    level_measure,
)
from cantorframes import frames
from cantorframes.frames import _TIE_RTOL, _first_best, _rank_building_picks, _secular_pick
from instances import rotation_greedy_instance
from oracles import oracle_greedy_values, oracle_secular_smallest, oracle_synthesis

FOUR = DigitSystem.one_dimensional(4, [0, 1])
ROOT = Path(__file__).resolve().parent.parent


def _complex_normal(rng, rows: int, cols: int) -> np.ndarray:
    return rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))


def _hermitian(rng, eigenvalues) -> tuple:
    unitary, _ = np.linalg.qr(_complex_normal(rng, len(eigenvalues), len(eigenvalues)))
    gram = (unitary * np.asarray(eigenvalues)) @ unitary.conj().T
    return (gram + gram.conj().T) / 2, unitary


def _assert_matches_oracle(gram: np.ndarray, rows: np.ndarray) -> None:
    d, u = np.linalg.eigh(gram)
    values = oracle_secular_smallest(d, np.abs(rows @ u) ** 2)
    expected = oracle_greedy_values(gram, rows)
    assert np.max(np.abs(values - expected)) <= 1e-10 * max(d[-1], 1.0)


def _rotation_rows(level: int) -> tuple:
    base, pool, target = rotation_greedy_instance(level)
    rows = oracle_synthesis(base.locations, base.weights, pool.freqs)
    return base, pool, target, rows


class TestSecularAgainstOracle:
    def test_random_positive_definite(self):
        rng = np.random.default_rng(3)
        a = _complex_normal(rng, 12, 12)
        _assert_matches_oracle(a.conj().T @ a + 0.1 * np.eye(12), _complex_normal(rng, 40, 12))

    def test_repeated_smallest_eigenvalue(self):
        rng = np.random.default_rng(5)
        gram, _ = _hermitian(rng, [0.5, 0.5, 0.5, 1, 2, 3, 4, 5, 6, 7])
        _assert_matches_oracle(gram, _complex_normal(rng, 30, 10))

    def test_candidates_orthogonal_to_bottom_eigenvector(self):
        rng = np.random.default_rng(7)
        d = np.linspace(0.25, 4.0, 8)
        rows = _complex_normal(rng, 20, 8)
        rows[:, 0] = 0
        assert np.array_equal(oracle_secular_smallest(d, np.abs(rows) ** 2), np.full(20, d[0]))
        _assert_matches_oracle(np.diag(d).astype(complex), rows)
        # In a rotated basis z_0 vanishes only up to rounding.
        gram, unitary = _hermitian(rng, d)
        _assert_matches_oracle(gram, rows @ unitary.conj().T)

    def test_rotation_gram_after_rank_building(self):
        base, _, target, rows = _rotation_rows(3)
        norms_sq = np.sum(np.abs(rows) ** 2, axis=1)
        selected = _rank_building_picks(rows, norms_sq, target, float(norms_sq.max()))
        assert len(selected) == len(base)
        gram = sum(np.outer(rows[i].conj(), rows[i]) for i in selected)
        assert np.linalg.eigvalsh(gram)[0] > 0
        _assert_matches_oracle(gram, np.delete(rows, selected, axis=0))

    def test_picks_maximize_the_oracle_value(self):
        base, pool, target, rows = _rotation_rows(3)
        picks = list(greedy_frame_search(base, pool, target).selected_indices)
        scale = float(np.max(np.sum(np.abs(rows) ** 2, axis=1)))
        for step in range(len(base), target):
            gram = sum(np.outer(rows[i].conj(), rows[i]) for i in picks[:step])
            values = oracle_greedy_values(gram, rows)
            values[picks[:step]] = -np.inf
            assert values[picks[step]] >= values.max() - 1e-10 * scale


def _oracle_pick(d: np.ndarray, z_sq: np.ndarray, scale: float) -> int:
    return _first_best(oracle_secular_smallest(d, z_sq), scale)


def _row_with_root(d: np.ndarray, tail: np.ndarray, root: float) -> np.ndarray:
    """|z|^2 with |z_i|^2 = tail[i - 1] for i >= 1 whose secular root is lambda = d_0 + root."""
    delta = d - d[0]
    return np.concatenate([[root * (1 + np.sum(tail / (delta[1:] - root)))], tail])


def _tie_and_margin(d: np.ndarray, z_sq: np.ndarray) -> tuple:
    """The tie tolerance and the drop margin of ``_secular_pick`` (tolerance plus rounding allowance)."""
    scale = float(z_sq.sum(axis=1).max())
    widest = min(d[1] - d[0], scale)
    tie = _TIE_RTOL * scale
    return tie, tie + 4 * (len(d) + 10) * np.finfo(float).eps * (abs(d[0]) + widest)


class TestSecularPick:
    SPECTRUM = np.linspace(0.25, 4.0, 8)

    def _z_sq(self, seed: int, count: int) -> np.ndarray:
        return np.abs(_complex_normal(np.random.default_rng(seed), count, len(self.SPECTRUM))) ** 2

    def _pick(self, d: np.ndarray, z_sq: np.ndarray) -> int:
        """The oracle pick, after checking that ``_secular_pick`` agrees."""
        scale = float(z_sq.sum(axis=1).max())
        expected = _oracle_pick(d, z_sq, scale)
        assert _secular_pick(d, z_sq, scale) == expected
        return expected

    @pytest.mark.parametrize("level", [3, 4, 5])
    def test_every_rotation_step_matches_oracle_pick(self, monkeypatch, level):
        picks = []

        def checked(d, z_sq, scale):
            picks.append((_secular_pick(d, z_sq, scale), _oracle_pick(d, z_sq, scale)))
            return picks[-1][0]

        monkeypatch.setattr(frames, "_secular_pick", checked)
        base, pool, target = rotation_greedy_instance(level)
        greedy_frame_search(base, pool, target)
        assert len(picks) == target - len(base)
        assert all(got == want for got, want in picks)

    def test_all_rows_dead(self):
        # The spectrum of the triple-eigenvalue Gram: d_1 = d_0 leaves every bracket empty.
        d = np.array([0.5, 0.5, 0.5, 1, 2, 3, 4, 5, 6, 7])
        z_sq = np.abs(_complex_normal(np.random.default_rng(5), 30, 10)) ** 2
        assert self._pick(d, z_sq) == 0

    def test_dead_and_live_rows_mixed(self):
        z_sq = self._z_sq(11, 12)
        z_sq[[0, 2, 5], 0] = 0
        assert self._pick(self.SPECTRUM, z_sq) not in (0, 2, 5)

    def test_dead_row_ties_every_live_row(self):
        # Tiny z_0 keeps every live score within the tie tolerance of d_0, so dead row 0 wins.
        z_sq = self._z_sq(13, 6)
        z_sq[0, 0] = 0
        z_sq[1:, 0] = 1e-30
        values = oracle_secular_smallest(self.SPECTRUM, z_sq)
        assert values[0] == self.SPECTRUM[0] < values[1:].min()
        assert self._pick(self.SPECTRUM, z_sq) == 0

    def test_duplicated_rows_tie_and_lowest_index_wins(self):
        z_sq = self._z_sq(17, 10)
        best = self._pick(self.SPECTRUM, z_sq)
        assert self._pick(self.SPECTRUM, np.vstack([z_sq, z_sq])) == best
        assert self._pick(self.SPECTRUM, np.vstack([z_sq[best], z_sq, z_sq[best]])) == 0
        others = np.delete(z_sq, best, axis=0)
        assert self._pick(self.SPECTRUM, np.vstack([others[:5], z_sq[best], others[5:], z_sq[best]])) == 5

    def test_perturbed_tie_lowest_index_wins(self):
        # Row 0 scores just below row 1, inside the tie tolerance but far outside the final bracket.
        z_sq = self._z_sq(19, 10)
        best = z_sq[self._pick(self.SPECTRUM, z_sq)]
        z_sq = np.vstack([best * (1 - 1e-10), best, z_sq])
        scale = float(z_sq.sum(axis=1).max())
        values = oracle_secular_smallest(self.SPECTRUM, z_sq)
        assert 1e-3 * _TIE_RTOL * scale < values[1] - values[0] < _TIE_RTOL * scale
        assert self._pick(self.SPECTRUM, z_sq) == 0

    def test_one_open_candidate(self):
        assert self._pick(self.SPECTRUM, self._z_sq(23, 1)) == 0

    def test_two_candidates_later_one_wins(self):
        assert self._pick(self.SPECTRUM, self._z_sq(29, 2)[::-1]) == 1

    def test_one_atom(self):
        # M = 1: no delta_1 caps the brackets, and each root is |z_0|^2.
        z_sq = self._z_sq(61, 9)[:, :1]
        assert self._pick(np.array([0.7]), z_sq) == int(np.argmax(z_sq[:, 0]))

    @pytest.mark.parametrize("allowance, winner", [(1.5, 1), (0.5, 1), (-0.5, 0)], ids=["over", "under", "tie"])
    def test_roots_just_over_and_under_the_margin(self, allowance, winner):
        # Row 1's root lies above row 0's by the tie tolerance plus ``allowance`` times the margin's
        # rounding allowance: past the margin, inside it but past the tie tolerance, or a tie.
        # A large d_0 widens that allowance far past the error of the bisected roots.
        d = self.SPECTRUM + 100
        tails = self._z_sq(31, 6)[:, 1:]
        top = _row_with_root(d, tails[0], 0.3)
        fillers = [_row_with_root(d, tail, root) for tail, root in zip(tails[1:], [0.05, 0.1, 0.15, 0.2, 0.25])]
        # Row 0 shares row 1's tail and has the smaller root, so the smaller norm: the scale is known before it.
        tie, margin = _tie_and_margin(d, np.vstack([top, *fillers]))
        gap = tie + allowance * (margin - tie)
        z_sq = np.vstack([_row_with_root(d, tails[0], 0.3 - gap), top, *fillers])
        values = oracle_secular_smallest(d, z_sq)
        assert abs(values[1] - values[0] - gap) < 0.1 * (margin - tie)
        assert self._pick(d, z_sq) == winner

    def test_dead_rows_among_live_rows_tied_at_d0(self):
        z_sq = self._z_sq(37, 8)
        z_sq[[2, 5], 0] = 0
        z_sq[[0, 1, 3, 4, 6, 7], 0] = 1e-30
        assert self._pick(self.SPECTRUM, z_sq) == 0
        # Lifted clear of d_0, row 6 wins alone.
        z_sq[6, 0] = 1.0
        assert self._pick(self.SPECTRUM, z_sq) == 6

    def test_every_row_orthogonal_to_the_bottom_eigenvector(self):
        z_sq = self._z_sq(41, 5)
        z_sq[:, 0] = 0
        assert self._pick(self.SPECTRUM, z_sq) == 0

    @pytest.mark.parametrize("z0, winner", [(1.0, 3), (1e-30, 0)], ids=["clear", "tied-at-d0"])
    def test_single_live_row_among_dead_rows(self, z0, winner):
        z_sq = self._z_sq(43, 5)
        z_sq[:, 0] = 0
        z_sq[3, 0] = z0
        assert self._pick(self.SPECTRUM, z_sq) == winner

    def test_best_roots_at_the_first_gap(self):
        # With z_1 = 0 and a heavy z_0, f stays negative up to delta_1: lambda_min(G + v v^H) = d_1.
        z_sq = self._z_sq(47, 8)
        z_sq[[3, 6], 1] = 0
        z_sq[[3, 6], 0] = 10.0
        values = oracle_secular_smallest(self.SPECTRUM, z_sq)
        assert values[3] == values[6] == pytest.approx(self.SPECTRUM[1], abs=1e-14)
        assert values[[0, 1, 2, 4, 5, 7]].max() < values[3] - 1e-3
        assert self._pick(self.SPECTRUM, z_sq) == 3

    def test_best_root_on_a_threshold(self):
        # Every norm exceeds delta_1, so the shared bracket starts as (0, delta_1), and the first pass's
        # middle threshold is delta_1 / 2. Rows 1 and 3 have their roots there, where f is 0 up to rounding.
        delta = self.SPECTRUM - self.SPECTRUM[0]
        t = delta[1] / 2
        tails = self._z_sq(53, 6)[:, 1:] + 1
        roots = [0.1, t, 0.2, t * (1 - 1e-13), 0.05, 0.15]
        z_sq = np.array([_row_with_root(self.SPECTRUM, tail, root) for tail, root in zip(tails, roots)])
        assert z_sq.sum(axis=1).min() > delta[1]
        terms = z_sq[1] / (delta - t)
        assert abs(1 + np.sum(terms)) <= (len(delta) + 4) * np.finfo(float).eps * np.sum(np.abs(terms))
        assert self._pick(self.SPECTRUM, z_sq) == 1


class TestEigenCalls:
    @pytest.mark.parametrize("target", [8, 20])
    def test_one_eigh_per_step_after_full_rank(self, monkeypatch, target):
        calls = []
        for name in ("eigh", "eigvalsh"):
            original = getattr(np.linalg, name)

            def counted(*args, _name=name, _fn=original, **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        m = level_measure(FOUR, 3)
        selection = greedy_frame_search(m, FrequencySet.from_scalars(range(64)), target)
        assert selection.report.rank == len(m) == 8
        # One eigh per step past rank 8, then one eigvalsh for the report. The 8 picks
        # {0, 2, 8, 10, 32, 34, 40, 42} are the level-3 jp set, whose report is read off its exact diagonal.
        exact = selection.frequencies == jp_spectrum(FOUR, [0, 2], 3)
        assert exact == (target == 8)
        assert calls == ["eigh"] * (target - 8) + ([] if exact else ["eigvalsh"])


class TestRankDeficientPools:
    def test_stalled_pool_raises_without_runtime_warning(self):
        m = level_measure(FOUR, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PoolExhausted):
                greedy_frame_search(m, FrequencySet.from_scalars([0, 16, 32, 48, 64]), 5)

    def test_stalled_picks_take_lowest_unchosen_indices(self):
        # 0, 16 and 32 give one row; 1 adds a second direction, then the pool stalls.
        m = level_measure(FOUR, 2)
        pool = FrequencySet.from_scalars([0, 16, 32, 1, 48])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            selection = greedy_frame_search(m, pool, 3)
        assert [w.category for w in caught] == [UserWarning]
        assert selection.selected_indices == (0, 3, 1)

    def test_first_pick_of_equal_norm_pool_is_lowest_index(self):
        m = level_measure(FOUR, 3)
        pool = FrequencySet.from_scalars([7, 3, 12, 5, 0, 9, 14, 1, 10, 6])
        assert greedy_frame_search(m, pool, 8).selected_indices[0] == 0


@pytest.mark.parametrize(
    "target, error", [(-1, ValueError), (0, ValueError), (6, PoolExhausted)], ids=["negative", "zero", "past-pool"]
)
def test_target_refused_before_any_phase(monkeypatch, target, error):
    # All used to form every pool row first; a negative or zero target then failed with EmptyFrequencySet.
    def no_phases(*args, **kwargs):
        raise AssertionError("phases computed before the target check")

    monkeypatch.setattr(frames, "_exact_phase_matrix", no_phases)
    with pytest.raises(error):
        greedy_frame_search(level_measure(FOUR, 2), FrequencySet.from_scalars(range(5)), target)


@pytest.mark.parametrize(
    "instance",
    [
        lambda: rotation_greedy_instance(3),
        lambda: rotation_greedy_instance(4),
        lambda: rotation_greedy_instance(5),
        # A centrally symmetric selection, whose report takes the real Gram.
        lambda: (level_measure(FOUR, 3), FrequencySet.from_scalars(range(64)), 8),
    ],
    ids=["rotation-level3", "rotation-level4", "rotation-level5", "symmetric-pool"],
)
def test_report_is_frame_bounds_of_the_selection(instance):
    base, pool, target = instance()
    selection = greedy_frame_search(base, pool, target)
    assert selection.report == frame_bounds(base, selection.frequencies)


def test_selection_does_not_depend_on_blas_threads():
    code = (
        "from cantorframes import greedy_frame_search\n"
        "from instances import rotation_greedy_instance\n"
        "print(greedy_frame_search(*rotation_greedy_instance(4)).selected_indices)\n"
    )
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), str(ROOT / "tests"), os.environ.get("PYTHONPATH")]))
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120, check=True
        )
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0].startswith("(")
