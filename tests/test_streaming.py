import numpy as np
import pytest
from scipy.stats import norm

from copulafill.copula_em import CopulaModel
from copulafill.data_model import DataTable
from copulafill.evaluation import random_correlation, sample_gc
from copulafill.imputer import impute_single
from copulafill.marginals import Marginal
from copulafill.streaming import StreamConfig, init_stream, step


def make_stream(n=500, p=4, seed=0, hide=None):
    corr = random_correlation(p, seed=seed)
    truth = sample_gc(n, [norm(loc=j).ppf for j in range(p)], corr=corr,
                      seed=seed + 1).values
    masked = truth.copy()
    if hide is not None:
        masked[:, hide] = np.nan
    return corr, truth, masked


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            StreamConfig(window_size=1)
        with pytest.raises(ValueError):
            StreamConfig(const_stepsize=1.0)
        with pytest.raises(ValueError):
            StreamConfig(decay=0.0)
        with pytest.raises(ValueError):
            StreamConfig(n_train=1)
        assert StreamConfig(decay=1.0).decay == 1.0


class TestInit:
    def test_buffers_hold_recent_observations(self):
        rows = np.arange(30, dtype=float).reshape(10, 3)
        state = init_stream(rows, StreamConfig(window_size=6, n_train=10))
        assert all(len(b) == 6 for b in state.buffers)
        assert list(state.buffers[0]) == [12.0, 15.0, 18.0, 21.0, 24.0, 27.0]

    def test_requires_two_observations_per_column(self):
        rows = np.array([[1.0, np.nan], [2.0, 3.0], [3.0, np.nan]])
        with pytest.raises(ValueError, match="fewer than 2"):
            init_stream(DataTable(rows, ["a", "b"]))

    def test_initial_corr_near_identity_on_independent_data(self):
        rng = np.random.default_rng(2)
        rows = rng.standard_normal((100, 3))
        state = init_stream(rows, StreamConfig(window_size=100, n_train=100))
        off = state.corr[~np.eye(3, dtype=bool)]
        assert np.all(np.abs(off) < 0.15)
        # sharper oracle: it matches the latent sample correlation closely
        from copulafill.copula_em import encode_table

        lower, _ = encode_table(state.marginals, rows)
        expect = np.corrcoef(lower, rowvar=False)
        assert np.allclose(state.corr, expect, atol=0.02)


class TestStep:
    def test_matches_offline_imputation_when_decay_is_one(self):
        _, truth, _ = make_stream(n=60, seed=2)
        state = init_stream(truth[:50], StreamConfig(window_size=50, n_train=50))
        row = truth[50].copy()
        row[2] = np.nan
        offline = CopulaModel(state.corr.copy(), list(state.marginals),
                              state.vartypes, state.col_names)
        expect = impute_single(offline, row[None, :]).imputed[0]
        got, _ = step(state, row)
        assert np.array_equal(got, expect)

    def test_tiny_decay_reproduces_last_observation(self):
        # feed a fully observed column, then hide it: with d -> 0 the
        # imputation lands within one window-grid cell of the last value
        rng = np.random.default_rng(3)
        p = 3
        rows = rng.standard_normal((80, p))
        walk = np.cumsum(rng.normal(0, 0.1, 80)) + 5.0
        rows[:, 2] = walk
        state = init_stream(rows[:60], StreamConfig(
            window_size=30, n_train=60, decay=1e-6, batch_size=10**6))
        for t in range(60, 75):
            _, state = step(state, rows[t])
        hidden = rows[75].copy()
        hidden[2] = np.nan
        got, state = step(state, hidden)
        window = np.fromiter(state.buffers[2], dtype=float)
        grid = np.sort(window)
        gap = np.diff(grid).max()
        assert abs(got[2] - walk[74]) <= gap + 1e-12

    def test_tiny_decay_is_exact_for_ordinal(self):
        rng = np.random.default_rng(4)
        rows = np.column_stack([
            rng.standard_normal(40),
            rng.integers(1, 4, 40).astype(float),
        ])
        state = init_stream(rows[:30], StreamConfig(
            window_size=20, n_train=30, decay=1e-9, batch_size=10**6))
        for t in range(30, 39):
            _, state = step(state, rows[t])
        hidden = rows[39].copy()
        hidden[1] = np.nan
        got, _ = step(state, hidden)
        assert got[1] == rows[38, 1]

    def test_revealed_row_must_agree(self):
        _, truth, _ = make_stream(n=40, seed=5)
        state = init_stream(truth[:30], StreamConfig(window_size=20, n_train=30))
        row = truth[30].copy()
        bad = row.copy()
        bad[0] += 1.0
        with pytest.raises(ValueError, match="disagrees"):
            step(state, row, revealed=bad)

    def test_infinite_cell_is_rejected_before_any_update(self):
        _, truth, _ = make_stream(n=40, seed=7)
        state = init_stream(truth[:30], StreamConfig(window_size=20, n_train=30))
        windows = [list(b) for b in state.buffers]
        row = truth[30].copy()
        row[2] = np.inf
        with pytest.raises(ValueError, match="row is infinite at column 'col2'"):
            step(state, row)
        revealed = truth[30].copy()
        revealed[3] = -np.inf
        row = truth[30].copy()
        row[3] = np.nan
        with pytest.raises(ValueError, match="revealed row is infinite at column 'col3'"):
            step(state, row, revealed=revealed)
        assert [list(b) for b in state.buffers] == windows
        assert state.n_seen == 0

    def test_revealed_values_enter_window(self):
        _, truth, _ = make_stream(n=40, seed=6)
        state = init_stream(truth[:30], StreamConfig(window_size=20, n_train=30))
        row = truth[30].copy()
        row[1] = np.nan
        revealed = truth[30].copy()
        _, state = step(state, row, revealed=revealed)
        assert state.buffers[1][-1] == revealed[1]

    def test_correlation_updates_only_at_batch_boundaries(self):
        _, truth, _ = make_stream(n=80, seed=7)
        state = init_stream(truth[:40], StreamConfig(window_size=40, n_train=40,
                                                     batch_size=5))
        corr0 = state.corr.copy()
        for t in range(40, 44):
            _, state = step(state, truth[t])
            assert np.array_equal(state.corr, corr0)
        _, state = step(state, truth[44])
        assert not np.array_equal(state.corr, corr0)
        assert len(state.pending_lower) == 0

    def test_blend_is_convex_combination(self):
        _, truth, _ = make_stream(n=60, seed=8)
        cfg = StreamConfig(window_size=40, n_train=40, batch_size=5,
                           const_stepsize=0.25)
        state = init_stream(truth[:40], cfg)
        corr0 = state.corr.copy()
        for t in range(40, 45):
            _, state = step(state, truth[t])
        # recover the batch estimate from the blend identity
        batch_est = (state.corr - 0.75 * corr0) / 0.25
        assert np.allclose(np.diag(batch_est), 1.0, atol=1e-10)

    def test_constant_memory(self):
        _, truth, _ = make_stream(n=400, seed=9)
        cfg = StreamConfig(window_size=25, n_train=30, batch_size=10)
        state = init_stream(truth[:30], cfg)
        for t in range(30, 400):
            _, state = step(state, truth[t])
        assert all(len(b) <= 25 for b in state.buffers)
        assert len(state.pending_lower) < 10

    def test_replay_is_bitwise_identical(self):
        _, truth, masked = make_stream(n=120, seed=10, hide=2)
        outs = []
        for _ in range(2):
            state = init_stream(truth[:25], StreamConfig(
                window_size=25, n_train=25, batch_size=10))
            got = [step(state, masked[t], revealed=truth[t])[0]
                   for t in range(25, 120)]
            outs.append(np.vstack(got))
        assert np.array_equal(outs[0], outs[1])

    def test_encodes_a_row_once_unless_revealed(self, monkeypatch):
        _, truth, _ = make_stream(n=40, seed=11)
        state = init_stream(truth[:30], StreamConfig(window_size=20, n_train=30))
        calls, real = [], Marginal.latent_bounds
        monkeypatch.setattr(Marginal, "latent_bounds",
                            lambda self, x: calls.append(1) or real(self, x))
        p = state.n_cols
        for t, revealed, want in ((30, None, p), (31, truth[31], 2 * p)):
            row = truth[t].copy()
            row[1] = np.nan
            calls.clear()
            step(state, row, revealed)
            assert len(calls) == want

    def test_wrong_row_length(self):
        _, truth, _ = make_stream(n=30, seed=11)
        state = init_stream(truth[:25], StreamConfig(window_size=25, n_train=25))
        with pytest.raises(ValueError, match="cells"):
            step(state, truth[25, :2])

    def test_stationary_stream_close_to_offline_fit(self):
        # on a stationary stream the trailing imputation error stays within
        # 10% of an offline model fit on the same data
        from copulafill.imputer import transform_out_of_sample

        corr, truth, _ = make_stream(n=2000, seed=13)
        masked = truth.copy()
        masked[:, 3] = np.nan
        cfg = StreamConfig(window_size=200, const_stepsize=0.1, batch_size=40,
                           n_train=25)
        state = init_stream(truth[:25], cfg)
        imputed = np.zeros(2000)
        for t in range(25, 2000):
            out, state = step(state, masked[t], revealed=truth[t])
            imputed[t] = out[3]
        trail = slice(1500, 2000)
        mse_stream = np.mean((imputed[trail] - truth[trail, 3]) ** 2)
        from copulafill.copula_em import fit_standard as fit_offline
        from copulafill.data_model import DataTable as DT

        oracle = fit_offline(DT(truth))
        ora = transform_out_of_sample(oracle, masked[trail]).imputed[:, 3]
        mse_offline = np.mean((ora - truth[trail, 3]) ** 2)
        assert mse_stream <= 1.10 * mse_offline

    def test_tracks_distribution_shift(self):
        # a strong shift in correlation is picked up within a few batches
        p = 3
        rng = np.random.default_rng(12)
        corr_b = np.array([[1.0, 0.85, 0.0], [0.85, 1.0, 0.0], [0.0, 0.0, 1.0]])
        pre = rng.standard_normal((100, p))
        post = rng.multivariate_normal(np.zeros(p), corr_b, size=600)
        stream = np.vstack([pre, post])
        cfg = StreamConfig(window_size=60, n_train=60, batch_size=20,
                           const_stepsize=0.2)
        state = init_stream(stream[:60], cfg)
        for t in range(60, 700):
            _, state = step(state, stream[t])
        assert abs(state.corr[0, 1] - 0.85) < 0.15
