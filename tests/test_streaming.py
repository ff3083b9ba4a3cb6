import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import ndtri
from scipy.stats import expon, norm

import stream_oracle as oracle
from stream_oracle import decayed_weights
from copulafill import latent
from copulafill.copula_em import CopulaModel
from copulafill.data_model import (
    CONTINUOUS,
    LOWER_TRUNCATED,
    ORDINAL,
    TWOSIDED_TRUNCATED,
    UPPER_TRUNCATED,
    DataTable,
    VariableType,
    format_row,
)
from copulafill.evaluation import ordinal_spec, random_correlation, sample_gc, truncated_spec
from copulafill.imputer import impute_single
from copulafill.marginals import Marginal, fit_marginal
from copulafill.streaming import StreamConfig, _encode_row, _Window, init_stream, step


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

    @pytest.mark.parametrize("field", ["n_workers", "sweeps"])
    def test_removed_fields_rejected(self, field):
        with pytest.raises(TypeError):
            StreamConfig(**{field: 2})


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

    def test_type_overrides_must_cover_every_column(self):
        rows = np.random.default_rng(3).standard_normal((10, 3))
        with pytest.raises(ValueError, match="1 type overrides for 3 columns"):
            init_stream(rows, StreamConfig(n_train=10), types=[None])

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
        assert len(state.pending_means) == 0

    def test_batch_with_a_column_at_latent_zero_waits_for_more_rows(self):
        # 2.0 lies halfway between a window's two values: latent 0 exactly,
        # so a batch of that row alone has a zero second moment there
        state = init_stream(np.array([[1.0, 0.5], [3.0, -0.5]]),
                            StreamConfig(window_size=2, batch_size=1, n_train=2),
                            types=[VariableType(CONTINUOUS)] * 2)
        corr0 = state.corr.copy()
        _, state = step(state, np.array([2.0, 0.1]))
        assert len(state.pending_means) == 1
        assert np.array_equal(state.corr, corr0)
        _, state = step(state, np.array([1.0, 0.2]))
        assert len(state.pending_means) == 0
        assert np.isfinite(state.corr).all() and not np.array_equal(state.corr, corr0)

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
        assert len(state.pending_means) < 10

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
        # one window query per observed cell; a missing cell makes none
        _, truth, _ = make_stream(n=40, seed=11)
        state = init_stream(truth[:30], StreamConfig(window_size=20, n_train=30))
        calls, real = [], _Window.latent_bounds
        monkeypatch.setattr(_Window, "latent_bounds",
                            lambda self, x: calls.append(x) or real(self, x))
        p = state.n_cols
        for t, revealed, want in ((30, None, p - 1), (31, truth[31], 2 * p - 1)):
            row = truth[t].copy()
            row[1] = np.nan
            calls.clear()
            step(state, row, revealed)
            assert len(calls) == want
            assert not np.isnan(calls).any()

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


# continuous, two duplicate-heavy ordinals, and lower (bound left to the
# data), upper and two-sided truncated columns
MIXED_TYPES = [
    VariableType(CONTINUOUS),
    VariableType(ORDINAL),
    VariableType(ORDINAL),
    VariableType(LOWER_TRUNCATED),
    VariableType(UPPER_TRUNCATED, upper=1.0),
    VariableType(TWOSIDED_TRUNCATED, lower=0.0, upper=2.0),
]


def mixed_stream(n, seed, missing=0.3):
    specs = [
        norm.ppf,
        ordinal_spec([0.7, 0.2, 0.1]),
        ordinal_spec([0.5, 0.5]),
        truncated_spec(lambda u: expon.ppf(np.clip(u, 0.0, 0.999)), p_alpha=0.3,
                       alpha=0.0),
        truncated_spec(lambda u: np.clip(u, 0.0, 0.99) - 1.0, p_beta=0.3, beta=1.0),
        truncated_spec(lambda u: 0.1 + 1.8 * u, p_alpha=0.2, p_beta=0.2,
                       alpha=0.0, beta=2.0),
    ]
    corr = random_correlation(len(specs), seed=seed)
    # two decimals: repeated values in every column, not only the ordinals
    truth = np.round(sample_gc(n, specs, corr=corr, seed=seed).values, 2)
    rng = np.random.default_rng(seed + 100)
    masked = np.where(rng.random(truth.shape) < missing, np.nan, truth)
    return truth, masked


def bits(x):
    return np.asarray(x, dtype=float).view(np.uint64)


def assert_same_marginal(got, want):
    assert got.vartype == want.vartype
    assert got.n_obs == want.n_obs
    assert np.array_equal(bits(got.values), bits(want.values))
    assert np.array_equal(bits(got.masses), bits(want.masses))


def assert_close_marginal(got, want):
    """A decay-weighted marginal: the window sums its weights as they
    arrive, so its masses match a refit to rounding, not bit for bit."""
    assert got.vartype == want.vartype
    assert got.n_obs == want.n_obs
    assert np.array_equal(bits(got.values), bits(want.values))
    np.testing.assert_allclose(got.masses, want.masses, rtol=1e-12, atol=0)


def assert_marginals_match_oracle(state):
    for j, window in enumerate(state.windows):
        assert_same_marginal(state.marginals[j],
                             oracle.window_marginal(window.buffer, state.vartypes[j]))
        if state.config.decay < 1.0:
            assert_close_marginal(oracle.decayed_window_marginal(window),
                                  oracle.decayed_marginal(state, j))


class TestMatchesOracle:
    """Incremental windows, the scalar encode and the single-row posterior
    against the direct per-row path of ``stream_oracle``."""

    @pytest.mark.parametrize("decay", [0.95, 1.0])
    def test_replay_mixed_stream(self, decay):
        truth, masked = mixed_stream(260, seed=3)
        cfg = StreamConfig(window_size=25, n_train=30, batch_size=20, decay=decay)
        state = init_stream(truth[:30], cfg, types=MIXED_TYPES)
        assert_marginals_match_oracle(state)
        update, updates = oracle.BatchUpdate(state), 0
        for t in range(30, len(truth)):
            # every third row reveals its hidden cells after imputation
            revealed = truth[t] if t % 3 == 0 else None
            want = oracle.impute_row(state, masked[t])
            updated = update.add(state, masked[t], revealed)
            got, state = step(state, masked[t], revealed)
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)
            assert_marginals_match_oracle(state)
            if updated:
                updates += 1
                np.testing.assert_allclose(state.corr, update.corr, rtol=1e-12)
        assert updates == 11
        assert {m.vartype.tag for m in state.marginals} >= {
            CONTINUOUS, ORDINAL, LOWER_TRUNCATED, UPPER_TRUNCATED,
            TWOSIDED_TRUNCATED}

    def test_encoded_row_matches_cellwise_arrays(self):
        truth, masked = mixed_stream(80, seed=4)
        state = init_stream(truth[:40], StreamConfig(window_size=25, n_train=40),
                            types=MIXED_TYPES)
        for row in masked[40:]:
            got = _encode_row(state, row)
            want = oracle.encode_row(state.marginals, row)
            for g, w in zip(got, want):
                assert np.array_equal(bits(g), bits(w))
            step(state, row)

    def test_boundary_only_window_falls_back_to_ordinal(self):
        rng = np.random.default_rng(5)
        warm = np.column_stack([rng.standard_normal(6),
                                [0.0, 0.4, 1.3, 0.0, 2.2, 0.7]])
        trunc = VariableType(LOWER_TRUNCATED, lower=0.0)
        cfg = StreamConfig(window_size=4, n_train=6, decay=0.9, batch_size=10**6)
        state = init_stream(warm, cfg, types=[VariableType(CONTINUOUS), trunc])
        assert state.marginals[1].vartype == trunc
        for _ in range(4):
            step(state, [rng.standard_normal(), 0.0])
        # the window holds the boundary value only: both the marginal and
        # the decayed marginal of a hidden cell fall back to ordinal
        assert list(state.buffers[1]) == [0.0] * 4
        assert state.marginals[1].vartype == VariableType(ORDINAL)
        assert_marginals_match_oracle(state)
        hidden = [rng.standard_normal(), np.nan]
        want = oracle.impute_row(state, hidden)
        got, state = step(state, hidden)
        assert got[1] == want[1] == 0.0
        # an interior value brings the truncated marginal back
        step(state, [rng.standard_normal(), 0.9])
        assert state.marginals[1].vartype == trunc
        assert_marginals_match_oracle(state)

    def test_window_of_one_value_falls_back_to_ordinal(self):
        # two-sided bounds left to the data meet when the window holds a
        # single value, which VariableType rejects as crossed bounds
        rng = np.random.default_rng(8)
        warm = np.column_stack([rng.standard_normal(6),
                                [1.5, 0.2, 1.5, 0.9, 3.0, 3.0]])
        twosided = VariableType(TWOSIDED_TRUNCATED)
        cfg = StreamConfig(window_size=4, n_train=6, decay=0.9, batch_size=10**6)
        state = init_stream(warm, cfg, types=[VariableType(CONTINUOUS), twosided])
        assert state.marginals[1].vartype == VariableType(TWOSIDED_TRUNCATED, 0.9, 3.0)
        for _ in range(4):
            step(state, [rng.standard_normal(), 1.5])
        assert list(state.buffers[1]) == [1.5] * 4
        assert state.marginals[1].vartype == VariableType(ORDINAL)
        assert_marginals_match_oracle(state)
        hidden = [rng.standard_normal(), np.nan]
        want = oracle.impute_row(state, hidden)
        got, state = step(state, hidden)
        assert got[1] == want[1] == 1.5
        for x in (0.5, 2.5):
            step(state, [rng.standard_normal(), x])
        assert state.marginals[1].vartype == VariableType(TWOSIDED_TRUNCATED, 0.5, 2.5)
        assert_marginals_match_oracle(state)

    @pytest.mark.parametrize("decay", [0.9, 1.0])
    def test_a_step_builds_no_marginal(self, monkeypatch, decay):
        truth, masked = mixed_stream(60, seed=7)
        cfg = StreamConfig(window_size=25, n_train=30, batch_size=10, decay=decay)
        state = init_stream(truth[:30], cfg, types=MIXED_TYPES)
        made, build = [], Marginal.__init__
        monkeypatch.setattr(Marginal, "__init__",
                            lambda *args: made.append(1) or build(*args))
        for t in range(30, 60):
            expected = oracle.impute_row(state, masked[t])    # builds its own
            made.clear()
            got, state = step(state, masked[t], truth[t] if t % 3 == 0 else None)
            assert made == []
            np.testing.assert_allclose(got, expected, rtol=1e-10, atol=1e-12)

    def test_update_counts_rows_with_no_missing_cell(self):
        truth, _ = mixed_stream(60, seed=9)
        cfg = StreamConfig(window_size=25, n_train=30, batch_size=6)
        state = init_stream(truth[:30], cfg, types=MIXED_TYPES)
        update = oracle.BatchUpdate(state)
        corr0 = state.corr.copy()
        for t in range(30, 60):
            updated = update.add(state, truth[t])
            got, state = step(state, truth[t])
            assert np.array_equal(got, truth[t])
            if updated:
                np.testing.assert_allclose(state.corr, update.corr, rtol=1e-12)
        assert not np.allclose(state.corr, corr0)

    @pytest.mark.parametrize("decay", [0.95, 1.0])
    def test_fully_missing_row_is_imputed_from_its_prior(self, decay):
        truth, masked = mixed_stream(45, seed=10)
        cfg = StreamConfig(window_size=25, n_train=30, batch_size=100, decay=decay)
        state = init_stream(truth[:30], cfg, types=MIXED_TYPES)
        for t in range(30, 45):
            _, state = step(state, masked[t])
        means = [m.copy() for m in state.pending_means]
        cov = state.pending_cov.copy()
        row = np.full(state.n_cols, np.nan)
        want = oracle.impute_row(state, row)
        got, state = step(state, row)
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)
        assert len(state.pending_means) == len(means) == 15
        assert all(np.array_equal(g, w) for g, w in zip(state.pending_means, means))
        assert np.array_equal(state.pending_cov, cov)

    def test_singular_block_update_matches_the_batch_path(self):
        truth, masked = mixed_stream(50, seed=6)
        cfg = StreamConfig(window_size=25, n_train=30, batch_size=10)
        state = init_stream(truth[:30], cfg, types=MIXED_TYPES)
        # columns 0 and 1 identical, as in the jitter-ladder test below; one
        # update, as the blended correlation is only nearly singular
        corr = state.corr.copy()
        corr[1], corr[:, 1] = corr[0], corr[:, 0]
        state.corr = corr
        update = oracle.BatchUpdate(state)
        for t in range(30, 40):
            assert update.add(state, masked[t]) == (t == 39)
            _, state = step(state, masked[t])
        assert (~np.isnan(masked[30:40, :2])).all(axis=1).sum() == 5
        np.testing.assert_allclose(state.corr, update.corr, rtol=1e-12)

    def test_singular_block_takes_the_jitter_ladder(self, monkeypatch):
        truth, _ = mixed_stream(40, seed=6)
        state = init_stream(truth[:30], StreamConfig(window_size=25, n_train=30),
                            types=MIXED_TYPES)
        # columns 0 and 1 become identical: their 2 x 2 block is singular
        corr = state.corr.copy()
        corr[1], corr[:, 1] = corr[0], corr[:, 0]
        state.corr = corr
        calls, real = [], latent.batch_posterior
        monkeypatch.setattr(latent, "batch_posterior",
                            lambda *a, **k: calls.append(1) or real(*a, **k))
        row = truth[30].copy()
        row[3:] = np.nan
        want = oracle.impute_row(state, row)
        got, _ = step(state, row)
        assert calls == [1]
        assert np.array_equal(got, want)


_levels = st.sampled_from([-1.0, 0.0, 0.0, 0.5, 1.0, 1.0, 1.0, 2.5, 3.0])


class TestWindow:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(_levels, min_size=1, max_size=40), st.integers(2, 9),
           st.sampled_from(MIXED_TYPES + [VariableType(LOWER_TRUNCATED, lower=0.0)]),
           st.sampled_from([1.0, 0.9, 0.5]))
    def test_every_append_matches_a_refit(self, values, size, vartype, decay):
        window = _Window([], size, vartype, decay)
        for x in values:
            window.append(x)
            assert_same_marginal(window.marginal(),
                                 oracle.window_marginal(window.buffer, vartype))
            weights = decayed_weights(len(window.buffer), decay)[::-1]
            assert_close_marginal(oracle.decayed_window_marginal(window),
                                  oracle.window_marginal(window.buffer, vartype, weights))
            if decay == 1.0:   # one table: the weight row holds the counts
                assert np.array_equal(bits(oracle.decayed_window_marginal(window).masses),
                                      bits(window.marginal().masses))
        assert sorted(set(window.buffer)) == window.distinct
        counts = np.diff(window._table[2, :len(window.distinct)], prepend=0.0).tolist()
        assert counts == [list(window.buffer).count(v) for v in window.distinct]

    @settings(max_examples=150, deadline=None)
    @given(st.lists(_levels, min_size=1, max_size=20), st.integers(2, 9),
           st.sampled_from(MIXED_TYPES), st.sampled_from([0.5, 0.9, 0.95]))
    def test_decayed_reads_the_last_weights_of_a_full_window(self, values, size,
                                                            vartype, decay):
        # a filling window takes the last of a full window's weights; a read
        # leaves the window as it was, so two reads agree bit for bit
        window = _Window([], size, vartype, decay)
        for x in values:
            window.append(x)
            table = window._table.copy()
            decayed = oracle.decayed_window_marginal(window)
            weights = decayed_weights(len(window.buffer), decay)[::-1]
            assert_close_marginal(decayed,
                                  oracle.window_marginal(window.buffer, vartype, weights))
            window.from_latent(0.3)
            window.latent_bounds(x)
            assert np.array_equal(window._table, table)
            assert np.array_equal(bits(oracle.decayed_window_marginal(window).masses),
                                  bits(decayed.masses))

    def test_underflowing_decay_weights_match_a_refit(self):
        # 1e-200**2 underflows to 0: the weights past the newest are floored
        # at the smallest normal float, and stay positive
        vartype = VariableType(CONTINUOUS)
        window = _Window([], 6, vartype, decay=1e-200)
        for x in (0.5, 1.0, 2.5, 1.0, -0.5, 3.0, 2.5, 0.5):
            window.append(x)
            weights = decayed_weights(len(window.buffer), 1e-200)[::-1]
            marg = oracle.decayed_window_marginal(window)
            assert_close_marginal(marg,
                                  oracle.window_marginal(window.buffer, vartype, weights))
            assert (marg.masses > 0).all()

    def test_state_marginals_follow_a_direct_append(self):
        truth, _ = mixed_stream(40, seed=11)
        state = init_stream(truth[:30], StreamConfig(window_size=25, n_train=30),
                            types=MIXED_TYPES)
        for j, x in enumerate(truth[30]):
            before = state.marginals[j]
            state.windows[j].append(x)
            assert state.marginals[j] is not before
            assert_same_marginal(state.marginals[j], oracle.window_marginal(
                state.windows[j].buffer, state.vartypes[j]))


# every tag, each truncated one with set bounds and with bounds left to the
# data; the levels include the bounds 0 and 3, so a window may hold only
# boundary values (the ordinal fallback) or a single value
_ALL_TYPES = st.sampled_from([
    VariableType(CONTINUOUS), VariableType(ORDINAL),
    VariableType(LOWER_TRUNCATED, lower=0.0), VariableType(LOWER_TRUNCATED),
    VariableType(UPPER_TRUNCATED, upper=3.0), VariableType(UPPER_TRUNCATED),
    VariableType(TWOSIDED_TRUNCATED, lower=0.0, upper=3.0),
    VariableType(TWOSIDED_TRUNCATED),
])
_QUERY_LEVELS = [0.0, 0.0, 0.0, 0.5, 1.0, 1.0, 1.75, 2.5, 3.0, 3.0]
_ZS = [-np.inf, -6.0, -1.5, -0.4, 0.0, 0.3, 1.1, 2.0, 6.0, np.inf]


def _refit_marginals(window, vartype, decay):
    plain = oracle.window_marginal(window.buffer, vartype)
    weights = decayed_weights(len(window.buffer), decay)[::-1]
    return plain, oracle.window_marginal(window.buffer, vartype, weights)


class TestWindowQueries:
    """The window's scalar maps against ``Marginal``'s array maps on a refit
    of its values: the encode bit for bit, the decode bit for bit at decay
    1 and to rtol 1e-12 under decay, over at least 50 window lengths."""

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.one_of(st.sampled_from(_QUERY_LEVELS), st.floats(-1.0, 4.0)),
                    min_size=1, max_size=30),
           st.integers(2, 9), _ALL_TYPES, st.lists(st.floats(-2.0, 5.0), max_size=4))
    @example([0.0] * 6, 3, VariableType(LOWER_TRUNCATED), [])
    @example([1.5] * 6, 3, VariableType(TWOSIDED_TRUNCATED), [])
    @example([0.0, -0.0, 0.0], 2, VariableType(CONTINUOUS), [])
    def test_plain_queries_are_a_refit_bit_for_bit(self, values, size, vartype, free):
        window = _Window([], size, vartype)
        for x in values:
            window.append(x)
            refit = oracle.window_marginal(window.buffer, vartype)
            vals = refit.values
            # the bounds, given or taken from the values, and 1 ulp either side
            bounds = np.array([b for b in (vartype.lower, vartype.upper, refit.vartype.lower,
                                           refit.vartype.upper) if b is not None])
            probes = [-1e308, 1e308, 0.0, 3.0, 0.25, *vals, *free,
                      *((vals[1:] + vals[:-1]) / 2.0), *bounds,
                      *np.nextafter(bounds, -np.inf), *np.nextafter(bounds, np.inf)]
            for x in map(float, probes):
                lo, hi = refit.latent_bounds(np.array([x]))
                assert np.array_equal(bits(window.latent_bounds(x)), bits([lo[0], hi[0]])), x
            cuts = refit._zcuts[1:-1] if refit.vartype.tag == ORDINAL else ndtri(refit._nodes)
            # the boundary masses' latent cuts, and 1 ulp either side
            edges = np.array([c for c in (refit._z_alpha, refit._z_beta) if np.isfinite(c)])
            for z in map(float, [*_ZS, *cuts, *np.nextafter(cuts, np.inf), *edges,
                                 *np.nextafter(edges, -np.inf), *np.nextafter(edges, np.inf)]):
                assert np.array_equal(bits(window.from_latent(z)),
                                      bits(refit.from_latent(np.array([z]))[0])), z

    @settings(max_examples=24, deadline=None, derandomize=True, database=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 9), _ALL_TYPES,
           st.sampled_from([1e-200, 0.5, 0.95, 1.0]))
    def test_decayed_queries_stay_a_refit_over_50_windows(self, seed, size, vartype,
                                                          decay):
        rng = np.random.default_rng(seed)
        window = _Window([], size, vartype, decay)
        # at least 50 window lengths, and past a rescale at decay 0.5
        for x in rng.choice(_QUERY_LEVELS, max(50 * size, 600)):
            window.append(x)
            plain, decayed = _refit_marginals(window, vartype, decay)
            got = oracle.decayed_window_marginal(window)
            assert got.vartype == decayed.vartype
            np.testing.assert_allclose(got.masses, decayed.masses, rtol=1e-12, atol=0)
            zs = np.array(_ZS)
            np.testing.assert_allclose([window.from_latent(z) for z in _ZS],
                                       decayed.from_latent(zs), rtol=1e-12, atol=0)
            x = float(rng.choice(_QUERY_LEVELS)) + rng.uniform(-0.2, 0.2)
            lo, hi = plain.latent_bounds(np.array([x]))
            assert np.array_equal(bits(window.latent_bounds(x)), bits([lo[0], hi[0]]))
        if decay in (1e-200, 0.5):
            # the newest weight passed its bound: the sums were rescaled in place
            assert window._t0 > 0
        else:
            assert window._t0 == 0

    def test_decay_weights_that_leave_no_interior_decode_as_ordinal(self):
        # the interior value's weight falls to the floor, so the boundary
        # mass rounds to 1 under decay while the counts keep an interior
        vartype = VariableType(LOWER_TRUNCATED, lower=0.0)
        window = _Window([0.5, 0.0, 0.0, 0.0], 4, vartype, decay=1e-200)
        plain, decayed = _refit_marginals(window, vartype, 1e-200)
        assert window.marginal().vartype == plain.vartype == vartype
        assert decayed.vartype == VariableType(ORDINAL)
        for z in _ZS:
            assert np.array_equal(bits(window.from_latent(z)),
                                  bits(decayed.from_latent(np.array([z]))[0])), z

    def test_floor_and_rescale_over_a_long_window(self):
        # 0.01**lag falls below the smallest normal float past lag 153, so a
        # 200-value window holds weights at the floor, and the sums are
        # rescaled every 78 appends; compared every 97th append
        rng = np.random.default_rng(17)
        vartype = VariableType(LOWER_TRUNCATED)
        window = _Window([], 200, vartype, decay=0.01)
        assert (window._lags, window._span) == (153, 77)
        for t, x in enumerate(np.round(rng.gamma(1.0, size=50 * 200), 1)):
            window.append(x)
            if t % 97 == 0 or t == 50 * 200 - 1:
                plain, decayed = _refit_marginals(window, vartype, 0.01)
                assert_close_marginal(oracle.decayed_window_marginal(window), decayed)
                np.testing.assert_allclose([window.from_latent(z) for z in _ZS],
                                           decayed.from_latent(np.array(_ZS)),
                                           rtol=1e-12, atol=0)
        assert window._table[1, :len(window.distinct)].sum() == 200 - 153
        assert window._t0 > 0


class TestPrefixCounts:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(_levels, min_size=1, max_size=40), st.integers(2, 9),
           st.sampled_from([1.0, 0.5]))
    def test_every_append_keeps_the_prefix_counts(self, values, size, decay):
        window = _Window([], size, VariableType(ORDINAL), decay)
        for x in values:
            window.append(x)
            below = [sum(v <= level for v in window.buffer) for level in window.distinct]
            assert window._table[2, :len(window.distinct)].tolist() == below


def test_far_apart_values_decode_finite_as_the_marginal():
    # the gaps between -1.7e308 and -2 and between 7 and 1.7e308 overflow
    values = [-1.7e308, *map(float, range(-2, 8)), 1.7e308]
    fit = fit_marginal(values, VariableType(CONTINUOUS))
    window = _Window(values, len(values), VariableType(CONTINUOUS))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for z in (-1.3, -1.2, -1.1, -0.9, 1.1, 1.2, 1.3):
            got = window.from_latent(z)
            assert np.isfinite(got), z
            assert np.array_equal(bits(got), bits(fit.from_latent(np.array([z]))[0])), z


@pytest.mark.parametrize("values", [[-0.0, 0.0, 1.0, 2.0], [0.0, -0.0, 1.0, 2.0]])
@pytest.mark.parametrize("vartype", [VariableType(CONTINUOUS), VariableType(ORDINAL)])
def test_a_zero_decodes_as_0_offline_and_in_a_window(values, vartype):
    # the offline fit keeps one zero, whichever sign comes first, as a window does
    fit = fit_marginal(values, vartype)
    window = _Window(values, len(values), vartype)
    for z in (-3.0, -0.5, 0.0, 0.5, 3.0):
        assert np.array_equal(bits(fit.from_latent(np.array([z]))[0]),
                              bits(window.from_latent(z))), z
    assert format_row(fit.from_latent(np.array([-3.0]))) == "0"

