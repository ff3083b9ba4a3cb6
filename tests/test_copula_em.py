import re

import numpy as np
import pytest
from scipy.stats import norm

from copulafill.copula_em import (
    CopulaModel,
    FitConfig,
    _ensure_psd,
    approx_loglik,
    encode_table,
    estep,
    fit_minibatch_offline,
    fit_standard,
    initial_corr,
    mstep,
    validate_stepsize,
)
from copulafill.data_model import CONTINUOUS, DataTable, VariableType
from copulafill.evaluation import random_correlation, sample_gc
from copulafill.marginals import fit_marginal

from conftest import make_mixed_dataset


def continuous_model(values):
    marginals = [fit_marginal(values[:, j], VariableType(CONTINUOUS))
                 for j in range(values.shape[1])]
    p = values.shape[1]
    return CopulaModel(np.eye(p), marginals, [m.vartype for m in marginals],
                       [f"col{j}" for j in range(p)])


class TestEstep:
    def test_single_continuous_row(self):
        z = np.array([[0.4, -1.1, 2.0]])
        res = estep(np.eye(3), z, z.copy())
        assert np.array_equal(res.s_sum, z.T @ z)
        assert np.array_equal(res.m_sum, z[0])
        assert np.array_equal(res.latent_mean, z)

    def test_single_ordinal_half_line(self):
        res = estep(np.eye(1), [[0.0]], [[np.inf]])
        assert res.m_sum[0] == pytest.approx(0.79788456, abs=1e-6)
        # E[z^2 | z > 0] = 1 for a standard normal
        assert res.s_sum[0, 0] == pytest.approx(1.0, abs=1e-9)

    def test_complete_data_second_moment(self):
        rng = np.random.default_rng(0)
        z = rng.standard_normal((50, 4))
        res = estep(np.eye(4), z, z.copy())
        assert np.allclose(res.s_sum / 50, z.T @ z / 50, atol=1e-12)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            estep(np.eye(2), np.empty((0, 2)), np.empty((0, 2)))


class TestMstep:
    def test_idempotent_on_correlation(self):
        corr = random_correlation(4, seed=2)
        out = mstep(corr * 6, 6)
        assert np.allclose(out, corr, atol=1e-14)

    def test_hand_example(self):
        out = mstep(np.array([[4.0, 2.0], [2.0, 4.0]]), 1)
        assert np.allclose(out, [[1.0, 0.5], [0.5, 1.0]], atol=1e-15)

    def test_random_spd_normalization(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((5, 5))
        s = a @ a.T + 5 * np.eye(5)
        out = mstep(s, 1)
        # direct normalization oracle
        d = np.sqrt(np.diag(s))
        assert np.allclose(out, s / np.outer(d, d), atol=1e-14)
        assert np.array_equal(np.diag(out), np.ones(5))
        assert np.allclose(out, out.T, atol=1e-14)

    def test_nonpositive_diagonal_names_column(self):
        s = np.eye(3)
        s[1, 1] = 0.0
        with pytest.raises(ValueError, match="column 1"):
            mstep(s, 1)


class TestEnsurePsd:
    """The eigenvalue clip behind every M-step, the stream's included."""

    def test_non_psd_input_is_repaired(self):
        corr = np.array([[1.0, 0.9, -0.9], [0.9, 1.0, 0.9], [-0.9, 0.9, 1.0]])
        assert np.linalg.eigvalsh(corr).min() < 0
        for floor in (0.0, 1e-4):
            out = _ensure_psd(corr, floor=floor)
            assert np.array_equal(out, out.T)
            assert np.array_equal(np.diag(out), np.ones(3))
            assert np.linalg.eigvalsh(out).min() > 0

    def test_psd_input_is_returned_as_is(self):
        corr = random_correlation(4, seed=2)
        assert _ensure_psd(corr) is corr
        assert _ensure_psd(corr, floor=1e-4) is corr


class TestFitStandard:
    def test_recovers_independence(self):
        rng = np.random.default_rng(4)
        tab = DataTable(rng.standard_normal((3000, 4)))
        model = fit_standard(tab, FitConfig(seed=0))
        off = model.corr[~np.eye(4, dtype=bool)]
        assert np.all(np.abs(off) < 0.1)

    def test_recovers_bivariate_correlation(self):
        corr = np.array([[1.0, 0.65], [0.65, 1.0]])
        truth = sample_gc(5000, [norm.ppf, norm(loc=3).ppf], corr=corr, seed=6)
        from copulafill.evaluation import mask_mcar

        masked = mask_mcar(truth, 0.1, seed=7)
        model = fit_standard(masked)
        assert abs(model.corr[0, 1] - 0.65) <= 0.05

    def test_trace_shape_and_verbose_format(self, capsys):
        # survey-style table: every column ordinal, light missingness
        from copulafill.evaluation import mask_mcar, ordinal_spec

        rng = np.random.default_rng(5)
        specs = [ordinal_spec(rng.dirichlet(np.ones(5))) for _ in range(8)]
        corr = random_correlation(8, seed=60, n_factors=3, noise=0.7)
        truth = sample_gc(2500, specs, corr=corr, seed=61)
        masked = mask_mcar(truth, 0.1, seed=62)
        model = fit_standard(masked, FitConfig(verbose=True, tol=0.003))
        out = capsys.readouterr().out.splitlines()
        assert re.fullmatch(
            r"Iteration 1: copula parameter change \d+\.\d{4}, "
            r"likelihood -?\d+\.\d{4}",
            out[0],
        )
        changes = [c for c, _ in model.fit_trace]
        lls = [ll for _, ll in model.fit_trace]
        assert all(b < a for a, b in zip(changes, changes[1:]))
        assert all(b >= a for a, b in zip(lls, lls[1:]))

    def test_loglik_monotone_on_continuous_data(self):
        # at the default tolerance the run stops while the exact likelihood
        # is still climbing; the correlation projection in the M-step can
        # wobble it at the 1e-5 level only well past convergence
        rng = np.random.default_rng(8)
        z = rng.multivariate_normal(np.zeros(4), random_correlation(4, seed=9),
                                    size=800)
        vals = z.copy()
        vals[rng.random((800, 4)) < 0.35] = np.nan
        vals[np.isnan(vals).all(axis=1)] = 0.0
        model = fit_standard(DataTable(vals), FitConfig(tol=0.01, max_iter=30))
        lls = [ll for _, ll in model.fit_trace]
        assert all(b >= a - 1e-8 for a, b in zip(lls, lls[1:]))
        # a deep run still never loses ground overall
        deep = fit_standard(DataTable(vals), FitConfig(tol=1e-4, max_iter=25))
        deep_lls = [ll for _, ll in deep.fit_trace]
        assert deep_lls[-1] >= deep_lls[0]
        assert max(a - b for a, b in zip(deep_lls, deep_lls[1:])) < 1e-4

    def test_row_permutation_invariance(self):
        _, _, masked = make_mixed_dataset(n=400, seed=10, mask_fraction=0.2)
        model_a = fit_standard(masked, FitConfig(max_iter=3, tol=1e-12))
        perm = np.random.default_rng(11).permutation(masked.n_rows)
        model_b = fit_standard(DataTable(masked.values[perm], masked.col_names),
                               FitConfig(max_iter=3, tol=1e-12))
        assert np.allclose(model_a.corr, model_b.corr, atol=1e-10)

    def test_column_permutation_equivariance(self):
        # exact for continuous columns; interval columns are only
        # near-equivariant because the E-step sweeps run in index order
        from conftest import make_continuous_dataset

        _, _, cmask = make_continuous_dataset(n=400, p=5, seed=1,
                                              mask_fraction=0.25)
        perm5 = np.array([4, 2, 0, 3, 1])
        model_a = fit_standard(cmask, FitConfig(max_iter=3, tol=1e-12))
        permuted = DataTable(cmask.values[:, perm5],
                             [cmask.col_names[j] for j in perm5])
        model_b = fit_standard(permuted, FitConfig(max_iter=3, tol=1e-12))
        assert np.allclose(model_b.corr, model_a.corr[np.ix_(perm5, perm5)],
                           atol=1e-12)

        _, _, masked = make_mixed_dataset(n=400, seed=12, mask_fraction=0.2)
        perm = np.array([3, 0, 7, 1, 5, 2, 6, 4])
        mixed_a = fit_standard(masked, FitConfig(max_iter=3, tol=1e-12))
        mixed_b = fit_standard(
            DataTable(masked.values[:, perm],
                      [masked.col_names[j] for j in perm]),
            FitConfig(max_iter=3, tol=1e-12))
        assert np.allclose(mixed_b.corr, mixed_a.corr[np.ix_(perm, perm)],
                           atol=0.02)

    def test_rank_invariance_is_bitwise(self):
        _, _, masked = make_mixed_dataset(n=500, seed=13, mask_fraction=0.2)
        model_a = fit_standard(masked, FitConfig(max_iter=4, tol=1e-12))
        vals = masked.values.copy()
        for j in (0, 1, 2):  # the continuous columns
            vals[:, j] = np.exp(vals[:, j])
        model_b = fit_standard(DataTable(vals, masked.col_names),
                               FitConfig(max_iter=4, tol=1e-12))
        assert np.array_equal(model_a.corr, model_b.corr)

    def test_single_level_column_pinned(self):
        rng = np.random.default_rng(14)
        vals = np.column_stack([rng.standard_normal(200),
                                rng.standard_normal(200),
                                np.full(200, 7.0)])
        model = fit_standard(DataTable(vals))
        assert np.array_equal(model.corr[2], [0.0, 0.0, 1.0])

    def test_all_missing_rows_excluded_with_warning(self):
        vals = np.random.default_rng(15).standard_normal((60, 3))
        vals[5] = np.nan
        with pytest.warns(UserWarning, match="no observed cells"):
            model = fit_standard(DataTable(vals))
        assert model.corr.shape == (3, 3)

    @pytest.mark.parametrize("n", [1, 5])
    def test_encode_needs_one_marginal_per_column(self, n):
        rng = np.random.default_rng(17)
        marginals = continuous_model(rng.standard_normal((20, 3))).marginals
        vals = rng.standard_normal((n, 3))
        with pytest.raises(ValueError, match="2 marginals for 3 columns"):
            encode_table(marginals[:2], vals)
        with pytest.raises(ValueError, match="3 marginals for 2 columns"):
            encode_table(marginals, vals[:, :2])

    def test_one_iteration_equals_normalized_second_moment(self):
        rng = np.random.default_rng(16)
        vals = rng.standard_normal((300, 3))
        tab = DataTable(vals)
        model = fit_standard(tab, FitConfig(max_iter=1, tol=1e-15))
        marginals = model.marginals
        lower, _ = encode_table(marginals, vals)
        s = lower.T @ lower / 300
        d = np.sqrt(np.diag(s))
        assert np.allclose(model.corr, s / np.outer(d, d), atol=1e-12)


class TestMinibatch:
    def test_default_stepsizes(self):
        cfg = FitConfig()
        assert cfg.stepsize(1) == pytest.approx(5 / 6)
        assert cfg.stepsize(2) == pytest.approx(5 / 7)

    def test_constant_one_stepsize_rejected(self):
        with pytest.raises(ValueError, match=r"\(0, 1\)"):
            FitConfig(stepsize=lambda t: 1.0)

    def test_increasing_stepsize_rejected(self):
        with pytest.raises(ValueError, match="decreasing"):
            validate_stepsize(lambda t: t / (t + 10), 5)

    @pytest.mark.parametrize("late", [lambda t: 1.5, lambda t: 1 / 0])
    def test_out_of_range_wins_over_an_increase(self, late):
        # increases at t = 2, leaves (0, 1) (or fails) only at t = 4
        schedule = {1: 0.5, 2: 0.6, 3: 0.4}
        with pytest.raises(ValueError, match=r"\(0, 1\)"):
            validate_stepsize(lambda t: schedule[t] if t in schedule else late(t), 5)

    def test_long_horizon_keeps_no_list(self):
        import tracemalloc

        tracemalloc.start()
        try:
            FitConfig(max_iter=10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_batch_size_smaller_than_width_rejected(self):
        _, _, masked = make_mixed_dataset(n=300, seed=17)
        with pytest.raises(ValueError, match="batch size"):
            fit_minibatch_offline(masked, FitConfig(batch_size=3))

    def test_consistent_with_standard_fit(self):
        corr = np.array([[1.0, 0.65], [0.65, 1.0]])
        truth = sample_gc(3000, [norm.ppf, norm.ppf], corr=corr, seed=18)
        from copulafill.evaluation import mask_mcar

        masked = mask_mcar(truth, 0.1, seed=19)
        std = fit_standard(masked)
        mb = fit_minibatch_offline(masked, FitConfig(seed=20))
        assert abs(std.corr[0, 1] - mb.corr[0, 1]) <= 0.05

    def test_iteration_count_is_passes_times_batches(self):
        _, _, masked = make_mixed_dataset(n=450, seed=21)
        cfg = FitConfig(batch_size=100, num_pass=2)
        model = fit_minibatch_offline(masked, cfg)
        assert len(model.fit_trace) == int(np.ceil(450 / 100)) * 2


class TestApproxLoglik:
    def test_univariate_density(self):
        rng = np.random.default_rng(22)
        vals = rng.standard_normal((40, 1))
        model = continuous_model(vals)
        lower, _ = encode_table(model.marginals, vals)
        expect = norm.logpdf(lower).mean()
        assert approx_loglik(model, vals) == pytest.approx(expect, abs=1e-10)

    def test_independence_factorization(self):
        rng = np.random.default_rng(23)
        vals = rng.standard_normal((50, 3))
        model = continuous_model(vals)
        lower, _ = encode_table(model.marginals, vals)
        expect = norm.logpdf(lower).sum(axis=1).mean()
        assert approx_loglik(model, vals) == pytest.approx(expect, abs=1e-10)

    def test_table_with_no_observed_cell_raises(self):
        model = continuous_model(np.random.default_rng(24).standard_normal((30, 4)))
        with pytest.raises(ValueError, match="no observed cell"):
            approx_loglik(model, np.full((3, 4), np.nan))

    @pytest.mark.parametrize("n_cols", [3, 5])
    def test_column_count_is_checked(self, n_cols):
        model = continuous_model(np.random.default_rng(25).standard_normal((30, 4)))
        table = np.random.default_rng(26).standard_normal((6, n_cols))
        with pytest.raises(ValueError, match=f"table has {n_cols} columns, "
                                             f"model expects 4"):
            approx_loglik(model, table)


class TestInitialCorr:
    def test_identity_fallback_without_complete_pairs(self):
        lower = np.array([[0.5, np.nan], [1.0, np.nan], [np.nan, 0.3]])
        corr = initial_corr(lower, lower.copy())
        assert corr[0, 1] == 0.0

    def test_psd_output(self):
        rng = np.random.default_rng(24)
        lower = rng.standard_normal((100, 5))
        lower[rng.random((100, 5)) < 0.5] = np.nan
        lower[np.isnan(lower).all(axis=1)] = 0.0
        corr = initial_corr(lower, lower.copy())
        assert np.linalg.eigvalsh(corr).min() >= 1e-6
        assert np.array_equal(np.diag(corr), np.ones(5))


class TestFitConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            FitConfig(tol=0.0)
        with pytest.raises(ValueError):
            FitConfig(batch_size=0)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be >= 0"):
            FitConfig(seed=-1)
        assert FitConfig(seed=0).seed == 0

    @pytest.mark.parametrize("field", ["n_workers", "sweeps"])
    def test_removed_fields_rejected(self, field):
        # the E-step is serial and always runs two sweeps
        with pytest.raises(TypeError):
            FitConfig(**{field: 2})
