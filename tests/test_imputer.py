import numpy as np
import pytest
from scipy.special import ndtri
from scipy.stats import chisquare, norm

from copulafill.copula_em import CopulaModel, FitConfig, fit_standard
from copulafill.data_model import CONTINUOUS, DataTable, ORDINAL, VariableType
from copulafill.evaluation import mask_mcar, sample_gc, smae
from copulafill.imputer import (
    _decode_missing,
    _impute,
    _model_posterior,
    confidence_intervals,
    impute_multiple,
    impute_single,
    transform_out_of_sample,
)
from copulafill.lrgc import LowRankParams, fit_lrgc
from copulafill.marginals import fit_marginal

from conftest import make_mixed_dataset

def build_model(values, corr, tags=None):
    p = values.shape[1]
    tags = tags or [CONTINUOUS] * p
    marginals = [fit_marginal(values[:, j], VariableType(tags[j]))
                 for j in range(p)]
    return CopulaModel(np.asarray(corr, dtype=float), marginals,
                       [m.vartype for m in marginals],
                       [f"col{j}" for j in range(p)])


class TestImputeSingle:
    def test_independence_imputes_marginal_medians(self):
        rng = np.random.default_rng(0)
        train = rng.lognormal(size=(101, 2))
        model = build_model(train, np.eye(2))
        row = np.array([[np.nan, 1.0]])
        got = impute_single(model, row).imputed
        # latent 0 maps to the scaled-ECDF median
        expect = model.marginals[0].from_latent(0.0)
        assert got[0, 0] == expect
        assert got[0, 1] == 1.0

    def test_bivariate_median_propagates(self):
        rng = np.random.default_rng(1)
        train = rng.normal(size=(75, 2))
        model = build_model(train, [[1.0, 0.65], [0.65, 1.0]])
        med = np.median(train[:, 0])
        got = impute_single(model, np.array([[med, np.nan]])).imputed
        # the training median is not exactly latent 0 unless n is odd and
        # centered; use the exact encoded value instead
        z = model.marginals[0].latent_bounds(np.array([med]))[0][0]
        expect = model.marginals[1].from_latent(0.65 * z)
        assert got[0, 1] == expect

    def test_observed_cells_pass_through(self, mixed_dataset):
        _, truth, masked = mixed_dataset
        model = fit_standard(masked)
        res = impute_single(model, masked)
        obs = ~np.isnan(masked.values)
        assert np.array_equal(res.imputed[obs], masked.values[obs])
        assert not np.isnan(res.imputed).any()

    def test_all_missing_row_gets_medians(self):
        rng = np.random.default_rng(2)
        train = rng.normal(size=(50, 3))
        model = build_model(train, np.eye(3))
        got = impute_single(model, np.full((1, 3), np.nan)).imputed
        for j in range(3):
            assert got[0, j] == model.marginals[j].from_latent(0.0)

    def test_beats_median_on_mixed_data(self, mixed_dataset):
        _, truth, masked = mixed_dataset
        model = fit_standard(masked)
        res = impute_single(model, masked)
        scores = smae(res.imputed, truth, masked)
        assert np.nanmean(scores) < 0.95

    def test_column_mismatch_rejected(self):
        model = build_model(np.random.default_rng(3).normal(size=(20, 2)),
                            np.eye(2))
        with pytest.raises(ValueError, match="columns"):
            impute_single(model, np.zeros((2, 3)))

    def test_deterministic(self, mixed_dataset):
        _, _, masked = mixed_dataset
        model = fit_standard(masked)
        a = impute_single(model, masked).imputed
        b = impute_single(model, masked).imputed
        assert np.array_equal(a, b)


class TestTransformOutOfSample:
    def test_same_row_same_imputation(self):
        rng = np.random.default_rng(4)
        vals = rng.normal(size=(200, 3))
        vals[rng.random((200, 3)) < 0.2] = np.nan
        vals[np.isnan(vals).all(axis=1)] = 0.5
        tab = DataTable(vals)
        model = fit_standard(tab)
        full = impute_single(model, tab).imputed
        one = transform_out_of_sample(model, vals[7:8]).imputed
        assert np.array_equal(one[0], full[7])

    def test_new_all_missing_row(self):
        model = build_model(np.random.default_rng(5).normal(size=(30, 2)),
                            np.eye(2))
        got = transform_out_of_sample(model, np.full((1, 2), np.nan)).imputed
        assert got[0, 0] == model.marginals[0].from_latent(0.0)

    def test_latent_mean_formula(self):
        rng = np.random.default_rng(6)
        train = rng.normal(size=(60, 2))
        model = build_model(train, [[1.0, 0.65], [0.65, 1.0]])
        x = train[11, 0]
        res = transform_out_of_sample(model, np.array([[x, np.nan]]))
        z = model.marginals[0].latent_bounds(np.array([x]))[0][0]
        assert res.latent_means[0, 1] == pytest.approx(0.65 * z, abs=1e-12)


class TestImputeMultiple:
    def test_mean_of_draws_matches_posterior_expectation(self):
        # z -> F^-1(Phi(z)) is curved even for uniform margins, so the
        # draw mean estimates E[F^-1(Phi(Z))] under the latent posterior,
        # not the single imputation F^-1(Phi(mu)); the expectation is
        # taken on a K-point quantile grid of N(mu, sigma^2)
        rng = np.random.default_rng(7)
        train = np.column_stack([rng.normal(size=3000),
                                 rng.uniform(0, 100, 3000),
                                 rng.uniform(-50, 50, 3000)])
        corr = np.array([[1.0, 0.6, 0.3], [0.6, 1.0, 0.4], [0.3, 0.4, 1.0]])
        model = build_model(train, corr)
        row = np.array([[0.21, np.nan, np.nan]])
        num = 4000
        draws = impute_multiple(model, row, num=num, seed=1)
        mean, mvar = _model_posterior(model, row)
        grid = ndtri((np.arange(100_000) + 0.5) / 100_000)
        for j in (1, 2):
            z = mean[0, j] + np.sqrt(mvar[0, j]) * grid
            expected = model.marginals[j].from_latent(z).mean()
            sd = draws[:, 0, j].std()
            assert abs(draws[:, 0, j].mean() - expected) < 4 * sd / np.sqrt(num)

    def test_ordinal_frequencies_match_masses(self):
        rng = np.random.default_rng(8)
        levels = rng.choice([1.0, 2.0, 3.0], p=[0.5, 0.25, 0.25], size=400)
        model = build_model(levels.reshape(-1, 1), np.eye(1), tags=[ORDINAL])
        masses = model.marginals[0].masses
        draws = impute_multiple(model, np.array([[np.nan]]), num=5000, seed=2)
        counts = np.array([(draws[:, 0, 0] == lv).sum() for lv in (1, 2, 3)])
        stat = chisquare(counts, f_exp=masses * 5000)
        assert stat.pvalue > 0.01

    def test_reproducible_and_order_independent(self, mixed_dataset):
        _, _, masked = mixed_dataset
        model = fit_standard(masked)
        sub = masked.values[:40]
        a = impute_multiple(model, sub, num=3, seed=9)
        b = impute_multiple(model, sub, num=3, seed=9)
        assert np.array_equal(a, b)
        c = impute_multiple(model, sub, num=3, seed=10)
        assert not np.array_equal(a, c)

    def test_observed_cells_fixed_across_draws(self):
        rng = np.random.default_rng(10)
        train = rng.normal(size=(100, 2))
        model = build_model(train, np.eye(2))
        row = np.array([[0.5, np.nan]])
        draws = impute_multiple(model, row, num=7, seed=3)
        assert np.all(draws[:, 0, 0] == 0.5)

    def test_mean_pooled_regression_pipeline(self):
        # downstream smoke test: five imputed feature sets each feed a
        # linear model and the predictions are mean-pooled; pooling must
        # beat the average single-draw pipeline (convexity) and stay in the
        # ballpark of conditional-mean imputation, which is L2-optimal for
        # a linear model and so is not required to lose
        rng = np.random.default_rng(30)
        from conftest import make_continuous_dataset

        _, truth, masked = make_continuous_dataset(n=800, p=5, seed=31,
                                                   mask_fraction=0.3)
        beta = rng.normal(size=5)
        y = truth.values @ beta + rng.normal(0, 0.5, 800)
        model = fit_standard(masked)

        def fit_predict(features):
            x_tr = np.column_stack([np.ones(600), features[:600]])
            x_te = np.column_stack([np.ones(200), features[600:]])
            coef, *_ = np.linalg.lstsq(x_tr, y[:600], rcond=None)
            return x_te @ coef

        single = impute_single(model, masked).imputed
        mse_single = float(np.mean((fit_predict(single) - y[600:]) ** 2))
        draws = impute_multiple(model, masked, num=5, seed=32)
        preds = [fit_predict(draws[d]) for d in range(5)]
        per_draw = [float(np.mean((p - y[600:]) ** 2)) for p in preds]
        mse_pooled = float(np.mean((np.mean(preds, axis=0) - y[600:]) ** 2))
        assert np.isfinite(mse_pooled) and np.isfinite(mse_single)
        assert mse_pooled <= np.mean(per_draw)
        assert mse_pooled <= mse_single * 1.5

    def test_interval_observed_cells_resampled(self):
        # with an ordinal observed cell, the hidden continuous coordinate
        # draws should vary through the sampled latent interval value
        rng = np.random.default_rng(11)
        cont = rng.normal(size=300)
        ords = (cont > 0).astype(float)
        vals = np.column_stack([cont, ords])
        model = fit_standard(DataTable(vals))
        row = np.array([[np.nan, 1.0]])
        draws = impute_multiple(model, row, num=500, seed=4)
        assert draws[:, 0, 0].std() > 0.1


class TestConfidenceIntervals:
    def test_alpha_near_one_collapses_to_single_imputation(self):
        rng = np.random.default_rng(12)
        train = rng.normal(size=(100, 2))
        model = build_model(train, [[1.0, 0.5], [0.5, 1.0]])
        row = np.array([[0.3, np.nan]])
        lo, hi = confidence_intervals(model, row, alpha=1 - 1e-12)
        single = impute_single(model, row).imputed
        assert lo[0, 1] == pytest.approx(single[0, 1], abs=1e-6)
        assert hi[0, 1] == pytest.approx(single[0, 1], abs=1e-6)

    def test_independence_interval_is_marginal_band(self):
        rng = np.random.default_rng(13)
        train = rng.normal(size=(500, 2))
        model = build_model(train, np.eye(2))
        row = np.array([[0.0, np.nan]])
        lo, hi = confidence_intervals(model, row, alpha=0.05)
        # direct quantile oracle: the marginal band at Phi(+-1.96)
        m = model.marginals[1]
        assert lo[0, 1] == pytest.approx(m.from_latent(norm.ppf(0.025)), rel=1e-12)
        assert hi[0, 1] == pytest.approx(m.from_latent(norm.ppf(0.975)), rel=1e-12)

    def test_bounds_bracket_single_imputation(self, mixed_dataset):
        _, _, masked = mixed_dataset
        model = fit_standard(masked)
        sub = masked.values[:200]
        res = impute_single(model, sub)
        lo, hi = confidence_intervals(model, sub, alpha=0.05)
        cells = np.isnan(sub)
        assert np.all(lo[cells] <= res.imputed[cells] + 1e-12)
        assert np.all(hi[cells] >= res.imputed[cells] - 1e-12)
        assert np.all(np.isnan(lo[~cells]) & np.isnan(hi[~cells]))

    def test_more_observations_never_widen_latent_band(self):
        rng = np.random.default_rng(14)
        train = rng.normal(size=(200, 3))
        corr = np.array([[1.0, 0.5, 0.4], [0.5, 1.0, 0.3], [0.4, 0.3, 1.0]])
        model = build_model(train, corr)
        sparse = np.array([[0.4, np.nan, np.nan]])
        dense = np.array([[0.4, 0.8, np.nan]])
        from copulafill.imputer import _model_posterior

        _, var_sparse = _model_posterior(model, sparse)
        _, var_dense = _model_posterior(model, dense)
        assert var_dense[0, 2] <= var_sparse[0, 2] + 1e-12

    def test_quantile_kind_close_to_analytic_coverage(self):
        rng = np.random.default_rng(15)
        corr = np.array([[1.0, 0.6], [0.6, 1.0]])
        truth = sample_gc(800, [norm.ppf, norm.ppf], corr=corr, seed=16)
        masked = mask_mcar(truth, 0.25, seed=17)
        model = fit_standard(masked)
        cells = np.isnan(masked.values) & ~np.isnan(truth.values)
        lo_a, hi_a = confidence_intervals(model, masked, alpha=0.05)
        lo_q, hi_q = confidence_intervals(model, masked, alpha=0.05,
                                          kind="quantile", num_samples=200,
                                          seed=18)
        cov_a = ((lo_a[cells] <= truth.values[cells])
                 & (truth.values[cells] <= hi_a[cells])).mean()
        cov_q = ((lo_q[cells] <= truth.values[cells])
                 & (truth.values[cells] <= hi_q[cells])).mean()
        assert abs(cov_a - cov_q) < 0.03

    def test_ordinal_interval_may_collapse(self):
        rng = np.random.default_rng(19)
        levels = rng.choice([1.0, 2.0, 3.0], p=[0.2, 0.6, 0.2], size=300)
        model = build_model(levels.reshape(-1, 1), np.eye(1), tags=[ORDINAL])
        lo, hi = confidence_intervals(model, np.array([[np.nan]]), alpha=0.5)
        assert lo[0, 0] <= hi[0, 0]

    def test_invalid_arguments(self):
        model = build_model(np.random.default_rng(20).normal(size=(30, 1)),
                            np.eye(1))
        with pytest.raises(ValueError):
            confidence_intervals(model, np.zeros((1, 1)), alpha=0.0)
        with pytest.raises(ValueError):
            confidence_intervals(model, np.zeros((1, 1)), kind="bootstrap")


class TestEquivariance:
    def test_increasing_transform_at_sample_points(self):
        rng = np.random.default_rng(21)
        vals = rng.normal(size=(300, 2))
        vals[rng.random((300, 2)) < 0.2] = np.nan
        vals[np.isnan(vals).all(axis=1)] = 0.1
        tab_a = DataTable(vals)
        transformed = vals.copy()
        transformed[:, 0] = np.exp(transformed[:, 0])
        tab_b = DataTable(transformed)
        model_a = fit_standard(tab_a, FitConfig(max_iter=4, tol=1e-12))
        model_b = fit_standard(tab_b, FitConfig(max_iter=4, tol=1e-12))
        assert np.array_equal(model_a.corr, model_b.corr)
        imp_a = impute_single(model_a, tab_a).imputed
        imp_b = impute_single(model_b, tab_b).imputed
        # identical latent means, columns mapped through matching quantiles
        assert np.array_equal(
            impute_single(model_a, tab_a).latent_means,
            impute_single(model_b, tab_b).latent_means,
        )
        assert np.array_equal(imp_a[:, 1], imp_b[:, 1])


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64),
                                                 b.view(np.uint64))


def _dense_mixed_case():
    _, _, masked = make_mixed_dataset(n=300, seed=5, mask_fraction=0.3)
    return fit_standard(masked), masked.values


def _lowrank_case():
    rng = np.random.default_rng(9)
    w = rng.standard_normal((12, 3))
    w *= np.sqrt(0.8) / np.linalg.norm(w, axis=1, keepdims=True)
    tab = sample_gc(250, [norm.ppf] * 12, lowrank=LowRankParams(w, 0.2), seed=10)
    masked = mask_mcar(tab, 0.3, seed=11)
    return fit_lrgc(masked, 3), masked.values


def _with_all_missing_rows(values):
    values = values.copy()
    values[[0, 17, len(values) - 1]] = np.nan
    return values


class TestOneSolve:
    """``_impute`` solves a table once for its imputation, analytic bounds
    and draws; each must carry the bits of the public function that asks
    for it alone."""

    CASES = {"dense_mixed": _dense_mixed_case, "lowrank": _lowrank_case}

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("all_missing_rows", [False, True])
    def test_matches_the_public_functions(self, case, all_missing_rows):
        model, values = self.CASES[case]()
        if all_missing_rows:
            values = _with_all_missing_rows(values)
        result, draws = _impute(model, values, alpha=0.1, num=3, seed=7)
        single = impute_single(model, values)
        assert single.ci_lower is None and single.ci_upper is None
        assert same_bits(result.imputed, single.imputed)
        assert same_bits(result.latent_means, single.latent_means)
        lower, upper = confidence_intervals(model, values, alpha=0.1)
        assert same_bits(result.ci_lower, lower)
        assert same_bits(result.ci_upper, upper)
        assert same_bits(draws, impute_multiple(model, values, num=3, seed=7))
        observed = ~np.isnan(values)
        assert np.isnan(result.ci_lower[observed]).all()
        assert not np.isnan(result.ci_upper[~observed]).any()

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_one_decode_per_column_matches_one_per_draw(self, case):
        model, values = self.CASES[case]()
        values = _with_all_missing_rows(values)
        latent = np.zeros((4, *values.shape))
        _model_posterior(model, values, latent, seed=2)
        per_draw = np.stack([_decode_missing(model, values, z) for z in latent])
        assert same_bits(_decode_missing(model, values, latent), per_draw)
        assert same_bits(per_draw, impute_multiple(model, values, num=4, seed=2))

    def test_nothing_asked_beyond_the_imputation(self):
        model, values = _dense_mixed_case()
        result, draws = _impute(model, values)
        assert draws is None and result.ci_lower is None
