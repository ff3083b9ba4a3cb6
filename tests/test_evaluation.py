import numpy as np
import pytest
from scipy.stats import expon, kendalltau, norm

from copulafill.data_model import DataTable
from copulafill.evaluation import (
    coverage,
    mae,
    mask_mcar,
    ordinal_spec,
    random_correlation,
    sample_gc,
    smae,
    truncated_spec,
)


class TestMaskMcar:
    def test_exact_count(self):
        vals = np.arange(1000, dtype=float).reshape(100, 10) + 1
        masked = mask_mcar(DataTable(vals), 0.1, seed=0)
        assert np.isnan(masked.values).sum() == 100

    def test_reproducible(self):
        vals = np.random.default_rng(1).normal(size=(50, 4))
        a = mask_mcar(vals, 0.2, seed=7)
        b = mask_mcar(vals, 0.2, seed=7)
        assert np.array_equal(a, b, equal_nan=True)
        c = mask_mcar(vals, 0.2, seed=8)
        assert not np.array_equal(a, c, equal_nan=True)

    def test_only_observed_cells_masked(self):
        vals = np.random.default_rng(2).normal(size=(40, 3))
        vals[:10, 0] = np.nan
        masked = mask_mcar(vals, 0.15, seed=3)
        newly = np.isnan(masked) & ~np.isnan(vals)
        assert newly.sum() == round(0.15 * (~np.isnan(vals)).sum())
        # union of masked and remaining equals the original observed set
        assert np.array_equal(~np.isnan(masked) | newly, ~np.isnan(vals))

    def test_never_empties_a_column(self):
        vals = np.random.default_rng(4).normal(size=(5, 3))
        vals[1:, 0] = np.nan  # one observed cell left in column 0
        masked = mask_mcar(vals, 0.5, seed=5)
        assert (~np.isnan(masked)).sum(axis=0).min() >= 1

    def test_error_when_fraction_would_empty(self):
        vals = np.ones((2, 2))
        with pytest.raises(ValueError, match="empty"):
            mask_mcar(vals, 0.9, seed=6)

    def test_fraction_bounds(self):
        with pytest.raises(ValueError):
            mask_mcar(np.ones((3, 3)), 0.0)


class TestSmae:
    def test_median_imputation_scores_one(self):
        rng = np.random.default_rng(7)
        truth = rng.normal(size=(200, 3))
        masked = mask_mcar(truth, 0.2, seed=8)
        med = np.nanmedian(masked, axis=0)
        imputed = np.where(np.isnan(masked), med, masked)
        assert np.allclose(smae(imputed, truth, masked), 1.0)

    def test_perfect_imputation_scores_zero(self):
        truth = np.random.default_rng(9).normal(size=(50, 2))
        masked = mask_mcar(truth, 0.2, seed=10)
        assert np.allclose(smae(truth, truth, masked), 0.0)

    def test_hand_computed_example(self):
        truth = np.array([1.0, 2.0, 3.0, 2.0, 2.0]).reshape(-1, 1)
        masked = truth.copy()
        masked[:3] = np.nan  # observed remainder [2, 2], median 2
        imputed = np.array([1.0, 2.0, 2.0, 2.0, 2.0]).reshape(-1, 1)
        # MAE 1/3 against median-MAE 2/3
        assert smae(imputed, truth, masked)[0] == pytest.approx(0.5)

    def test_undefined_columns_are_nan(self):
        truth = np.array([[1.0, 2.0], [2.0, 2.0], [3.0, 2.0]])
        masked = truth.copy()
        masked[0, 0] = np.nan
        masked[0, 1] = np.nan
        scores = smae(truth.copy(), truth, masked)
        assert np.isfinite(scores[0])
        assert np.isnan(scores[1])  # median baseline is perfect
        no_eval = smae(truth, truth, truth)
        assert np.isnan(no_eval).all()
        assert np.isnan(mae(truth, truth, truth))
        hidden = truth.copy()
        hidden[:, 0] = np.nan       # no observed value to take the median of
        assert np.isnan(smae(truth, truth, hidden)[0])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            smae(np.ones((2, 2)), np.ones((3, 2)), np.ones((2, 2)))

    def test_errors_near_the_float_range_keep_finite_scores(self):
        # the sums of the absolute errors overflow, their means do not; the
        # test configuration turns numpy's overflow warning into an error
        truth = np.array([1.6e308, 1.6e308, 0.0, 0.0, 0.0]).reshape(-1, 1)
        masked = truth.copy()
        masked[:3] = np.nan  # observed remainder [0, 0], median 0
        imputed = np.array([0.0, 0.0, 0.8e308, 0.0, 0.0]).reshape(-1, 1)
        # MAE 4e308/3 against median-MAE 3.2e308/3
        assert smae(imputed, truth, masked)[0] == pytest.approx(1.25, rel=1e-15)
        assert mae(imputed, truth, masked) == pytest.approx(0.8e308 / 3 * 5, rel=1e-15)


class TestMae:
    def test_perfect_and_offset(self):
        truth = np.random.default_rng(11).normal(size=(40, 2))
        masked = mask_mcar(truth, 0.25, seed=12)
        assert mae(truth, truth, masked) == 0.0
        assert mae(truth + 0.37, truth, masked) == pytest.approx(0.37)

    def test_consistent_with_smae_numerator(self):
        rng = np.random.default_rng(13)
        truth = rng.normal(size=(100, 1))
        masked = mask_mcar(truth, 0.2, seed=14)
        imputed = np.where(np.isnan(masked), 0.0, masked)
        med = np.nanmedian(masked[:, 0])
        cells = np.isnan(masked[:, 0])
        denom = np.abs(med - truth[cells, 0]).mean()
        assert smae(imputed, truth, masked)[0] == pytest.approx(
            mae(imputed, truth, masked) / denom)


class TestCoverage:
    def test_counts_hits(self):
        truth = np.array([[0.0, 5.0]])
        masked = np.array([[np.nan, np.nan]])
        lo = np.array([[-1.0, 6.0]])
        hi = np.array([[1.0, 7.0]])
        assert coverage(lo, hi, truth, masked) == 0.5

    def test_rejects_upper_bounds_of_another_shape(self):
        t = np.zeros((4, 2))
        m = np.full((4, 2), np.nan)
        with pytest.raises(ValueError, match="shape mismatch"):
            coverage(t, t[:2], t, m)


class TestSampleGc:
    def test_independent_columns_uncorrelated(self):
        tab = sample_gc(4000, [norm.ppf, norm.ppf, norm.ppf], corr=np.eye(3),
                        seed=15)
        corr = np.corrcoef(tab.values, rowvar=False)
        off = corr[~np.eye(3, dtype=bool)]
        assert np.all(np.abs(off) < 3 / np.sqrt(4000))

    def test_exponential_transform_shape(self):
        # the quantile map z -> F^-1(Phi(z)) is monotone and convex in the
        # upper tail for a rate-1 exponential
        z = np.linspace(-2, 3, 101)
        x = expon.ppf(norm.cdf(z))
        assert np.all(np.diff(x) > 0)
        upper = x[z > 0.5]
        assert np.all(np.diff(upper, 2) > -1e-9)

    def test_ordinal_margin_keeps_dependence(self):
        corr = np.array([[1.0, 0.65], [0.65, 1.0]])
        tab = sample_gc(1500, [norm.ppf, ordinal_spec([0.3, 0.4, 0.3])],
                        corr=corr, seed=16)
        tau = kendalltau(tab.values[:, 0], tab.values[:, 1]).statistic
        assert tau > 0.25

    def test_ordinal_masses_respected(self):
        tab = sample_gc(20000, [ordinal_spec([0.5, 0.25, 0.25])],
                        corr=np.eye(1), seed=17)
        freq = [(tab.values == lv).mean() for lv in (1, 2, 3)]
        assert np.allclose(freq, [0.5, 0.25, 0.25], atol=0.02)

    def test_truncated_spec_boundary_mass(self):
        spec = truncated_spec(expon(scale=1.0).ppf, p_alpha=0.35, alpha=0.0)
        tab = sample_gc(20000, [spec], corr=np.eye(1), seed=18)
        assert (tab.values == 0.0).mean() == pytest.approx(0.35, abs=0.02)
        assert tab.values.min() == 0.0

    def test_lowrank_sampling(self):
        from copulafill.lrgc import LowRankParams, implied_corr

        rng = np.random.default_rng(19)
        w = rng.standard_normal((5, 2))
        w *= np.sqrt(0.8) / np.linalg.norm(w, axis=1, keepdims=True)
        params = LowRankParams(w, 0.2)
        tab = sample_gc(6000, [norm.ppf] * 5, lowrank=params, seed=20)
        emp = np.corrcoef(tab.values, rowvar=False)
        assert np.abs(emp - implied_corr(params)).max() < 0.08

    def test_invalid_corr_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            sample_gc(10, [norm.ppf, norm.ppf],
                      corr=np.array([[1.0, 0.9], [0.2, 1.0]]))
        bad = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(ValueError, match="positive semidefinite"):
            sample_gc(10, [norm.ppf, norm.ppf], corr=bad)

    def test_fit_recovers_sampler_correlation(self):
        # the central oracle loop: sample then fit
        from copulafill.copula_em import fit_standard
        from copulafill.evaluation import mask_mcar

        corr = random_correlation(4, seed=21)
        tab = sample_gc(3000, [norm.ppf, expon(scale=2).ppf,
                               ordinal_spec([0.25, 0.5, 0.25]), norm.ppf],
                        corr=corr, seed=22)
        masked = mask_mcar(tab, 0.1, seed=23)
        model = fit_standard(masked)
        rel = np.linalg.norm(model.corr - corr) / np.linalg.norm(corr)
        assert rel < 0.12


class TestRandomCorrelation:
    def test_valid_and_well_conditioned(self):
        for seed in range(5):
            corr = random_correlation(8, seed=seed, n_factors=3, noise=0.7)
            assert np.allclose(np.diag(corr), 1.0)
            w = np.linalg.eigvalsh(corr)
            assert w.min() > 0.01
            assert w.max() / w.min() < 200
