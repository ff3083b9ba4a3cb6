import dataclasses

import numpy as np
import pytest
from scipy.linalg import cho_factor
from scipy.sparse.linalg import svds
from scipy.stats import norm

from copulafill import lrgc
from copulafill.copula_em import (CopulaModel, FitConfig, _prepare_fit, approx_loglik,
                                  fit_standard)
from copulafill.data_model import CONTINUOUS, DataTable, VariableType
from copulafill.evaluation import mae, mask_mcar, ordinal_spec, sample_gc
from copulafill.imputer import impute_multiple, impute_single
from copulafill.latent import _interval_means, batch_posterior
from copulafill.lrgc import (
    LowRankParams,
    _FactorMoments,
    _init_lowrank,
    _lowrank_posterior,
    _mstep_lowrank,
    _project_unit_diag,
    fit_lrgc,
    implied_corr,
)
from copulafill.marginals import fit_marginal


def random_lowrank(p, k, sigma2, seed=0):
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((p, k))
    w *= np.sqrt(1 - sigma2) / np.linalg.norm(w, axis=1, keepdims=True)
    return LowRankParams(w, sigma2)


class TestImpliedCorr:
    def test_pure_noise_is_identity(self):
        params = LowRankParams(np.zeros((4, 2)) + 1e-30, 1 - 1e-9)
        assert np.allclose(implied_corr(params), np.eye(4), atol=1e-8)

    def test_rank_one_equicorrelation(self):
        w = np.full((5, 1), 0.8)
        params = LowRankParams(w, 1 - 0.64)
        corr = implied_corr(params)
        off = corr[~np.eye(5, dtype=bool)]
        assert np.allclose(off, 0.64, atol=1e-12)
        assert np.allclose(np.diag(corr), 1.0, atol=1e-12)

    def test_unit_diagonal_and_floor_eigenvalue(self):
        params = random_lowrank(12, 3, 0.2, seed=1)
        corr = implied_corr(params)
        assert np.allclose(np.diag(corr), 1.0, atol=1e-12)
        assert np.linalg.eigvalsh(corr).min() >= 0.2 - 1e-10

    def test_rotation_invariance(self):
        params = random_lowrank(8, 3, 0.3, seed=2)
        q, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((3, 3)))
        rotated = LowRankParams(params.w @ q, params.sigma2)
        assert np.allclose(implied_corr(params), implied_corr(rotated), atol=1e-12)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            LowRankParams(np.zeros((3, 3)), 0.5)  # k must be < p
        with pytest.raises(ValueError):
            LowRankParams(np.zeros((3, 1)), 0.0)


class TestFit:
    def test_recovers_lowrank_correlation(self):
        truth_params = random_lowrank(15, 3, 0.1, seed=4)
        specs = [norm.ppf] * 15
        tab = sample_gc(1500, specs, lowrank=truth_params, seed=5)
        masked = mask_mcar(tab, 0.2, seed=6)
        model = fit_lrgc(masked, rank=3, config=FitConfig(max_iter=40))
        est = implied_corr(model.lowrank)
        truth = implied_corr(truth_params)
        rel = np.linalg.norm(est - truth) / np.linalg.norm(truth)
        assert rel <= 0.12
        assert 0 < model.lowrank.sigma2 < 1

    def test_full_rank_limit_matches_standard_fit(self):
        truth_params = random_lowrank(4, 2, 0.2, seed=7)
        tab = sample_gc(2500, [norm.ppf] * 4, lowrank=truth_params, seed=8)
        masked = mask_mcar(tab, 0.1, seed=9)
        full = fit_standard(masked)
        low = fit_lrgc(masked, rank=3, config=FitConfig(max_iter=60))
        est = implied_corr(low.lowrank)
        rel = np.linalg.norm(est - full.corr) / np.linalg.norm(full.corr)
        assert rel <= 0.1

    def test_handles_ordinal_columns(self):
        truth_params = random_lowrank(6, 2, 0.2, seed=10)
        rng = np.random.default_rng(11)
        t = rng.standard_normal((800, 2))
        z = t @ truth_params.w.T + np.sqrt(0.2) * rng.standard_normal((800, 6))
        vals = z.copy()
        vals[:, 0] = np.digitize(vals[:, 0], [-0.5, 0.5]).astype(float)
        vals[rng.random((800, 6)) < 0.2] = np.nan
        vals[np.isnan(vals).all(axis=1), 0] = 1.0
        model = fit_lrgc(DataTable(vals), rank=2)
        assert np.isfinite(implied_corr(model.lowrank)).all()

    def test_rank_bounds(self):
        tab = DataTable(np.random.default_rng(12).standard_normal((50, 4)))
        with pytest.raises(ValueError, match="rank"):
            fit_lrgc(tab, rank=4)
        with pytest.raises(ValueError, match="rank"):
            fit_lrgc(tab, rank=0)

    def test_unit_diagonal_every_iteration(self):
        params = random_lowrank(10, 2, 0.3, seed=13)
        tab = sample_gc(400, [norm.ppf] * 10, lowrank=params, seed=14)
        masked = mask_mcar(tab, 0.2, seed=15)
        model = fit_lrgc(masked, rank=2, config=FitConfig(max_iter=5))
        norms2 = (model.lowrank.w ** 2).sum(axis=1)
        assert np.allclose(norms2 + model.lowrank.sigma2, 1.0, atol=1e-10)

    def test_imputation_close_to_full_model(self):
        truth_params = random_lowrank(12, 2, 0.15, seed=16)
        tab = sample_gc(1200, [norm.ppf] * 12, lowrank=truth_params, seed=17)
        masked = mask_mcar(tab, 0.2, seed=18)
        full = fit_standard(masked)
        low = fit_lrgc(masked, rank=2)
        mae_full = mae(impute_single(full, masked).imputed, tab, masked)
        mae_low = mae(impute_single(low, masked).imputed, tab, masked)
        assert mae_low <= 1.05 * mae_full


class TestBasisOfTheFit:
    """EM fits W W^T alone, and the fit returns W in the signed eigenbasis
    of W^T W, so neither the basis of the start nor a tiny move of the
    encodings moves W or the draws. On this table a start with random
    column signs moved the fitted W by 1.69 under a 1e-13 move."""

    @staticmethod
    def prep():
        tab = sample_gc(80, [norm.ppf] * 12, lowrank=random_lowrank(12, 3, 0.3, seed=2),
                        seed=2)
        return _prepare_fit(mask_mcar(np.round(tab.values, 3), 0.2, seed=2), None, 0.1)

    def test_a_rotated_start_gives_the_same_draws(self, monkeypatch):
        prep = self.prep()
        rot = np.linalg.qr(np.random.default_rng(3).standard_normal((3, 3)))[0]
        models = [fit_lrgc(prep, 3, FitConfig(max_iter=5))]
        start = _init_lowrank(*prep.fitted_bounds(), 3)
        monkeypatch.setattr(lrgc, "_init_lowrank",
                            lambda *_: LowRankParams(start.w @ rot, start.sigma2))
        models.append(fit_lrgc(prep, 3, FitConfig(max_iter=5)))
        a, b = (impute_multiple(m, prep.table.values, 2, seed=0) for m in models)
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-10)

    def test_a_tiny_move_of_the_encodings_keeps_the_fit(self):
        prep = self.prep()
        scale = 1 + 1e-13 * np.random.default_rng(0).standard_normal(prep.lower.shape)
        bumped = dataclasses.replace(prep, lower=prep.lower * scale,
                                     upper=prep.upper * scale)
        a, b = (fit_lrgc(p, 3, FitConfig(max_iter=5)).lowrank.w for p in (prep, bumped))
        assert np.abs(a - b).max() < 1e-10


def _svds_start(lower, upper, k):
    """The start from scipy's svds: the oracle of the eigh start."""
    z = np.nan_to_num(_interval_means(lower, upper), nan=0.0)
    _, s, vt = svds(z, k=k, random_state=0)
    w = vt.T * (s / np.sqrt(len(z)))
    signal = (w * w).sum(axis=1).mean()
    return _project_unit_diag(w, float(np.clip((z * z).mean() - signal, 0.01, 0.99)))


@pytest.mark.parametrize("n,p", [(80, 12), (40, 300)])
def test_the_start_matches_the_svds_start(n, p):
    # n >= p takes the eigenpairs of z^T z, n < p those of z z^T
    tab = sample_gc(n, [norm.ppf] * p, lowrank=random_lowrank(p, 3, 0.3, seed=n), seed=p)
    bounds = _prepare_fit(mask_mcar(tab, 0.2, seed=1), None, 0.1).fitted_bounds()
    got = _init_lowrank(*bounds, 3)
    w, sigma2 = _svds_start(*bounds, 3)
    np.testing.assert_allclose(got.w @ got.w.T, w @ w.T, rtol=0, atol=1e-12)
    assert abs(got.sigma2 - sigma2) <= 1e-12


class TestPosteriorOracle:
    """The Woodbury posterior agrees with the dense posterior run on the
    materialized implied correlation."""

    @pytest.fixture
    def case(self):
        params = random_lowrank(8, 2, 0.3, seed=20)
        rng = np.random.default_rng(21)
        n = 40
        z = (rng.standard_normal((n, 2)) @ params.w.T
             + np.sqrt(0.3) * rng.standard_normal((n, 8)))
        # 0 point, 1 interval, 2 upper half-line, 3 lower half-line, 4 missing
        kind = rng.integers(0, 5, size=(n, 8))
        kind[n // 2:] = kind[: n // 2]  # shared patterns: groups of several rows
        kind[(kind == 4).all(axis=1), 0] = 1
        lower = np.select([kind == 0, kind == 1, kind == 2, kind == 3],
                          [z, z - 0.4, z - 0.2, -np.inf], np.nan)
        upper = np.select([kind == 0, kind == 1, kind == 2, kind == 3],
                          [z, z + 0.3, np.inf, z + 0.1], np.nan)
        assert {0, 1, 2, 3, 4} <= set(kind.ravel())
        low = _lowrank_posterior(params, lower, upper)
        dense = batch_posterior(implied_corr(params), lower, upper)
        return low, dense

    def test_moments_and_loglik_match_dense(self, case):
        low, dense = case
        np.testing.assert_allclose(low.mean, dense.mean, rtol=0, atol=1e-10)
        np.testing.assert_allclose(low.ivar, dense.ivar, rtol=0, atol=1e-10)
        assert dense.ivar.any()
        total = float((dense.gauss_ll + dense.log_mass).sum())
        assert abs(low.loglik - total) <= 1e-10

    def test_missing_variance_carries_interval_variance(self, case):
        low, dense = case
        np.testing.assert_allclose(low.mvar, dense.mvar, rtol=0, atol=1e-10)

    def test_approx_loglik_matches_dense_on_implied_corr(self):
        params = random_lowrank(6, 2, 0.3, seed=23)
        specs = [norm.ppf, ordinal_spec([0.3, 0.4, 0.3])] * 3
        masked = mask_mcar(sample_gc(200, specs, lowrank=params, seed=24),
                           0.2, seed=25)
        low = fit_lrgc(masked, rank=2, config=FitConfig(max_iter=3))
        dense = dataclasses.replace(low, corr=implied_corr(low.lowrank),
                                    lowrank=None)
        assert approx_loglik(low, masked) == pytest.approx(
            approx_loglik(dense, masked), rel=0, abs=1e-10)


def test_singular_gram_falls_back_to_jitter_in_posterior_and_sampler():
    w = np.array([[0.6, 0.8], [0.8, -0.6], [1.0, 0.0], [0.0, 1.0]])
    params = LowRankParams(w, 1e-300)
    # a row observing column 0 only has a singular Woodbury gram
    with pytest.raises(np.linalg.LinAlgError):
        cho_factor(params.sigma2 * np.eye(2) + np.outer(w[0], w[0]), lower=True)
    train = np.random.default_rng(22).standard_normal((50, 4))
    marginals = [fit_marginal(train[:, j], VariableType(CONTINUOUS))
                 for j in range(4)]
    model = CopulaModel(None, marginals, [m.vartype for m in marginals],
                        list("abcd"), lowrank=params)
    rows = np.array([[0.3, np.nan, np.nan, np.nan],
                     [-1.0, np.nan, 0.2, np.nan]])
    assert np.isfinite(impute_single(model, rows).imputed).all()
    assert np.isfinite(impute_multiple(model, rows, num=3, seed=0)).all()


def test_imputation_keeps_no_per_pattern_state_at_p3000():
    # single imputation and analytic intervals keep nothing per pattern. At
    # p=3000, n=40 the table, its latent bounds and the posterior's grids
    # take about 7 MB; per-pattern blocks and moments for the 40 patterns
    # would add about 4 MB more than the 12.5 MB bound leaves room for
    import tracemalloc
    import warnings

    from copulafill.imputer import confidence_intervals

    params = random_lowrank(3000, 3, 0.1, seed=26)
    masked = mask_mcar(sample_gc(40, [norm.ppf] * 3000, lowrank=params, seed=27),
                       0.2, seed=28)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # two iterations need not converge
        model = fit_lrgc(masked, rank=3, config=FitConfig(max_iter=2))
    for impute in (lambda: impute_single(model, masked),
                   lambda: confidence_intervals(model, masked)):
        tracemalloc.start()
        impute()
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak <= 12.5e6


def _mstep_per_column(moments, k):
    """The low-rank M-step with one solve per column."""
    p = moments.s1.shape[0]
    w_new = np.empty((p, k))
    for j in range(p):
        w_new[j] = np.linalg.solve(moments.s1[j] + 1e-10 * np.eye(k), moments.s2[j])
    resid = moments.q - 2.0 * np.einsum("jk,jk->j", w_new, moments.s2) + np.einsum(
        "jk,jkl,jl->j", w_new, moments.s1, w_new)
    return _project_unit_diag(w_new, float(max(resid.sum() / moments.n_cells, 1e-6)))


@pytest.mark.parametrize("p,k", [(200, 5), (12, 1), (30, 3)])
def test_stacked_mstep_matches_per_column_solves(p, k):
    params = random_lowrank(p, k, 0.3, seed=p)
    table = sample_gc(150, [norm.ppf] * p, lowrank=params, seed=k)
    z = mask_mcar(table, 0.3, seed=1).values
    moments = _FactorMoments(p, k)
    _lowrank_posterior(params, z, z.copy(), moments.add)
    w_got, s2_got = _mstep_lowrank(moments, k)
    w_want, s2_want = _mstep_per_column(moments, k)
    assert np.array_equal(w_got, w_want)
    assert s2_got == s2_want
