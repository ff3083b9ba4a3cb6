"""The stacked posterior against the per-pattern reference in
``posterior_oracle``, plus its invariants and safeguards."""

import tracemalloc
import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from copulafill import latent
from copulafill.copula_em import FitConfig, estep, fit_standard
from copulafill.data_model import DataTable
from copulafill.evaluation import random_correlation
from copulafill.imputer import impute_multiple
from copulafill.latent import batch_posterior, conditional_mvn
from copulafill.lrgc import LowRankParams, _FactorMoments, _lowrank_posterior

import posterior_oracle as oracle

FIELDS = ("mean", "ivar", "mvar", "gauss_ll", "log_mass")


def random_lowrank(p, k, sigma2, seed):
    w = np.random.default_rng(seed).standard_normal((p, k))
    w *= np.sqrt(1 - sigma2) / np.linalg.norm(w, axis=1, keepdims=True)
    return LowRankParams(w, sigma2)


def encode(z, rng, shared=False):
    """Latent bounds for z with cells of five kinds: 0 point, 1 interval,
    2 upper half-line, 3 lower half-line, 4 missing. With ``shared`` the
    second half of the rows repeats the first half's patterns."""
    n, p = z.shape
    kind = rng.integers(0, 5, size=(n, p))
    if shared:
        kind[n // 2: 2 * (n // 2)] = kind[: n // 2]
    kind[(kind == 4).all(axis=1), 0] = 1
    lower = np.select([kind == 0, kind == 1, kind == 2, kind == 3],
                      [z, z - 0.4, z - 0.2, -np.inf], np.nan)
    upper = np.select([kind == 0, kind == 1, kind == 2, kind == 3],
                      [z, z + 0.3, np.inf, z + 0.1], np.nan)
    return lower, upper


def dense_case(n, p, seed, shared=True):
    sigma = random_correlation(p, seed=seed, n_factors=2, noise=0.5)
    rng = np.random.default_rng(seed + 1)
    z = rng.multivariate_normal(np.zeros(p), sigma, size=n)
    return (sigma, *encode(z, rng, shared))


def lowrank_case(n, p, k, seed, shared=True):
    params = random_lowrank(p, k, 0.3, seed)
    rng = np.random.default_rng(seed + 1)
    z = (rng.standard_normal((n, k)) @ params.w.T
         + np.sqrt(0.3) * rng.standard_normal((n, p)))
    return (params, *encode(z, rng, shared))


def assert_posteriors_close(got, want, atol):
    for name in FIELDS:
        np.testing.assert_allclose(getattr(got, name), getattr(want, name),
                                   rtol=0, atol=atol, err_msg=name)


class TestMatchesOracle:
    @pytest.mark.parametrize("n,p,seed", [(60, 7, 1), (200, 12, 2), (9, 3, 3)])
    def test_dense(self, n, p, seed):
        sigma, lower, upper = dense_case(n, p, seed)
        got = batch_posterior(sigma, lower, upper)
        want = oracle.dense_posterior(sigma, lower, upper)
        assert want.ivar.any() and want.mvar.any() and want.log_mass.any()
        assert_posteriors_close(got, want, 1e-10)
        assert len(got.groups) == len(want.groups)

    @pytest.mark.parametrize("n,p,k,seed", [(60, 9, 2, 4), (150, 20, 4, 5)])
    def test_lowrank(self, n, p, k, seed):
        params, lower, upper = lowrank_case(n, p, k, seed)
        got = _lowrank_posterior(params, lower, upper, 2)
        want = oracle.lowrank_posterior(params, lower, upper)
        assert want.ivar.any() and want.mvar.any()
        assert_posteriors_close(got, want, 1e-10)

    def test_single_row_batches(self):
        sigma, lower, upper = dense_case(25, 6, 6, shared=False)
        params, lo_k, hi_k = lowrank_case(25, 6, 2, 7, shared=False)
        for i in range(25):
            assert_posteriors_close(
                batch_posterior(sigma, lower[i:i + 1], upper[i:i + 1]),
                oracle.dense_posterior(sigma, lower[i:i + 1], upper[i:i + 1]),
                1e-10)
            assert_posteriors_close(
                _lowrank_posterior(params, lo_k[i:i + 1], hi_k[i:i + 1], 2),
                oracle.lowrank_posterior(params, lo_k[i:i + 1], hi_k[i:i + 1]),
                1e-10)

    def test_sweep_count(self):
        sigma, lower, upper = dense_case(40, 5, 8)
        for sweeps in (0, 1, 4):
            assert_posteriors_close(
                batch_posterior(sigma, lower, upper, sweeps=sweeps),
                oracle.dense_posterior(sigma, lower, upper, sweeps), 1e-10)

    def test_rows_split_across_chunks(self, monkeypatch):
        sigma, lower, upper = dense_case(90, 5, 11)
        params, lo_k, hi_k = lowrank_case(90, 6, 2, 12)
        want = batch_posterior(sigma, lower, upper)
        want_k = _lowrank_posterior(params, lo_k, hi_k, 2)
        # dense: 8 patterns a stack, 40 rows a chunk; low-rank: 20 and 33
        monkeypatch.setattr(latent, "_CHUNK_ELEMS", 200)
        for got, ref in ((batch_posterior(sigma, lower, upper), want),
                         (_lowrank_posterior(params, lo_k, hi_k, 2), want_k)):
            for name in FIELDS:
                np.testing.assert_array_equal(getattr(got, name),
                                              getattr(ref, name), err_msg=name)
        assert_posteriors_close(want, oracle.dense_posterior(sigma, lower, upper),
                                1e-10)
        s_sum, m_sum = oracle.dense_estep_sums(sigma, lower, upper)
        np.testing.assert_allclose(estep(sigma, lower, upper).s_sum, s_sum,
                                   rtol=0, atol=1e-10)

    def test_each_pattern_is_factored_once(self, monkeypatch):
        sigma, lower, upper = dense_case(90, 5, 11)
        params, lo_k, hi_k = lowrank_case(90, 6, 2, 12)
        monkeypatch.setattr(latent, "_CHUNK_ELEMS", 200)
        for solve, lo, hi, per_stack, per_chunk in (
                (partial(batch_posterior, sigma), lower, upper, 8, 40),
                (partial(_lowrank_posterior, params, sweeps=2), lo_k, hi_k, 20, 33)):
            chunks = []
            post = solve(lo, hi, visit=chunks.append)
            stacks = {id(ch.stack): ch.stack for ch in chunks}.values()
            factored = [tuple(m) for st in stacks for m in st.missing]
            assert len(factored) == len(set(factored)) == len(post.groups)
            assert len(stacks) == -(-len(post.groups) // per_stack)
            assert max(len(ch.pat) for ch in chunks) <= per_chunk
            assert sum(len(ch.pat) for ch in chunks) == len(lo)

    def test_estep_sums(self):
        sigma, lower, upper = dense_case(120, 8, 9)
        got = estep(sigma, lower, upper)
        s_sum, m_sum = oracle.dense_estep_sums(sigma, lower, upper)
        np.testing.assert_allclose(got.s_sum, s_sum, rtol=0, atol=1e-10)
        np.testing.assert_allclose(got.m_sum, m_sum, rtol=0, atol=1e-10)

    def test_factor_moments(self):
        params, lower, upper = lowrank_case(120, 10, 3, 10)
        got = _FactorMoments(10, 3)
        _lowrank_posterior(params, lower, upper, 2, got.add)
        s1, s2, q, n_cells = oracle.factor_moments(params, lower, upper)
        np.testing.assert_allclose(got.s1, s1, rtol=0, atol=1e-10)
        np.testing.assert_allclose(got.s2, s2, rtol=0, atol=1e-10)
        np.testing.assert_allclose(got.q, q, rtol=0, atol=1e-10)
        assert got.n_cells == n_cells


def with_all_missing_row(lower, upper):
    blank = np.full((1, lower.shape[1]), np.nan)
    return np.vstack([lower, blank]), np.vstack([upper, blank])


class TestAllMissingRow:
    """A row with no observed cell is one more pattern: it gets its prior,
    N(0, Sigma), and leaves every other row's bits alone."""

    def assert_prior_row(self, got, want, var, atol):
        assert np.array_equal(got.mean[-1], np.zeros(len(var)))
        assert np.array_equal(got.ivar[-1], np.zeros(len(var)))
        np.testing.assert_allclose(got.mvar[-1], var, rtol=0, atol=atol)
        for name in ("mean", "ivar", "mvar"):
            np.testing.assert_array_equal(getattr(got, name)[:-1],
                                          getattr(want, name), err_msg=name)

    def test_dense(self):
        sigma, lower, upper = dense_case(60, 7, 1)
        got = batch_posterior(sigma, *with_all_missing_row(lower, upper))
        self.assert_prior_row(got, batch_posterior(sigma, lower, upper),
                              np.diag(sigma), 0.0)

    def test_lowrank(self):
        params, lower, upper = lowrank_case(60, 9, 2, 4)
        got = _lowrank_posterior(params, *with_all_missing_row(lower, upper), 2)
        self.assert_prior_row(got, _lowrank_posterior(params, lower, upper, 2),
                              (params.w ** 2).sum(axis=1) + params.sigma2, 1e-12)

    def test_estep_adds_sigma(self):
        sigma, lower, upper = dense_case(120, 8, 9)
        got = estep(sigma, *with_all_missing_row(lower, upper))
        want = estep(sigma, lower, upper)
        np.testing.assert_allclose(got.s_sum, want.s_sum + sigma, rtol=0,
                                   atol=1e-12)
        np.testing.assert_array_equal(got.m_sum, want.m_sum)


class TestTruncmomentsCalls:
    """One call for the start, one per interval column in each Gauss-Seidel
    pass, and one for every log-mass of a chunk."""

    @pytest.fixture
    def calls(self, monkeypatch):
        seen, real = [], latent._truncmoments
        monkeypatch.setattr(latent, "_truncmoments",
                            lambda *a: seen.append(np.broadcast(*a).size) or real(*a))
        return seen

    @pytest.mark.parametrize("sweeps", [0, 1, 3])
    def test_per_solved_chunk(self, calls, sweeps):
        sigma, lower, upper = dense_case(40, 5, 8)
        params, lo_k, hi_k = lowrank_case(40, 6, 2, 12)
        for solve, lo, hi in ((partial(batch_posterior, sigma), lower, upper),
                              (partial(_lowrank_posterior, params), lo_k, hi_k)):
            calls.clear()
            chunks = []
            solve(lo, hi, sweeps=sweeps, visit=chunks.append)
            interval = hi > lo
            k = int(interval.any(axis=0).sum())
            assert len(chunks) == 1 and k >= 2
            assert len(calls) == 1 + sweeps * k + 1
            assert calls[-1] == calls[0] == interval.sum()
            assert sum(calls) == (sweeps + 2) * interval.sum()

    def test_no_interval_cell_no_call(self, calls):
        sigma, lower, _ = dense_case(40, 5, 8)
        batch_posterior(sigma, lower, lower)
        assert calls == []


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 30))
def test_row_permutation_equivariance(seed, n):
    sigma, lower, upper = dense_case(n, 5, seed % 1000, shared=True)
    perm = np.random.default_rng(seed).permutation(n)
    whole = batch_posterior(sigma, lower, upper)
    permuted = batch_posterior(sigma, lower[perm], upper[perm])
    for name in FIELDS:
        np.testing.assert_allclose(getattr(permuted, name),
                                   getattr(whole, name)[perm],
                                   rtol=0, atol=1e-12, err_msg=name)


def assert_rows_bitwise(got, want, rows):
    for name in FIELDS:
        np.testing.assert_array_equal(getattr(got, name)[rows],
                                      getattr(want, name), err_msg=name)


class TestSafeguardsInsideAStack:
    def test_jitter_ladder_changes_only_its_pattern(self):
        # columns 0 and 1 are copies: observing both needs the jitter ladder
        sigma = np.array([[1.0, 1.0, 0.3], [1.0, 1.0, 0.3], [0.3, 0.3, 1.0]])
        nan = np.nan
        good_lo = np.array([[0.5, nan, 0.1], [nan, -0.2, 0.0],
                            [0.3, nan, nan], [nan, nan, -1.0]])
        good_hi = good_lo.copy()
        good_hi[0, 2] = np.inf
        good_hi[3, 2] = 0.5
        bad_lo = np.array([[0.4, 0.4, 0.2], [0.1, 0.1, nan]])
        bad_hi = bad_lo.copy()
        bad_hi[0, 2] = 0.9
        alone = batch_posterior(sigma, good_lo, good_hi)
        mixed = batch_posterior(sigma, np.vstack([good_lo[:2], bad_lo, good_lo[2:]]),
                                np.vstack([good_hi[:2], bad_hi, good_hi[2:]]))
        assert_rows_bitwise(mixed, alone, [0, 1, 4, 5])
        assert np.isfinite(mixed.mean[2:4]).all()
        assert np.isfinite(mixed.gauss_ll[2:4]).all()
        assert len(mixed.groups) == 6

    def test_singular_pattern_error_names_its_first_row(self):
        # indefinite: only the pattern observing both columns fails
        sigma = np.array([[1.0, 1.5], [1.5, 1.0]])
        z = np.array([[0.1, np.nan], [np.nan, 0.4], [0.3, 0.4], [0.5, 0.6]])
        with pytest.raises(np.linalg.LinAlgError, match=r"\(row 2\)"):
            batch_posterior(sigma, z, z.copy())

    def test_gram_fallback_changes_only_its_pattern(self):
        w = np.array([[0.6, 0.8], [0.8, -0.6], [1.0, 0.0], [0.0, 1.0]])
        params = LowRankParams(w, 1e-300)
        nan = np.nan
        # observing column 0 alone gives a singular Woodbury gram
        good = np.array([[-1.0, nan, 0.2, nan], [nan, 0.5, nan, 0.1],
                         [0.3, nan, -0.4, nan]])
        bad = np.array([[0.3, nan, nan, nan], [-0.7, nan, nan, nan]])
        alone = _lowrank_posterior(params, good, good.copy(), 2)
        mixed_rows = np.vstack([good[:1], bad, good[1:]])
        mixed = _lowrank_posterior(params, mixed_rows, mixed_rows.copy(), 2)
        assert_rows_bitwise(mixed, alone, [0, 3, 4])
        assert np.isfinite(mixed.mean[1:3]).all()


def test_draws_do_not_depend_on_chunking(monkeypatch):
    from conftest import make_mixed_dataset

    _, _, masked = make_mixed_dataset(n=120, seed=3, mask_fraction=0.3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model = fit_standard(masked, FitConfig(max_iter=2))
    whole = impute_multiple(model, masked, num=3, seed=5)
    # 7 patterns a stack, 56 rows a chunk
    monkeypatch.setattr(latent, "_CHUNK_ELEMS", 64 * 7)
    np.testing.assert_array_equal(impute_multiple(model, masked, num=3, seed=5),
                                  whole)


def test_dense_fit_at_p512_holds_one_missing_covariance_at_a_time():
    # at p=512 a stack holds one pattern, so every row is its own chunk;
    # one (p, p) missing covariance per chunk kept until the end would
    # peak near 66 MB here
    rng = np.random.default_rng(3)
    n, p = 24, 512
    vals = (rng.standard_normal((n, 4)) @ rng.standard_normal((4, p))
            + rng.standard_normal((n, p)))
    vals[rng.random((n, p)) < 0.3] = np.nan
    tracemalloc.start()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            fit_standard(DataTable(vals), FitConfig(max_iter=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2**20, f"peak {peak / 2**20:.1f} MB"


def test_conditional_mvn_factors_only_the_asked_block():
    p = 2000
    sigma = np.full((p, p), 0.3)
    np.fill_diagonal(sigma, 1.0)
    tracemalloc.start()
    try:
        mean, cov = conditional_mvn(sigma, [5, 900], [0.4, -1.0], [17])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, f"peak {peak / 2**20:.1f} MB"   # a p x p is 32 MB
    block = sigma[np.ix_([5, 900, 17], [5, 900, 17])]
    coef = np.linalg.solve(block[:2, :2], block[:2, 2])
    np.testing.assert_allclose(mean, [coef @ [0.4, -1.0]], rtol=0, atol=1e-14)
    np.testing.assert_allclose(cov, [[1.0 - block[2, :2] @ coef]], rtol=0, atol=1e-14)
