import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from copulafill import latent
from copulafill.evaluation import random_correlation
from copulafill.latent import (
    batch_posterior,
    conditional_mvn,
    row_posterior,
    truncnorm_moments,
)

import truncmoments_oracle as tm_oracle
from truncmoments_oracle import std_normal_cdf, std_normal_quantile
from conftest import quad_truncnorm


class TestStdNormal:
    def test_cdf_center(self):
        assert std_normal_cdf(0.0) == 0.5

    def test_quantile_reference_value(self):
        # high-precision reference: sqrt(2) * erfinv(0.95)
        assert std_normal_quantile(0.975) == pytest.approx(1.95996398454, abs=1e-9)

    def test_inverse_round_trip(self):
        ps = np.arange(0.01, 1.0, 0.01)
        assert np.allclose(std_normal_cdf(std_normal_quantile(ps)), ps, atol=1e-10)

    def test_quantile_domain(self):
        for bad in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(ValueError):
                std_normal_quantile(bad)


class TestTruncnormMoments:
    def test_untruncated(self):
        assert truncnorm_moments(0.0, 1.0, (-np.inf, np.inf)) == (0.0, 1.0, 1.0)

    def test_symmetric_interval_mean_zero(self):
        m, v, _ = truncnorm_moments(0.0, 1.0, (-1.7, 1.7))
        assert m == pytest.approx(0.0, abs=1e-14)
        assert 0 < v < 1

    def test_half_line(self):
        m, v, mass = truncnorm_moments(0.0, 1.0, (0.0, np.inf))
        assert m == pytest.approx(np.sqrt(2 / np.pi), abs=1e-12)
        assert v == pytest.approx(1 - 2 / np.pi, abs=1e-12)
        assert mass == pytest.approx(0.5, abs=1e-14)

    def test_against_quadrature_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(60):
            mu = rng.uniform(-3, 3)
            var = rng.uniform(0.25, 4.0)
            sd = np.sqrt(var)
            kind = rng.integers(3)
            if kind == 0:
                a = rng.uniform(-9, 9)
                lo, hi = mu + sd * a, mu + sd * (a + rng.uniform(0.1, 5))
            elif kind == 1:
                lo, hi = mu + sd * rng.uniform(-9, 9), np.inf
            else:
                lo, hi = -np.inf, mu + sd * rng.uniform(-9, 9)
            m, v, mass = truncnorm_moments(mu, var, (lo, hi))
            om, ov, omass = quad_truncnorm(mu, var, lo, hi)
            assert m == pytest.approx(om, abs=1e-8)
            assert v == pytest.approx(ov, abs=1e-8)
            assert mass == pytest.approx(omass, abs=1e-10)

    def test_variance_never_exceeds_untruncated(self):
        rng = np.random.default_rng(7)
        mu = rng.uniform(-2, 2, 200)
        var = rng.uniform(0.1, 3, 200)
        lo = mu - rng.uniform(0, 4, 200) * np.sqrt(var)
        hi = lo + rng.uniform(0.01, 8, 200) * np.sqrt(var)
        m, v, _ = truncnorm_moments(mu, var, (lo, hi))
        assert np.all(v >= 0)
        assert np.all(v <= var + 1e-12)
        assert np.all((lo <= m) & (m <= hi))

    def test_far_tail_stays_inside_interval(self):
        m, v, mass = truncnorm_moments(0.0, 1.0, (12.0, 13.0))
        assert 12.0 <= m <= 13.0
        assert v > 0
        m, v, mass = truncnorm_moments(0.0, 1.0, (500.0, 501.0))
        assert 500.0 <= m <= 501.0 and mass == 0.0

    def test_unreachable_interval_flags_zero_mass(self):
        m, v, mass = truncnorm_moments(0.0, 1.0, (1e200, 2e200))
        assert (m, v, mass) == (1e200, 0.0, 0.0)

    def test_point_interval(self):
        assert truncnorm_moments(0.0, 1.0, (2.0, 2.0)) == (2.0, 0.0, 0.0)

    def test_rejects_bad_variance(self):
        with pytest.raises(ValueError):
            truncnorm_moments(0.0, 0.0, (0.0, 1.0))

    def test_reflection_symmetry(self):
        m1, v1, s1 = truncnorm_moments(0.0, 1.0, (1.0, 2.5))
        m2, v2, s2 = truncnorm_moments(0.0, 1.0, (-2.5, -1.0))
        assert m1 == pytest.approx(-m2, abs=1e-14)
        assert v1 == pytest.approx(v2, abs=1e-14)
        assert s1 == pytest.approx(s2, abs=1e-14)


class TestConditionalMvn:
    def test_identity_is_independence(self):
        mean, cov = conditional_mvn(np.eye(3), [0], [1.7], [1, 2])
        assert np.array_equal(mean, [0.0, 0.0])
        assert np.array_equal(cov, np.eye(2))

    def test_bivariate_formula(self):
        sigma = np.array([[1.0, 0.65], [0.65, 1.0]])
        mean, cov = conditional_mvn(sigma, [0], [1.0], [1])
        assert mean[0] == pytest.approx(0.65, abs=1e-14)
        assert cov[0, 0] == pytest.approx(1 - 0.65**2, abs=1e-14)

    def test_monte_carlo_oracle(self):
        sigma = np.array([[1.0, 0.65], [0.65, 1.0]])
        rng = np.random.default_rng(8)
        z = rng.multivariate_normal([0, 0], sigma, size=1_000_000)
        sel = np.abs(z[:, 0] - 1.0) < 0.01
        mean, cov = conditional_mvn(sigma, [0], [1.0], [1])
        mc_mean = z[sel, 1].mean()
        mc_se = z[sel, 1].std() / np.sqrt(sel.sum())
        assert abs(mean[0] - mc_mean) < 3 * mc_se + 0.01 * 0.65  # slab width bias

    def test_empty_missing(self):
        mean, cov = conditional_mvn(np.eye(2), [0, 1], [0.5, -0.5], [])
        assert mean.size == 0 and cov.shape == (0, 0)

    def test_conditioning_reduces_variance(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((5, 5))
        sigma = a @ a.T + np.eye(5)
        d = np.sqrt(np.diag(sigma))
        sigma = sigma / np.outer(d, d)
        _, cov = conditional_mvn(sigma, [0, 3], [0.2, -1.0], [1, 2, 4])
        assert np.all(np.diag(cov) <= 1.0 + 1e-12)

    def test_jitter_rescues_duplicated_column(self):
        sigma = np.array([[1.0, 1.0, 0.3], [1.0, 1.0, 0.3], [0.3, 0.3, 1.0]])
        mean, cov = conditional_mvn(sigma, [0, 1], [0.5, 0.5], [2])
        assert np.isfinite(mean).all() and np.isfinite(cov).all()


class TestRowPosterior:
    def test_all_continuous_matches_closed_form(self):
        rng = np.random.default_rng(10)
        a = rng.standard_normal((6, 6))
        sigma = a @ a.T + 6 * np.eye(6)
        d = np.sqrt(np.diag(sigma))
        sigma = sigma / np.outer(d, d)
        lower = rng.standard_normal(6)
        lower[[1, 4]] = np.nan
        upper = lower.copy()
        post = row_posterior(sigma, lower, upper)
        obs = [0, 2, 3, 5]
        mean, cov = conditional_mvn(sigma, obs, lower[obs], [1, 4])
        assert np.allclose(post.cond_mean[[1, 4]], mean, atol=1e-10)
        assert np.allclose(post.cond_cov_missing, cov, atol=1e-10)
        assert np.array_equal(post.cond_mean[obs], lower[obs])
        assert np.all(post.cond_var == 0)

    def test_single_ordinal_half_line(self):
        post = row_posterior(np.eye(1), [0.0], [np.inf])
        assert post.cond_mean[0] == pytest.approx(0.79788456, abs=1e-6)
        assert post.cond_var[0] == pytest.approx(0.36338023, abs=1e-6)

    def test_independent_missing_keeps_prior(self):
        post = row_posterior(np.eye(2), [0.0, np.nan], [np.inf, np.nan])
        assert post.cond_mean[1] == 0.0
        assert post.cond_cov_missing[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_symmetric_interval_keeps_zero_mean(self):
        post = row_posterior(np.eye(1), [-1.3], [1.3])
        assert post.cond_mean[0] == pytest.approx(0.0, abs=1e-14)

    def test_correlated_interval_shifts_missing(self):
        sigma = np.array([[1.0, 0.8], [0.8, 1.0]])
        post = row_posterior(sigma, [0.0, np.nan], [np.inf, np.nan])
        assert post.cond_mean[1] == pytest.approx(0.8 * 0.79788456, abs=1e-6)

    def test_fully_missing_row_gets_its_prior(self):
        sigma = random_correlation(4, seed=12)
        missing = np.full(4, np.nan)
        post = row_posterior(sigma, missing, missing)
        assert np.array_equal(post.cond_mean, np.zeros(4))
        assert np.array_equal(post.cond_var, np.zeros(4))
        assert np.array_equal(post.cond_cov_missing, sigma)
        assert post.obs_idx.size == 0
        assert np.array_equal(post.mis_idx, np.arange(4))


class TestBatchPosterior:
    def test_matches_per_row_calls(self):
        rng = np.random.default_rng(11)
        sigma = np.array([[1.0, 0.5, 0.2], [0.5, 1.0, 0.4], [0.2, 0.4, 1.0]])
        lower = rng.standard_normal((20, 3))
        upper = lower.copy()
        # make column 1 ordinal-ish intervals, column 2 sometimes missing
        upper[:, 1] = lower[:, 1] + 1.0
        miss = rng.random(20) < 0.4
        lower[miss, 2] = np.nan
        upper[miss, 2] = np.nan
        post = batch_posterior(sigma, lower, upper)
        for i in range(20):
            single = row_posterior(sigma, lower[i], upper[i])
            assert np.allclose(single.cond_mean, post.mean[i], atol=1e-12)
            assert np.allclose(single.cond_var, post.ivar[i], atol=1e-12)

    def test_gaussian_loglik_value(self):
        z = np.array([[0.3, -1.2]])
        post = batch_posterior(np.eye(2), z, z.copy())
        expect = -0.5 * (z**2).sum() - np.log(2 * np.pi)
        assert post.gauss_ll[0] == pytest.approx(expect, abs=1e-12)

    def test_singular_block_error_names_row(self):
        # indefinite matrix defeats the whole jitter ladder
        sigma = np.array([[1.0, 1.5], [1.5, 1.0]])
        z = np.array([[0.1, 0.2], [0.3, 0.4]])
        with pytest.raises(Exception, match="row 0"):
            batch_posterior(sigma, z, z.copy())


def bit_view(x):
    return np.asarray(x, dtype=float).view(np.uint64)


def same_bits(got, want):
    return all(np.array_equal(bit_view(g), bit_view(w)) for g, w in zip(got, want))


# bounds with the kernel's edge cases: infinite ends, point intervals
# (lower == upper), needle intervals and far tails
_bound = st.one_of(st.floats(-40.0, 40.0), st.sampled_from([-np.inf, np.inf, 0.0]))
_cell = st.tuples(
    st.floats(-300.0, 300.0),                              # mu
    st.floats(1e-6, 50.0),                                 # var
    _bound,                                                # one end
    st.one_of(_bound, st.floats(0.0, 1e-9), st.just(0.0)),  # other end or width
    st.booleans(),                                         # second is a width
)


def _cells_to_args(cells):
    mu, var, lo, hi = (np.array(c, dtype=float) for c in list(zip(*cells))[:4])
    width = np.array([c[4] for c in cells])
    with np.errstate(invalid="ignore"):
        hi = np.where(width & np.isfinite(lo), lo + np.abs(hi), hi)
    return mu, var, np.minimum(lo, hi), np.maximum(lo, hi)


class TestTruncmomentsMatchesOracle:
    """The trimmed kernel gives the earlier kernel's bits on every input."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_cell, min_size=1, max_size=12))
    def test_same_bits(self, cells):
        args = _cells_to_args(cells)
        assert same_bits(latent._truncmoments(*args),
                         tm_oracle.truncmoments(*args))

    @settings(max_examples=100, deadline=None)
    @given(_cell)
    def test_same_bits_on_scalars(self, cell):
        args = [float(a[0]) for a in _cells_to_args([cell])]
        got = latent._truncmoments(*args)
        assert all(isinstance(x, float) for x in got)
        assert same_bits(got, tm_oracle.truncmoments(*args))

    def test_same_bits_on_many_random_cells(self):
        rng = np.random.default_rng(20)
        n = 200_000
        mu = rng.standard_normal(n) * 10.0 ** rng.integers(-2, 3, n)
        var = 10.0 ** rng.uniform(-4, 1.5, n)
        lo = rng.standard_normal(n) * 10.0 ** rng.integers(-2, 2, n)
        hi = lo + np.where(rng.random(n) < 0.2, 0.0,
                           10.0 ** rng.uniform(-14, 1.5, n))
        lo[rng.random(n) < 0.15] = -np.inf
        hi[rng.random(n) < 0.15] = np.inf
        cols = (mu, var, lo, hi)
        for size in (1, 3, 10, 85, 260):
            for start in range(0, 2600, size):
                args = [c[start:start + size] for c in cols]
                assert same_bits(latent._truncmoments(*args),
                                 tm_oracle.truncmoments(*args))
        assert same_bits(latent._truncmoments(*cols), tm_oracle.truncmoments(*cols))

    def test_broadcast_scalar_moments(self):
        lo = np.array([-np.inf, -1.0, 0.5, 2.0])
        hi = np.array([np.inf, 1.0, 0.5, np.inf])
        assert same_bits(latent._truncmoments(0.0, 1.0, lo, hi),
                         tm_oracle.truncmoments(0.0, 1.0, lo, hi))

    def test_invalid_arguments_still_raise(self):
        with pytest.raises(ValueError, match="var > 0"):
            latent._truncmoments(0.0, 0.0, -1.0, 1.0)
        with pytest.raises(ValueError, match="lower <= upper"):
            latent._truncmoments(0.0, 1.0, 1.0, -1.0)


class TestTruncmomentsWithoutMass:
    """A call that skips the mass, as the Gauss-Seidel passes make, gives
    the moments of the full call bit for bit."""

    def test_same_bits_on_many_random_cells(self):
        # the cells of TestTruncmomentsMatchesOracle's test of this name
        rng = np.random.default_rng(20)
        n = 200_000
        mu = rng.standard_normal(n) * 10.0 ** rng.integers(-2, 3, n)
        var = 10.0 ** rng.uniform(-4, 1.5, n)
        lo = rng.standard_normal(n) * 10.0 ** rng.integers(-2, 2, n)
        hi = lo + np.where(rng.random(n) < 0.2, 0.0,
                           10.0 ** rng.uniform(-14, 1.5, n))
        lo[rng.random(n) < 0.15] = -np.inf
        hi[rng.random(n) < 0.15] = np.inf
        cols = (mu, var, lo, hi)
        for size in (1, 3, 10, 85, 260):
            for start in range(0, 2600, size):
                args = [c[start:start + size] for c in cols]
                m, v, mass = latent._truncmoments(*args, False)
                assert mass is None
                assert same_bits((m, v), latent._truncmoments(*args)[:2])
        assert same_bits(latent._truncmoments(*cols, False)[:2],
                         latent._truncmoments(*cols)[:2])

    def test_broadcast_and_scalar_arguments(self):
        # all-line, straddling, point, one-sided, needle and far-tail cells
        lo = np.array([-np.inf, -1.0, 0.5, 2.0, -1e-13, 60.0])
        hi = np.array([np.inf, 1.0, 0.5, np.inf, 2e-13, 60.5])
        assert same_bits(latent._truncmoments(0.0, 1.0, lo, hi, False)[:2],
                         latent._truncmoments(0.0, 1.0, lo, hi)[:2])
        got = latent._truncmoments(0.3, 2.0, -1.0, 0.5, False)
        assert got[2] is None
        assert same_bits(got[:2], latent._truncmoments(0.3, 2.0, -1.0, 0.5)[:2])

    def test_nan_cells_keep_the_earlier_bits(self):
        # a NaN working bound takes no branch: its cell keeps mean 0 and
        # variance 1, and is not sanitized
        nan, inf = np.nan, np.inf
        args = (np.array([nan, 0.0, 0.0, 1.0, nan, 0.0]),
                np.array([1.0, 1.0, 1.0, 1.0, 1.0, 1.0]),
                np.array([0.0, nan, -inf, 0.5, -inf, 0.2]),
                np.array([1.0, 1.0, nan, inf, inf, 0.2]))
        with np.errstate(invalid="ignore"):
            want = tm_oracle.truncmoments(*args)
            assert same_bits(latent._truncmoments(*args), want)
            assert same_bits(latent._truncmoments(*args, False)[:2], want[:2])

    def test_invalid_arguments_still_raise(self):
        one = np.ones(3)
        with pytest.raises(ValueError, match="var > 0"):
            latent._truncmoments(one, one * 0.0, -one, one, False)
        with pytest.raises(ValueError, match="lower <= upper"):
            latent._truncmoments(one, one, one, -one, False)


def _scalar_vs_array(args):
    """The scalar kernel and the array kernel on one cell."""
    got = latent._truncmoments_scalar(*args)
    assert all(type(x) is float for x in got)
    want = latent._truncmoments(*(np.array([a]) for a in args))
    np.testing.assert_allclose(got, [want[0][0], want[1][0]], rtol=1e-13, atol=1e-14)
    return want[2][0]


class TestScalarTruncmoments:
    """The single-row posterior's kernel against the array kernel."""

    @settings(max_examples=400, deadline=None)
    @given(_cell)
    def test_matches_array_kernel(self, cell):
        _scalar_vs_array([float(a[0]) for a in _cells_to_args([cell])])

    @pytest.mark.parametrize("args", [
        (0.0, 1.0, -np.inf, np.inf),       # untruncated
        (0.3, 2.0, -np.inf, 1.0),          # upper half-line: reflected
        (2.0, 0.5, -1.0, 0.5),             # left of mu: reflected
        (0.0, 1.0, 1.0, 1.0 + 1e-13),      # needle in the tail
        (0.1, 1.0, 0.1 - 1e-13, 0.1),      # needle ending at mu
        (0.0, 1.0, -1e-13, 2e-13),         # needles straddling mu
        (1.0, 4.0, 1.0 - 2e-12, 1.0 + 4e-12),
        (0.0, 1.0, 40.0, 41.0),            # far tail
        (300.0, 0.5, -np.inf, -40.0),      # beyond range: sanitized
        (-300.0, 1e-6, 40.0, np.inf),      # beyond range, one-sided
        (0.0, 1.0, 2.0, 2.0),              # a point: sanitized
    ])
    def test_branches(self, args):
        _scalar_vs_array(args)

    def test_many_random_cells_cover_every_branch(self):
        rng = np.random.default_rng(21)
        n = 20_000
        mu = rng.standard_normal(n) * 10.0 ** rng.integers(-2, 3, n)
        var = 10.0 ** rng.uniform(-4, 1.5, n)
        lo = rng.standard_normal(n) * 10.0 ** rng.integers(-2, 2, n)
        hi = lo + np.where(rng.random(n) < 0.05, 0.0, 10.0 ** rng.uniform(-14, 1.5, n))
        lo[rng.random(n) < 0.15] = -np.inf
        hi[rng.random(n) < 0.15] = np.inf
        masses = [_scalar_vs_array(args)
                  for args in zip(*(c.tolist() for c in (mu, var, lo, hi)))]
        sd = np.sqrt(var)
        a, b = (lo - mu) / sd, (hi - mu) / sd
        with np.errstate(invalid="ignore"):
            assert ((a == -np.inf) & (b != np.inf) | (a + b < 0)).any()
        assert (np.array(masses) == 0.0).any()                  # sanitized
        assert (np.isfinite(lo) & np.isfinite(hi) & (hi > lo)
                & (hi - lo < 1e-12 * sd)).any()                 # needles

    @pytest.mark.parametrize("args", [(np.inf, 1.0, 0.0, np.inf),
                                      (-np.inf, 1.0, -np.inf, 1.0)])
    def test_an_infinite_mean_at_an_infinite_bound_is_sanitized_bit_for_bit(self, args):
        # both standardized ends are non-finite, one of them NaN
        got = latent._truncmoments_scalar(*args)
        with np.errstate(invalid="ignore"):
            want = latent._truncmoments(*(np.array([a]) for a in args), False)
        assert np.array_equal(np.array(got).view(np.uint64),
                              np.array([want[0][0], want[1][0]]).view(np.uint64))

    def test_invalid_arguments_raise(self):
        with pytest.raises(ValueError, match="var > 0"):
            latent._truncmoments_scalar(0.0, 0.0, -1.0, 1.0)
        with pytest.raises(ValueError, match="lower <= upper"):
            latent._truncmoments_scalar(0.0, 1.0, 1.0, -1.0)


def _mixed_row(p, seed):
    """A random correlation and a latent row encoded as a mix of points,
    finite intervals, half-lines and missing cells (at least one observed)."""
    rng = np.random.default_rng(seed)
    sigma = random_correlation(p, seed=seed)
    z = rng.multivariate_normal(np.zeros(p), sigma)
    kind = rng.integers(0, 4, p)
    kind[rng.integers(p)] = rng.integers(0, 3)
    lo, hi = z.copy(), z.copy()
    cut = np.floor(z * 2.0) / 2.0
    lo[kind == 1], hi[kind == 1] = cut[kind == 1], cut[kind == 1] + 0.5
    half = kind == 2
    lo[half] = np.where(z[half] > 0, 0.0, -np.inf)
    hi[half] = np.where(z[half] > 0, np.inf, 0.0)
    lo[kind == 3] = hi[kind == 3] = np.nan
    return sigma, lo, hi


def _batch_row(sigma, lo, hi):
    """``batch_posterior`` of one row: its mean, interval variances and
    missing-block covariance (``cov_sum`` through ``visit``)."""
    cov = []
    post = batch_posterior(sigma, lo[None, :], hi[None, :],
                           visit=lambda ch: cov.append(ch.stack.cov_sum(ch.pat, ch.ivar)))
    mis = np.flatnonzero(np.isnan(lo))
    return post.mean[0], post.ivar[0], cov[0][np.ix_(mis, mis)]


class TestRowPosteriorMean:
    """The single-row solver, :func:`row_posterior`, against the batch path
    on the same row: means, interval variances and missing covariance."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 12), st.integers(0, 10**6), st.integers(0, 3))
    def test_matches_batch_posterior(self, p, seed, sweeps):
        sigma, lo, hi = _mixed_row(p, seed)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(latent, "_SWEEPS", sweeps)
            got = row_posterior(sigma, lo, hi)
            want = _batch_row(sigma, lo, hi)
        for g, w in zip((got.cond_mean, got.cond_var, got.cond_cov_missing), want):
            np.testing.assert_allclose(g, w, rtol=0, atol=1e-10)

    def test_singular_block_falls_back_to_the_batch_path(self):
        # two identical columns: the observed block does not factor
        sigma = np.array([[1.0, 1.0, 0.4], [1.0, 1.0, 0.4], [0.4, 0.4, 1.0]])
        lo = np.array([0.3, 0.0, np.nan])
        hi = np.array([0.3, np.inf, np.nan])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(sigma[:2, :2])
        got = row_posterior(sigma, lo, hi)
        for g, w in zip((got.cond_mean, got.cond_var, got.cond_cov_missing),
                        _batch_row(sigma, lo, hi)):
            assert np.array_equal(g, w)

    @pytest.mark.parametrize("p", [1, 3, 8])
    def test_fully_missing_row_matches_batch_posterior(self, p):
        sigma = random_correlation(p, seed=p)
        missing = np.full(p, np.nan)
        got = row_posterior(sigma, missing, missing)
        want = _batch_row(sigma, missing, missing)
        for g, w in zip((got.cond_mean, got.cond_var, got.cond_cov_missing), want):
            assert np.array_equal(g, w)


class TestPatternGrouping:
    """``_solve`` groups rows by one p-byte key per mask row; the groups
    must be those of ``np.unique(missing, axis=0)``."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 130), st.integers(0, 40), st.floats(0.0, 1.0),
           st.integers(0, 2**32 - 1))
    def test_same_first_and_inverse_as_unique_rows(self, p, n, share, seed):
        rng = np.random.default_rng(seed)
        # few distinct rows, so patterns repeat
        base = rng.random((max(1, n // 3), p)) < share
        missing = base[rng.integers(0, len(base), n)]
        missing[:, 0] = False   # _solve needs an observed cell in each row
        lower = np.where(missing, np.nan, 0.0)
        want_first, want_inverse = np.unique(
            missing, axis=0, return_index=True, return_inverse=True)[1:]
        post = latent.batch_posterior(np.eye(p), lower, lower)
        assert np.array_equal(post.pattern, want_inverse.ravel())
        # each pattern's first row is its lowest row index
        firsts = [g[0] for g in post.groups]
        assert np.array_equal(firsts, want_first)
