"""Latent-space numerics: normal utilities, truncated-normal moments,
multivariate-normal conditioning, and the approximate per-row posterior.

The per-row posterior is exact when every observed coordinate is a latent
point (continuous data). Interval-valued observations (ordinal levels,
truncation boundaries) are handled by a coordinate-wise fixed-point scheme:
each interval coordinate is repeatedly replaced by the moments of its
univariate conditional truncated normal given the other observed
coordinates at their current means. Cross-covariances among interval
coordinates are dropped; only their variances are kept.

One sweep serves both models. Per missingness pattern it runs against an
observed block: :class:`_DenseBlock` here, the Woodbury block of the
low-rank model in :mod:`copulafill.lrgc`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve, cholesky
from scipy.special import erfcx, ndtr, ndtri

_SQRT_2_OVER_PI = np.sqrt(2.0 / np.pi)
_LOG_2PI = np.log(2.0 * np.pi)

# diagonal jitter ladder applied when an observed-block factorization fails
_JITTERS = (0.0, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2)


def std_normal_cdf(z):
    """Standard normal CDF."""
    return ndtr(z)


def std_normal_quantile(p):
    """Exact functional inverse of the standard normal CDF on (0, 1)."""
    p = np.asarray(p, dtype=float)
    if np.any((p <= 0.0) | (p >= 1.0)):
        raise ValueError("quantile argument must lie strictly inside (0, 1)")
    out = ndtri(p)
    return float(out) if out.ndim == 0 else out


def truncnorm_moments(mu, var, interval):
    """Mean and variance of N(mu, var) truncated to an interval, plus the
    untruncated probability mass of the interval.

    ``interval`` is a LatentInterval or a (lower, upper) pair; bounds may be
    +-inf and all arguments broadcast. A returned mass of 0.0 flags an
    interval beyond numeric range; the moments then degenerate to the
    endpoint nearest mu with variance 0.
    """
    if hasattr(interval, "lower"):
        lower, upper = interval.lower, interval.upper
    else:
        lower, upper = interval
    return _truncmoments(mu, var, lower, upper)


def _truncmoments(mu, var, lower, upper):
    """Vectorized stable truncated-normal moments (see truncnorm_moments)."""
    scalar = all(np.ndim(x) == 0 for x in (mu, var, lower, upper))
    mu, var, lower, upper = np.broadcast_arrays(
        *(np.atleast_1d(np.asarray(a, dtype=float)) for a in (mu, var, lower, upper))
    )
    if np.any(var <= 0):
        raise ValueError("truncnorm_moments requires var > 0")
    if np.any(lower > upper):
        raise ValueError("truncated interval must have lower <= upper")
    sd = np.sqrt(var)
    a = (lower - mu) / sd
    b = (upper - mu) / sd

    # reflect so the working interval is [a, inf) or has a + b >= 0
    reflect = np.zeros(a.shape, dtype=bool)
    reflect[np.isneginf(a) & ~np.isposinf(b)] = True
    finite = np.isfinite(a) & np.isfinite(b)
    reflect[finite] = a[finite] + b[finite] < 0
    a_w = np.where(reflect, -b, a)
    b_w = np.where(reflect, -a, b)

    m = np.zeros_like(a_w)
    v = np.ones_like(a_w)
    mass = np.ones_like(a_w)

    both_inf = np.isinf(a_w) & np.isinf(b_w)
    one_sided = np.isinf(b_w) & ~both_inf
    two_sided = ~np.isinf(a_w) & ~np.isinf(b_w)

    with np.errstate(all="ignore"):
        if one_sided.any():
            aa = a_w[one_sided]
            e = _SQRT_2_OVER_PI / erfcx(aa / np.sqrt(2.0))
            m[one_sided] = e
            v[one_sided] = 1.0 + aa * e - e * e
            mass[one_sided] = ndtr(-aa)
        tail = two_sided & (a_w >= 0)
        if tail.any():
            aa, bb = a_w[tail], b_w[tail]
            delta = np.exp((aa * aa - bb * bb) / 2.0)
            ea = erfcx(aa / np.sqrt(2.0))
            eb = erfcx(bb / np.sqrt(2.0))
            d = ea - delta * eb
            e = _SQRT_2_OVER_PI * (1.0 - delta) / d
            e2 = 1.0 + _SQRT_2_OVER_PI * (aa - bb * delta) / d
            m[tail] = e
            v[tail] = e2 - e * e
            mass[tail] = np.exp(-aa * aa / 2.0) * d / 2.0
        strad = two_sided & (a_w < 0)
        if strad.any():
            aa, bb = a_w[strad], b_w[strad]
            z = ndtr(bb) - ndtr(aa)
            pa = np.exp(-aa * aa / 2.0) / np.sqrt(2.0 * np.pi)
            pb = np.exp(-bb * bb / 2.0) / np.sqrt(2.0 * np.pi)
            e = (pa - pb) / z
            m[strad] = e
            v[strad] = 1.0 + (aa * pa - bb * pb) / z - e * e
            mass[strad] = z
            # needle interval around 0: the density is locally uniform
            needle = np.zeros_like(reflect)
            needle[strad] = z < 1e-12
            if needle.any():
                m[needle] = (a_w[needle] + b_w[needle]) / 2.0
                v[needle] = (b_w[needle] - a_w[needle]) ** 2 / 12.0

    m[both_inf] = 0.0

    # sanitize: intervals beyond numeric range collapse to the endpoint
    # nearest mu with zero variance and a flagged zero mass
    bad = ~(np.isfinite(m) & np.isfinite(v))
    if bad.any():
        near = np.where(np.abs(a_w) <= np.abs(b_w), a_w, b_w)
        near = np.where(np.isinf(near), np.where(np.isinf(a_w), b_w, a_w), near)
        m[bad] = near[bad]
        v[bad] = 0.0
        mass[bad] = 0.0
    m = np.clip(m, a_w, b_w)
    v = np.clip(v, 0.0, 1.0)
    mass = np.clip(mass, 0.0, 1.0)

    m = np.where(reflect, -m, m)
    mean, tvar = mu + sd * m, var * v
    if scalar:
        return float(mean[0]), float(tvar[0]), float(mass[0])
    return mean, tvar, mass


def _chol_spd(mat: np.ndarray):
    """Cholesky with an escalating diagonal jitter ladder."""
    eye = np.eye(len(mat))
    for jit in _JITTERS:
        try:
            return cho_factor(mat + jit * eye if jit else mat, lower=True)
        except LinAlgError:
            continue
    raise LinAlgError(
        "observed-block correlation is singular even with jitter 1e-2"
    )


def conditional_mvn(sigma, obs_idx, z_obs, mis_idx):
    """Exact conditional of a zero-mean MVN on the missing coordinates.

    Returns the conditional mean vector and covariance of ``mis_idx`` given
    the coordinates ``obs_idx`` equal ``z_obs``.
    """
    sigma = np.asarray(sigma, dtype=float)
    obs_idx = np.asarray(obs_idx, dtype=int)
    mis_idx = np.asarray(mis_idx, dtype=int)
    z_obs = np.asarray(z_obs, dtype=float)
    if z_obs.shape != obs_idx.shape:
        raise ValueError("z_obs must match obs_idx in length")
    block = _DenseBlock(sigma, obs_idx, mis_idx)
    return z_obs @ block.coef, block.cov_pure


class _DenseBlock:
    """Observed block of one pattern under a dense correlation: Sigma_OO
    solved by Cholesky; the sweep's running state is J z, J = Sigma_OO^-1."""

    def __init__(self, sigma, obs, mis):
        factor = _chol_spd(sigma[np.ix_(obs, obs)])
        self.prec = cho_solve(factor, np.eye(len(obs)))
        self.cvar = 1.0 / np.diag(self.prec)   # observed conditional variances
        self.logdet = 2.0 * np.log(np.diag(factor[0])).sum()
        self.coef = cho_solve(factor, sigma[np.ix_(obs, mis)])  # (o, m)
        cov = sigma[np.ix_(mis, mis)] - sigma[np.ix_(mis, obs)] @ self.coef
        self.cov_pure = (cov + cov.T) / 2.0

    def start(self, z):
        return z @ self.prec

    def cond_mean(self, z, jz, sel, c):
        return z[sel, c] - jz[sel, c] * self.cvar[c]

    def update(self, jz, sel, c, delta):
        jz[sel] += delta[:, None] * self.prec[c][None, :]

    def quad(self, z, jz):
        return np.einsum("ij,ij->i", jz, z)

    def missing_moments(self, z, ivar, jz):
        var = np.diag(self.cov_pure)[None, :] + ivar @ (self.coef * self.coef)
        return z @ self.coef, var

    @cached_property
    def _chol_mis(self):
        return cholesky(self.cov_pure + 1e-10 * np.eye(len(self.cov_pure)),
                        lower=True)

    def draw_missing(self, z_obs, rng):
        eps = rng.standard_normal((len(z_obs), len(self.cov_pure)))
        return z_obs @ self.coef + eps @ self._chol_mis.T


@dataclass
class RowPosterior:
    """Conditional latent moments of one row given its observed cells.

    ``cond_mean`` covers every coordinate. ``cond_var`` holds the residual
    variance of interval-valued observed coordinates (zero at degenerate
    ones). ``cond_cov_missing`` is the conditional covariance of the missing
    coordinates given the observed cells, including the variance carried
    over from interval-valued observations.
    """

    cond_mean: np.ndarray
    cond_var: np.ndarray
    cond_cov_missing: np.ndarray
    obs_idx: np.ndarray
    mis_idx: np.ndarray


@dataclass
class _PatternGroup:
    rows: np.ndarray          # row indices sharing the missingness pattern
    obs_idx: np.ndarray
    mis_idx: np.ndarray
    block: object             # _DenseBlock or the low-rank block
    z_hat: np.ndarray         # (r, o) conditional means of observed coords
    ivar: np.ndarray          # (r, o) interval-coordinate variances
    state: np.ndarray         # the block's running state at z_hat


@dataclass
class BatchPosterior:
    """Posterior moments of a batch of latent-interval-encoded rows."""

    mean: np.ndarray          # (n, p) conditional means, all coordinates
    ivar: np.ndarray          # (n, p) interval-coordinate variances
    mvar: np.ndarray          # (n, p) missing-coordinate variances
    gauss_ll: np.ndarray      # (n,) Gaussian log-density of observed coords
    log_mass: np.ndarray      # (n,) summed interval log-masses
    groups: list

    @property
    def loglik(self) -> float:
        """Total approximate observed-data log-likelihood of the batch."""
        return float((self.gauss_ll + self.log_mass).sum())


def batch_posterior(sigma, lower, upper, sweeps: int = 2) -> BatchPosterior:
    """Approximate posterior for every row of an encoded batch.

    ``lower``/``upper`` are (n, p) latent bounds: NaN in both marks a
    missing cell, equal finite bounds a degenerate (continuous) cell, and a
    proper interval an ordinal level or truncation boundary. Rows are
    grouped by missingness pattern so each observed-block factorization is
    done once.
    """
    sigma = np.asarray(sigma, dtype=float)
    return _solve_patterns(lower, upper, sweeps,
                           lambda obs, mis: _DenseBlock(sigma, obs, mis))


def _solve_patterns(lower, upper, sweeps, make_block, visit=None) -> BatchPosterior:
    """Sweep each missingness pattern against ``make_block(obs, mis)``.
    Solved groups are kept in ``groups``, or passed to ``visit`` instead."""
    lower = np.atleast_2d(np.asarray(lower, dtype=float))
    upper = np.atleast_2d(np.asarray(upper, dtype=float))
    n, p = lower.shape
    post = BatchPosterior(np.zeros((n, p)), np.zeros((n, p)), np.zeros((n, p)),
                          np.zeros(n), np.zeros(n), [])
    missing = np.isnan(lower)
    if np.any(missing.all(axis=1)):
        row = int(np.flatnonzero(missing.all(axis=1))[0])
        raise ValueError(f"row {row} has no observed coordinates")

    _, inverse = np.unique(missing, axis=0, return_inverse=True)
    inverse = inverse.ravel()
    for g in np.unique(inverse):
        rows = np.flatnonzero(inverse == g)
        mis = np.flatnonzero(missing[rows[0]])
        obs = np.flatnonzero(~missing[rows[0]])
        try:
            block = make_block(obs, mis)
        except LinAlgError as err:
            raise LinAlgError(f"{err} (row {rows[0]})") from None
        z_hat, ivar, state, log_mass = _sweep(
            block, lower[np.ix_(rows, obs)], upper[np.ix_(rows, obs)], sweeps)
        post.mean[np.ix_(rows, obs)] = z_hat
        post.ivar[np.ix_(rows, obs)] = ivar
        if mis.size:
            post.mean[np.ix_(rows, mis)], post.mvar[np.ix_(rows, mis)] = \
                block.missing_moments(z_hat, ivar, state)
        post.gauss_ll[rows] = -0.5 * (block.logdet + block.quad(z_hat, state)
                                      + len(obs) * _LOG_2PI)
        post.log_mass[rows] = log_mass
        group = _PatternGroup(rows, obs, mis, block, z_hat, ivar, state)
        if visit is None:
            post.groups.append(group)
        else:
            visit(group)
    return post


def _sweep(block, lo, hi, sweeps):
    """The fixed-point scheme on one pattern group: ``sweeps`` passes over
    the interval columns, then one pass for the interval log-masses under
    the final conditionals. Returns z_hat, ivar, the state and log-masses."""
    interval = hi > lo
    z_hat = np.where(np.isfinite(lo), lo, 0.0)
    ivar = np.zeros_like(z_hat)
    log_mass = np.zeros(len(z_hat))
    cols = np.flatnonzero(interval.any(axis=0))
    if cols.size:
        z_hat[interval], ivar[interval], _ = _truncmoments(
            0.0, 1.0, lo[interval], hi[interval])
    state = block.start(z_hat)
    for final in [False] * sweeps + [True]:
        for c in cols:
            sel = interval[:, c]
            m, v, mass = _truncmoments(block.cond_mean(z_hat, state, sel, c),
                                       block.cvar[c], lo[sel, c], hi[sel, c])
            if final:
                log_mass[sel] += np.log(np.maximum(mass, 1e-300))
            else:
                block.update(state, sel, c, m - z_hat[sel, c])
                z_hat[sel, c] = m
                ivar[sel, c] = v
    return z_hat, ivar, state, log_mass


def row_posterior(sigma, lower, upper, sweeps: int = 2) -> RowPosterior:
    """Posterior of a single row; see :func:`batch_posterior` for encoding."""
    lower = np.asarray(lower, dtype=float).reshape(1, -1)
    upper = np.asarray(upper, dtype=float).reshape(1, -1)
    post = batch_posterior(sigma, lower, upper, sweeps=sweeps)
    group = post.groups[0]
    mis, coef = group.mis_idx, group.block.coef
    cov = group.block.cov_pure.copy()
    if mis.size and group.ivar.any():
        cov = cov + coef.T @ (group.ivar[0, :, None] * coef)
        cov = (cov + cov.T) / 2.0
    return RowPosterior(
        cond_mean=post.mean[0],
        cond_var=post.ivar[0],
        cond_cov_missing=cov,
        obs_idx=group.obs_idx,
        mis_idx=mis,
    )
