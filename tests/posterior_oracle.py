"""Per-pattern reference for the approximate latent posterior.

The package solves all missingness patterns of a batch in one stacked
sweep. This module keeps the direct form: rows are grouped by pattern,
each pattern's observed block is factored on its own (a Cholesky block for
a dense correlation, a k x k Woodbury block for W W^T + s2 I), and the
coordinate sweep runs on one group at a time. Tests compare the package
against it; nothing in ``src/`` imports it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from copulafill.latent import _truncmoments

_LOG_2PI = np.log(2.0 * np.pi)
_JITTERS = (0.0, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2)


def _chol_spd(mat):
    eye = np.eye(len(mat))
    for jit in _JITTERS:
        try:
            return cho_factor(mat + jit * eye if jit else mat, lower=True)
        except LinAlgError:
            continue
    raise LinAlgError("observed-block correlation is singular even with jitter 1e-2")


class DenseBlock:
    """Observed block of one pattern under a dense correlation; the sweep's
    running state is J z with J = Sigma_OO^-1."""

    def __init__(self, sigma, obs, mis):
        factor = _chol_spd(sigma[np.ix_(obs, obs)])
        self.prec = cho_solve(factor, np.eye(len(obs)))
        self.cvar = 1.0 / np.diag(self.prec)
        self.logdet = 2.0 * np.log(np.diag(factor[0])).sum()
        self.coef = cho_solve(factor, sigma[np.ix_(obs, mis)])
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


class LowRankBlock:
    """Observed block of one pattern under Sigma = W W^T + s2 I; the sweep's
    running state is the factor means G^-1 W_O^T z."""

    def __init__(self, params, obs, mis):
        w, s2, k = params.w, params.sigma2, params.w.shape[1]
        self.w, self.obs, self.mis, self.s2 = w, obs, mis, s2
        w_o = w[obs]
        gram = s2 * np.eye(k) + w_o.T @ w_o
        try:
            factor = cho_factor(gram, lower=True)
        except LinAlgError:
            factor = cho_factor(gram + 1e-8 * np.eye(k), lower=True)
        self.u = cho_solve(factor, w_o.T)
        self.ginv = cho_solve(factor, np.eye(k))
        self.cov_t = s2 * self.ginv
        self.logdet = ((len(obs) - k) * np.log(s2)
                       + 2.0 * np.log(np.diag(factor[0])).sum())
        h = np.einsum("ij,ji->i", w_o, self.u)
        self.cvar = 1.0 / ((1.0 - h) / s2)

    def start(self, z):
        return z @ self.u.T

    def cond_mean(self, z, ft, sel, c):
        jz_c = (z[sel, c] - ft[sel] @ self.w[self.obs[c]]) / self.s2
        return z[sel, c] - jz_c * self.cvar[c]

    def update(self, ft, sel, c, delta):
        ft[sel] += delta[:, None] * self.u[:, c][None, :]

    def quad(self, z, ft):
        s_vec = z @ self.w[self.obs]
        return ((z * z).sum(axis=1)
                - np.einsum("ij,ij->i", s_vec @ self.ginv, s_vec)) / self.s2

    def missing_moments(self, z, ivar, ft):
        w_m = self.w[self.mis]
        var = np.einsum("ij,jk,ik->i", w_m, self.cov_t, w_m) + self.s2
        carried = np.einsum("ko,ro,lo->rkl", self.u, ivar, self.u)
        var = var + np.einsum("mk,rkl,ml->rm", w_m, carried, w_m)
        return ft @ w_m.T, var


@dataclass
class Group:
    rows: np.ndarray
    obs: np.ndarray
    mis: np.ndarray
    block: object
    z_hat: np.ndarray
    ivar: np.ndarray
    state: np.ndarray


@dataclass
class Posterior:
    mean: np.ndarray
    ivar: np.ndarray
    mvar: np.ndarray
    gauss_ll: np.ndarray
    log_mass: np.ndarray
    groups: list = field(default_factory=list)


def sweep(block, lo, hi, sweeps):
    """Initial univariate moments, ``sweeps`` Gauss-Seidel passes over the
    interval columns, then one pass for the interval log-masses."""
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


def solve_patterns(lower, upper, sweeps, make_block):
    lower = np.atleast_2d(np.asarray(lower, dtype=float))
    upper = np.atleast_2d(np.asarray(upper, dtype=float))
    n, p = lower.shape
    post = Posterior(np.zeros((n, p)), np.zeros((n, p)), np.zeros((n, p)),
                     np.zeros(n), np.zeros(n))
    missing = np.isnan(lower)
    _, inverse = np.unique(missing, axis=0, return_inverse=True)
    inverse = inverse.ravel()
    for g in np.unique(inverse):
        rows = np.flatnonzero(inverse == g)
        mis = np.flatnonzero(missing[rows[0]])
        obs = np.flatnonzero(~missing[rows[0]])
        block = make_block(obs, mis)
        z_hat, ivar, state, log_mass = sweep(
            block, lower[np.ix_(rows, obs)], upper[np.ix_(rows, obs)], sweeps)
        post.mean[np.ix_(rows, obs)] = z_hat
        post.ivar[np.ix_(rows, obs)] = ivar
        if mis.size:
            post.mean[np.ix_(rows, mis)], post.mvar[np.ix_(rows, mis)] = \
                block.missing_moments(z_hat, ivar, state)
        post.gauss_ll[rows] = -0.5 * (block.logdet + block.quad(z_hat, state)
                                      + len(obs) * _LOG_2PI)
        post.log_mass[rows] = log_mass
        post.groups.append(Group(rows, obs, mis, block, z_hat, ivar, state))
    return post


def dense_posterior(sigma, lower, upper, sweeps=2):
    sigma = np.asarray(sigma, dtype=float)
    return solve_patterns(lower, upper, sweeps,
                          lambda obs, mis: DenseBlock(sigma, obs, mis))


def lowrank_posterior(params, lower, upper, sweeps=2):
    return solve_patterns(lower, upper, sweeps,
                          lambda obs, mis: LowRankBlock(params, obs, mis))


def dense_estep_sums(sigma, lower, upper, sweeps=2):
    """(s_sum, m_sum): summed E[z z^T] and E[z] over the batch's rows."""
    post = dense_posterior(sigma, lower, upper, sweeps)
    p = post.mean.shape[1]
    s = post.mean.T @ post.mean
    s[np.diag_indices(p)] += post.ivar.sum(axis=0)
    for g in post.groups:
        if g.mis.size == 0:
            continue
        block = len(g.rows) * g.block.cov_pure
        vsum = g.ivar.sum(axis=0)
        if vsum.any():
            block = block + g.block.coef.T @ (vsum[:, None] * g.block.coef)
        s[np.ix_(g.mis, g.mis)] += block
    return s, post.mean.sum(axis=0)


def factor_moments(params, lower, upper, sweeps=2):
    """Low-rank M-step sums (s1, s2, q, n_cells), added group by group."""
    post = lowrank_posterior(params, lower, upper, sweeps)
    p, k = params.w.shape
    s1, s2, q, n_cells = np.zeros((p, k, k)), np.zeros((p, k)), np.zeros(p), 0
    for g in post.groups:
        z, ft = g.z_hat, g.state
        s1[g.obs] += (len(z) * g.block.cov_t + ft.T @ ft)[None, :, :]
        s2[g.obs] += z.T @ ft
        q[g.obs] += (z * z + g.ivar).sum(axis=0)
        n_cells += z.size
    return s1, s2, q, n_cells
