"""Low-rank Gaussian copula: EM over the factorization Sigma = W W^T + s2 I.

The E-step is the shared pattern sweep of :mod:`copulafill.latent`, run
against :class:`_LowRankBlock`: per missingness pattern, a k x k Woodbury
system replaces the observed block of Sigma, so no p x p matrix is formed.
A fit folds each pattern group into the M-step sums as soon as it is
solved. Because the implied correlation must have a unit diagonal with
isotropic noise, every row of W carries the same norm sqrt(1 - s2); the
M-step keeps the fitted row directions and projects the scales back onto
that constraint.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve, cholesky
from scipy.sparse.linalg import svds

from .copula_em import CopulaModel, FitConfig, _prepare_fit, _rel_change, run_em
from .latent import BatchPosterior, _solve_patterns, _truncmoments


@dataclass
class LowRankParams:
    """Loading matrix W (p x k) and isotropic noise variance sigma2."""

    w: np.ndarray
    sigma2: float

    def __post_init__(self):
        self.w = np.asarray(self.w, dtype=float)
        if self.w.ndim != 2:
            raise ValueError("W must be a p x k matrix")
        p, k = self.w.shape
        if not 1 <= k < p:
            raise ValueError(f"rank must satisfy 1 <= k < p, got k={k}, p={p}")
        if not 0 < self.sigma2 < 1:
            raise ValueError(f"sigma2 must lie in (0, 1), got {self.sigma2}")

    @property
    def rank(self) -> int:
        return self.w.shape[1]


def implied_corr(params: LowRankParams) -> np.ndarray:
    """Materialize the implied p x p correlation W W^T + sigma2 I."""
    corr = params.w @ params.w.T
    corr[np.diag_indices(len(corr))] += params.sigma2
    return corr


def _project_unit_diag(w: np.ndarray, sigma2: float) -> tuple[np.ndarray, float]:
    """Rescale onto the constraint set ||W_j||^2 + sigma2 = 1 for all rows."""
    norms2 = (w * w).sum(axis=1)
    sigma2 = float(np.clip(sigma2 / np.mean(norms2 + sigma2), 1e-4, 1.0 - 1e-4))
    scale = np.sqrt(1.0 - sigma2) / np.maximum(np.sqrt(norms2), 1e-12)
    return w * scale[:, None], sigma2


class _LowRankBlock:
    """Observed block of one pattern under Sigma = W W^T + s2 I: the k x k
    Woodbury gram G = s2 I + W_O^T W_O. The sweep's running state is the
    factor means G^-1 W_O^T z; W is shared, so a kept block is O(k o)."""

    def __init__(self, params: LowRankParams, obs, mis):
        w, s2, k = params.w, params.sigma2, params.rank
        self.w, self.obs, self.mis, self.s2 = w, obs, mis, s2
        w_o = w[obs]
        gram = s2 * np.eye(k) + w_o.T @ w_o
        try:
            factor = cho_factor(gram, lower=True)
        except LinAlgError:
            factor = cho_factor(gram + 1e-8 * np.eye(k), lower=True)
        self.u = cho_solve(factor, w_o.T)              # (k, o) = G^-1 W_O^T
        self.ginv = cho_solve(factor, np.eye(k))
        self.cov_t = s2 * self.ginv                    # factor covariance
        # determinant lemma
        self.logdet = ((len(obs) - k) * np.log(s2)
                       + 2.0 * np.log(np.diag(factor[0])).sum())

    @cached_property
    def cvar(self):
        """Observed conditional variances, from the diagonal of
        Sigma_OO^-1 = (I - W_O G^-1 W_O^T) / s2."""
        h = np.einsum("ij,ji->i", self.w[self.obs], self.u)
        return 1.0 / ((1.0 - h) / self.s2)

    def start(self, z):
        return z @ self.u.T

    def cond_mean(self, z, ft, sel, c):
        jz_c = (z[sel, c] - ft[sel] @ self.w[self.obs[c]]) / self.s2
        return z[sel, c] - jz_c * self.cvar[c]

    def update(self, ft, sel, c, delta):
        ft[sel] += delta[:, None] * self.u[:, c][None, :]

    def quad(self, z, ft):
        s_vec = z @ self.w[self.obs]                   # (r, k) W_O^T z
        return ((z * z).sum(axis=1)
                - np.einsum("ij,ij->i", s_vec @ self.ginv, s_vec)) / self.s2

    def missing_moments(self, z, ivar, ft):
        w_m = self.w[self.mis]
        var = np.einsum("ij,jk,ik->i", w_m, self.cov_t, w_m) + self.s2
        if ivar.any():
            # interval variance through Sigma_MO Sigma_OO^-1 = W_M G^-1 W_O^T,
            # as one k x k matrix per row instead of an (o, m) coefficient
            carried = np.einsum("ko,ro,lo->rkl", self.u, ivar, self.u)
            var = var + np.einsum("mk,rkl,ml->rm", w_m, carried, w_m)
        return ft @ w_m.T, var

    @cached_property
    def _chol_t(self):
        return cholesky(self.cov_t + 1e-12 * np.eye(len(self.cov_t)), lower=True)

    def draw_missing(self, z_obs, rng):
        num, k = len(z_obs), len(self.cov_t)
        t_draw = z_obs @ self.u.T + rng.standard_normal((num, k)) @ self._chol_t.T
        noise = rng.standard_normal((num, len(self.mis))) * np.sqrt(self.s2)
        return t_draw @ self.w[self.mis].T + noise


class _FactorMoments:
    """M-step sums of the low-rank fit, added one pattern group at a time."""

    def __init__(self, p: int, k: int):
        self.s1 = np.zeros((p, k, k))  # sums of E[t t^T] over rows observing j
        self.s2 = np.zeros((p, k))     # sums of E[t] z_j
        self.q = np.zeros(p)           # sums of z_j^2 + interval variance
        self.n_cells = 0

    def add(self, group) -> None:
        obs, z, ft = group.obs_idx, group.z_hat, group.state
        block = len(z) * group.block.cov_t + ft.T @ ft
        self.s1[obs] += block[None, :, :]
        self.s2[obs] += z.T @ ft
        self.q[obs] += (z * z + group.ivar).sum(axis=0)
        self.n_cells += z.size


def _lowrank_posterior(params: LowRankParams, lower, upper, sweeps,
                       moments: _FactorMoments | None = None) -> BatchPosterior:
    """Posterior of an encoded batch under the low-rank model. With
    ``moments``, each pattern group is added to those M-step sums and
    dropped, so a fit holds one group at a time; else groups are kept."""
    return _solve_patterns(lower, upper, sweeps,
                           lambda obs, mis: _LowRankBlock(params, obs, mis),
                           visit=None if moments is None else moments.add)


def _mstep_lowrank(moments: _FactorMoments, k: int) -> tuple[np.ndarray, float]:
    p = moments.s1.shape[0]
    w_new = np.empty((p, k))
    for j in range(p):
        w_new[j] = np.linalg.solve(moments.s1[j] + 1e-10 * np.eye(k), moments.s2[j])
    resid = moments.q - 2.0 * np.einsum("jk,jk->j", w_new, moments.s2) + np.einsum(
        "jk,jkl,jl->j", w_new, moments.s1, w_new)
    sigma2 = float(max(resid.sum() / moments.n_cells, 1e-6))
    return _project_unit_diag(w_new, sigma2)


def _init_lowrank(lower, upper, k) -> LowRankParams:
    z = lower.copy()
    interval = ~np.isnan(lower) & (upper > lower)
    if interval.any():
        m0, _, _ = _truncmoments(0.0, 1.0, lower[interval], upper[interval])
        z[interval] = m0
    z = np.nan_to_num(z, nan=0.0)
    n = z.shape[0]
    u, s, vt = svds(z, k=k, random_state=0)
    w = vt.T * (s / np.sqrt(n))[None, :]
    total = (z * z).sum() / z.size
    signal = (w * w).sum(axis=1).mean()
    sigma2 = float(np.clip(total - signal, 0.01, 0.99))
    w, sigma2 = _project_unit_diag(w, sigma2)
    return LowRankParams(w, sigma2)


def fit_lrgc(
    table,
    rank: int,
    config: FitConfig | None = None,
    types=None,
    min_ord_ratio: float = 0.1,
) -> CopulaModel:
    """Fit the low-rank copula by EM over (W, sigma2).

    Per-iteration cost scales with the observed-entry count times rank^2;
    the correlation is kept factored and only materialized by
    :func:`implied_corr`.
    """
    config = config or FitConfig()
    table, marginals, vartypes, lower, upper, _ = _prepare_fit(
        table, types, min_ord_ratio
    )
    n, p = lower.shape
    if not 1 <= rank < p:
        raise ValueError(f"rank must satisfy 1 <= rank < n_cols, got {rank} (p={p})")
    if rank >= n:
        raise ValueError(f"rank {rank} needs more than {n} fitted rows")

    def em_step(params, rows, eta):
        moments = _FactorMoments(p, rank)
        post = _lowrank_posterior(params, lower[rows], upper[rows],
                                  config.sweeps, moments)
        w_new, s2_new = _mstep_lowrank(moments, rank)
        return (LowRankParams(w_new, s2_new), _rel_change(params.w, w_new),
                post.loglik / n)

    params, trace, converged = run_em(_init_lowrank(lower, upper, rank),
                                      em_step, config)
    return CopulaModel(None, marginals, vartypes, list(table.col_names),
                       fit_trace=trace, converged=converged, lowrank=params,
                       sweeps=config.sweeps)
