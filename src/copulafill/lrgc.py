"""Low-rank Gaussian copula: EM over the factorization Sigma = W W^T + s2 I.

The E-step is the one batched sweep of :mod:`copulafill.latent`, run
against :class:`_LowRankStack`: every missingness pattern's observed block
of Sigma is replaced by a k x k Woodbury gram, all of them factored
together as one (U, k, k) stack, so no p x p or U x p x p array is formed.
A fit folds each solved chunk of patterns into the M-step sums with one
matrix product and drops it. Because the implied correlation must have a
unit diagonal with isotropic noise, every row of W carries the same norm
sqrt(1 - s2); the M-step keeps the fitted row directions and projects the
scales back onto that constraint. The start is z's top k singular pairs,
from the eigenpairs of z's smaller gram, and the fitted W is put in the
eigenbasis of W^T W, so a fit's draws depend on W W^T, the seed and the
row count, not on the basis EM ended in.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from .copula_em import CopulaModel, FitConfig, _prepare_fit, _rel_change, run_em
from .data_model import ConfigError
from .latent import (BatchPosterior, _chol_inverse, _chol_stack, _diag,
                     _interval_means, _solve)


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


class _LowRankStack:
    """Observed blocks of U missingness patterns under Sigma = W W^T + s2 I,
    as a (U, k, k) stack of inverse Woodbury grams G^-1, with
    G = s2 I + W_O^T W_O; W is shared, so no p x p or (U, k, p) array is
    formed. The sweep's running state is the factor means G^-1 W_O^T z."""

    def __init__(self, params: LowRankParams, missing):
        w, s2, k = params.w, params.sigma2, params.rank
        self.w, self.s2, self.missing = w, s2, missing
        self._outer = (w[:, :, None] * w[:, None, :]).reshape(len(w), -1)
        gram = (~missing @ self._outer).reshape(-1, k, k) + s2 * np.eye(k)
        chol = _chol_stack(gram, np.ones((len(missing), k)), (0.0, 1e-8))
        self.ginv = _chol_inverse(chol)
        self.cov_t = s2 * self.ginv                     # factor covariance
        # determinant lemma
        self.logdet = (((~missing).sum(axis=1) - k) * np.log(s2)
                       + 2.0 * np.log(_diag(chol)).sum(axis=1))

    def _leverage(self, mats):
        """w_j^T M w_j for every column j and every k x k matrix M."""
        return np.einsum("jk,ukl,jl->uj", self.w, mats, self.w)

    @cached_property
    def cvar(self):
        """Observed conditional variances, from the diagonal of
        Sigma_OO^-1 = (I - W_O G^-1 W_O^T) / s2."""
        return 1.0 / ((1.0 - self._leverage(self.ginv)) / self.s2)

    def start(self, z, pat):
        return (self.ginv[pat] @ (z @ self.w)[:, :, None])[:, :, 0]

    def cond_mean(self, z, ft, rows, c, cvar):
        if np.ndim(c):
            # one column per row: a dot per row, as for a row drawn alone
            fw = (ft[rows, None, :] @ self.w[c, :, None])[:, 0, 0]
        else:
            fw = ft[rows] @ self.w[c]
        jz_c = (z[rows, c] - fw) / self.s2
        return z[rows, c] - jz_c * cvar

    def update(self, ft, rows, pats, c, delta):
        ft[rows] += delta[:, None] * (self.ginv[pats] @ self.w[c])

    def quad(self, z, ft, pat):
        s_vec = z @ self.w                              # (r, k) W_O^T z
        return (np.einsum("ij,ij->i", z, z)
                - np.einsum("ij,ij->i", (s_vec[:, None, :] @ self.ginv[pat])[:, 0],
                            s_vec)) / self.s2

    def missing_mean(self, ft):
        return ft @ self.w.T

    def missing_var(self, ivar, pat):
        cov = self.cov_t[pat]
        if ivar.any():
            # interval variance carried into the factor covariance,
            # G^-1 W_O^T diag(ivar) W_O G^-1: k x k per row, no (o, m) matrix
            ginv = self.ginv[pat]
            cov = cov + ginv @ (ivar @ self._outer).reshape(cov.shape) @ ginv
        var = self._leverage(cov)
        var += self.s2
        return var

    @cached_property
    def _chol_t(self):
        return np.linalg.cholesky(self.cov_t + 1e-12 * np.eye(self.cov_t.shape[1]))

    def draw_missing(self, draw, pat, eps):
        """Fill the missing cells of ``draw`` (r, num, p), rows of patterns
        ``pat`` holding their drawn observed cells, from the normals
        ``eps`` (r, num, p + k) laid out as :mod:`copulafill.imputer` says:
        the noise at those same cells, the factors past column p. Each draw
        of a row is a chain of vector-matrix products, so it does not
        depend on the draws or rows made with it."""
        p = len(self.w)
        t_draw = (draw[..., None, :] @ self.w @ self.ginv[pat, None]
                  + eps[..., None, p:] @ np.swapaxes(self._chol_t[pat, None], 2, 3))
        cells = np.broadcast_to(self.missing[pat][:, None, :], draw.shape)
        draw[cells] = ((t_draw @ self.w.T)[..., 0, :][cells]
                       + eps[..., :p][cells] * np.sqrt(self.s2))


class _FactorMoments:
    """M-step sums of the low-rank fit, added one solved chunk at a time."""

    def __init__(self, p: int, k: int):
        self.s1 = np.zeros((p, k, k))  # sums of E[t t^T] over rows observing j
        self.s2 = np.zeros((p, k))     # sums of E[t] z_j
        self.q = np.zeros(p)           # sums of z_j^2 + interval variance
        self.n_cells = 0

    def add(self, chunk) -> None:
        obs = ~chunk.stack.missing[chunk.pat]
        z, ft = chunk.z, chunk.state
        e_tt = chunk.stack.cov_t[chunk.pat] + ft[:, :, None] * ft[:, None, :]
        # one product over the chunk's rows: (p, r) @ (r, k^2)
        self.s1 += (obs.T.astype(float) @ e_tt.reshape(len(e_tt), -1)).reshape(
            self.s1.shape)
        self.s2 += z.T @ ft
        self.q += np.einsum("ij,ij->j", z, z) + chunk.ivar.sum(axis=0)
        self.n_cells += int(obs.sum())


def _lowrank_posterior(params: LowRankParams, lower, upper, visit=None) -> BatchPosterior:
    """Posterior of an encoded batch under the low-rank model; ``visit`` as
    in :func:`copulafill.latent.batch_posterior`. A fit passes
    ``_FactorMoments.add``, so it holds one chunk at a time."""
    return _solve(lower, upper, partial(_LowRankStack, params),
                  len(params.w) + params.rank ** 2, visit)


def _mstep_lowrank(moments: _FactorMoments, k: int) -> tuple[np.ndarray, float]:
    # one solve over the (p, k, k) stack, each column's system on its own
    w_new = np.linalg.solve(moments.s1 + 1e-10 * np.eye(k),
                            moments.s2[:, :, None])[:, :, 0]
    resid = moments.q - 2.0 * np.einsum("jk,jk->j", w_new, moments.s2) + np.einsum(
        "jk,jkl,jl->j", w_new, moments.s1, w_new)
    sigma2 = float(max(resid.sum() / moments.n_cells, 1e-6))
    return _project_unit_diag(w_new, sigma2)


def _init_lowrank(lower, upper, k) -> LowRankParams:
    z = np.nan_to_num(_interval_means(lower, upper), nan=0.0)
    n, p = z.shape
    # z's top k singular pairs from its smaller gram, so no array outgrows z
    if n >= p:
        lam, v = np.linalg.eigh(z.T @ z)
        w = v[:, -k:] * np.sqrt(np.maximum(lam[-k:], 0.0) / n)
    else:
        w = z.T @ np.linalg.eigh(z @ z.T)[1][:, -k:] / np.sqrt(n)
    total = (z * z).sum() / z.size
    signal = (w * w).sum(axis=1).mean()
    sigma2 = float(np.clip(total - signal, 0.01, 0.99))
    return LowRankParams(*_project_unit_diag(w, sigma2))


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
    prep = _prepare_fit(table, types, min_ord_ratio)
    lower, upper = prep.fitted_bounds()
    n, p = lower.shape
    if not 1 <= rank < p:
        raise ConfigError(f"rank must satisfy 1 <= rank < n_cols, got {rank} (p={p})")
    if rank >= n:
        raise ValueError(f"rank {rank} needs more than {n} fitted rows")

    def em_step(params, rows, eta):
        moments = _FactorMoments(p, rank)
        post = _lowrank_posterior(params, lower[rows], upper[rows],
                                  visit=moments.add)
        w_new, s2_new = _mstep_lowrank(moments, rank)
        return (LowRankParams(w_new, s2_new), _rel_change(params.w, w_new),
                post.loglik / n)

    params, trace, converged = run_em(_init_lowrank(lower, upper, rank),
                                      em_step, config)
    # EM fits W W^T alone: W goes to W^T W's eigenbasis, largest first, signed
    w = params.w @ np.linalg.eigh(params.w.T @ params.w)[1][:, ::-1]
    params.w = w * np.sign(w[np.abs(w).argmax(axis=0), np.arange(rank)])
    return CopulaModel(None, prep.marginals, prep.vartypes,
                       list(prep.table.col_names), fit_trace=trace,
                       converged=converged, lowrank=params)
