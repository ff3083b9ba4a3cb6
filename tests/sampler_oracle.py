"""The per-row sampler that ``imputer._sample_chunk`` replaced, kept as a
test oracle: each row is drawn on its own, with one truncated-normal draw
per interval cell and one missing-block draw per row, and every
all-missing row is drawn alone from the prior. Row i reads its normals
from ``eps[:, i]`` of the table's one draw-major normal array: a cell's
normal at its own column, a low-rank row's k factor normals past the p
columns."""

from __future__ import annotations

from functools import partial

import numpy as np
from scipy.special import ndtr, ndtri

from copulafill.copula_em import encode_table
from copulafill.imputer import _model_kernel
from copulafill.latent import _DenseStack
from copulafill.lrgc import _LowRankStack


def truncnorm_draws(eps, mu, sd, lo, hi):
    """Inverse-CDF truncated normal draws from the normals ``eps``."""
    u_lo = ndtr((lo - mu) / sd)
    u_hi = ndtr((hi - mu) / sd)
    u = u_lo + (u_hi - u_lo) * ndtr(eps)
    return mu + sd * ndtri(np.clip(u, 1e-15, 1 - 1e-15))


def draw_missing(stack, z_obs, u, eps):
    """One row's missing block given its (num, p) drawn coordinates and
    its (num, p + k) normals, one vector-matrix product a draw."""
    mis = stack.missing[u]
    z_obs, eps = z_obs[:, None, :], eps[:, None, :]
    if isinstance(stack, _LowRankStack):
        p = len(stack.w)
        t_draw = z_obs @ stack.w @ stack.ginv[u] + eps[..., p:] @ stack._chol_t[u].T
        noise = eps[..., :p][..., mis] * np.sqrt(stack.s2)
        return (t_draw @ stack.w[mis].T + noise)[:, 0]
    return (z_obs @ stack.coef[u][:, mis]
            + eps[..., mis] @ stack._chol_missing[u][np.ix_(mis, mis)].T)[:, 0]


def sample_chunk(row_ids, lower, upper, latent, eps, chunk):
    """Draw the rows of one solved posterior chunk into ``latent``, one
    row at a time."""
    stack, z, pat = chunk.stack, chunk.z, chunk.pat
    state = stack.start(z, pat)
    for r, i in enumerate(row_ids[chunk.rows]):
        u = pat[r]
        z_obs = np.tile(z[r], (len(latent), 1))
        for c in np.flatnonzero(upper[i] > lower[i]):
            z_obs[:, c] = truncnorm_draws(
                eps[:, i, c], stack.cond_mean(z, state, r, c, stack.cvar[u, c]),
                np.sqrt(stack.cvar[u, c]), lower[i, c], upper[i, c])
        latent[:, i] = z_obs
        mis = stack.missing[u]
        if mis.any():
            latent[:, i, mis] = draw_missing(stack, z_obs, u, eps[:, i])


def latent_draws(model, values, num: int, seed: int = 0) -> np.ndarray:
    """The (num, n, p) latent draws behind ``imputer.impute_multiple``,
    drawn by the per-row sampler."""
    values = np.asarray(values, dtype=float)
    lower, upper = encode_table(model.marginals, values)
    n, p = lower.shape
    latent = np.zeros((num, n, p))
    has_obs = ~np.isnan(lower).all(axis=1)
    posterior = _model_kernel(model)
    make_stack = (partial(_DenseStack, model.corr) if model.lowrank is None
                  else partial(_LowRankStack, model.lowrank))
    k = 0 if model.lowrank is None else model.lowrank.rank
    eps = np.random.default_rng(seed).standard_normal((num, n, p + k))
    posterior(lower[has_obs], upper[has_obs],
              visit=partial(sample_chunk, np.flatnonzero(has_obs), lower, upper,
                            latent, eps))
    prior = make_stack(np.ones((1, p), dtype=bool))
    for i in np.flatnonzero(~has_obs):
        latent[:, i, :] = draw_missing(prior, np.zeros((num, p)), 0, eps[:, i])
    return latent
