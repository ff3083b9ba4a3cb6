"""The per-row sampler that ``imputer._sample_chunk`` replaced, kept as a
test oracle: each row is drawn on its own, with one truncated-normal draw
call per interval cell and one missing-block draw per row, and every
all-missing row is drawn alone from the prior."""

from __future__ import annotations

from functools import partial

import numpy as np
from scipy.special import ndtr, ndtri

from copulafill.copula_em import encode_table
from copulafill.imputer import _model_kernel
from copulafill.lrgc import _LowRankStack


def truncnorm_draws(rng, mu, sd, lo, hi, num):
    """Inverse-CDF truncated normal draws, shape (num,)."""
    u_lo = ndtr((lo - mu) / sd)
    u_hi = ndtr((hi - mu) / sd)
    u = rng.uniform(u_lo, u_hi, size=num)
    return mu + sd * ndtri(np.clip(u, 1e-15, 1 - 1e-15))


def draw_missing(stack, z_obs, u, rng):
    """One row's missing block given its (num, p) drawn coordinates."""
    mis = stack.missing[u]
    if isinstance(stack, _LowRankStack):
        num, k = len(z_obs), stack.cov_t.shape[1]
        t_draw = (z_obs @ stack.w @ stack.ginv[u]
                  + rng.standard_normal((num, k)) @ stack._chol_t[u].T)
        noise = rng.standard_normal((num, mis.sum())) * np.sqrt(stack.s2)
        return t_draw @ stack.w[mis].T + noise
    eps = rng.standard_normal((len(z_obs), mis.sum()))
    return (z_obs @ stack.coef[u][:, mis]
            + eps @ stack._chol_missing[u][np.ix_(mis, mis)].T)


def sample_chunk(row_ids, lower, upper, latent, rngs, num, chunk):
    """Draw the rows of one solved posterior chunk into ``latent``, one
    row at a time."""
    stack, z, pat = chunk.stack, chunk.z, chunk.pat
    state = stack.start(z, pat)
    for r, i in enumerate(row_ids[chunk.rows]):
        rng, u = rngs[i], pat[r]
        z_obs = np.tile(z[r], (num, 1))
        for c in np.flatnonzero(upper[i] > lower[i]):
            z_obs[:, c] = truncnorm_draws(
                rng, stack.cond_mean(z, state, r, u, c), np.sqrt(stack.cvar[u, c]),
                lower[i, c], upper[i, c], num)
        latent[:, i] = z_obs
        mis = stack.missing[u]
        if mis.any():
            latent[:, i, mis] = draw_missing(stack, z_obs, u, rng)


def latent_draws(model, values, num: int, seed: int = 0) -> np.ndarray:
    """The (num, n, p) latent draws behind ``imputer.impute_multiple``,
    drawn by the per-row sampler."""
    values = np.asarray(values, dtype=float)
    lower, upper = encode_table(model.marginals, values)
    n, p = lower.shape
    latent = np.zeros((num, n, p))
    has_obs = ~np.isnan(lower).all(axis=1)
    posterior, make_stack = _model_kernel(model)
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(n)]
    posterior(lower[has_obs], upper[has_obs],
              visit=partial(sample_chunk, np.flatnonzero(has_obs), lower, upper,
                            latent, rngs, num))
    prior = make_stack(np.ones((1, p), dtype=bool))
    for i in np.flatnonzero(~has_obs):
        latent[:, i, :] = draw_missing(prior, np.zeros((num, p)), 0, rngs[i])
    return latent
