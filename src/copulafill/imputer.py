"""Single and multiple imputation plus confidence intervals from a fitted model.

Every operation builds the per-row latent posterior under the fitted
correlation, fills missing coordinates, and maps back through the fitted
marginals. Rows without any observed cell fall back to latent zero, i.e.
each marginal's median-type value.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.special import ndtr, ndtri

from .copula_em import CopulaModel, encode_table
from .data_model import DataTable
from .latent import _DenseStack, batch_posterior
from .lrgc import _LowRankStack, _lowrank_posterior


@dataclass
class ImputationResult:
    """Completed table plus the latent means behind it.

    ``ci_lower``/``ci_upper`` hold the analytic bounds, NaN at observed
    cells, when the solve was asked for them, as ``copulafill impute --ci
    analytic`` asks; :func:`impute_single` leaves them None, and
    :func:`confidence_intervals` returns the bounds as a pair.
    """

    imputed: np.ndarray
    latent_means: np.ndarray
    ci_lower: np.ndarray | None = None
    ci_upper: np.ndarray | None = None


def _coerce_values(model: CopulaModel, table) -> np.ndarray:
    values = table.values if isinstance(table, DataTable) else np.asarray(table, float)
    values = np.atleast_2d(values)
    if values.shape[1] != model.n_cols:
        raise ValueError(
            f"table has {values.shape[1]} columns, model expects {model.n_cols}"
        )
    return values


def _model_kernel(model: CopulaModel):
    """The model's posterior of encoded rows and its stack factory
    ``make_stack(missing patterns)``: the one place the dense and the
    low-rank model part ways."""
    if model.lowrank is None:
        return (partial(batch_posterior, model.corr, sweeps=model.sweeps),
                partial(_DenseStack, model.corr))
    return (partial(_lowrank_posterior, model.lowrank, sweeps=model.sweeps),
            partial(_LowRankStack, model.lowrank))


def _decode_missing(model: CopulaModel, values: np.ndarray, latent: np.ndarray):
    """``values`` with each missing cell decoded from ``latent``, which is
    (n, p) or a (num, n, p) stack of draws; each column's missing cells of
    every draw go through one ``from_latent`` call."""
    out = np.broadcast_to(values, latent.shape).copy()
    missing = np.isnan(values)
    for j, marg in enumerate(model.marginals):
        cells = missing[:, j]
        if cells.any():
            z = latent[..., cells, j]
            out[..., cells, j] = marg.from_latent(z.ravel()).reshape(z.shape)
    return out


def _model_posterior(model: CopulaModel, values: np.ndarray, latent=None,
                     seed: int = 0):
    """(latent mean, missing-coordinate variance) grids for all rows, from
    one encode and one posterior solve.

    Given a (num, n, p) ``latent``, the solve also fills it with ``num``
    latent draws of every row, the RNG split per row from ``seed``.
    All-missing rows get the prior: mean 0, variance 1.
    """
    lower, upper = encode_table(model.marginals, values)
    n, p = lower.shape
    mean = np.zeros((n, p))
    mvar = np.where(np.isnan(values), 1.0, 0.0)
    has_obs = ~np.isnan(lower).all(axis=1)
    posterior, make_stack = _model_kernel(model)
    visit = None
    if latent is not None:
        num = len(latent)
        rngs = [np.random.default_rng(s)
                for s in np.random.SeedSequence(seed).spawn(n)]
        visit = partial(_sample_chunk, np.flatnonzero(has_obs), lower, upper,
                        latent, rngs, num)
    post = posterior(lower[has_obs], upper[has_obs], visit=visit)
    mean[has_obs] = post.mean
    mvar[has_obs] = post.mvar
    if latent is not None and not has_obs.all():
        prior = make_stack(np.ones((1, p), dtype=bool))
        for i in np.flatnonzero(~has_obs):
            latent[:, i, :] = prior.draw_missing(np.zeros((num, p)), 0, rngs[i])
    return mean, mvar


def _impute(model: CopulaModel, values: np.ndarray, alpha: float | None = None,
            num: int = 0, seed: int = 0):
    """Impute ``values`` from one posterior solve.

    Returns the :class:`ImputationResult`, holding the analytic bounds at
    level 1 - ``alpha`` when ``alpha`` is given, and ``num`` sampled tables,
    shape (num, n, p), or None when ``num`` is 0.
    """
    latent = np.zeros((num, *values.shape)) if num else None
    mean, mvar = _model_posterior(model, values, latent, seed)
    result = ImputationResult(_decode_missing(model, values, mean), mean)
    if alpha is not None:
        missing = np.isnan(values)
        margin = ndtri(1 - alpha / 2) * np.sqrt(mvar)
        result.ci_lower = _decode_missing(model, values, mean - margin)
        result.ci_upper = _decode_missing(model, values, mean + margin)
        result.ci_lower[~missing] = np.nan
        result.ci_upper[~missing] = np.nan
    draws = None if latent is None else _decode_missing(model, values, latent)
    return result, draws


def impute_single(model: CopulaModel, table) -> ImputationResult:
    """Fill missing cells with the transform of their conditional latent mean."""
    return _impute(model, _coerce_values(model, table))[0]


def transform_out_of_sample(model: CopulaModel, rows) -> ImputationResult:
    """Impute new rows with the already-fitted marginals and correlation."""
    return impute_single(model, rows)


def confidence_intervals(
    model: CopulaModel,
    table,
    alpha: float = 0.05,
    kind: str = "analytic",
    num_samples: int = 200,
    seed: int = 0,
):
    """Per-missing-cell confidence bounds at level 1 - alpha.

    ``analytic`` maps the latent mean +- z-quantile band through the
    marginal transform; ``quantile`` takes empirical percentiles over
    ``num_samples`` multiple imputations. Bounds are NaN at observed cells.
    """
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if kind not in ("analytic", "quantile"):
        raise ValueError(f"unknown interval kind {kind!r}")
    values = _coerce_values(model, table)
    if kind == "analytic":
        result = _impute(model, values, alpha=alpha)[0]
        return result.ci_lower, result.ci_upper
    draws = impute_multiple(model, values, num=num_samples, seed=seed)
    lower = np.quantile(draws, alpha / 2, axis=0)
    upper = np.quantile(draws, 1 - alpha / 2, axis=0)
    observed = ~np.isnan(values)
    lower[observed] = np.nan
    upper[observed] = np.nan
    return lower, upper


def impute_multiple(model: CopulaModel, table, num: int, seed: int = 0) -> np.ndarray:
    """Draw ``num`` imputed tables, shape (num, n, p).

    Interval-valued observed coordinates are sampled from their independent
    truncated-normal conditionals, missing coordinates from the Gaussian
    conditional given the sampled observed latent values. The RNG is split
    per row, so draws are independent of evaluation order.
    """
    if num < 1:
        raise ValueError(f"num must be >= 1, got {num}")
    return _impute(model, _coerce_values(model, table), num=num, seed=seed)[1]


def _truncnorm_draws(rng, mu, sd, lo, hi, num):
    """Inverse-CDF truncated normal draws, shape (num,)."""
    u_lo = ndtr((lo - mu) / sd)
    u_hi = ndtr((hi - mu) / sd)
    u = rng.uniform(u_lo, u_hi, size=num)
    return mu + sd * ndtri(np.clip(u, 1e-15, 1 - 1e-15))


def _sample_chunk(row_ids, lower, upper, latent, rngs, num, chunk):
    """Draw the rows of one solved posterior chunk into ``latent``;
    ``row_ids`` maps the posterior's batch rows to table rows."""
    stack, z, pat = chunk.stack, chunk.z, chunk.pat
    state = stack.start(z, pat)  # fresh, without the sweep's rounding
    for r, i in enumerate(row_ids[chunk.rows]):
        rng, u = rngs[i], pat[r]
        z_obs = np.tile(z[r], (num, 1))
        for c in np.flatnonzero(upper[i] > lower[i]):
            z_obs[:, c] = _truncnorm_draws(
                rng, stack.cond_mean(z, state, r, u, c), np.sqrt(stack.cvar[u, c]),
                lower[i, c], upper[i, c], num)
        latent[:, i] = z_obs
        mis = stack.missing[u]
        if mis.any():
            latent[:, i, mis] = stack.draw_missing(z_obs, u, rng)
