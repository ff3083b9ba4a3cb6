"""Single and multiple imputation plus confidence intervals from a fitted model.

Every operation builds the per-row latent posterior under the fitted
correlation, fills missing coordinates, and maps back through the fitted
marginals. Rows without any observed cell fall back to latent zero, i.e.
each marginal's median-type value.

A table is encoded into latent bounds once: the library functions encode
it here, while ``copulafill impute`` hands over the encoding its fit made
(:func:`copulafill.copula_em._prepare_fit`). Multiple imputations are
drawn while the posterior is solved, a chunk of rows at a time. Each row
keeps its own RNG stream, so its draws do not depend on the rows drawn
with it; all other sampling work is done over the chunk at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.special import ndtr, ndtri

from .copula_em import CopulaModel, encode_table
from .data_model import DataTable
from .latent import _DenseStack, _row_pieces, batch_posterior
from .lrgc import _LowRankStack, _lowrank_posterior


# a piece of drawn rows holds a few (rows, num, p) arrays at once, each of
# at most 1/_DRAW_SHARE of the posterior's element budget
_DRAW_SHARE = 16


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
        return (partial(batch_posterior, model.corr),
                partial(_DenseStack, model.corr))
    return (partial(_lowrank_posterior, model.lowrank),
            partial(_LowRankStack, model.lowrank))


def _decode_missing(model: CopulaModel, values: np.ndarray, latent: np.ndarray,
                    out=None):
    """``values`` with each missing cell decoded from ``latent``, which is
    (n, p) or a (num, n, p) stack of draws; each column's missing cells of
    every draw go through one ``from_latent`` call. The result is written
    to ``out``, which may be ``latent`` itself, or to a new array."""
    out = np.empty(latent.shape) if out is None else out
    missing = np.isnan(values)
    for j, marg in enumerate(model.marginals):
        cells = missing[:, j]
        if cells.any():
            z = latent[..., cells, j]
            out[..., cells, j] = marg.from_latent(z.ravel()).reshape(z.shape)
    np.copyto(out, values, where=~missing)
    return out


def _model_posterior(model: CopulaModel, values: np.ndarray, latent=None,
                     seed: int = 0, bounds=None):
    """(latent mean, missing-coordinate variance) grids for all rows, from
    one posterior solve of the latent ``bounds`` of ``values``, which are
    encoded here when None.

    Given a (num, n, p) ``latent``, the solve also fills it with ``num``
    latent draws of every row, the RNG split per row from ``seed``.
    All-missing rows get the prior: mean 0, variance 1.
    """
    lower, upper = bounds or encode_table(model.marginals, values)
    n, p = lower.shape
    has_obs = ~np.isnan(lower).all(axis=1)
    posterior, make_stack = _model_kernel(model)
    visit = None
    if latent is not None:
        num = len(latent)
        rngs = [np.random.default_rng(s)
                for s in np.random.SeedSequence(seed).spawn(n)]
        visit = partial(_sample_chunk, np.flatnonzero(has_obs), lower, upper,
                        latent, rngs, num)
    if has_obs.all():
        post = posterior(lower, upper, visit=visit)
        return post.mean, post.mvar
    post = posterior(lower[has_obs], upper[has_obs], visit=visit)
    mean = np.zeros((n, p))
    mvar = np.where(np.isnan(values), 1.0, 0.0)
    mean[has_obs] = post.mean
    mvar[has_obs] = post.mvar
    if latent is not None:
        prior = make_stack(np.ones((1, p), dtype=bool))
        ids = np.flatnonzero(~has_obs)
        for rows in _row_pieces(len(ids), _DRAW_SHARE * num * p):
            draw = np.zeros((len(rows), num, p))
            _draw_rows(prior, np.zeros(len(rows), dtype=int), draw,
                       [rngs[i] for i in ids[rows]])
            latent[:, ids[rows]] = np.swapaxes(draw, 0, 1)
    return mean, mvar


def _impute(model: CopulaModel, values: np.ndarray, alpha: float | None = None,
            num: int = 0, seed: int = 0, bounds=None):
    """Impute ``values`` from one posterior solve.

    Returns the :class:`ImputationResult`, holding the analytic bounds at
    level 1 - ``alpha`` when ``alpha`` is given, and ``num`` sampled tables,
    shape (num, n, p), or None when ``num`` is 0. ``bounds`` are the
    latent (lower, upper) grids of ``values`` under the model's marginals,
    as the fit has them; without them the table is encoded here.
    """
    # the mean, the bounds and the draws as one stack of tables, decoded in
    # place, each column by one from_latent call
    first = 1 if alpha is None else 3
    tables = np.zeros((first + num, *values.shape))
    mean, mvar = _model_posterior(model, values, tables[first:] if num else None,
                                  seed, bounds)
    tables[0] = mean
    if alpha is not None:
        margin = ndtri(1 - alpha / 2) * np.sqrt(mvar)
        tables[1] = mean - margin
        tables[2] = mean + margin
    _decode_missing(model, values, tables, out=tables)
    result = ImputationResult(tables[0], mean)
    if alpha is not None:
        observed = ~np.isnan(values)
        result.ci_lower, result.ci_upper = tables[1], tables[2]
        result.ci_lower[observed] = np.nan
        result.ci_upper[observed] = np.nan
    return result, tables[first:] if num else None


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


def _sample_chunk(row_ids, lower, upper, latent, rngs, num, chunk):
    """Draw the rows of one solved posterior chunk into ``latent``;
    ``row_ids`` maps the posterior's batch rows to table rows. The rows go
    in pieces of at most ``_CHUNK_ELEMS // (_DRAW_SHARE num p)`` rows, each
    drawn by :func:`_draw_rows`."""
    stack, z, pat = chunk.stack, chunk.z, chunk.pat
    state = stack.start(z, pat)  # fresh, without the sweep's rounding
    ids = row_ids[chunk.rows]
    for rows in _row_pieces(len(ids), _DRAW_SHARE * num * z.shape[1]):
        lo, hi = lower[ids[rows]], upper[ids[rows]]
        r, c = np.nonzero(hi > lo)
        mu = stack.cond_mean(z, state, rows[r], pat[rows[r]], c)
        cells = (r, c, mu, np.sqrt(stack.cvar[pat[rows[r]], c]), lo[r, c], hi[r, c])
        draw = np.repeat(z[rows, None, :], num, axis=1)
        _draw_rows(stack, pat[rows], draw, [rngs[i] for i in ids[rows]], cells)
        latent[:, ids[rows]] = np.swapaxes(draw, 0, 1)


def _draw_rows(stack, pat, draw, rngs, cells=None):
    """Draw r rows of patterns ``pat`` in place into ``draw``, (r, num, p)
    copies of their latent means.

    Each interval cell ``cells`` = (row, column, conditional mean and sd,
    lower, upper), sorted by row and then column, is drawn by inverse CDF
    from its truncated normal; then each row's missing block is drawn given
    its drawn cells. Row i draws from ``rngs[i]`` alone: one call for the
    uniforms of its interval cells, in column order, then one for the
    normals of its missing block. So a row's draws do not depend on the
    rows drawn with it, and everything but those calls is done over all
    rows at once.
    """
    n, num, _ = draw.shape
    if cells is None:
        cells = (np.zeros(0, dtype=int),) * 2 + (np.zeros(0),) * 4
    r, c, mu, sd, lo, hi = cells
    missing = stack.missing[pat]
    with_missing = missing.any(axis=1)
    n_normals = num * stack.draw_width[pat] * with_missing
    n_cells = np.bincount(r, minlength=n)
    u_lo = ndtr((lo - mu) / sd)[:, None]
    u_hi = ndtr((hi - mu) / sd)[:, None]
    uniform = np.empty((len(u_lo), num))
    normals = np.empty(n_normals.sum())
    for rng, a, b, g, h in zip(rngs, *_spans(n_cells), *_spans(n_normals)):
        if b > a:
            uniform[a:b] = rng.uniform(u_lo[a:b], u_hi[a:b], size=(b - a, num))
        if h > g:
            rng.standard_normal(out=normals[g:h])
    if len(uniform):
        draw[r, :, c] = mu[:, None] + sd[:, None] * ndtri(
            np.clip(uniform, 1e-15, 1 - 1e-15))
    if with_missing.any():
        sel = np.flatnonzero(with_missing)
        draw[np.broadcast_to(missing[:, None, :], draw.shape)] = stack.draw_missing(
            draw[sel], pat[sel], normals)


def _spans(sizes):
    """(starts, ends) of consecutive blocks of ``sizes``, as lists."""
    ends = np.cumsum(sizes)
    return (ends - sizes).tolist(), ends.tolist()
