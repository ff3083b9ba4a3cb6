"""Single and multiple imputation plus confidence intervals from a fitted model.

Every operation builds the per-row latent posterior under the fitted
correlation, fills missing coordinates, and maps back through the fitted
marginals. Rows without any observed cell fall back to latent zero, i.e.
each marginal's median-type value.

A table is encoded into latent bounds once: the library functions encode
it here, while ``copulafill impute`` hands over the encoding its fit made
(:func:`copulafill.copula_em._prepare_fit`). Multiple imputations are
drawn while the posterior is solved, a chunk of rows at a time, from one
draw-major array of standard normals ``eps``, (num, n, p + k), filled in C
order from ``seed``: draw d of cell (i, j) reads ``eps[d, i, j]``, and a
low-rank model of rank k draws row i's factors from ``eps[d, i, p:]`` (k
is 0 for a dense model). Each product of a draw is one vector-matrix
product, so the first draws of a longer run are bitwise a shorter run's,
and ``copulafill impute`` takes its sampled tables and its quantile
intervals from one solve. A row's draws do not depend on the rows drawn
with it or on the chunking, but on the table's row count, which sets
where each draw starts in ``eps``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.special import ndtr, ndtri

from .copula_em import CopulaModel, encode_table
from .data_model import ConfigError, DataTable
from .latent import _row_pieces, batch_posterior
from .lrgc import _lowrank_posterior


# a piece of drawn rows holds a few (rows, num, p) arrays at once, each of
# at most 1/_DRAW_SHARE of the posterior's element budget
_DRAW_SHARE = 16

# multiple imputations behind the percentiles of ``--ci quantile``
_QUANTILE_DRAWS = 200


@dataclass
class ImputationResult:
    """Completed table plus the latent means behind it.

    ``ci_lower``/``ci_upper`` hold the confidence bounds, NaN at observed
    cells, when the solve was asked for them, as ``copulafill impute --ci``
    asks; :func:`impute_single` leaves them None, and
    :func:`confidence_intervals` returns the bounds as a pair.
    """

    imputed: np.ndarray
    latent_means: np.ndarray
    ci_lower: np.ndarray | None = None
    ci_upper: np.ndarray | None = None


def _coerce_values(model: CopulaModel, table) -> np.ndarray:
    """The values of ``table``, checked as a :class:`DataTable` checks them."""
    if not isinstance(table, DataTable):
        table = DataTable(np.atleast_2d(np.asarray(table, dtype=float)))
    if table.n_cols != model.n_cols:
        raise ValueError(f"table has {table.n_cols} columns, model expects {model.n_cols}")
    return table.values


def _model_kernel(model: CopulaModel):
    """The model's posterior of encoded rows: the one place the dense and
    the low-rank model part ways."""
    if model.lowrank is None:
        return partial(batch_posterior, model.corr)
    return partial(_lowrank_posterior, model.lowrank)


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
    encoded here when None. A row with no observed cell gets its prior:
    mean 0, variance Sigma_jj.

    Given a (num, n, p) ``latent``, the solve also fills it with ``num``
    latent draws of every row, from the normals ``eps`` of ``seed`` laid
    out as the module docstring says.
    """
    lower, upper = bounds or encode_table(model.marginals, values)
    visit = None
    if latent is not None:
        k = 0 if model.lowrank is None else model.lowrank.rank
        eps = np.random.default_rng(seed).standard_normal((*latent.shape[:2],
                                                           latent.shape[2] + k))
        visit = partial(_sample_chunk, lower, upper, latent, eps)
    post = _model_kernel(model)(lower, upper, visit=visit)
    return post.mean, post.mvar


def _impute(model: CopulaModel, values: np.ndarray, ci: str = "", alpha: float = 0.05,
            num: int = 0, seed: int = 0, bounds=None, ci_draws: int = _QUANTILE_DRAWS):
    """Impute ``values`` from one posterior solve.

    Returns the :class:`ImputationResult` and ``num`` sampled tables, shape
    (num, n, p), or None when ``num`` is 0. ``ci`` asks for the result's
    bounds at level 1 - ``alpha``: "analytic" maps the latent mean +- its
    z-quantile band through the marginals, "quantile" takes percentiles over
    the first ``ci_draws`` draws, which the solve draws with the sampled
    tables. ``bounds`` are the latent (lower, upper) grids of ``values``
    under the model's marginals, as the fit has them; without them the table
    is encoded here.
    """
    # the mean, the analytic bounds and the draws as one stack of tables,
    # decoded in place, each column by one from_latent call
    first = 3 if ci == "analytic" else 1
    draws = max(num, ci_draws) if ci == "quantile" else num
    tables = np.zeros((first + draws, *values.shape))
    mean, mvar = _model_posterior(model, values, tables[first:] if draws else None,
                                  seed, bounds)
    tables[0] = mean
    if ci == "analytic":
        # inf * 0 is NaN at observed cells once 1 - alpha/2 == 1; they end NaN
        with np.errstate(invalid="ignore"):
            margin = ndtri(1 - alpha / 2) * np.sqrt(mvar)
        tables[1] = mean - margin
        tables[2] = mean + margin
    _decode_missing(model, values, tables, out=tables)
    result = ImputationResult(tables[0], mean)
    if ci:
        ci_tables = tables[1:3] if ci == "analytic" else np.quantile(
            tables[1:1 + ci_draws], [alpha / 2, 1 - alpha / 2], axis=0)
        ci_tables[:, ~np.isnan(values)] = np.nan
        result.ci_lower, result.ci_upper = ci_tables
    return result, tables[first:first + num] if num else None


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
    num_samples: int = _QUANTILE_DRAWS,
    seed: int = 0,
):
    """Per-missing-cell confidence bounds at level 1 - alpha.

    ``analytic`` maps the latent mean +- z-quantile band through the
    marginal transform; ``quantile`` takes empirical percentiles over
    ``num_samples`` multiple imputations. Bounds are NaN at observed cells.
    """
    if not 0 < alpha < 1:
        raise ConfigError(f"alpha must be in (0, 1), got {alpha}")
    if kind not in ("analytic", "quantile"):
        raise ConfigError(f"unknown interval kind {kind!r}")
    if kind == "quantile" and num_samples < 1:
        raise ConfigError(f"num_samples must be >= 1, got {num_samples}")
    result = _impute(model, _coerce_values(model, table), ci=kind, alpha=alpha,
                     seed=seed, ci_draws=num_samples)[0]
    return result.ci_lower, result.ci_upper


def impute_multiple(model: CopulaModel, table, num: int, seed: int = 0) -> np.ndarray:
    """Draw ``num`` imputed tables, shape (num, n, p).

    Interval-valued observed coordinates are sampled from their independent
    truncated-normal conditionals, missing coordinates from the Gaussian
    conditional given the sampled observed latent values. Draw d reads the
    d-th slice of one normal array of ``seed``, so the first draws of a
    longer run equal a shorter run's bit for bit; they depend on the
    table's row count, not on ``num`` or on the order rows are solved in.
    """
    if num < 1:
        raise ConfigError(f"num must be >= 1, got {num}")
    return _impute(model, _coerce_values(model, table), num=num, seed=seed)[1]


def _sample_chunk(lower, upper, latent, eps, chunk):
    """Draw the table rows of one solved posterior chunk into ``latent``
    from ``eps``, laid out as the module docstring says (so a row's draws
    depend on the table's row count), a row with no observed cell from its
    prior: each interval cell by inverse CDF, its uniform ``ndtr(eps)``
    mapped onto the interval's CDF range, then each row's missing block
    given its drawn cells. The rows go in pieces of at most
    ``_CHUNK_ELEMS // (_DRAW_SHARE num (p + k))`` rows."""
    stack, z, pat = chunk.stack, chunk.z, chunk.pat
    state = stack.start(z, pat)  # fresh, without the sweep's rounding
    ids = np.arange(len(lower))[chunk.rows]
    for rows in _row_pieces(len(ids), _DRAW_SHARE * eps[:, 0].size):
        i = ids[rows]
        r, c = np.nonzero(upper[i] > lower[i])
        cvar = stack.cvar[pat[rows[r]], c]
        mu = stack.cond_mean(z, state, rows[r], c, cvar)
        sd = np.sqrt(cvar)
        u_lo, u_hi = (ndtr((b[i[r], c] - mu) / sd)[:, None] for b in (lower, upper))
        e = np.swapaxes(eps[:, i], 0, 1)             # (rows, num, p + k)
        u = u_lo + (u_hi - u_lo) * ndtr(e[r, :, c])
        draw = np.repeat(z[rows, None, :], len(latent), axis=1)
        draw[r, :, c] = mu[:, None] + sd[:, None] * ndtri(np.clip(u, 1e-15, 1 - 1e-15))
        stack.draw_missing(draw, pat[rows], e)
        latent[:, i] = np.swapaxes(draw, 0, 1)
