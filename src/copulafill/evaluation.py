"""Benchmark helpers: MCAR masking, SMAE/MAE metrics, and a ground-truth
sampler for a specified Gaussian copula model."""

from __future__ import annotations

import numpy as np
from scipy.special import ndtr

from .data_model import DataTable
from .lrgc import LowRankParams


def _values(table) -> np.ndarray:
    if isinstance(table, DataTable):
        return table.values
    return np.asarray(table, dtype=float)


def mask_mcar(table, fraction: float, seed: int = 0):
    """Set round(fraction * #observed) observed cells missing, uniformly.

    One randomly chosen observed cell per column is protected so no column
    is ever emptied. Returns the same type as the input.
    """
    if not 0 < fraction < 1:
        raise ValueError(f"fraction must be in (0, 1), got {fraction}")
    values = _values(table).copy()
    rng = np.random.default_rng(seed)
    obs_i, obs_j = np.nonzero(~np.isnan(values))
    n_obs = obs_i.size
    k = int(round(fraction * n_obs))
    protected = np.zeros(n_obs, dtype=bool)
    for j in range(values.shape[1]):
        col_cells = np.flatnonzero(obs_j == j)
        if col_cells.size:
            protected[rng.choice(col_cells)] = True
    pool = np.flatnonzero(~protected)
    if k > pool.size:
        raise ValueError(
            f"masking {k} cells would empty a column: only {pool.size} "
            "unprotected observed cells available"
        )
    chosen = rng.choice(pool, size=k, replace=False)
    values[obs_i[chosen], obs_j[chosen]] = np.nan
    if isinstance(table, DataTable):
        return DataTable(values, list(table.col_names))
    return values


def _eval_cells(imputed, truth, masked_input):
    imputed = _values(imputed)
    truth = _values(truth)
    masked = _values(masked_input)
    if not imputed.shape == truth.shape == masked.shape:
        raise ValueError(
            f"shape mismatch: imputed {imputed.shape}, truth {truth.shape}, "
            f"masked {masked.shape}"
        )
    cells = np.isnan(masked) & ~np.isnan(truth)
    return imputed, truth, masked, cells


def smae(imputed, truth, masked_input) -> np.ndarray:
    """Per-column MAE scaled by the MAE of median imputation.

    Evaluation cells are those missing in the masked input but observed in
    the truth. Columns without evaluation cells, or whose median baseline
    is perfect, return NaN and should be excluded from averages.
    """
    imputed, truth, masked, cells = _eval_cells(imputed, truth, masked_input)
    p = truth.shape[1]
    out = np.full(p, np.nan)
    for j in range(p):
        sel = cells[:, j]
        if not sel.any():
            continue
        observed = masked[:, j][~np.isnan(masked[:, j])]
        if observed.size == 0:
            continue
        med = np.median(observed)
        denom = np.abs(med - truth[sel, j]).mean()
        if denom == 0:
            continue
        out[j] = np.abs(imputed[sel, j] - truth[sel, j]).mean() / denom
    return out


def mae(imputed, truth, masked_input) -> float:
    """Plain MAE over all evaluation cells, columns pooled."""
    imputed, truth, _, cells = _eval_cells(imputed, truth, masked_input)
    if not cells.any():
        return float("nan")
    return float(np.abs(imputed[cells] - truth[cells]).mean())


def coverage(ci_lower, ci_upper, truth, masked_input) -> float:
    """Fraction of evaluation cells whose truth lies inside the interval."""
    upper = _eval_cells(ci_upper, truth, masked_input)[0]
    lower, truth, _, cells = _eval_cells(ci_lower, truth, masked_input)
    hit = (lower[cells] <= truth[cells]) & (truth[cells] <= upper[cells])
    return float(hit.mean()) if cells.any() else float("nan")


def ordinal_spec(masses, levels=None):
    """Forward ordinal transform from level masses (cutpoints at the
    standard-normal quantiles of the cumulative masses)."""
    masses = np.asarray(masses, dtype=float)
    if np.any(masses <= 0) or not np.isclose(masses.sum(), 1.0):
        raise ValueError("masses must be positive and sum to 1")
    levels = np.arange(1, len(masses) + 1) if levels is None else np.asarray(levels)
    cuts = np.cumsum(masses)[:-1]

    def transform(u):
        return levels[np.searchsorted(cuts, u, side="right")]

    return transform


def truncated_spec(interior_quantile, p_alpha=0.0, p_beta=0.0,
                   alpha=None, beta=None):
    """Forward transform of a truncated variable with boundary masses."""
    if p_alpha < 0 or p_beta < 0 or p_alpha + p_beta >= 1:
        raise ValueError("boundary masses must be nonnegative with sum < 1")

    def transform(u):
        u = np.asarray(u, dtype=float)
        inner = (u - p_alpha) / (1.0 - p_alpha - p_beta)
        out = np.asarray(interior_quantile(np.clip(inner, 0.0, 1.0)), dtype=float)
        if p_alpha > 0:
            out = np.where(u <= p_alpha, alpha, out)
        if p_beta > 0:
            out = np.where(u >= 1.0 - p_beta, beta, out)
        return out

    return transform


def sample_gc(n: int, specs, corr=None, lowrank: LowRankParams | None = None,
              seed: int = 0) -> DataTable:
    """Draw a complete table from a Gaussian copula model.

    ``specs`` maps each column's uniform score to its observed value;
    entries are callables u -> x (e.g. a scipy ``ppf``, or the helpers
    :func:`ordinal_spec` / :func:`truncated_spec`).
    """
    if (corr is None) == (lowrank is None):
        raise ValueError("provide exactly one of corr or lowrank")
    rng = np.random.default_rng(seed)
    p = len(specs)
    if lowrank is not None:
        if lowrank.w.shape[0] != p:
            raise ValueError("lowrank params do not match the number of specs")
        t = rng.standard_normal((n, lowrank.rank))
        z = t @ lowrank.w.T + np.sqrt(lowrank.sigma2) * rng.standard_normal((n, p))
    else:
        corr = np.asarray(corr, dtype=float)
        if corr.shape != (p, p):
            raise ValueError(f"corr must be {p} x {p}, got {corr.shape}")
        if not np.allclose(np.diag(corr), 1.0, atol=1e-8) or not np.allclose(
                corr, corr.T, atol=1e-8):
            raise ValueError("corr must be a symmetric unit-diagonal matrix")
        try:
            chol = np.linalg.cholesky(corr + 1e-12 * np.eye(p))
        except np.linalg.LinAlgError:
            raise ValueError("corr is not positive semidefinite") from None
        z = rng.standard_normal((n, p)) @ chol.T
    u = ndtr(z)
    values = np.column_stack([np.asarray(spec(u[:, j]), dtype=float)
                              for j, spec in enumerate(specs)])
    return DataTable(values)


def random_correlation(p: int, seed: int = 0, n_factors: int = 2,
                       noise: float = 1.0) -> np.ndarray:
    """A random well-conditioned correlation matrix for synthetic studies.

    Factor structure plus an isotropic ridge keeps off-diagonals sizable
    while bounding the condition number.
    """
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((p, n_factors))
    cov = a @ a.T + noise * np.eye(p)
    d = np.sqrt(np.diag(cov))
    corr = cov / np.outer(d, d)
    np.fill_diagonal(corr, 1.0)
    return corr
