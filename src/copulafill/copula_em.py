"""EM fitting of the copula correlation, standard and mini-batch offline.

The E-step turns each row's observed cells into expected latent first and
second moments (see :mod:`copulafill.latent`); the M-step normalizes the
pooled expected second-moment matrix back to a correlation matrix. The fit
terminates when the relative Frobenius change of the correlation falls
below ``tol``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .data_model import ConfigError, DataTable, VariableType, detect_variable_types
from .latent import _interval_means, batch_posterior
from .marginals import Marginal, fit_and_encode

def default_stepsize(t: int, c: float = 5.0) -> float:
    return c / (c + t)


@dataclass
class FitConfig:
    """Settings shared by the offline training modes."""

    tol: float = 0.01
    max_iter: int = 50
    batch_size: int = 100
    num_pass: int = 2
    stepsize: Callable[[int], float] = default_stepsize
    seed: int = 0
    verbose: bool = False

    def __post_init__(self):
        if not self.tol > 0:    # NaN included
            raise ConfigError(f"tol must be positive, got {self.tol}")
        if self.max_iter < 1:
            raise ConfigError(f"max_iter must be >= 1, got {self.max_iter}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.num_pass < 1:
            raise ConfigError(f"num_pass must be >= 1, got {self.num_pass}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        validate_stepsize(self.stepsize, self.max_iter)


def validate_stepsize(stepsize, horizon: int) -> None:
    """Step sizes must lie in (0, 1) and decrease monotonically; one pass,
    in which a value out of range wins over an increase."""
    prev, decreasing = float("inf"), True
    for t in range(1, horizon + 1):
        try:
            v = stepsize(t)
        except ArithmeticError:  # e.g. c/(c+t) at t = -c: no step size at all
            v = float("nan")
        if not 0.0 < v < 1.0:
            raise ConfigError("stepsize must lie in (0, 1) for every iteration")
        decreasing = decreasing and v < prev
        prev = v
    if not decreasing:
        raise ConfigError("stepsize must be monotonically decreasing")


@dataclass
class CopulaModel:
    """Fitted Gaussian copula: correlation matrix plus per-column marginals.

    ``corr`` is None for low-rank fits, where the correlation is held in
    factored form in ``lowrank`` and materialized on demand.
    """

    corr: np.ndarray | None
    marginals: list[Marginal]
    vartypes: list[VariableType]
    col_names: list[str]
    fit_trace: list[tuple[float, float]] = field(default_factory=list)
    converged: bool = True
    lowrank: object | None = None

    @property
    def n_cols(self) -> int:
        return len(self.marginals)

    def correlation(self) -> np.ndarray:
        if self.corr is not None:
            return self.corr
        from .lrgc import implied_corr

        return implied_corr(self.lowrank)


@dataclass
class EStepResult:
    s_sum: np.ndarray        # sum over rows of E[z z^T | observed cells]
    m_sum: np.ndarray        # sum over rows of E[z | observed cells]
    loglik: float            # average observed-data log-likelihood
    latent_mean: np.ndarray  # (n, p) per-row conditional means


def encode_table(marginals: list[Marginal], values: np.ndarray):
    """Latent lower/upper bound grids for a value grid (NaN where missing)."""
    values = np.asarray(values, dtype=float)
    if values.shape[1] != len(marginals):
        raise ValueError(f"{len(marginals)} marginals for {values.shape[1]} columns")
    lower = np.empty_like(values)
    upper = np.empty_like(values)
    for j, m in enumerate(marginals):
        lower[:, j], upper[:, j] = m.latent_bounds(values[:, j])
    return lower, upper


def estep(corr, lower, upper) -> EStepResult:
    """Expected latent moments of an encoded batch under ``corr``, from one
    batched posterior solve of all its rows."""
    corr = np.asarray(corr, dtype=float)
    lower = np.atleast_2d(np.asarray(lower, dtype=float))
    upper = np.atleast_2d(np.asarray(upper, dtype=float))
    n = lower.shape[0]
    if n == 0:
        raise ValueError("estep requires at least one row")
    s = np.zeros_like(corr)   # each solved chunk adds its missing covariance
    post = batch_posterior(
        corr, lower, upper,
        visit=lambda ch: np.add(s, ch.stack.cov_sum(ch.pat, ch.ivar), out=s))
    s += post.mean.T @ post.mean
    s[np.diag_indices(corr.shape[0])] += post.ivar.sum(axis=0)
    return EStepResult(s, post.mean.sum(axis=0), post.loglik / n, post.mean)


def mstep(s_sum: np.ndarray, n: int) -> np.ndarray:
    """Correlation matrix associated with the expected covariance S/n."""
    sn = np.asarray(s_sum, dtype=float) / n
    sn = (sn + sn.T) / 2.0
    d = np.diag(sn)
    if np.any(d <= 0):
        j = int(np.flatnonzero(d <= 0)[0])
        raise ValueError(f"expected covariance has nonpositive diagonal at column {j}")
    corr = sn / np.sqrt(np.outer(d, d))
    np.fill_diagonal(corr, 1.0)
    return _ensure_psd(corr)


def _ensure_psd(corr: np.ndarray, floor: float = 0.0) -> np.ndarray:
    """Eigenvalue clip + diagonal renormalization, only when needed."""
    w = np.linalg.eigvalsh(corr)
    if w.min() >= floor:
        return corr
    w, v = np.linalg.eigh(corr)
    w = np.clip(w, max(floor, 1e-12), None)
    corr = (v * w) @ v.T
    d = np.diag(corr).copy()
    corr = corr / np.sqrt(np.outer(d, d))
    corr = (corr + corr.T) / 2.0
    np.fill_diagonal(corr, 1.0)
    return corr


def _pin_single_level(corr: np.ndarray, idx: list[int]) -> np.ndarray:
    for j in idx:
        corr[j, :] = 0.0
        corr[:, j] = 0.0
        corr[j, j] = 1.0
    return corr


def initial_corr(lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Warm-start correlation from point-encoded latent values.

    Interval cells are replaced by their univariate truncated-normal means;
    the pairwise-complete sample correlation is then projected to the
    nearest positive-definite correlation matrix. Entries with fewer than
    two complete pairs fall back to zero.
    """
    z = _interval_means(lower, upper)
    obs = ~np.isnan(z)
    x = np.where(obs, z, 0.0)
    w = obs.astype(float)
    n_jk = w.T @ w
    s_jk = x.T @ x
    a_jk = x.T @ w                    # sum of x_j over rows where k observed
    q_jk = (x * x).T @ w              # sum of x_j^2 over the same rows
    with np.errstate(all="ignore"):
        mean_jk = a_jk / n_jk
        var_jk = q_jk / n_jk - mean_jk**2
        cov = s_jk / n_jk - mean_jk * mean_jk.T
        corr = cov / np.sqrt(var_jk * var_jk.T)
    corr[(n_jk < 2) | ~np.isfinite(corr)] = 0.0
    corr = np.clip((corr + corr.T) / 2.0, -1.0, 1.0)
    np.fill_diagonal(corr, 1.0)
    return _ensure_psd(corr, floor=1e-4)


@dataclass
class _FitInput:
    """A table ready to fit: its marginals and the latent bounds of every
    row under them (NaN where missing), all-missing rows included."""

    table: DataTable
    marginals: list[Marginal]
    lower: np.ndarray
    upper: np.ndarray

    @property
    def vartypes(self) -> list[VariableType]:
        return [m.vartype for m in self.marginals]

    @property
    def single(self) -> list[int]:
        """Columns with one observed level, pinned in the correlation."""
        return [j for j, m in enumerate(self.marginals) if len(m.values) == 1]

    def fitted_bounds(self):
        """The latent bounds of the rows with an observed cell: the grids
        themselves when that is every row, which a fit only reads."""
        keep = ~np.isnan(self.lower).all(axis=1)
        if keep.all():
            return self.lower, self.upper
        return self.lower[keep], self.upper[keep]


def column_types(table: DataTable, types, min_ord_ratio) -> list[VariableType]:
    """The detected column types, each replaced by its override in
    ``types`` where that is not None."""
    detected = detect_variable_types(table, min_ord_ratio=min_ord_ratio)
    if types is None:
        return detected
    if len(types) != table.n_cols:
        raise ConfigError(f"{len(types)} type overrides for {table.n_cols} columns")
    return [t if t is not None else d for t, d in zip(types, detected)]


def _prepare_fit(table, types, min_ord_ratio) -> _FitInput:
    """Fit each column's marginal and encode the table with it.

    Each column is encoded from the same ``np.unique`` that fits its
    marginal (:func:`copulafill.marginals.fit_and_encode`), bit for bit
    what :func:`encode_table` gives. The imputation of the same table can
    take the bounds from here instead of encoding it again, as the CLI
    does: it prepares the table once and passes the result as ``table`` to
    a fit, which then uses it as it is.
    """
    if isinstance(table, _FitInput):
        return table
    if not isinstance(table, DataTable):
        table = DataTable(np.asarray(table, dtype=float))
    if table.n_rows == 0 or table.n_cols == 0:
        raise ValueError("cannot fit an empty table")
    detected = column_types(table, types, min_ord_ratio)
    marginals = []
    lower = np.empty(table.values.shape)
    upper = np.empty(table.values.shape)
    for j in range(table.n_cols):
        marg, lower[:, j], upper[:, j] = fit_and_encode(table.values[:, j],
                                                        detected[j])
        marginals.append(marg)
    dropped = np.flatnonzero(np.isnan(lower).all(axis=1))
    if dropped.size:
        warnings.warn(
            f"{dropped.size} rows with no observed cells excluded from fitting "
            f"(first: row {dropped[0]})"
        )
    return _FitInput(table, marginals, lower, upper)


def blend_step(corr, lower, upper, eta: float, single=()):
    """(1 - eta) corr + eta M(E(corr)), with the ``single`` columns pinned
    in M(E(corr)); also returns the relative change and batch loglik."""
    res = estep(corr, lower, upper)
    target = _pin_single_level(mstep(res.s_sum, len(lower)), single)
    new_corr = (1.0 - eta) * corr + eta * target
    return new_corr, _rel_change(corr, new_corr), res.loglik


def run_em(theta, em_step, config: FitConfig, batches=None):
    """Iterate ``em_step(theta, rows, eta) -> (theta, change, loglik)``.

    Without ``batches``: up to max_iter steps over all rows with eta = 1,
    until change < tol, else a warning. With ``batches`` (row index arrays):
    one step each at eta = stepsize(t). Returns (theta, trace, converged).
    """
    minibatch = batches is not None
    if not minibatch:
        batches = [slice(None)] * config.max_iter
    trace = []
    for t, rows in enumerate(batches, start=1):
        eta = config.stepsize(t) if minibatch else 1.0
        theta, change, loglik = em_step(theta, rows, eta)
        trace.append((change, loglik))
        if config.verbose:
            print(f"Iteration {t}: copula parameter change {change:.4f}, "
                  f"likelihood {loglik:.4f}")
        if not minibatch and change < config.tol:
            return theta, trace, True
    if minibatch:
        return theta, trace, True
    warnings.warn(f"EM did not converge within {config.max_iter} iterations")
    return theta, trace, False


def fit_standard(
    table,
    config: FitConfig | None = None,
    types: list[VariableType | None] | None = None,
    min_ord_ratio: float = 0.1,
) -> CopulaModel:
    """Fit marginals and the copula correlation by standard EM."""
    return _fit_corr(table, config or FitConfig(), types, min_ord_ratio, False)


def fit_minibatch_offline(
    table,
    config: FitConfig | None = None,
    types: list[VariableType | None] | None = None,
    min_ord_ratio: float = 0.1,
) -> CopulaModel:
    """Mini-batch EM: per-batch estimates blended with a decaying step size.

    Performs exactly ceil(n / batch_size) * num_pass iterations over a
    seed-shuffled row order; requires batch_size >= n_cols so every
    observed block stays invertible.
    """
    return _fit_corr(table, config or FitConfig(), types, min_ord_ratio, True)


def _fit_corr(table, config, types, min_ord_ratio, minibatch) -> CopulaModel:
    prep = _prepare_fit(table, types, min_ord_ratio)
    lower, upper = prep.fitted_bounds()
    single = prep.single
    n, p = lower.shape
    batches = None
    if minibatch:
        if config.batch_size < p:
            raise ConfigError(
                f"mini-batch training needs batch size >= number of columns "
                f"({config.batch_size} < {p}); use the low-rank model for wide data"
            )
        n_batches = int(np.ceil(n / config.batch_size))
        validate_stepsize(config.stepsize, n_batches * config.num_pass)
        perm = np.random.default_rng(config.seed).permutation(n)
        batches = np.array_split(perm, n_batches) * config.num_pass

    def em_step(corr, rows, eta):
        return blend_step(corr, lower[rows], upper[rows], eta, single)

    corr = _pin_single_level(initial_corr(lower, upper), single)
    corr, trace, converged = run_em(corr, em_step, config, batches)
    return CopulaModel(corr, prep.marginals, prep.vartypes,
                       list(prep.table.col_names), fit_trace=trace,
                       converged=converged)


def approx_loglik(model: CopulaModel, table) -> float:
    """Average observed-data log-likelihood of the latent Gaussian part.

    Exact for all-continuous rows; interval coordinates enter at their
    conditional means plus their per-coordinate conditional interval
    log-masses. A monitoring quantity, not a convergence criterion. Rows
    without an observed cell are left out; a table with none at all, or of
    another column count than the model's, raises ``ValueError``.
    """
    from .imputer import _coerce_values, _model_kernel

    lower, upper = encode_table(model.marginals, _coerce_values(model, table))
    keep = ~np.isnan(lower).all(axis=1)
    if not keep.any():
        raise ValueError("table has no observed cell; its log-likelihood is undefined")
    post = _model_kernel(model)(lower[keep], upper[keep])
    return float((post.gauss_ll + post.log_mass).mean())


def _rel_change(old: np.ndarray, new: np.ndarray) -> float:
    return float(np.linalg.norm(new - old) / np.linalg.norm(old))
