"""Online mode: impute each arriving row, then update marginals and the
correlation.

Marginals are re-estimated from per-column sliding windows of the most
recent observed values; the correlation follows the constant-step blend of
per-batch EM estimates. Decay weights, when enabled, reweight only the
imputation quantiles, never the model update.

A step costs a few small array operations per row, not per cell. The row
is encoded with one scalar ``latent_bounds`` call per column, and one o x o
factorization of its observed block (:func:`copulafill.latent.row_posterior`)
gives its posterior mean and its E-step terms, which running sums keep; a
correlation update is one M-step on those sums, with no solve. A row with no
observed cell is imputed from its prior and, as in a fit, left out of the
sums. Only a block that fails to factor takes the batch path and its jitter
ladder. A window keeps its values sorted and builds its marginals on their
first read after it changes (see ``_Window``).
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .copula_em import column_types, encode_table, initial_corr, mstep
from .data_model import ConfigError, DataTable, ORDINAL, VariableType
from .latent import row_posterior
from .marginals import Marginal, decayed_weights


@dataclass
class StreamConfig:
    window_size: int = 200
    const_stepsize: float = 0.1
    batch_size: int = 40
    decay: float = 1.0
    n_train: int = 25

    def __post_init__(self):
        if self.window_size < 2:
            raise ConfigError(f"window_size must be >= 2, got {self.window_size}")
        if not 0 < self.const_stepsize < 1:
            raise ConfigError(
                f"const_stepsize must be in (0, 1), got {self.const_stepsize}"
            )
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if not 0 < self.decay <= 1:
            raise ConfigError(f"decay must be in (0, 1], got {self.decay}")
        if self.n_train < 2:
            raise ConfigError(f"n_train must be >= 2, got {self.n_train}")


class _Window:
    """One column's sliding window of observed values, and its marginals.

    ``buffer`` holds the values in arrival order and ``distinct`` holds
    them sorted without repeats; an array of the window's capacity holds
    ``distinct`` again over the counts. An append or an eviction updates
    them by bisection and one slice move, so a build reads array prefixes.
    The window's marginals of ``vartype``, plain and decayed, are built on
    their first read after an append and kept until the next.
    """

    def __init__(self, values, size: int, vartype: VariableType, decay: float = 1.0):
        self.buffer = deque(maxlen=size)
        self.distinct: list[float] = []
        self.vartype = vartype
        self._table = np.empty((2, size))   # ``distinct`` over its counts
        # the decay weights of a full window, oldest first; a window of m
        # values takes the last m
        self._weights = decayed_weights(size, decay)[::-1] if decay < 1.0 else None
        self._marginals: dict[bool, Marginal] = {}  # by ``decayed``
        for x in values:
            self.append(x)

    @property
    def counts(self) -> list[int]:
        return self._table[1, :len(self.distinct)].astype(int).tolist()

    def append(self, x) -> None:
        x = float(x)
        self._marginals.clear()
        k, table = len(self.distinct), self._table
        if len(self.buffer) == self.buffer.maxlen:
            i = bisect_left(self.distinct, self.buffer[0])
            if table[1, i] == 1:
                del self.distinct[i]
                k -= 1
                table[:, i:k] = table[:, i + 1:k + 1]
            else:
                table[1, i] -= 1
        self.buffer.append(x)
        i = bisect_left(self.distinct, x)
        if i < k and self.distinct[i] == x:
            table[1, i] += 1
        else:
            self.distinct.insert(i, x)
            table[:, i + 1:k + 1] = table[:, i:k]
            table[:, i] = x, 1

    def marginal(self, decayed: bool = False) -> Marginal:
        """``fit_marginal`` of the window, bit for bit; when ``decayed``,
        under the decay weights of its length (none at decay 1), summed per
        value in window order."""
        decayed = decayed and self._weights is not None
        if decayed in self._marginals:
            return self._marginals[decayed]
        k, n = len(self.distinct), len(self.buffer)
        values = self._table[0, :k].copy()
        if decayed:
            at = np.searchsorted(values, np.fromiter(self.buffer, float, n))
            sums = np.bincount(at, weights=self._weights[len(self._weights) - n:],
                               minlength=k)
        # integer counts sum exactly to n: counts / n are sums / sums.sum()
        masses = sums / sums.sum() if decayed else self._table[1, :k] / n
        fitted = values, masses, n, list(self.distinct)
        try:
            marg = Marginal(self.vartype, *fitted)
        except ValueError:
            # a truncated window may momentarily hold boundary values only, or
            # a single value; treat it as ordinal until interior values return
            marg = Marginal(VariableType(ORDINAL), *fitted)
        self._marginals[decayed] = marg
        return marg


@dataclass
class StreamState:
    """Mutable stream model; :func:`step` is the single writer."""

    config: StreamConfig
    col_names: list[str]
    windows: list[_Window]
    corr: np.ndarray
    # E-step terms of the rows since the last correlation update, all
    # solved under ``corr``: their conditional covariances (missing block,
    # interval variances on the diagonal) summed, and their posterior means
    pending_cov: np.ndarray
    pending_means: list[np.ndarray] = field(default_factory=list)
    n_seen: int = 0

    @property
    def n_cols(self) -> int:
        return len(self.windows)

    @property
    def buffers(self) -> list[deque]:
        """Each column's window values, oldest first."""
        return [w.buffer for w in self.windows]

    @property
    def marginals(self) -> list[Marginal]:
        """Each column's marginal, as its window has it."""
        return [w.marginal() for w in self.windows]

    @property
    def vartypes(self) -> list[VariableType]:
        return [w.vartype for w in self.windows]


def init_stream(rows, config: StreamConfig | None = None, types=None,
                min_ord_ratio: float = 0.1) -> StreamState:
    """Initialize marginals and the correlation from the first rows."""
    config = config or StreamConfig()
    table = rows if isinstance(rows, DataTable) else DataTable(np.asarray(rows, float))
    obs_counts = table.observed_mask().sum(axis=0)
    if (obs_counts < 2).any():
        j = int(np.flatnonzero(obs_counts < 2)[0])
        raise ValueError(
            f"column {table.col_names[j]!r} has fewer than 2 observed values "
            "in the initialization block"
        )
    windows = [_Window(col[~np.isnan(col)], config.window_size, vartype, config.decay)
               for col, vartype in zip(table.values.T,
                                       column_types(table, types, min_ord_ratio))]
    lower, upper = encode_table([w.marginal() for w in windows], table.values)
    keep = ~np.isnan(lower).all(axis=1)
    corr = initial_corr(lower[keep], upper[keep])
    return StreamState(config, list(table.col_names), windows, corr,
                       pending_cov=np.zeros_like(corr))


def _encode_row(state: StreamState, row):
    """The latent (lower, upper) bounds of ``row``, one scalar ``latent_bounds`` per cell."""
    pairs = [w.marginal().latent_bounds(x) for w, x in zip(state.windows, row.tolist())]
    return np.array(pairs, dtype=float).reshape(-1, 2).T


def _impute_row(state: StreamState, post, row) -> np.ndarray:
    out = row.copy()
    for j in np.flatnonzero(np.isnan(row)):
        out[j] = state.windows[j].marginal(decayed=True).from_latent(post.cond_mean[j])
    return out


def _check_finite(state: StreamState, row, what: str) -> None:
    bad = np.flatnonzero(np.isinf(row))
    if bad.size:
        raise ValueError(f"{what} is infinite at column "
                         f"{state.col_names[bad[0]]!r}; cells must be finite "
                         f"or missing")


def step(state: StreamState, row, revealed=None):
    """Impute one arriving row, then fold it into the model.

    ``revealed``, when given, must agree with ``row`` at the row's observed
    cells and may expose additional values; the revealed values are what
    enters the windows and the correlation update. An infinite cell in
    either raises ValueError before the state changes.
    """
    row = np.asarray(row, dtype=float).ravel()
    if row.size != state.n_cols:
        raise ValueError(f"row has {row.size} cells, expected {state.n_cols}")
    _check_finite(state, row, "row")
    if revealed is not None:
        revealed = np.asarray(revealed, dtype=float).ravel()
        if revealed.size != row.size:
            raise ValueError("revealed row length mismatch")
        _check_finite(state, revealed, "revealed row")
        differ = np.flatnonzero(~np.isnan(row) & (row != revealed))
        if differ.size:
            raise ValueError(
                f"revealed row disagrees with the input row at observed "
                f"column {state.col_names[differ[0]]!r}"
            )

    # encode against the marginals current at ingest time, impute, then update
    post = row_posterior(state.corr, *_encode_row(state, row))
    imputed = _impute_row(state, post, row)

    # the correlation has not changed since the last update, so the row's
    # own solve gives its E-step terms; a revealed row is solved again on
    # the bounds of what it reveals, which are what enter the update
    source = row
    if revealed is not None:
        source = revealed
        post = row_posterior(state.corr, *_encode_row(state, source))
    # a column that got no value keeps its window, and so its marginal
    for j in np.flatnonzero(~np.isnan(source)):
        state.windows[j].append(source[j])
    if post.obs_idx.size:   # a fit leaves out a row with no observed cell
        state.pending_means.append(post.cond_mean)
        cov = state.pending_cov
        cov[post.mis_idx[:, None], post.mis_idx] += post.cond_cov_missing
        cov.flat[::len(cov) + 1] += post.cond_var
    state.n_seen += 1

    if len(state.pending_means) >= state.config.batch_size:
        means = np.array(state.pending_means)
        s_sum = state.pending_cov + means.T @ means
        # a zero second moment leaves the batch's correlation undefined: wait
        if (np.diag(s_sum) > 0).all():
            # M-step of the batch's E-step sums, blended at the constant step
            eta = state.config.const_stepsize
            state.corr = (1.0 - eta) * state.corr + eta * mstep(s_sum, len(means))
            state.pending_means.clear()
            state.pending_cov[...] = 0.0
    return imputed, state
