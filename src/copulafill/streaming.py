"""Online mode: impute each arriving row, then update marginals and the
correlation.

Marginals are re-estimated from per-column sliding windows of the most
recent observed values; the correlation follows the constant-step blend of
per-batch EM estimates. Decay weights, when enabled, reweight only the
imputation quantiles, never the model update.

A step is two parts. :func:`answer` imputes the row and leaves the state as
it was; :func:`fold` then folds the row in. The CLI writes a row's line
between the two, so the fold runs while the reader takes the line. The
answer builds no ``Marginal``: each observed cell is encoded, and each
missing one decoded, by one query that its column's window answers from its
own table (see ``_Window``): an encode reads two prefix counts, a decode one
``cumsum`` of the decay weights. One o x o factorization of the row's
observed block (:func:`copulafill.latent.row_posterior`) gives its
posterior mean and its E-step terms, which the fold adds to running sums; a
correlation update is one M-step on those sums. A row with no observed cell
is imputed from its prior and, as in a fit, left out of the sums.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr, ndtri

from .copula_em import column_types, encode_table, initial_corr, mstep
from .data_model import ConfigError, DataTable, ORDINAL, VariableType
from .latent import row_posterior
from .marginals import (Marginal, _interior, _interp_step, _layout, _nearest_level, _node,
                        _prefix_masses)


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
            raise ConfigError(f"const_stepsize must be in (0, 1), got {self.const_stepsize}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if not 0 < self.decay <= 1:
            raise ConfigError(f"decay must be in (0, 1], got {self.decay}")
        if self.n_train < 2:
            raise ConfigError(f"n_train must be >= 2, got {self.n_train}")


class _Window:
    """One column's sliding window of observed values, and the two scalar
    maps the stream asks of its marginal, read off its own table.

    ``buffer`` holds the values in arrival order and ``distinct`` holds
    them sorted without repeats; ``_table`` holds their summed decay
    weights (decay**(t0 - t) for the value appended at time t: the counts
    at decay 1), their number of weights at the floor and their inclusive
    prefix counts, exact integers, whose steps are their counts. An append
    or an eviction updates one value's slot, and the prefix counts by one
    slice between the evicted value's slot and the new one's. ``_kind`` is
    the type, with its unset bounds taken from the values, and the slot
    range of the interior, as ``marginals._layout`` gives them. The encode
    reads two nodes off the prefix counts, and the decode two off one
    ``cumsum`` of the weights; both step as ``np.interp`` does, so each
    equals ``Marginal``'s map bit for bit.
    """

    def __init__(self, values, size: int, vartype: VariableType, decay: float = 1.0):
        self.buffer = deque(maxlen=size)
        self.distinct: list[float] = []
        self.vartype, self.decay = vartype, decay
        self._table = np.zeros((3, size))
        self._t = self._t0 = 0      # values appended so far; the time of weight 1
        # as in the oracle's decay weights, lags up to _lags weigh decay**lag
        # and older ones the smallest normal float; a rescale keeps the
        # newest weight below 2**512
        self._lags = int((decay ** np.arange(1.0, size + 1) >= _TINY).sum())
        self._span = math.inf if decay == 1.0 else int(512 * math.log(2.0) / -math.log(decay))
        for x in values:
            self.append(x)

    def append(self, x) -> None:
        x = float(x) + 0.0   # -0.0 is 0.0, as in a refit
        d, table, buf, t = self.distinct, self._table, self.buffer, self._t
        weights, floors, prefix = table
        k, full = len(d), len(buf) == buf.maxlen
        if full:
            evicted = buf[0]
            i = bisect_left(d, evicted)
            if prefix[i] - (prefix[i - 1] if i else 0.0) == 1:   # its last copy
                del d[i]
                k -= 1
                table[:, i:k] = table[:, i + 1:k + 1]
            elif len(buf) > self._lags:
                floors[i] -= 1
            else:
                weights[i] -= self.decay ** (self._t0 - t + len(buf))
        buf.append(x)
        i = bisect_left(d, x)
        new = i == k or d[i] != x
        if new:
            d.insert(i, x)
            k += 1
            table[:, i + 1:k] = table[:, i:k - 1]
            table[:, i] = 0.0
        # prefix counts: +1 from the new value's slot on, -1 from the evicted one's
        e = bisect_left(d, evicted) if full else k
        if e < i:
            prefix[e:i] -= 1
        else:
            prefix[i:e] += 1
        if new:
            prefix[i] = (prefix[i - 1] if i else 0.0) + 1
        self._t += 1
        if t - self._t0 > self._span:   # rescale in place
            weights[:k] *= self.decay ** (t - self._t0)
            self._t0 = t
        weights[i] += self.decay ** (self._t0 - t)
        if len(buf) > self._lags:   # the value at lag _lags + 1 falls to the floor
            j = bisect_left(d, buf[-self._lags - 1])
            weights[j] -= self.decay ** (self._t0 - t + self._lags)
            floors[j] += 1
        try:
            self._kind = _layout(self.vartype, self.distinct)
        except ValueError:
            # a truncated window may momentarily hold boundary values only, or
            # a single value; treat it as ordinal until interior values return
            self._kind = _ORDINAL, 0, k

    def _weights(self):
        """The decay weights summed per distinct value (the counts at decay 1)."""
        k, (weights, floors, _) = len(self.distinct), self._table
        if len(self.buffer) > self._lags:   # the floor: tiny / decay of the newest
            return weights[:k] + floors[:k] * (_TINY / self.decay ** (self._t - self._t0))
        return weights[:k]

    def marginal(self) -> Marginal:
        """``fit_marginal`` of the window, bit for bit."""
        counts = np.diff(self._table[2, :len(self.distinct)], prepend=0.0)
        return Marginal(self._kind[0], np.array(self.distinct), counts, len(self.buffer))

    def latent_bounds(self, x: float):
        """``Marginal.latent_bounds`` of one observed value under the plain
        marginal, bit for bit."""
        (vt, lo, hi), d, n = self._kind, self.distinct, len(self.buffer)
        prefix = self._table[2]
        if vt.tag == ORDINAL:
            i = _nearest_level(x, d)
            return (float(ndtri(prefix[i - 1] / n)) if i else -math.inf,
                    float(ndtri(prefix[i] / n)) if i < len(d) - 1 else math.inf)
        # the counts before, and up to the end of, the interior
        a, b = float(prefix[lo - 1]) if lo else 0.0, float(prefix[hi - 1])
        pa, pb = a / n, (n - b) / n
        if pb > 0 and x >= vt.upper:
            return float(ndtri(1.0 - pb)), math.inf
        if pa > 0 and x <= vt.lower:
            return -math.inf, float(ndtri(pa))
        m = max(int(round(n * (1.0 - pa - pb))), 1)
        j = max(bisect_right(d, x, lo, hi) - 1, lo)
        u = _node((float(prefix[j]) - a) / (b - a), m)
        if j < hi - 1 and x > d[j]:
            u = _interp_step(x, d[j], d[j + 1], u,
                             _node((float(prefix[j + 1]) - a) / (b - a), m))
        z = float(ndtri(pa + (1.0 - pa - pb) * u))
        return z, z

    def from_latent(self, z: float) -> float:
        """``Marginal.from_latent`` of one latent value under the decayed
        marginal (the plain one at decay 1), bit for bit with it."""
        (vt, lo, hi), d, w = self._kind, self.distinct, self._weights()
        if vt.tag != ORDINAL:
            try:
                pa, pb, icum, m = _interior(w, lo, hi, len(self.buffer))
            except ValueError:
                vt = _ORDINAL
        if vt.tag == ORDINAL:
            return d[np.searchsorted(ndtri(_prefix_masses(w)[:-1]), z, "right")]
        if pb > 0 and z >= ndtri(1.0 - pb):
            return vt.upper
        if pa > 0 and z <= ndtri(pa):
            return vt.lower
        u = float(ndtr(z))
        if pb > 0 and u >= 1.0 - pb:
            return vt.upper
        if pa > 0 and u <= pa:
            return vt.lower
        # _interp_exact(v, nodes, interior values) from the nodes around v:
        # the first of the nodes equal to v, else a step between two
        v = (u - pa) / (1.0 - pa - pb)
        j = bisect_right(icum, v, key=lambda c: _node(c, m))
        if j == 0:
            return d[lo]
        left = _node(icum[j - 1], m)
        if left == v:
            return d[lo + bisect_left(icum, v, key=lambda c: _node(c, m))]
        if j == len(icum):
            return d[hi - 1]
        return _interp_step(v, left, _node(icum[j], m), d[lo + j - 1], d[lo + j])


_TINY = float(np.finfo(float).tiny)
_ORDINAL = VariableType(ORDINAL)


@dataclass
class StreamState:
    """Mutable stream model; :func:`fold` is the single writer."""

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
        raise ValueError(f"column {table.col_names[j]!r} has fewer than 2 observed "
                         "values in the initialization block")
    windows = [_Window(col[~np.isnan(col)], config.window_size, vartype, config.decay)
               for col, vartype in zip(table.values.T,
                                       column_types(table, types, min_ord_ratio))]
    lower, upper = encode_table([w.marginal() for w in windows], table.values)
    keep = ~np.isnan(lower).all(axis=1)
    corr = initial_corr(lower[keep], upper[keep])
    return StreamState(config, list(table.col_names), windows, corr,
                       pending_cov=np.zeros_like(corr))


def _encode_row(state: StreamState, row):
    """The latent (lower, upper) bounds of ``row``; NaN where it is missing."""
    pairs = [(math.nan, math.nan) if x != x else w.latent_bounds(x)
             for w, x in zip(state.windows, row.tolist())]
    return np.array(pairs, dtype=float).reshape(-1, 2).T


def _check_finite(state: StreamState, row, what: str) -> None:
    bad = np.flatnonzero(np.isinf(row))
    if bad.size:
        raise ValueError(f"{what} is infinite at column {state.col_names[bad[0]]!r}; "
                         f"cells must be finite or missing")


def answer(state: StreamState, row, revealed=None):
    """Impute one arriving row, and leave the state as it was.

    Returns the imputed row and the arguments of the :func:`fold` that
    folds the row in. ``revealed``, when given, must agree with ``row`` at
    the row's observed cells and may expose additional values; the
    revealed values are what enters the windows and the correlation
    update. Every error that a row can raise, such as an infinite cell in
    either, is raised here.
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
            raise ValueError(f"revealed row disagrees with the input row at observed "
                             f"column {state.col_names[differ[0]]!r}")

    # encode against the marginals current at ingest time, and impute
    post = row_posterior(state.corr, *_encode_row(state, row))
    imputed = row.copy()
    for j in np.flatnonzero(np.isnan(row)):
        imputed[j] = state.windows[j].from_latent(post.cond_mean[j])

    # the correlation has not changed since the last update, so the row's
    # own solve gives its E-step terms; a revealed row is solved again on
    # the bounds of what it reveals, which are what enter the update
    if revealed is None:
        return imputed, (row, post)
    return imputed, (revealed, row_posterior(state.corr, *_encode_row(state, revealed)))


def fold(state: StreamState, source, post) -> None:
    """Fold a row into the model: its values ``source`` into the windows,
    and the E-step terms of its posterior ``post`` into the pending sums,
    which update the correlation once a batch is complete."""
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


def step(state: StreamState, row, revealed=None):
    """Impute one arriving row, then fold it into the model: :func:`answer`
    then :func:`fold`. Returns the imputed row and the state."""
    imputed, folded = answer(state, row, revealed)
    fold(state, *folded)
    return imputed, state
