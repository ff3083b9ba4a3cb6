"""Direct per-row reference for the stream step.

The package keeps each window's distinct values sorted with their counts
and decay-weight sums, has the window answer each cell's encode and decode
from that table, and takes a row's posterior mean and E-step terms from a
single-row solver. This module keeps the direct form: each marginal is
refitted from the whole window with ``fit_marginal`` (under the decay
weights of :func:`decayed_weights`, by :func:`weighted_marginal`), each
cell is encoded
as a one-element array, the posterior is ``batch_posterior`` on a one-row
batch, and a correlation update solves its rows again with
``copula_em.blend_step``. Tests compare
the package against it; nothing in ``src/`` imports it.
"""

from __future__ import annotations

import numpy as np

from copulafill.copula_em import blend_step
from copulafill.data_model import ORDINAL, VariableType
from copulafill.latent import batch_posterior
from copulafill.marginals import Marginal, fit_marginal


def decayed_weights(m: int, decay: float) -> np.ndarray:
    """Weights decay**t for time lags t = 1..m, most recent first, each at
    least the smallest normal float, so that a long window at a small decay
    keeps every weight positive instead of underflowing to 0."""
    if m < 1:
        raise ValueError(f"window length must be >= 1, got {m}")
    if not 0 < decay <= 1:
        raise ValueError(f"decay must be in (0, 1], got {decay}")
    return np.maximum(decay ** np.arange(1, m + 1, dtype=float),
                      np.finfo(float).tiny)


def weighted_marginal(values, vartype, weights=None):
    """``fit_marginal`` of ``values`` with each value's weight summed in
    place of its count; NaN entries are dropped with their weights. Without
    weights it is ``fit_marginal``, and uniform weights reproduce it."""
    if weights is None:
        return fit_marginal(values, vartype)
    values = np.asarray(values, dtype=float).ravel() + 0.0
    weights = np.asarray(weights, dtype=float).ravel()
    if weights.shape != values.shape:
        raise ValueError("weights must match values in length")
    keep = ~np.isnan(values)
    values, weights = values[keep], weights[keep]
    if values.size == 0:
        raise ValueError("cannot fit a marginal with no observed values")
    if (weights <= 0).any():
        raise ValueError("weights must be positive")
    uniq, inv = np.unique(values, return_inverse=True)
    return Marginal(vartype, uniq, np.bincount(inv, weights=weights), int(values.size))


def window_marginal(window, vartype, weights=None):
    """The marginal of a window's values, refitted from scratch."""
    vals = np.fromiter(window, dtype=float)
    try:
        return weighted_marginal(vals, vartype, weights)
    except ValueError:
        # a truncated window may momentarily hold boundary values only;
        # treat it as ordinal until interior values return
        return weighted_marginal(vals, VariableType(ORDINAL), weights)


def decayed_marginal(state, j):
    """Column ``j``'s marginal under the stream's decay weights."""
    window = state.buffers[j]
    weights = decayed_weights(len(window), state.config.decay)[::-1]
    return window_marginal(window, state.vartypes[j], weights)


def decayed_window_marginal(window):
    """The marginal that a window's decode reads: its distinct values under
    its own summed decay weights (its counts at decay 1)."""
    values, weights, n = np.array(window.distinct), window._weights(), len(window.buffer)
    try:
        return Marginal(window._kind[0], values, weights, n)
    except ValueError:     # decay weights that leave the interior none
        return Marginal(VariableType(ORDINAL), values, weights, n)


def encode_row(marginals, row):
    """(p,) latent bounds of one row, each cell encoded as an array."""
    pairs = [m.latent_bounds(np.array([x])) for m, x in zip(marginals, row)]
    lower, upper = (np.concatenate(b) for b in zip(*pairs))
    return lower, upper


def impute_row(state, row):
    """The imputed row that a step on ``row`` returns, from ``state`` as
    it stands before that step."""
    row = np.asarray(row, dtype=float)
    missing = np.isnan(row)
    if not missing.any():
        return row.copy()
    lower, upper = encode_row(state.marginals, row)
    if np.isnan(lower).all():
        latent = np.zeros(state.n_cols)
    else:
        latent = batch_posterior(state.corr, lower[None, :], upper[None, :]).mean[0]
    out = row.copy()
    for j in np.flatnonzero(missing):
        if state.config.decay < 1.0:
            marg = decayed_marginal(state, j)
        else:
            marg = state.marginals[j]
        out[j] = marg.from_latent(latent[j])
    return out


class BatchUpdate:
    """The stream's correlation update on the batch path: the encoded
    bounds of each row with an observed cell are kept until ``batch_size``
    rows are, then ``blend_step`` solves them all under the correlation."""

    def __init__(self, state):
        self.corr = state.corr.copy()
        self.lower, self.upper = [], []

    def add(self, state, row, revealed=None) -> bool:
        """Fold in the row that a step on ``row`` (and ``revealed``) folds
        in, from ``state`` as it stands before that step; True when the
        correlation was updated."""
        source = np.asarray(row if revealed is None else revealed, dtype=float)
        lower, upper = encode_row(state.marginals, source)
        if not np.isnan(lower).all():
            self.lower.append(lower)
            self.upper.append(upper)
        if len(self.lower) < state.config.batch_size:
            return False
        self.corr = blend_step(self.corr, np.vstack(self.lower),
                               np.vstack(self.upper), state.config.const_stepsize)[0]
        self.lower.clear()
        self.upper.clear()
        return True
