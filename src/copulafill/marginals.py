"""Empirical per-column marginals and their latent-Gaussian transforms.

Each fitted marginal exposes three maps: the (scaled) empirical CDF, the
empirical quantile function, and the set-valued latent map that sends an
observed value to the interval of latent standard-normal values consistent
with it. Continuous values map to a single latent point, ordinal levels and
truncation boundaries map to intervals.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from .data_model import CONTINUOUS, ORDINAL, VariableType


@dataclass(frozen=True)
class LatentInterval:
    """Closed latent interval [lower, upper]; lower == upper is a point."""

    lower: float
    upper: float

    def __post_init__(self):
        if not self.lower <= self.upper:
            raise ValueError(f"empty interval [{self.lower}, {self.upper}]")

    @property
    def is_point(self) -> bool:
        return self.lower == self.upper


class Marginal:
    """One column's fitted empirical distribution.

    Built by :func:`fit_marginal`. Evaluation methods are pure and accept
    scalars or arrays; instances are immutable after fitting.
    """

    def __init__(self, vartype, values, masses, n_obs):
        self.vartype = vartype
        self.values = values        # sorted unique observed values
        self.masses = masses        # normalized aggregated weights, sum to 1
        self.n_obs = n_obs          # observation count behind the fit
        self._build()

    def _build(self):
        cum = np.cumsum(self.masses)
        cum[-1] = 1.0
        self._cum = cum
        self._value_list = self.values.tolist()   # for bisection
        n = self.n_obs
        tag = self.vartype.tag
        if tag == ORDINAL:
            # half-open latent cells per level, outermost cells unbounded
            self._zcuts = np.concatenate(([-np.inf], ndtri(cum[:-1]), [np.inf]))
            return
        if tag == CONTINUOUS:
            self._nodes = np.maximum(cum * n / (n + 1), 1.0 / (n + 1))
            return
        # truncated: split boundary masses from the interior distribution
        vt = self.vartype
        self.p_alpha = 0.0
        self.p_beta = 0.0
        inner = np.ones(len(self.values), dtype=bool)
        if vt.has_lower_bound:
            at = self.values <= vt.lower
            self.p_alpha = float(self.masses[at].sum())
            inner &= ~at
        if vt.has_upper_bound:
            at = self.values >= vt.upper
            self.p_beta = float(self.masses[at].sum())
            inner &= ~at
        # weighted boundary masses may sum to just under 1 with no interior left
        if self.p_alpha + self.p_beta >= 1.0 or not inner.any():
            raise ValueError(
                "truncated column has no interior values; boundary masses "
                f"p_alpha={self.p_alpha:.3f}, p_beta={self.p_beta:.3f}"
            )
        self._inner_values = self.values[inner]
        self._inner_list = self._inner_values.tolist()
        w = self.masses[inner]
        icum = np.cumsum(w) / w.sum()
        icum[-1] = 1.0
        # scale by the interior observation count so the interior CDF stays
        # inside (0, 1)
        m = max(int(round(n * (1.0 - self.p_alpha - self.p_beta))), 1)
        self._inner_nodes = np.maximum(icum * m / (m + 1), 1.0 / (m + 1))
        # latent cutpoints of the boundary masses (z-space comparisons keep
        # boundary round trips exact)
        self._z_alpha = ndtri(self.p_alpha) if self.p_alpha > 0 else -np.inf
        self._z_beta = ndtri(1.0 - self.p_beta) if self.p_beta > 0 else np.inf

    # -- CDF / quantile -----------------------------------------------------

    def cdf(self, x):
        """Scaled empirical CDF, values inside (0, 1).

        Exact at observed sample points, linear in between, clamped outside
        the sample range.
        """
        tag = self.vartype.tag
        if tag == ORDINAL:
            idx = np.searchsorted(self.values, x, side="right") - 1
            return self._cum[np.clip(idx, 0, len(self._cum) - 1)]
        if tag == CONTINUOUS:
            return _interp_exact(x, self.values, self._nodes)
        u_in = _interp_exact(x, self._inner_values, self._inner_nodes)
        return self.p_alpha + (1.0 - self.p_alpha - self.p_beta) * u_in

    def quantile(self, p):
        """Empirical quantile; linear between order statistics, clamped at
        the sample extremes (imputations never extrapolate)."""
        tag = self.vartype.tag
        if tag == ORDINAL:
            idx = np.searchsorted(self._cum, p, side="left")
            return self.values[np.clip(idx, 0, len(self.values) - 1)]
        if tag == CONTINUOUS:
            return _interp_exact(p, self._nodes, self.values)
        return self._trunc_quantile(np.asarray(p, dtype=float))

    def _trunc_quantile(self, u):
        vt = self.vartype
        inner_u = (u - self.p_alpha) / (1.0 - self.p_alpha - self.p_beta)
        out = _interp_exact(inner_u, self._inner_nodes, self._inner_values)
        out = np.asarray(out, dtype=float)
        if self.p_alpha > 0:
            out = np.where(u <= self.p_alpha, vt.lower, out)
        if self.p_beta > 0:
            out = np.where(u >= 1.0 - self.p_beta, vt.upper, out)
        return out if out.ndim else float(out)

    # -- latent maps ----------------------------------------------------------

    def latent_bounds(self, x):
        """Lower/upper latent bounds per value; NaN input stays NaN on both."""
        if np.ndim(x) == 0:
            return self._point_bounds(float(x))
        x = np.asarray(x, dtype=float)
        nan = np.isnan(x)
        tag = self.vartype.tag
        if tag == CONTINUOUS:
            lo = ndtri(self.cdf(np.where(nan, self.values[0], x)))
            hi = lo.copy()
        elif tag == ORDINAL:
            # snap to the nearest observed level, then use its latent cell
            idx = _nearest_index(np.where(nan, self.values[0], x), self.values)
            lo = self._zcuts[idx].astype(float)
            hi = self._zcuts[idx + 1].astype(float)
        else:
            lo, hi = self._trunc_bounds_arr(x, nan)
        lo[nan] = np.nan
        hi[nan] = np.nan
        return lo, hi

    def _point_bounds(self, x: float):
        """:meth:`latent_bounds` of one value, bit for bit, with no array
        temporaries: a bisection, at most one ``np.interp`` and one
        ``ndtri``."""
        if x != x:
            return math.nan, math.nan
        tag = self.vartype.tag
        if tag == ORDINAL:
            i = _nearest_level(x, self._value_list)
            return float(self._zcuts[i]), float(self._zcuts[i + 1])
        if tag == CONTINUOUS:
            lo = float(ndtri(_interp_point(x, self._value_list, self.values,
                                           self._nodes)))
            return lo, lo
        vt = self.vartype
        # the array path sets the lower boundary cell first, so the upper wins
        if vt.has_upper_bound and self.p_beta > 0 and x >= vt.upper:
            return float(self._z_beta), math.inf
        if vt.has_lower_bound and self.p_alpha > 0 and x <= vt.lower:
            return -math.inf, float(self._z_alpha)
        u_in = _interp_point(x, self._inner_list, self._inner_values,
                             self._inner_nodes)
        lo = float(ndtri(self.p_alpha + (1.0 - self.p_alpha - self.p_beta) * u_in))
        return lo, lo

    def _trunc_bounds_arr(self, x, nan):
        vt = self.vartype
        lo = ndtri(self.cdf(np.where(nan, self._inner_values[0], x)))
        hi = lo.copy()
        if vt.has_lower_bound and self.p_alpha > 0:
            at = x <= vt.lower
            lo[at] = -np.inf
            hi[at] = self._z_alpha
        if vt.has_upper_bound and self.p_beta > 0:
            at = x >= vt.upper
            lo[at] = self._z_beta
            hi[at] = np.inf
        return lo, hi

    def from_latent(self, z):
        """Map latent values back to the observed space (Table transforms)."""
        z = np.asarray(z, dtype=float)
        tag = self.vartype.tag
        if tag == CONTINUOUS:
            return self.quantile(ndtr(z))
        if tag == ORDINAL:
            # cell k is [zcut_k, zcut_{k+1}): the upper boundary belongs to
            # the next level
            idx = np.searchsorted(self._zcuts[1:-1], z, side="right")
            out = self.values[np.clip(idx, 0, len(self.values) - 1)]
            return out if out.ndim else float(out)
        return self._trunc_from_latent(z)

    def _trunc_from_latent(self, z):
        vt = self.vartype
        u = ndtr(z)
        out = np.atleast_1d(np.asarray(self._trunc_quantile(u), dtype=float))
        flat_z = np.atleast_1d(z)
        if self.p_alpha > 0:
            out[flat_z <= self._z_alpha] = vt.lower
        if self.p_beta > 0:
            out[flat_z >= self._z_beta] = vt.upper
        if np.ndim(z) == 0:
            return float(out[0])
        return out


def fit_marginal(values, vartype: VariableType, weights=None) -> Marginal:
    """Fit a column's empirical marginal from its observed values.

    NaN entries are dropped (with their weights). Weights default to uniform;
    uniform weights reproduce the unweighted fit exactly.
    """
    return _fit_marginal(values, vartype, weights)[0]


def fit_and_encode(values, vartype: VariableType):
    """:func:`fit_marginal` of a column with uniform weights, plus the
    column's latent lower/upper bounds (NaN where missing).

    The bounds come from one :meth:`Marginal.latent_bounds` call on the
    marginal's distinct values, gathered through the inverse indices of the
    fit's ``np.unique``. That map is elementwise, so the bounds equal
    ``latent_bounds(values)`` bit for bit, without a search per cell.
    """
    marg, observed, inverse = _fit_marginal(values, vartype)
    lo, hi = marg.latent_bounds(marg.values)
    lower = np.full(observed.shape, np.nan)
    upper = lower.copy()
    lower[observed], upper[observed] = lo[inverse], hi[inverse]
    return marg, lower, upper


def _fit_marginal(values, vartype, weights=None):
    """The marginal of :func:`fit_marginal`, the mask of the non-NaN
    entries of ``values`` and the index of each in the marginal's values."""
    values = np.asarray(values, dtype=float).ravel()
    if weights is None:
        weights = np.ones_like(values)
    else:
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
    marg = marginal_from_sums(vartype, uniq, np.bincount(inv, weights=weights),
                              int(values.size))
    return marg, keep, inv


def marginal_from_sums(vartype: VariableType, values: np.ndarray,
                       sums: np.ndarray, n_obs: int) -> Marginal:
    """The marginal of sorted distinct ``values`` whose weights sum to
    ``sums``, behind ``n_obs`` observations: what :func:`fit_marginal`
    builds once it has aggregated its input."""
    return Marginal(_resolve_bounds(vartype, values), values, sums / sums.sum(),
                    n_obs)


def _resolve_bounds(vartype: VariableType, values: np.ndarray) -> VariableType:
    lower, upper = vartype.lower, vartype.upper
    if vartype.has_lower_bound and lower is None:
        lower = float(values.min())
    if vartype.has_upper_bound and upper is None:
        upper = float(values.max())
    if (lower, upper) == (vartype.lower, vartype.upper):
        return vartype
    return VariableType(vartype.tag, lower=lower, upper=upper)


def to_latent_interval(marginal: Marginal, x: float) -> LatentInterval:
    """Latent interval consistent with one observed value."""
    lo, hi = marginal.latent_bounds(float(x))
    return LatentInterval(float(lo), float(hi))


def from_latent(marginal: Marginal, z):
    """Observed-space value(s) of latent point(s) under the marginal."""
    return marginal.from_latent(z)


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


def _interp_exact(x, xp, yp):
    """np.interp with exact lookup at the nodes.

    Guarantees bitwise-exact values at xp, so that rank-derived encodings
    and round trips are exact at sample points. np.interp already returns
    yp[j] at x == xp[j] when the nodes are distinct; where a node repeats,
    as the quantile nodes of a weighted fit can, it would take the last
    repeat, and a search per value takes the first.
    """
    x = np.asarray(x, dtype=float)
    out = np.interp(x, xp, yp)
    if (xp[1:] > xp[:-1]).all():
        return out if out.ndim else float(out)
    idx = np.searchsorted(xp, x)
    idx = np.clip(idx, 0, len(xp) - 1)
    hit = xp[idx] == x
    if out.ndim == 0:
        return float(yp[idx]) if hit else float(out)
    out[hit] = yp[idx[hit]]
    return out


def _interp_point(x: float, xs: list, xp, yp):
    """:func:`_interp_exact` of one value; ``xs`` is ``xp`` as a list."""
    i = bisect_left(xs, x)
    if i < len(xs) and xs[i] == x:
        return yp[i]
    return np.interp(x, xp, yp)


def _nearest_level(x: float, grid: list) -> int:
    """:func:`_nearest_index` of one non-NaN value on a grid list."""
    if x >= grid[-1]:
        return len(grid) - 1
    i = bisect_left(grid, x)
    if i > 0 and abs(x - grid[i - 1]) <= abs(grid[i] - x):
        return i - 1
    return i


def _nearest_index(x, grid):
    """Index of the nearest grid value, ties resolved to the lower one; a
    value at or beyond an end of the grid snaps to that end, even where
    both distances round to the same float."""
    x = np.nan_to_num(np.asarray(x, dtype=float))
    idx = np.searchsorted(grid, x)
    idx = np.clip(idx, 0, len(grid) - 1)
    left = np.clip(idx - 1, 0, len(grid) - 1)
    with np.errstate(over="ignore"):    # an infinite distance still compares
        pick_left = np.abs(x - grid[left]) <= np.abs(grid[idx] - x)
    return np.where(pick_left & (idx > 0) & (x < grid[-1]), left, idx)
