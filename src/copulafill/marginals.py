"""Empirical per-column marginals and their latent-Gaussian transforms.

Each fitted marginal exposes three maps: the (scaled) empirical CDF, the
empirical quantile function, and the set-valued latent map that sends an
observed value to the interval of latent standard-normal values consistent
with it. A marginal is one of two kinds. An ordinal column maps each level
to a latent interval. Any other column has a continuous interior, whose
values map to single latent points, and a point mass at each truncation
bound, whose values map to intervals; a continuous column is this kind with
no boundary mass.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right

import numpy as np
from scipy.special import ndtr, ndtri

from .data_model import ORDINAL, VariableType


class Marginal:
    """One column's fitted empirical distribution.

    Built by :func:`fit_marginal`, or from sorted distinct ``values`` and
    their summed weights ``sums`` (their counts, in a fit); a truncated
    type's unset bounds are taken from the values. Its prefix masses are
    the prefix sums of ``sums`` over their total, so those of counts are
    exact ratios of integers. An ordinal marginal has one latent cell per
    level. Every other marginal splits off the masses ``p_alpha`` and
    ``p_beta`` of the values at or past its bounds and spreads the rest
    over an interior CDF; a continuous column, or a truncated one whose
    values all lie inside its bounds, has ``p_alpha = p_beta = 0``.
    Evaluation methods are pure and accept scalars or arrays; instances are
    immutable after fitting.
    """

    # no boundary mass, and so no latent cutpoint, unless __init__ sets one
    p_alpha = p_beta = 0.0
    _z_alpha, _z_beta = -math.inf, math.inf

    def __init__(self, vartype, values, sums, n_obs):
        self.values = values              # sorted unique observed values
        self.masses = sums / sums.sum()   # normalized aggregated weights, sum to 1
        self.n_obs = n_obs                # observation count behind the fit
        self.vartype, lo, hi = _layout(vartype, values)
        self._cum = _prefix_masses(sums)
        if self.vartype.tag == ORDINAL:
            # half-open latent cells per level, outermost cells unbounded
            self._zcuts = np.concatenate(([-np.inf], ndtri(self._cum[:-1]), [np.inf]))
            return
        self.p_alpha, self.p_beta, icum, m = _interior(sums, lo, hi, n_obs)
        self._inner_values = self.values[lo:hi]
        # latent cutpoints of the boundary masses (z-space comparisons keep
        # boundary round trips exact)
        if self.p_alpha > 0:
            self._z_alpha = ndtri(self.p_alpha)
        if self.p_beta > 0:
            self._z_beta = ndtri(1.0 - self.p_beta)
        self._nodes = _nodes(icum, m)

    # -- CDF / quantile -----------------------------------------------------

    def cdf(self, x):
        """Scaled empirical CDF, values inside (0, 1).

        Exact at observed sample points, linear in between, clamped outside
        the sample range.
        """
        if self.vartype.tag == ORDINAL:
            idx = np.searchsorted(self.values, x, side="right") - 1
            return self._cum[np.clip(idx, 0, len(self._cum) - 1)]
        u_in = _interp_exact(x, self._inner_values, self._nodes)
        return self.p_alpha + (1.0 - self.p_alpha - self.p_beta) * u_in

    def quantile(self, p):
        """Empirical quantile; linear between order statistics, clamped at
        the sample extremes (imputations never extrapolate)."""
        if self.vartype.tag == ORDINAL:
            idx = np.searchsorted(self._cum, p, side="left")
            return self.values[np.clip(idx, 0, len(self.values) - 1)]
        u = np.asarray(p, dtype=float)
        vt, pa, pb = self.vartype, self.p_alpha, self.p_beta
        out = _interp_exact((u - pa) / (1.0 - pa - pb), self._nodes,
                            self._inner_values)
        out = np.asarray(out, dtype=float)
        if pa > 0:
            out = np.where(u <= pa, vt.lower, out)
        if pb > 0:
            out = np.where(u >= 1.0 - pb, vt.upper, out)
        return out if out.ndim else float(out)

    # -- latent maps ----------------------------------------------------------

    def latent_bounds(self, x):
        """Lower/upper latent bounds per value (floats for a scalar); NaN
        input stays NaN on both."""
        scalar = np.ndim(x) == 0
        x = np.atleast_1d(np.asarray(x, dtype=float))
        nan = np.isnan(x)
        vt = self.vartype
        if vt.tag == ORDINAL:
            # snap to the nearest observed level, then use its latent cell
            idx = _nearest_index(np.where(nan, self.values[0], x), self.values)
            lo = self._zcuts[idx].astype(float)
            hi = self._zcuts[idx + 1].astype(float)
        else:
            lo = ndtri(self.cdf(np.where(nan, self._inner_values[0], x)))
            hi = lo.copy()
            if self.p_alpha > 0:
                at = x <= vt.lower
                lo[at] = -np.inf
                hi[at] = self._z_alpha
            if self.p_beta > 0:
                at = x >= vt.upper
                lo[at] = self._z_beta
                hi[at] = np.inf
        lo[nan] = np.nan
        hi[nan] = np.nan
        return (float(lo[0]), float(hi[0])) if scalar else (lo, hi)

    def from_latent(self, z):
        """Map latent values back to the observed space (Table transforms)."""
        z = np.asarray(z, dtype=float)
        if self.vartype.tag == ORDINAL:
            # cell k is [zcut_k, zcut_{k+1}): the upper boundary belongs to
            # the next level
            out = self.values[np.searchsorted(self._zcuts[1:-1], z, side="right")]
        else:
            out = np.asarray(self.quantile(ndtr(z)))
            if self.p_alpha > 0:
                out = np.where(z <= self._z_alpha, self.vartype.lower, out)
            if self.p_beta > 0:
                out = np.where(z >= self._z_beta, self.vartype.upper, out)
        return out if out.ndim else float(out)


def fit_marginal(values, vartype: VariableType) -> Marginal:
    """Fit a column's empirical marginal from its observed values.

    NaN entries are dropped; -0.0 counts as 0.0.
    """
    return _fit_marginal(values, vartype)[0]


def fit_and_encode(values, vartype: VariableType):
    """:func:`fit_marginal` of a column, plus the column's latent
    lower/upper bounds (NaN where missing).

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


def _fit_marginal(values, vartype):
    """The marginal of :func:`fit_marginal`, the mask of the non-NaN
    entries of ``values`` and the index of each in the marginal's values."""
    # + 0.0 turns -0.0 into 0.0: one zero, whichever sign np.unique meets first
    values = np.asarray(values, dtype=float).ravel() + 0.0
    keep = ~np.isnan(values)
    values = values[keep]
    if values.size == 0:
        raise ValueError("cannot fit a marginal with no observed values")
    uniq, inv, counts = np.unique(values, return_inverse=True, return_counts=True)
    return Marginal(vartype, uniq, counts, int(values.size)), keep, inv


def _prefix_masses(sums):
    """The prefix sums of ``sums`` over their total, the last set to exactly 1."""
    cum = sums.cumsum() / sums.sum()
    cum[-1] = 1.0
    return cum


def _layout(vartype: VariableType, values):
    """The type of a marginal of sorted distinct ``values`` (a list or an
    array), unset bounds taken from them, and the index range [lo, hi) of
    the values inside its bounds (all of them, for an ordinal type)."""
    lower, upper = vartype.lower, vartype.upper
    if vartype.has_lower_bound and lower is None:
        lower = float(values[0])
    if vartype.has_upper_bound and upper is None:
        upper = float(values[-1])
    if (lower, upper) != (vartype.lower, vartype.upper):
        if lower is not None and upper is not None and lower >= upper:
            raise ValueError(f"truncated column has no interior values: lower={lower}, "
                             f"upper={upper}, the unset bounds taken from the observed values")
        vartype = VariableType(vartype.tag, lower=lower, upper=upper)
    # the sorted values at or past each bound are a prefix and a suffix;
    # an unset bound spares a continuous column the has_*_bound calls
    lo, hi = 0, len(values)
    if vartype.tag == ORDINAL:
        return vartype, lo, hi
    if lower is not None and vartype.has_lower_bound:
        lo = bisect_right(values, lower)
    if upper is not None and vartype.has_upper_bound:
        hi = bisect_left(values, upper)
    if lo >= hi:
        raise ValueError(f"truncated column has no interior values: every value lies at "
                         f"or past lower={lower} or upper={upper}")
    return vartype, lo, hi


def _interior(sums, lo: int, hi: int, n: int):
    """The masses p_alpha and p_beta of the values before ``lo`` and from
    ``hi`` on, the prefix masses of the interior [lo, hi) of ``sums``, and
    its share of the ``n`` observations."""
    if lo == 0 and hi == len(sums):
        return 0.0, 0.0, _prefix_masses(sums), n
    total = sums.sum()
    p_alpha, p_beta = float(sums[:lo].sum() / total), float(sums[hi:].sum() / total)
    # weighted boundary masses may sum to 1 with a negligible interior
    if p_alpha + p_beta >= 1.0:
        raise ValueError("truncated column has no interior values; boundary masses "
                         f"p_alpha={p_alpha:.3f}, p_beta={p_beta:.3f}")
    m = max(int(round(n * (1.0 - p_alpha - p_beta))), 1)
    # the interior's own cumsum: a difference of prefixes of all the sums
    # would cancel to 0 where the boundary weights dwarf the interior's
    return p_alpha, p_beta, _prefix_masses(sums[lo:hi]), m


def _nodes(icum, m: int):
    """The interior CDF at the interior values of prefix masses ``icum``,
    scaled by the interior observation count ``m`` to stay inside (0, 1)."""
    return np.maximum(icum * m / (m + 1), 1.0 / (m + 1))


def _node(c: float, m: int) -> float:
    """:func:`_nodes` of one prefix mass, as a float."""
    return max(float(c) * m / (m + 1), 1.0 / (m + 1))


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
    over = np.isinf(out)
    if over.any() and np.isfinite(yp).all():   # a slope that overflows
        j = np.searchsorted(xp, x[over], "right") - 1
        out = np.array(out)
        out[over] = _halved_step((x[over] - xp[j]) / (xp[j + 1] - xp[j]), yp[j], yp[j + 1])
    if (xp[1:] > xp[:-1]).all():
        return out if out.ndim else float(out)
    idx = np.searchsorted(xp, x)
    idx = np.clip(idx, 0, len(xp) - 1)
    hit = xp[idx] == x
    if out.ndim == 0:
        return float(yp[idx]) if hit else float(out)
    out[hit] = yp[idx[hit]]
    return out


def _interp_step(x: float, x0: float, x1: float, y0: float, y1: float) -> float:
    """:func:`_interp_exact`'s value at x strictly inside the segment [x0,
    x1]: ``np.interp``'s, from the left end, and from the right one where
    that gives NaN; where its slope overflows between finite y0 and y1,
    :func:`_halved_step`'s."""
    slope = (y1 - y0) / (x1 - x0)
    y = slope * (x - x0) + y0
    if y != y:
        y = slope * (x - x1) + y1
        if y != y and y0 == y1:
            y = y0
    if abs(y) == math.inf and math.isfinite(y0) and math.isfinite(y1):
        return _halved_step((x - x0) / (x1 - x0), y0, y1)
    return y


def _halved_step(t, y0, y1):
    """The point a share ``t`` of the way from y0 to y1, on halved values,
    so that finite ends give a finite point however far apart they are."""
    return 2.0 * (y0 / 2.0 + t * (y1 / 2.0 - y0 / 2.0))


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


def _nearest_level(x: float, grid: list) -> int:
    """:func:`_nearest_index` of one non-NaN value on a sorted list."""
    i = min(bisect_left(grid, x), len(grid) - 1)
    return i - 1 if 0 < i and x < grid[-1] and x - grid[i - 1] <= grid[i] - x else i
