"""Latent-space numerics: truncated-normal moments, multivariate-normal
conditioning, and the approximate per-row posterior.

The per-row posterior is exact when every observed coordinate is a latent
point (continuous data). Interval-valued observations (ordinal levels,
truncation boundaries) are handled by a coordinate-wise fixed-point scheme:
each interval coordinate is repeatedly replaced by the moments of its
univariate conditional truncated normal given the other observed
coordinates at their current means. Cross-covariances among interval
coordinates are dropped; only their variances are kept.

All rows of a batch go through one sweep. Each distinct missingness
pattern's observed block is factored once, and all of them together, as one
stack: :class:`_DenseStack` sets each pattern's missing rows and columns of
Sigma to the identity, factors a (U, p, p) stack and inverts its factors
with a stacked triangular inverse; the Woodbury stack of
:mod:`copulafill.lrgc` factors (U, k, k) grams. A fixed element budget caps
both the patterns one stack holds and the rows solved at once, so a long
batch or a wide one splits into several stacks or chunks of rows, and no
array holds a p x p matrix per row. Each pass of the sweep visits every
interval column once, with one truncated-moment call over all rows of a
chunk that hold an interval there, and gathers each row's update from its
pattern's slice of the stack; the closing log-mass pass changes no state
and makes one call over every interval cell.

A single row, as a streamed row is, takes :func:`row_posterior` instead:
its o x o observed block is factored directly, the same sweep runs on
Python floats with a scalar truncated-moment kernel, so no array is set up
per cell, and the same factor gives the row's E-step terms (interval
variances and the missing block's covariance). The batch path takes over
when that block fails to factor, for its jitter ladder, and wherever
log-likelihoods or several rows are wanted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np
from numpy.linalg import LinAlgError
from scipy.special import erfcx, ndtr

# Python floats, so the scalar kernel keeps to float arithmetic
_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
_SQRT_2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_LOG_2PI = np.log(2.0 * np.pi)

# Gauss-Seidel passes of a posterior solve over its interval cells, before
# the log-mass pass
_SWEEPS = 2

# diagonal jitter ladder applied when an observed-block factorization fails
_JITTERS = (0.0, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2)

# doubles a stack may hold per stacked array, and a chunk of rows per
# row array (2 MB); no array holds a p x p matrix per row
_CHUNK_ELEMS = 1 << 18


def truncnorm_moments(mu, var, interval):
    """Mean and variance of N(mu, var) truncated to an interval, plus the
    untruncated probability mass of the interval.

    ``interval`` is a (lower, upper) pair; bounds may be +-inf and all
    arguments broadcast. A returned mass of 0.0 flags an interval beyond
    numeric range; the moments then degenerate to the endpoint nearest mu
    with variance 0.
    """
    lower, upper = interval
    return _truncmoments(mu, var, lower, upper)


def _truncmoments(mu, var, lower, upper, with_mass=True):
    """Vectorized stable truncated-normal moments (see truncnorm_moments).
    With ``with_mass`` False the mass is None; the moments keep their bits."""
    scalar = False
    # 1-D float arrays of one shape, as the sweep passes, need no conversion
    if not all(type(x) is np.ndarray and x.ndim == 1 and x.dtype == np.float64
               and x.shape == mu.shape for x in (mu, var, lower, upper)):
        scalar = all(np.ndim(x) == 0 for x in (mu, var, lower, upper))
        mu, var, lower, upper = np.broadcast_arrays(*(
            np.atleast_1d(np.asarray(a, dtype=float)) for a in (mu, var, lower, upper)))
    if (var <= 0).any():
        raise ValueError("truncnorm_moments requires var > 0")
    if (lower > upper).any():
        raise ValueError("truncated interval must have lower <= upper")
    sd = np.sqrt(var)
    m = np.zeros(mu.shape)
    v = np.ones(mu.shape)
    mass = np.ones(mu.shape)

    with np.errstate(all="ignore"):
        a = (lower - mu) / sd
        b = (upper - mu) / sd
        # reflect so the working interval is [a, inf) or has a + b >= 0
        reflect = ((a == -np.inf) & (b != np.inf)) | (a + b < 0)
        a_w = np.where(reflect, -b, a)
        b_w = np.where(reflect, -a, b)
        # an infinite a_w now has b_w = inf: mean 0, variance 1, mass 1
        fin_a = ~np.isinf(a_w)
        one_sided = fin_a & np.isinf(b_w)
        two_sided = fin_a ^ one_sided
        # each branch as an index array; a NaN a_w takes none of them
        one_sided, tail, strad = (x.nonzero()[0] for x in (
            one_sided, two_sided & (a_w >= 0), two_sided & (a_w < 0)))

        if one_sided.size:
            aa = a_w[one_sided]
            e = _SQRT_2_OVER_PI / erfcx(aa / _SQRT_2)
            m[one_sided] = e
            v[one_sided] = 1.0 + aa * e - e * e
            if with_mass:
                mass[one_sided] = ndtr(-aa)
        if tail.size:
            aa, bb = a_w[tail], b_w[tail]
            delta = np.exp((aa * aa - bb * bb) / 2.0)
            ea = erfcx(aa / _SQRT_2)
            eb = erfcx(bb / _SQRT_2)
            d = ea - delta * eb
            e = _SQRT_2_OVER_PI * (1.0 - delta) / d
            e2 = 1.0 + _SQRT_2_OVER_PI * (aa - bb * delta) / d
            m[tail] = e
            v[tail] = e2 - e * e
            if with_mass:
                mass[tail] = np.exp(-aa * aa / 2.0) * d / 2.0
        if strad.size:
            aa, bb = a_w[strad], b_w[strad]
            z = ndtr(bb) - ndtr(aa)
            pa = np.exp(-aa * aa / 2.0) / _SQRT_2PI
            pb = np.exp(-bb * bb / 2.0) / _SQRT_2PI
            e = (pa - pb) / z
            m[strad] = e
            v[strad] = 1.0 + (aa * pa - bb * pb) / z - e * e
            mass[strad] = z
            # needle interval around 0: the density is locally uniform
            needle = strad[z < 1e-12]
            if needle.size:
                m[needle] = (a_w[needle] + b_w[needle]) / 2.0
                v[needle] = (b_w[needle] - a_w[needle]) ** 2 / 12.0

    # sanitize: intervals beyond numeric range collapse to the endpoint
    # nearest mu with zero variance and a flagged zero mass
    bad = ~(np.isfinite(m) & np.isfinite(v))
    if bad.any():
        near = np.where(np.abs(a_w) <= np.abs(b_w), a_w, b_w)
        near = np.where(np.isinf(near), np.where(np.isinf(a_w), b_w, a_w), near)
        m[bad] = near[bad]
        v[bad] = 0.0
        mass[bad] = 0.0
    # np.clip, bit for bit: these argument orders keep its signed zeros
    m = np.minimum(np.maximum(m, a_w), b_w)
    v = np.minimum(np.maximum(0.0, v), 1.0)
    mass = np.minimum(np.maximum(0.0, mass), 1.0) if with_mass else None

    m = np.where(reflect, -m, m)
    mean, tvar = mu + sd * m, var * v
    if scalar:
        return tuple(x if x is None else float(x[0]) for x in (mean, tvar, mass))
    return mean, tvar, mass


def _truncmoments_scalar(mu: float, var: float, lower: float, upper: float):
    """Mean and variance of :func:`_truncmoments` for one interval, on
    Python floats, without the mass. Every branch is kept: reflection, the
    one-sided, tail and straddling intervals, the needle, the sanitizing of
    intervals beyond numeric range and the final clip. ``np.exp`` rather
    than ``math.exp``: the tail formula cancels, and the two differ in the
    last bit often enough to show."""
    if var <= 0:
        raise ValueError("truncnorm_moments requires var > 0")
    if lower > upper:
        raise ValueError("truncated interval must have lower <= upper")
    sd = math.sqrt(var)
    a = (lower - mu) / sd
    b = (upper - mu) / sd
    reflect = (a == -math.inf and b != math.inf) or a + b < 0
    if reflect:
        a, b = -b, -a
    try:
        if math.isinf(a):             # then b is +inf too
            m, v = 0.0, 1.0
        elif math.isinf(b):
            e = _SQRT_2_OVER_PI / float(erfcx(a / _SQRT_2))
            m, v = e, 1.0 + a * e - e * e
        elif a >= 0:
            delta = float(np.exp((a * a - b * b) / 2.0))
            eb = float(erfcx(b / _SQRT_2))
            d = float(erfcx(a / _SQRT_2)) - delta * eb
            m = _SQRT_2_OVER_PI * (1.0 - delta) / d
            v = 1.0 + _SQRT_2_OVER_PI * (a - b * delta) / d - m * m
        else:
            z = float(ndtr(b)) - float(ndtr(a))
            if z < 1e-12:
                # needle interval around 0: the density is locally uniform
                m, v = (a + b) / 2.0, (b - a) * (b - a) / 12.0
            else:
                pa = float(np.exp(-a * a / 2.0)) / _SQRT_2PI
                pb = float(np.exp(-b * b / 2.0)) / _SQRT_2PI
                m = (pa - pb) / z
                v = 1.0 + (a * pa - b * pb) / z - m * m
    except ZeroDivisionError:
        m = v = math.nan                # what the array kernel's x / 0 gives
    if not (math.isfinite(m) and math.isfinite(v)):
        near = a if abs(a) <= abs(b) else b
        if math.isinf(near):
            near = b if math.isinf(a) else a
        m, v = near, 0.0
    # np.maximum / np.minimum: NaN propagates and the first argument wins ties
    m = m if m >= a or m != m else a
    m = m if m <= b or m != m else b
    v = 0.0 if 0.0 >= v else v
    v = v if v <= 1.0 or v != v else 1.0
    if reflect:
        m = -m
    return mu + sd * m, var * v


def _interval_means(lower, upper):
    """``lower`` with each interval cell replaced by its N(0, 1) truncated
    mean: the point encoding the warm starts begin from."""
    z = lower.copy()
    interval = upper > lower
    if interval.any():
        z[interval] = _truncmoments(0.0, 1.0, lower[interval], upper[interval], False)[0]
    return z


class _SingularBlock(LinAlgError):
    """A stack could not factor the block of pattern ``index``."""

    def __init__(self, index: int, jitter: float):
        super().__init__(f"observed block is singular even with jitter {jitter:g}")
        self.index = index


def _chol_stack(mats, diag, jitters):
    """Cholesky factors of a (U, d, d) stack. When the stack fails, each
    matrix is factored alone, adding ``jit * diag[u]`` to its diagonal for
    the first ``jit`` in ``jitters`` that succeeds, so a matrix that needs
    no jitter gets the factor it gets in a stack of its own."""
    try:
        return np.linalg.cholesky(mats)
    except LinAlgError:
        pass
    chol = np.empty_like(mats)
    for u, mat in enumerate(mats):
        for jit in jitters:
            try:
                chol[u] = np.linalg.cholesky(mat + np.diag(jit * diag[u]))
                break
            except LinAlgError:
                continue
        else:
            raise _SingularBlock(u, jitters[-1])
    return chol


def _chol_inverse(chol):
    """Inverses of the SPD matrices with Cholesky factors ``chol``."""
    linv = np.linalg.inv(chol)
    return np.swapaxes(linv, -1, -2) @ linv


def _tri_inverse(chol, out):
    """Write into the zeroed ``out`` the inverses of a (U, d, d) stack of
    lower-triangular factors, by blocks (Du Croz & Higham 1992):
    [[A, 0], [C, B]]^-1 = [[A^-1, 0], [-B^-1 C A^-1, B^-1]], halving until a
    block has at most 8 rows, which forward substitution over the stack
    inverts."""
    d = chol.shape[-1]
    if d > 8:
        h = d // 2
        _tri_inverse(chol[:, :h, :h], out[:, :h, :h])
        _tri_inverse(chol[:, h:, h:], out[:, h:, h:])
        out[:, h:, :h] = -(out[:, h:, h:] @ (chol[:, h:, :h] @ out[:, :h, :h]))
        return out
    recip = 1.0 / _diag(chol)
    for i in range(d):
        out[:, i, :i] = (chol[:, i, None, :i] @ out[:, :i, :i])[:, 0] * -recip[:, i, None]
        out[:, i, i] = recip[:, i]
    return out


def _row_pieces(n: int, width: int) -> list:
    """Consecutive row index ranges over ``n`` rows, each of at most
    ``_CHUNK_ELEMS // width`` rows."""
    step = max(1, _CHUNK_ELEMS // width)
    return [np.arange(a, min(a + step, n)) for a in range(0, n, step)]


def _diag(stack):
    return np.diagonal(stack, axis1=-2, axis2=-1)


def _rows_times(x, mats, pat):
    """Rows ``x[i] @ mats[pat[i]]``, one vector-matrix product a row, so a
    row's result does not depend on the rows solved with it. A matrix that
    several rows share is used in place; the others are gathered, at most
    one per pattern of the stack."""
    out = np.empty((len(x), mats.shape[-1]))
    counts = np.bincount(pat, minlength=len(mats))
    single = np.flatnonzero(counts[pat] == 1)
    out[single] = (x[single, None, :] @ mats[pat[single]])[:, 0]
    order, ends = np.argsort(pat, kind="stable"), np.cumsum(counts)
    for u in np.flatnonzero(counts > 1):
        rows = order[ends[u] - counts[u]:ends[u]]
        out[rows] = (x[rows, None, :] @ mats[u])[:, 0]
    return out


class _DenseStack:
    """Observed blocks of U missingness patterns under a dense correlation.

    Each pattern's Sigma has its missing rows and columns set to the
    identity, so one (U, p, p) Cholesky factorization and its stacked
    triangular inverse (:func:`_tri_inverse`) serve them all: ``prec`` is
    Sigma_OO^-1 on the observed block, the identity elsewhere. Per-row
    arrays are (r, p), zero at missing cells; the sweep's state is ``prec`` z.
    """

    def __init__(self, sigma, missing):
        self.sigma, self.missing = sigma, missing
        obs = ~missing
        obs_block = obs[:, :, None] & obs[:, None, :]
        chol = _chol_stack(np.where(obs_block, sigma, np.eye(len(sigma))),
                           obs.astype(float), _JITTERS)
        linv = _tri_inverse(chol, np.zeros_like(chol))
        self.prec = np.swapaxes(linv, 1, 2) @ linv
        self.cvar = 1.0 / _diag(self.prec)       # observed conditional variances
        self.logdet = 2.0 * np.log(_diag(chol)).sum(axis=1)
        # Sigma_OO^-1 Sigma_OM, zero outside observed rows and missing columns
        self.coef = (self.prec * obs_block) @ sigma * missing[:, None, :]
        cov = (sigma - sigma @ self.coef) * (missing[:, :, None] & missing[:, None, :])
        self.cov = (cov + np.swapaxes(cov, 1, 2)) / 2.0   # of the missing block

    def start(self, z, pat):
        return _rows_times(z, self.prec, pat)

    def cond_mean(self, z, jz, rows, c, cvar):
        return z[rows, c] - jz[rows, c] * cvar

    def update(self, jz, rows, pats, c, delta):
        jz[rows] += delta[:, None] * self.prec[pats, c]

    def quad(self, z, jz, pat):
        return np.einsum("ij,ij->i", jz, z)

    def missing_mean(self, jz):
        # Sigma_MO Sigma_OO^-1 z_O: J z is 0 at missing cells
        return (jz[:, None, :] @ self.sigma)[:, 0]

    def missing_var(self, ivar, pat):
        var = _diag(self.cov)[pat]
        for c in np.flatnonzero(ivar.any(axis=0)):
            rows = np.flatnonzero(ivar[:, c])
            var[rows] += ivar[rows, c, None] * np.square(self.coef[pat[rows], c])
        return var

    def cov_sum(self, pat, ivar):
        """Missing-block conditional covariance summed over rows with
        patterns ``pat`` and interval variances ``ivar``: (p, p), with the
        interval variance carried into the missing coordinates."""
        counts = np.bincount(pat, minlength=len(self.cov)).astype(float)
        vsum = np.zeros(self.cvar.shape)
        np.add.at(vsum, pat, ivar)
        carried = (self.coef * np.sqrt(vsum)[:, :, None]).reshape(-1, vsum.shape[1])
        total = np.tensordot(counts, self.cov, axes=1) + carried.T @ carried
        return (total + total.T) / 2.0

    @cached_property
    def _chol_missing(self):
        p = self.cov.shape[1]
        return np.linalg.cholesky(self.cov + np.eye(p) * (~self.missing[:, None, :] + 1e-10))

    def draw_missing(self, draw, pat, eps):
        """Fill the missing cells of ``draw`` (r, num, p), rows of patterns
        ``pat`` holding their drawn observed cells, from the normals ``eps``
        (r, num, p) at those cells, one vector-matrix product a draw, so a
        draw does not depend on the draws or rows made with it."""
        order = np.argsort(pat, kind="stable")
        bounds = np.flatnonzero(np.diff(pat[order])) + 1
        for rows in np.split(order, bounds):
            u = pat[rows[0]]
            mis = self.missing[u]
            rows_draw = draw[rows]
            chol = self._chol_missing[u][np.ix_(mis, mis)]
            rows_draw[..., mis] = (rows_draw[..., None, :] @ self.coef[u][:, mis]
                                   + eps[rows][..., None, mis] @ chol.T)[..., 0, :]
            draw[rows] = rows_draw


def conditional_mvn(sigma, obs_idx, z_obs, mis_idx):
    """Exact conditional of a zero-mean MVN on the missing coordinates.

    Returns the conditional mean vector and covariance of ``mis_idx`` given
    the coordinates ``obs_idx`` equal ``z_obs``.
    """
    sigma = np.asarray(sigma, dtype=float)
    obs_idx = np.asarray(obs_idx, dtype=int)
    mis_idx = np.asarray(mis_idx, dtype=int)
    z_obs = np.asarray(z_obs, dtype=float)
    if z_obs.shape != obs_idx.shape:
        raise ValueError("z_obs must match obs_idx in length")
    # a one-pattern stack over the asked-for coordinates only
    o, idx = len(obs_idx), np.r_[obs_idx, mis_idx]
    missing = (np.arange(len(idx)) >= o)[None, :]
    stack = _DenseStack(sigma[np.ix_(idx, idx)], missing)
    return z_obs @ stack.coef[0][:o, o:], stack.cov[0][o:, o:]


@dataclass
class RowPosterior:
    """Conditional latent moments of one row given its observed cells.

    ``cond_mean`` covers every coordinate. ``cond_var`` holds the residual
    variance of interval-valued observed coordinates (zero at degenerate
    ones). ``cond_cov_missing`` is the conditional covariance of the missing
    coordinates given the observed cells, including the variance carried
    over from interval-valued observations.
    """

    cond_mean: np.ndarray
    cond_var: np.ndarray
    cond_cov_missing: np.ndarray
    obs_idx: np.ndarray
    mis_idx: np.ndarray


@dataclass
class _Chunk:
    """One solved chunk of a batch, as handed to a posterior's ``visit``."""

    rows: object              # the chunk's rows in the batch: a slice or
                              # an index array
    stack: object             # _DenseStack or the low-rank stack
    pat: np.ndarray           # each row's pattern index in the stack
    z: np.ndarray             # (r, p) conditional means, 0 at missing cells
                              # until the visit returns
    ivar: np.ndarray          # (r, p) interval-coordinate variances
    state: np.ndarray         # the stack's running state at z


@dataclass
class BatchPosterior:
    """Posterior moments of a batch of latent-interval-encoded rows."""

    mean: np.ndarray          # (n, p) conditional means, all coordinates
    ivar: np.ndarray          # (n, p) interval-coordinate variances
    mvar: np.ndarray          # (n, p) missing-coordinate variances
    gauss_ll: np.ndarray      # (n,) Gaussian log-density of observed coords
    log_mass: np.ndarray      # (n,) summed interval log-masses
    pattern: np.ndarray       # (n,) index of each row's missingness pattern

    @property
    def loglik(self) -> float:
        """Total approximate observed-data log-likelihood of the batch."""
        return float((self.gauss_ll + self.log_mass).sum())

    @property
    def groups(self) -> list:
        """Row indices of each missingness pattern."""
        order = np.argsort(self.pattern, kind="stable")
        bounds = np.flatnonzero(np.diff(self.pattern[order])) + 1
        return np.split(order, bounds) if order.size else []


def batch_posterior(sigma, lower, upper, visit=None) -> BatchPosterior:
    """Approximate posterior for every row of an encoded batch.

    ``lower``/``upper`` are (n, p) latent bounds: NaN in both marks a
    missing cell, equal finite bounds a degenerate (continuous) cell, and a
    proper interval an ordinal level or truncation boundary. A row with no
    observed cell gets its prior: mean 0, variance Sigma_jj. Each
    missingness pattern's observed block is factored once; ``visit``, if
    given, is called with each solved :class:`_Chunk`.
    """
    sigma = np.asarray(sigma, dtype=float)
    return _solve(lower, upper, partial(_DenseStack, sigma), sigma.size, visit)


def _solve(lower, upper, make_stack, pattern_cost, visit=None) -> BatchPosterior:
    """Sweep all rows against stacks ``make_stack(missing patterns)``.

    A stack holds at most ``_CHUNK_ELEMS // pattern_cost`` patterns,
    ``pattern_cost`` being the elements a pattern takes in a stack's
    largest array, so each pattern is factored once per batch. The rows of
    a stack's patterns are solved in chunks of at most ``_CHUNK_ELEMS // p``
    rows, which bounds the sweep's temporaries however long the batch.
    """
    lower = np.atleast_2d(np.asarray(lower, dtype=float))
    upper = np.atleast_2d(np.asarray(upper, dtype=float))
    n, p = lower.shape
    missing = np.isnan(lower)
    # each mask row as one p-byte key: its byte order is the row order of
    # np.unique(missing, axis=0), without the p-field record dtype
    keys = np.ascontiguousarray(missing).view(np.dtype((np.void, p)))
    first, inverse = np.unique(keys.ravel(), return_index=True,
                               return_inverse=True)[1:]
    post = BatchPosterior(np.zeros((n, p)), np.zeros((n, p)), np.zeros((n, p)),
                          np.zeros(n), np.zeros(n), inverse)

    size = max(1, _CHUNK_ELEMS // pattern_cost)
    piece = max(1, _CHUNK_ELEMS // p)
    counts = np.bincount(post.pattern)
    ends = np.cumsum(counts)
    by_pattern = np.argsort(post.pattern, kind="stable")
    for u0 in range(0, len(first), size):
        u1 = min(u0 + size, len(first))
        try:
            stack = make_stack(missing[first[u0:u1]])
        except _SingularBlock as err:
            raise LinAlgError(f"{err} (row {first[u0 + err.index]})") from None
        in_stack = np.sort(by_pattern[ends[u0] - counts[u0]:ends[u1 - 1]])
        for i in range(0, len(in_stack), piece):
            rows = in_stack[i:i + piece]
            if rows[-1] - rows[0] == len(rows) - 1:
                rows = slice(rows[0], rows[-1] + 1)   # z, ivar: views of post
            _solve_chunk(post, rows, stack, u0, missing[rows], lower[rows],
                         upper[rows], visit)
    return post


def _solve_chunk(post, rows, stack, u0, miss, lo, hi, visit):
    """Solve the batch rows ``rows``, whose patterns are in ``stack`` from
    pattern ``u0`` on, into ``post``."""
    pat = post.pattern[rows] - u0
    z, ivar = post.mean[rows], post.ivar[rows]
    state, log_mass = _sweep(stack, pat, lo, hi, z, ivar)
    post.gauss_ll[rows] = -0.5 * (stack.logdet[pat] + stack.quad(z, state, pat)
                                  + (~miss).sum(axis=1) * _LOG_2PI)
    post.log_mass[rows] = log_mass
    if visit is not None:
        visit(_Chunk(rows, stack, pat, z, ivar, state))
    if miss.any():
        # after the visit, which reads z with zeros at missing cells;
        # one (r, p) result at a time, as wide rows make them large
        np.copyto(z, stack.missing_mean(state), where=miss)
        mvar = stack.missing_var(ivar, pat)
        mvar[~miss] = 0.0
        post.mvar[rows] = mvar
    if not isinstance(rows, slice):
        post.mean[rows], post.ivar[rows] = z, ivar


def _sweep(stack, pat, lo, hi, z_hat, ivar):
    """The fixed-point scheme on one chunk: ``_SWEEPS`` Gauss-Seidel passes
    over the interval columns, then one pass for the interval log-masses
    under the final conditionals. Each Gauss-Seidel pass makes one
    truncated-moment call per column over every row with an interval there;
    the log-mass pass makes one call over every interval cell. Fills
    ``z_hat`` and the zeroed ``ivar`` in place (``z_hat`` is 0 at missing
    cells) and returns the state and log-masses."""
    interval = hi > lo
    z_hat[...] = lo
    z_hat[~np.isfinite(lo)] = 0.0
    log_mass = np.zeros(len(z_hat))
    if interval.any():
        z_hat[interval], ivar[interval], _ = _truncmoments(
            0.0, 1.0, lo[interval], hi[interval], False)
    state = stack.start(z_hat, pat)
    cols = []
    for c in np.flatnonzero(interval.any(axis=0)):
        rows = np.flatnonzero(interval[:, c])
        pats = pat[rows]
        cols.append((c, rows, pats, stack.cvar[pats, c], lo[rows, c], hi[rows, c]))
    for _ in range(_SWEEPS):
        for c, rows, pats, cvar, lo_c, hi_c in cols:
            m, v, _ = _truncmoments(stack.cond_mean(z_hat, state, rows, c, cvar),
                                    cvar, lo_c, hi_c, False)
            stack.update(state, rows, pats, c, m - z_hat[rows, c])
            z_hat[rows, c] = m
            ivar[rows, c] = v
    if cols:
        # the log-mass pass updates no state, so its columns share one call;
        # each column's masses are then added in the order of the sweep
        args = [(stack.cond_mean(z_hat, state, rows, c, cvar), cvar, lo_c, hi_c)
                for c, rows, _, cvar, lo_c, hi_c in cols]
        mass = _truncmoments(*map(np.concatenate, zip(*args)))[2]
        ends = np.cumsum([len(rows) for _, rows, *_ in cols])
        for (_, rows, *_), part in zip(cols, np.split(mass, ends[:-1])):
            log_mass[rows] += np.log(np.maximum(part, 1e-300))
    return state, log_mass


def row_posterior(sigma, lower, upper) -> RowPosterior:
    """Posterior of a single row: ``batch_posterior`` on the row alone, up
    to rounding, at a fraction of its cost; see :func:`batch_posterior` for
    the encoding.

    The row's o x o observed block is factored directly, and the sweep of
    :func:`_sweep` runs in the same order on Python floats with
    :func:`_truncmoments_scalar`. The same factor gives the missing block's
    conditional covariance, with the interval variances of the last pass
    carried into it. No pattern grouping, stack or log-likelihood is
    computed. When the block does not factor, the batch path and its
    jitter ladder give the row. A row with no observed cell gets its prior,
    as in :func:`batch_posterior`: mean 0 and missing covariance Sigma.
    """
    sigma = np.asarray(sigma, dtype=float)
    lower = np.asarray(lower, dtype=float).ravel()
    upper = np.asarray(upper, dtype=float).ravel()
    missing = np.isnan(lower)
    obs, mis = np.flatnonzero(~missing), np.flatnonzero(missing)
    # (k, 1) and (k,) index arrays pick a block as np.ix_ does, at a
    # quarter of its cost on a row of 15
    try:
        chol = np.linalg.cholesky(sigma[obs[:, None], obs])
    except LinAlgError:
        cov = []
        post = batch_posterior(
            sigma, lower[None, :], upper[None, :],
            visit=lambda ch: cov.append(ch.stack.cov_sum(ch.pat, ch.ivar)))
        return RowPosterior(post.mean[0], post.ivar[0], cov[0][np.ix_(mis, mis)],
                            obs, mis)
    prec = _chol_inverse(chol)
    lo, hi = lower[obs].tolist(), upper[obs].tolist()
    z = [x if math.isfinite(x) else 0.0 for x in lo]
    v = [0.0] * len(lo)
    cols = [c for c in range(len(lo)) if hi[c] > lo[c]]
    for c in cols:
        z[c], v[c] = _truncmoments_scalar(0.0, 1.0, lo[c], hi[c])
    jz = (np.array(z) @ prec).tolist()
    prec_rows = prec.tolist()
    cvar = (1.0 / np.diagonal(prec)).tolist()
    for _ in range(_SWEEPS):
        for c in cols:
            m, v[c] = _truncmoments_scalar(z[c] - jz[c] * cvar[c], cvar[c],
                                           lo[c], hi[c])
            delta = m - z[c]
            jz = [s + delta * r for s, r in zip(jz, prec_rows[c])]
            z[c] = m
    mean, ivar = np.zeros(len(lower)), np.zeros(len(lower))
    mean[obs], ivar[obs] = z, v
    # coef = Sigma_OO^-1 Sigma_OM; each interval variance carries through
    # coef into the missing block
    s_om = sigma[obs[:, None], mis]
    mean[mis] = np.array(jz) @ s_om
    coef = prec @ s_om
    cov = sigma[mis[:, None], mis] - coef.T @ (s_om - np.array(v)[:, None] * coef)
    return RowPosterior(mean, ivar, cov, obs, mis)
