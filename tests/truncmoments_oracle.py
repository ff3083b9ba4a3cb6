"""Reference for the truncated-normal moment kernel.

``copulafill.latent._truncmoments`` is called once per interval column per
sweep pass, often on a handful of elements, so its fixed cost per call is
trimmed: fewer temporaries and masks, ``np.minimum``/``np.maximum`` for
``np.clip``. This module keeps the earlier, direct form. Tests require the
package's kernel to match it bit for bit; nothing in ``src/`` imports it.
It also keeps the checked standard normal CDF and quantile that the kernel
is built on.
"""

from __future__ import annotations

import numpy as np
from scipy.special import erfcx, ndtr, ndtri

_SQRT_2_OVER_PI = np.sqrt(2.0 / np.pi)


def std_normal_cdf(z):
    """Standard normal CDF."""
    return ndtr(z)


def std_normal_quantile(p):
    """Exact functional inverse of the standard normal CDF on (0, 1)."""
    p = np.asarray(p, dtype=float)
    if np.any((p <= 0.0) | (p >= 1.0)):
        raise ValueError("quantile argument must lie strictly inside (0, 1)")
    out = ndtri(p)
    return float(out) if out.ndim == 0 else out


def truncmoments(mu, var, lower, upper):
    """Truncated-normal mean, variance and mass, as the package's
    ``latent._truncmoments`` computed them before its fixed cost was cut."""
    scalar = all(np.ndim(x) == 0 for x in (mu, var, lower, upper))
    mu, var, lower, upper = np.broadcast_arrays(
        *(np.atleast_1d(np.asarray(a, dtype=float)) for a in (mu, var, lower, upper))
    )
    if np.any(var <= 0):
        raise ValueError("truncnorm_moments requires var > 0")
    if np.any(lower > upper):
        raise ValueError("truncated interval must have lower <= upper")
    sd = np.sqrt(var)
    a = (lower - mu) / sd
    b = (upper - mu) / sd

    # reflect so the working interval is [a, inf) or has a + b >= 0
    reflect = np.zeros(a.shape, dtype=bool)
    reflect[np.isneginf(a) & ~np.isposinf(b)] = True
    finite = np.isfinite(a) & np.isfinite(b)
    reflect[finite] = a[finite] + b[finite] < 0
    a_w = np.where(reflect, -b, a)
    b_w = np.where(reflect, -a, b)

    m = np.zeros_like(a_w)
    v = np.ones_like(a_w)
    mass = np.ones_like(a_w)

    both_inf = np.isinf(a_w) & np.isinf(b_w)
    one_sided = np.isinf(b_w) & ~both_inf
    two_sided = ~np.isinf(a_w) & ~np.isinf(b_w)

    with np.errstate(all="ignore"):
        if one_sided.any():
            aa = a_w[one_sided]
            e = _SQRT_2_OVER_PI / erfcx(aa / np.sqrt(2.0))
            m[one_sided] = e
            v[one_sided] = 1.0 + aa * e - e * e
            mass[one_sided] = ndtr(-aa)
        tail = two_sided & (a_w >= 0)
        if tail.any():
            aa, bb = a_w[tail], b_w[tail]
            delta = np.exp((aa * aa - bb * bb) / 2.0)
            ea = erfcx(aa / np.sqrt(2.0))
            eb = erfcx(bb / np.sqrt(2.0))
            d = ea - delta * eb
            e = _SQRT_2_OVER_PI * (1.0 - delta) / d
            e2 = 1.0 + _SQRT_2_OVER_PI * (aa - bb * delta) / d
            m[tail] = e
            v[tail] = e2 - e * e
            mass[tail] = np.exp(-aa * aa / 2.0) * d / 2.0
        strad = two_sided & (a_w < 0)
        if strad.any():
            aa, bb = a_w[strad], b_w[strad]
            z = ndtr(bb) - ndtr(aa)
            pa = np.exp(-aa * aa / 2.0) / np.sqrt(2.0 * np.pi)
            pb = np.exp(-bb * bb / 2.0) / np.sqrt(2.0 * np.pi)
            e = (pa - pb) / z
            m[strad] = e
            v[strad] = 1.0 + (aa * pa - bb * pb) / z - e * e
            mass[strad] = z
            # needle interval around 0: the density is locally uniform
            needle = np.zeros_like(reflect)
            needle[strad] = z < 1e-12
            if needle.any():
                m[needle] = (a_w[needle] + b_w[needle]) / 2.0
                v[needle] = (b_w[needle] - a_w[needle]) ** 2 / 12.0

    m[both_inf] = 0.0

    # sanitize: intervals beyond numeric range collapse to the endpoint
    # nearest mu with zero variance and a flagged zero mass
    bad = ~(np.isfinite(m) & np.isfinite(v))
    if bad.any():
        near = np.where(np.abs(a_w) <= np.abs(b_w), a_w, b_w)
        near = np.where(np.isinf(near), np.where(np.isinf(a_w), b_w, a_w), near)
        m[bad] = near[bad]
        v[bad] = 0.0
        mass[bad] = 0.0
    m = np.clip(m, a_w, b_w)
    v = np.clip(v, 0.0, 1.0)
    mass = np.clip(mass, 0.0, 1.0)

    m = np.where(reflect, -m, m)
    mean, tvar = mu + sd * m, var * v
    if scalar:
        return float(mean[0]), float(tvar[0]), float(mass[0])
    return mean, tvar, mass
