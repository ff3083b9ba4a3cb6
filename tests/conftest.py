import warnings

import numpy as np
import pytest
from hypothesis import settings
from scipy.integrate import IntegrationWarning, quad
from scipy.stats import expon, norm

from copulafill.evaluation import (
    mask_mcar,
    ordinal_spec,
    random_correlation,
    sample_gc,
    truncated_spec,
)


# every run of the suite draws the same examples, and none from a saved database
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


def quad_truncnorm(mu, var, lo, hi):
    """Adaptive-quadrature oracle for truncated-normal moments.

    Integrates in standardized coordinates against a density rescaled at the
    interval point nearest the mode, so tail intervals stay well-scaled.
    """
    sd = np.sqrt(var)
    a = (lo - mu) / sd
    b = (hi - mu) / sd
    if np.isinf(a) and np.isinf(b):
        return mu, var, 1.0
    c = min(max(0.0, a), b) if np.isfinite(b) else max(0.0, a)
    w = lambda z: np.exp(-(z * z - c * c) / 2.0)
    lim = (a if np.isfinite(a) else -np.inf, b if np.isfinite(b) else np.inf)
    opts = dict(epsabs=1e-14, epsrel=1e-12, limit=200)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        i0 = quad(w, *lim, **opts)[0]
        m1 = quad(lambda z: z * w(z), *lim, **opts)[0] / i0
        v1 = quad(lambda z: (z - m1) ** 2 * w(z), *lim, **opts)[0] / i0
    mass = np.exp(-c * c / 2.0) / np.sqrt(2 * np.pi) * i0
    return mu + sd * m1, var * v1, mass


def mixed_specs(p=8):
    """3 continuous, 3 five-level ordinal, 2 lower-truncated columns."""
    if p != 8:
        raise ValueError("mixed_specs is fixed at 8 columns")
    return [
        norm(loc=1.0, scale=2.0).ppf,
        expon(scale=3.0).ppf,
        norm(loc=-2.0, scale=0.5).ppf,
        ordinal_spec([0.1, 0.2, 0.4, 0.2, 0.1]),
        ordinal_spec([0.3, 0.2, 0.2, 0.2, 0.1]),
        ordinal_spec([0.15, 0.35, 0.2, 0.15, 0.15]),
        truncated_spec(expon(scale=1.0).ppf, p_alpha=0.3, alpha=0.0),
        truncated_spec(expon(scale=2.0).ppf, p_alpha=0.4, alpha=0.0),
    ]


def make_mixed_dataset(n=4000, seed=0, mask_fraction=0.1):
    corr = random_correlation(8, seed=seed, n_factors=3, noise=0.7)
    truth = sample_gc(n, mixed_specs(), corr=corr, seed=seed + 1000)
    masked = mask_mcar(truth, mask_fraction, seed=seed + 2000)
    return corr, truth, masked


def make_continuous_dataset(n=2000, p=5, seed=0, mask_fraction=0.2):
    corr = random_correlation(p, seed=seed, n_factors=2, noise=0.8)
    specs = [norm(loc=j, scale=1 + 0.3 * j).ppf for j in range(p)]
    truth = sample_gc(n, specs, corr=corr, seed=seed + 1000)
    masked = mask_mcar(truth, mask_fraction, seed=seed + 2000)
    return corr, truth, masked


@pytest.fixture(scope="session")
def mixed_dataset():
    return make_mixed_dataset()


@pytest.fixture(scope="session")
def continuous_dataset():
    return make_continuous_dataset()
