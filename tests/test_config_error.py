"""Which library checks raise ConfigError: a value the caller sets is out
of range. Failures of the data stay plain ValueError (LinAlgError is one);
the CLI maps the first to exit 1 and the others to exit 3."""

import numpy as np
import pytest

from copulafill import (ConfigError, FitConfig, StreamConfig, fit_lrgc,
                        fit_minibatch_offline)
from copulafill.copula_em import column_types, fit_standard, validate_stepsize
from copulafill.data_model import DataTable, detect_variable_types, parse_type_overrides
from copulafill.imputer import confidence_intervals, impute_multiple
from copulafill.latent import batch_posterior

TABLE = DataTable(np.random.default_rng(0).standard_normal((30, 3)))
MODEL = fit_standard(TABLE)


@pytest.mark.parametrize("check", [
    lambda: FitConfig(tol=0),
    lambda: FitConfig(tol=float("nan")),
    lambda: FitConfig(max_iter=0),
    lambda: FitConfig(batch_size=0),
    lambda: FitConfig(num_pass=0),
    lambda: FitConfig(seed=-1),
    lambda: FitConfig(stepsize=lambda t: 1.5),
    lambda: StreamConfig(window_size=1),
    lambda: StreamConfig(const_stepsize=1.0),
    lambda: StreamConfig(batch_size=0),
    lambda: StreamConfig(decay=0.0),
    lambda: StreamConfig(n_train=1),
    lambda: validate_stepsize(lambda t: -1.0, 3),
    lambda: validate_stepsize(lambda t: t / 10, 3),
    lambda: detect_variable_types(TABLE, min_ord_ratio=0),
    lambda: detect_variable_types(TABLE, min_ord_ratio=1.5),
    lambda: parse_type_overrides("auto,auto", 3),
    lambda: parse_type_overrides("widget,auto,auto", 3),
    lambda: column_types(TABLE, [None], 0.1),
    lambda: fit_minibatch_offline(TABLE, FitConfig(batch_size=2)),
    lambda: fit_minibatch_offline(TABLE, FitConfig(stepsize=lambda t: 0.5)),
    lambda: fit_lrgc(TABLE, 0),
    lambda: fit_lrgc(TABLE, 3),
    lambda: confidence_intervals(MODEL, TABLE, alpha=1.0),
    lambda: confidence_intervals(MODEL, TABLE, kind="bootstrap"),
    lambda: confidence_intervals(MODEL, TABLE, kind="quantile", num_samples=0),
    lambda: impute_multiple(MODEL, TABLE, 0),
])
def test_a_setting_out_of_range_raises_config_error(check):
    with pytest.raises(ConfigError) as info:
        check()
    assert isinstance(info.value, ValueError)


def _singular_block():
    sigma = np.array([[1.0, 1.5], [1.5, 1.0]])  # indefinite
    z = np.array([[0.3, 0.4]])
    batch_posterior(sigma, z, z.copy())


@pytest.mark.parametrize("check, message", [
    (lambda: fit_standard(np.array([[1.0, np.nan], [2.0, np.nan], [3.0, np.nan]])),
     "has no observed values"),
    (lambda: fit_lrgc(np.random.default_rng(1).standard_normal((3, 5)), 3),
     "needs more than 3 fitted rows"),
    (_singular_block, "row 0"),
])
def test_a_data_failure_is_no_config_error(check, message):
    with pytest.raises(ValueError, match=message) as info:
        check()
    assert not isinstance(info.value, ConfigError)
