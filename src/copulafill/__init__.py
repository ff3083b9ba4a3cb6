"""Gaussian copula imputation for incomplete mixed-type data tables."""

__version__ = "0.1.0"

from .copula_em import (
    CopulaModel,
    FitConfig,
    approx_loglik,
    encode_table,
    estep,
    fit_minibatch_offline,
    fit_standard,
    mstep,
)
from .data_model import (
    CONTINUOUS,
    LOWER_TRUNCATED,
    ORDINAL,
    TWOSIDED_TRUNCATED,
    UPPER_TRUNCATED,
    ConfigError,
    DataTable,
    VariableType,
    detect_variable_types,
    read_csv,
    write_csv,
)
from .evaluation import (
    coverage,
    mae,
    mask_mcar,
    ordinal_spec,
    random_correlation,
    sample_gc,
    smae,
    truncated_spec,
)
from .imputer import (
    ImputationResult,
    confidence_intervals,
    impute_multiple,
    impute_single,
    transform_out_of_sample,
)
from .latent import (
    RowPosterior,
    conditional_mvn,
    row_posterior,
    truncnorm_moments,
)
from .lrgc import LowRankParams, fit_lrgc, implied_corr
from .marginals import Marginal, fit_marginal
from .streaming import StreamConfig, StreamState, init_stream, step
