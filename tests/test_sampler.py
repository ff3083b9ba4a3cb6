"""The batched sampler against the per-row one in ``sampler_oracle``, the
fit's one-pass encoding against ``encode_table``, and the M-step sums
against their einsum."""

import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from copulafill import latent
from copulafill.copula_em import FitConfig, _prepare_fit, encode_table, fit_standard
from copulafill.data_model import (
    CONTINUOUS,
    LOWER_TRUNCATED,
    ORDINAL,
    TWOSIDED_TRUNCATED,
    UPPER_TRUNCATED,
    VariableType,
)
from copulafill.evaluation import mask_mcar, sample_gc
from copulafill.imputer import _model_posterior, impute_multiple
from copulafill.lrgc import LowRankParams, _FactorMoments, _lowrank_posterior, fit_lrgc

import sampler_oracle
from conftest import make_mixed_dataset


def quiet(fit, *args, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return fit(*args, **kwargs)


def continuous_lowrank_table(n=120, p=24, k=3, seed=8):
    w = np.random.default_rng(seed).standard_normal((p, k))
    w *= np.sqrt(0.7) / np.linalg.norm(w, axis=1, keepdims=True)
    table = sample_gc(n, [norm.ppf] * p, lowrank=LowRankParams(w, 0.3), seed=seed)
    return mask_mcar(table, 0.3, seed=seed + 1).values


def mixed_table(n=150, seed=5):
    """8 columns: continuous, ordinal and lower-truncated, 30% MCAR."""
    return make_mixed_dataset(n=n, seed=seed, mask_fraction=0.3)[2].values


def with_empty_rows(values, rows=(0, 7, 8)):
    values = values.copy()
    values[list(rows)] = np.nan
    return values


def check_draws(model, values, num, seed=4, lowrank=False):
    """Batched draws equal the per-row ones: bit for bit wherever a row's
    products keep their shapes, and within 1e-12 at the low-rank missing
    cells, whose factor product is taken over all columns at once."""
    want = sampler_oracle.latent_draws(model, values, num, seed)
    got = np.zeros_like(want)
    _model_posterior(model, values, got, seed)
    missing = np.broadcast_to(np.isnan(values), got.shape)
    exact = ~missing if lowrank else np.ones(got.shape, dtype=bool)
    np.testing.assert_array_equal(got[exact], want[exact])
    np.testing.assert_allclose(got[missing], want[missing], rtol=0, atol=1e-12)
    return want


@pytest.fixture(scope="module")
def mixed_models():
    values = mixed_table()
    config = FitConfig(max_iter=3)
    return (values, quiet(fit_standard, values, config),
            quiet(fit_lrgc, values, 2, config))


class TestBatchedDrawsMatchPerRow:
    @pytest.mark.parametrize("num", [1, 3])
    def test_dense_mixed_with_interval_cells(self, mixed_models, num):
        values, dense, _ = mixed_models
        lower, upper = encode_table(dense.marginals, values)
        assert (upper > lower).any()
        check_draws(dense, values, num)

    @pytest.mark.parametrize("num", [1, 2])
    def test_lowrank_continuous(self, num):
        values = continuous_lowrank_table()
        model = quiet(fit_lrgc, values, 3, FitConfig(max_iter=3))
        check_draws(model, values, num, lowrank=True)

    @pytest.mark.parametrize("num", [1, 3])
    def test_lowrank_mixed(self, mixed_models, num):
        values, _, lowrank = mixed_models
        check_draws(lowrank, values, num, lowrank=True)

    def test_all_missing_rows(self, mixed_models):
        values, dense, lowrank = mixed_models
        values = with_empty_rows(values)
        for model, is_lowrank in ((dense, False), (lowrank, True)):
            want = check_draws(model, values, 3, lowrank=is_lowrank)
            assert np.isfinite(want[:, [0, 7, 8]]).all()

    @pytest.mark.parametrize("elems", [200, 1200])
    def test_small_chunks(self, mixed_models, monkeypatch, elems):
        values, dense, lowrank = mixed_models
        values = with_empty_rows(values)
        # dense: 3 or 18 patterns a stack; both: 1 or 3 rows a piece of
        # 3 draws
        monkeypatch.setattr(latent, "_CHUNK_ELEMS", elems)
        check_draws(dense, values, 3)
        check_draws(lowrank, values, 3, lowrank=True)


class TestFirstDrawsDoNotDependOnTheirCount:
    """A 3-draw run is bitwise the first 3 draws of a 7-draw run."""

    @staticmethod
    def check_prefix(model, values):
        short = impute_multiple(model, values, num=3, seed=6)
        np.testing.assert_array_equal(
            short.view(np.uint64),
            impute_multiple(model, values, num=7, seed=6)[:3].view(np.uint64))

    def test_dense_with_interval_cells(self, mixed_models):
        values, dense, _ = mixed_models
        lower, upper = encode_table(dense.marginals, values)
        assert (upper > lower).any()
        self.check_prefix(dense, values)

    def test_lowrank(self, mixed_models):
        values, _, lowrank = mixed_models
        self.check_prefix(lowrank, values)
        model = quiet(fit_lrgc, continuous_lowrank_table(), 3, FitConfig(max_iter=3))
        self.check_prefix(model, continuous_lowrank_table())

    def test_all_missing_rows(self, mixed_models):
        values, dense, lowrank = mixed_models
        for model in (dense, lowrank):
            self.check_prefix(model, with_empty_rows(values))

    def test_small_chunks(self, mixed_models, monkeypatch):
        values, dense, lowrank = mixed_models
        monkeypatch.setattr(latent, "_CHUNK_ELEMS", 200)
        for model in (dense, lowrank):
            self.check_prefix(model, with_empty_rows(values))


_TYPES = st.sampled_from([
    VariableType(CONTINUOUS),
    VariableType(ORDINAL),
    VariableType(LOWER_TRUNCATED, lower=0.0),
    VariableType(LOWER_TRUNCATED),               # bound taken from the data
    VariableType(UPPER_TRUNCATED, upper=3.0),
    VariableType(TWOSIDED_TRUNCATED, lower=0.0, upper=3.0),
])
# repeated grid values, the truncation bounds 0 and 3, free values and NaN;
# a column of one repeated value has a single level
_CELL = st.one_of(st.sampled_from([0.0, 0.0, 0.5, 1.0, 1.0, 2.0, 3.0, 3.0]),
                  st.floats(-2.0, 5.0), st.just(np.nan), st.just(np.nan))


@st.composite
def _tables(draw):
    n = draw(st.integers(1, 25))
    cols, types = [], []
    for _ in range(draw(st.integers(1, 5))):
        if draw(st.booleans()):
            col = [draw(_CELL) for _ in range(n)]
        else:       # single level, mostly missing
            x = draw(st.sampled_from([0.0, 1.5, 3.0]))
            col = [x if draw(st.integers(0, 3)) == 0 else np.nan for _ in range(n)]
        cols.append(col)
        types.append(draw(_TYPES))
    return np.array(cols, dtype=float).T, types


class TestFitEncoding:
    @settings(max_examples=300, deadline=None)
    @given(_tables())
    def test_same_bits_as_encode_table(self, table):
        values, types = table
        assume((~np.isnan(values)).any(axis=0).all())
        try:
            prep = quiet(_prepare_fit, values, types, 0.1)
        except ValueError:
            assume(False)       # a truncated column with no interior value
        lower, upper = encode_table(prep.marginals, values)
        for got, want in ((prep.lower, lower), (prep.upper, upper)):
            assert got.shape == values.shape
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_all_missing_rows_are_kept_in_the_encoding(self):
        values = with_empty_rows(mixed_table(60), rows=(3,))
        prep = quiet(_prepare_fit, values, None, 0.1)
        assert np.isnan(prep.lower[3]).all()
        lower, upper = prep.fitted_bounds()
        assert len(lower) == 59
        np.testing.assert_array_equal(lower, np.delete(prep.lower, 3, axis=0))

    def test_a_prepared_table_is_fitted_as_it_is(self):
        values = mixed_table(80)
        prep = quiet(_prepare_fit, values, None, 0.1)
        config = FitConfig(max_iter=2)
        a, b = quiet(fit_standard, prep, config), quiet(fit_standard, values, config)
        assert a.marginals is prep.marginals
        np.testing.assert_array_equal(a.corr, b.corr)


def test_factor_moments_match_the_einsum():
    values = continuous_lowrank_table(n=200, p=30, k=4, seed=11)
    w = np.random.default_rng(3).standard_normal((30, 4))
    w *= np.sqrt(0.6) / np.linalg.norm(w, axis=1, keepdims=True)
    params = LowRankParams(w, 0.4)
    got, want = _FactorMoments(30, 4), np.zeros((30, 4, 4))

    def visit(chunk):
        got.add(chunk)
        obs = ~chunk.stack.missing[chunk.pat]
        ft = chunk.state
        e_tt = chunk.stack.cov_t[chunk.pat] + ft[:, :, None] * ft[:, None, :]
        want[...] += np.einsum("ij,ikl->jkl", obs, e_tt)

    lower = values.copy()
    _lowrank_posterior(params, lower, values, visit)
    assert want.any()
    np.testing.assert_allclose(got.s1, want, rtol=0, atol=1e-12)
