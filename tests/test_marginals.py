import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import ndtr, ndtri

from copulafill.data_model import (
    CONTINUOUS,
    LOWER_TRUNCATED,
    ORDINAL,
    TWOSIDED_TRUNCATED,
    UPPER_TRUNCATED,
    VariableType,
)
from copulafill.marginals import _interp_exact, _interp_step, fit_marginal

from stream_oracle import decayed_weights, weighted_marginal

CONT = VariableType(CONTINUOUS)
ORD = VariableType(ORDINAL)


class TestFit:
    def test_ordinal_masses(self):
        m = fit_marginal([1, 1, 2, 3], ORD)
        assert np.allclose(m.masses, [0.5, 0.25, 0.25])
        assert np.array_equal(m.values, [1, 2, 3])

    def test_continuous_cdf_strictly_inside_unit_interval(self):
        vals = np.random.default_rng(0).normal(size=40)
        m = fit_marginal(vals, CONT)
        assert m.cdf(vals.max()) == 40 / 41
        assert 0 < m.cdf(vals.min()) < m.cdf(vals.max()) < 1

    def test_lower_truncated_boundary_mass(self):
        # hand count: 4 of 10 values at the boundary
        col = [0, 0, 0, 0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0]
        m = fit_marginal(col, VariableType(LOWER_TRUNCATED, lower=0.0))
        assert m.p_alpha == 0.4
        assert np.array_equal(m._inner_values, [0.5, 1.0, 1.5, 2.0, 3.0, 4.0])

    def test_truncated_bounds_filled_from_data(self):
        m = fit_marginal([0, 0, 0, 1, 2, 3], VariableType(LOWER_TRUNCATED))
        assert m.vartype.lower == 0.0

    def test_no_interior_values_errors(self):
        with pytest.raises(ValueError, match="interior"):
            fit_marginal([0, 0, 1, 1], VariableType(TWOSIDED_TRUNCATED, 0.0, 1.0))

    def test_boundary_only_weighted_sample_errors(self):
        # weighted boundary masses 1/7 + 2/7 + 4/7 add up to just under 1
        with pytest.raises(ValueError, match="no interior values"):
            weighted_marginal([2.5, 3.0, 1.0], VariableType(UPPER_TRUNCATED, upper=1.0),
                              weights=[0.125, 0.25, 0.5])

    def test_crossed_bounds_rejected_before_fitting(self):
        with pytest.raises(ValueError, match="lower=2 is not below upper=1"):
            fit_marginal([0, 1, 1, 1.5, 2, 2, 3, 4],
                         VariableType(TWOSIDED_TRUNCATED, lower=2, upper=1))

    @pytest.mark.parametrize("values, vartype, bounds", [
        # an upper bound taken from the data below a lower bound that was set
        ([0.0, 0.5, 1.0], VariableType(TWOSIDED_TRUNCATED, lower=2.0),
         "lower=2.0, upper=1.0"),
        # both bounds taken from data of one value
        ([1.5, 1.5, 1.5], VariableType(TWOSIDED_TRUNCATED), "lower=1.5, upper=1.5"),
    ])
    def test_bounds_from_the_data_that_meet_leave_no_interior(self, values, vartype,
                                                              bounds):
        with pytest.raises(ValueError, match=f"no interior values: {bounds}, the "
                                             "unset bounds taken from the observed"):
            fit_marginal(values, vartype)

    def test_ordinal_cdf_and_quantile_step_at_the_levels(self):
        m = fit_marginal([1, 1, 2, 3], ORD)
        assert m.cdf(np.array([0.5, 1.0, 1.5, 2.0, 3.0, 9.0])).tolist() == [
            0.5, 0.5, 0.5, 0.75, 1.0, 1.0]
        assert m.quantile(np.array([0.0, 0.5, 0.6, 0.75, 0.9, 1.0])).tolist() == [
            1, 1, 2, 2, 3, 3]

    def test_requires_observations(self):
        with pytest.raises(ValueError, match="no observed"):
            fit_marginal([np.nan, np.nan], CONT)

    def test_rejects_nonpositive_weights(self):
        with pytest.raises(ValueError, match="positive"):
            weighted_marginal([1.0, 2.0], CONT, weights=[1.0, 0.0])

    def test_uniform_weights_equal_unweighted(self):
        vals = np.random.default_rng(1).normal(size=30)
        a = fit_marginal(vals, CONT)
        b = weighted_marginal(vals, CONT, weights=np.full(30, 1.0))
        c = weighted_marginal(vals, CONT, weights=np.full(30, 2.5))
        grid = np.linspace(vals.min(), vals.max(), 101)
        assert np.array_equal(a.cdf(grid), b.cdf(grid))
        assert np.array_equal(a.cdf(grid), c.cdf(grid))


class TestToLatent:
    def test_binary_upper_level(self):
        m = fit_marginal([0, 1, 0, 1], ORD)
        assert m.latent_bounds(1) == (0.0, np.inf)

    def test_continuous_median_maps_to_zero(self):
        vals = np.arange(1, 22, dtype=float)  # odd count: median cdf is 1/2
        m = fit_marginal(vals, CONT)
        lo, hi = m.latent_bounds(11.0)
        assert lo == hi
        assert lo == pytest.approx(0.0, abs=1e-12)

    def test_truncated_boundary_interval(self):
        col = np.concatenate([np.zeros(4), np.linspace(0.5, 4, 6)])
        m = fit_marginal(col, VariableType(LOWER_TRUNCATED, lower=0.0))
        lo, hi = m.latent_bounds(0.0)
        assert lo == -np.inf
        # standard-normal quantile oracle at 0.4
        assert hi == pytest.approx(-0.2533471031357997, abs=1e-12)

    def test_ordinal_out_of_sample_snaps_to_nearest_level(self):
        m = fit_marginal([1, 1, 2, 3], ORD)
        assert m.latent_bounds(2.4) == m.latent_bounds(2)
        assert m.latent_bounds(-7.0) == m.latent_bounds(1)
        assert m.latent_bounds(9.0) == m.latent_bounds(3)

    @pytest.mark.parametrize("x,level", [(np.inf, 2), (1e308, 2), (-np.inf, 0),
                                         (-1e308, 0)])
    def test_values_beyond_an_end_level_snap_to_it(self, x, level):
        # both distances to the top two levels round to the same float
        m = fit_marginal([0, 1, 2, 2], ORD)
        want = (m._zcuts[level], m._zcuts[level + 1])
        assert m.latent_bounds(x) == want
        lo, hi = m.latent_bounds(np.array([x, 1.0]))
        assert (lo[0], hi[0]) == want

    def test_nan_propagates(self):
        m = fit_marginal([1.0, 2.0, 3.0], CONT)
        lo, hi = m.latent_bounds([1.0, np.nan])
        assert np.isnan(lo[1]) and np.isnan(hi[1])
        assert np.isfinite(lo[0])


def _bits(x):
    return np.asarray(x, dtype=float).view(np.uint64)


_TYPES = st.sampled_from([
    CONT, ORD,
    VariableType(LOWER_TRUNCATED, lower=0.0),
    VariableType(LOWER_TRUNCATED),               # bound taken from the data
    VariableType(UPPER_TRUNCATED, upper=3.0),
    VariableType(TWOSIDED_TRUNCATED, lower=0.0, upper=3.0),
])
# repeated grid values, the truncation bounds 0 and 3, and free values
_SAMPLE = st.lists(st.one_of(st.sampled_from([0.0, 0.0, 0.5, 1.0, 1.0, 2.0, 3.0, 3.0]),
                             st.floats(-2.0, 5.0)), min_size=1, max_size=30)


class TestPointBounds:
    """``latent_bounds`` of one float against the same value as an array."""

    @settings(max_examples=300, deadline=None)
    @given(_TYPES, _SAMPLE, st.lists(st.floats(-10.0, 10.0), max_size=5))
    def test_same_bits_as_one_element_array(self, vartype, sample, free):
        try:
            m = fit_marginal(sample, vartype)
        except ValueError:
            assume(False)      # a truncated sample with no interior value
        vals = m.values
        probes = [np.nan, -np.inf, np.inf, vals[0] - 1.0, vals[-1] + 1.0,
                  0.0, 3.0, 0.25, 1.7, 100.0,           # bounds, unseen levels
                  *vals, *((vals[1:] + vals[:-1]) / 2.0), *free]
        for x in map(float, probes):
            got = m.latent_bounds(x)
            assert all(type(b) is float for b in got)
            want = m.latent_bounds(np.array([x]))
            assert np.array_equal(_bits(got), _bits([want[0][0], want[1][0]])), x

    def test_infinite_value_snaps_as_the_array_path(self):
        # the array path snaps +-inf as the largest finite floats
        m = fit_marginal([1e308, 1.5e308, 1.5e308], ORD)
        for x in (np.inf, -np.inf):
            want = m.latent_bounds(np.array([x]))
            assert m.latent_bounds(x) == (want[0][0], want[1][0])


class TestPointFromLatent:
    """``from_latent`` of one float against the same value as an array,
    on plain and decay-weighted fits (whose quantile nodes may repeat)."""

    @settings(max_examples=300, deadline=None)
    @given(_TYPES, _SAMPLE, st.sampled_from([None, 0.9, 0.3]),
           st.lists(st.floats(-10.0, 10.0), max_size=5))
    def test_same_bits_as_one_element_array(self, vartype, sample, decay, free):
        # window order, as the stream weights them: the oldest values weigh least
        weights = None if decay is None else decayed_weights(len(sample), decay)[::-1]
        try:
            m = weighted_marginal(sample, vartype, weights)
        except ValueError:
            assume(False)      # a truncated sample with no interior value
        cuts = [getattr(m, name, 0.0) for name in ("_z_alpha", "_z_beta")]
        nodes = getattr(m, "_nodes", m._cum)
        # latent points within 6 ulps of each node's, some of which map onto
        # the node exactly, where a repeated node must take its first value
        near = [ndtri(nodes)]
        for to in (np.inf, -np.inf):
            for _ in range(6):
                near.append(np.nextafter(near[-1], to))
            near.append(near[0])
        probes = [np.nan, -np.inf, np.inf, 0.0, *cuts, *free,
                  *np.nextafter(cuts, np.inf), *np.concatenate(near),
                  *(m._zcuts[1:-1] if m.vartype == ORD else [])]
        for z in map(float, probes):
            got = m.from_latent(z)
            assert type(got) is float
            want = m.from_latent(np.array([z]))
            assert np.array_equal(_bits(got), _bits(want[0])), z

    def test_repeated_node_takes_its_first_value(self):
        # decay weights clamp the two oldest values' quantile nodes to 1/4
        m = weighted_marginal([0.0, 0.5, 1.0], CONT, decayed_weights(3, 0.3)[::-1])
        assert m._nodes[0] == m._nodes[1] == 0.25
        zs = ndtri(0.25) + np.arange(-8, 9) * np.spacing(ndtri(0.25))
        z = zs[ndtr(zs) == 0.25][0]         # a latent point that maps onto 1/4
        assert m.from_latent(float(z)) == m.from_latent(np.array([z]))[0] == 0.0


class TestContinuousIsTheInteriorCase:
    """A truncated fit whose set bounds lie outside its sample, as a stream
    window whose boundary values have all been evicted, has no boundary
    mass: every map equals the continuous fit's bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from([LOWER_TRUNCATED, UPPER_TRUNCATED, TWOSIDED_TRUNCATED]),
           _SAMPLE, st.sampled_from([None, 0.9, 0.3]), st.sampled_from([0.0, 1.0, 1e3]),
           st.lists(st.floats(-10.0, 10.0), max_size=5))
    def test_same_bits_as_the_continuous_fit(self, tag, sample, decay, gap, free):
        weights = None if decay is None else decayed_weights(len(sample), decay)[::-1]
        lo, hi = min(sample), max(sample)
        # the nearest floats outside the sample when the gap is 0
        lower = lo - gap if gap else float(np.nextafter(lo, -np.inf))
        upper = hi + gap if gap else float(np.nextafter(hi, np.inf))
        vartype = VariableType(tag, lower=lower if tag != UPPER_TRUNCATED else None,
                               upper=upper if tag != LOWER_TRUNCATED else None)
        cont = weighted_marginal(sample, CONT, weights)
        trunc = weighted_marginal(sample, vartype, weights)
        assert trunc.p_alpha == trunc.p_beta == 0.0
        vals = cont.values
        xs = [np.nan, -np.inf, np.inf, lower, upper, *vals, *free,
              *((vals[1:] + vals[:-1]) / 2.0)]
        us = [0.0, 1.0, 0.5, *cont._nodes, *np.nextafter(cont._nodes, 0.0),
              *ndtr(free)]
        zs = [np.nan, -np.inf, np.inf, 0.0, *free, *ndtri(cont._nodes),
              *np.nextafter(ndtri(cont._nodes), np.inf)]
        for name, probes in (("cdf", xs), ("quantile", us), ("latent_bounds", xs),
                             ("from_latent", zs)):
            want, got = getattr(cont, name), getattr(trunc, name)
            for x in map(float, probes):
                assert np.array_equal(_bits(want(x)), _bits(got(x))), (name, x)
            probes = np.array(probes, dtype=float)
            assert np.array_equal(_bits(want(probes)), _bits(got(probes))), name


class TestInterpExact:
    def test_exact_at_distinct_nodes(self):
        # the first slope overflows: the nodes must still map exactly
        xp, yp = np.array([0.0, 1e-300, 1.0]), np.array([0.0, 1e300, 1e301])
        assert np.array_equal(_interp_exact(xp, xp, yp), yp)
        assert [_interp_exact(x, xp, yp) for x in xp] == yp.tolist()

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=40, unique=True),
           st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=40))
    def test_nodes_and_free_values_as_a_search(self, nodes, free):
        xp = np.sort(nodes)
        yp = np.sort(np.random.default_rng(len(xp)).standard_normal(len(xp)))
        x = np.concatenate([xp, free])
        want = np.interp(x, xp, yp)
        want[: len(xp)] = yp
        assert np.array_equal(_interp_exact(x, xp, yp), want)

    def test_repeated_node_takes_its_first_value(self):
        xp, yp = np.array([0.1, 0.1, 0.1, 0.5]), np.array([1.0, 2.0, 3.0, 4.0])
        assert np.array_equal(_interp_exact(np.array([0.1, 0.5]), xp, yp), [1.0, 4.0])
        assert _interp_exact(0.1, xp, yp) == 1.0


class TestFarApartValues:
    """Neighbouring values whose gap overflows a float: the decode between
    them is finite, a share of the way from one to the other."""

    VALUES = [-1.7e308, *map(float, range(-2, 8)), 1.7e308]
    ZS = np.array([-1.3, -1.2, -1.1, 1.1, 1.2, 1.3])

    def test_decode_and_quantile_stay_finite(self):
        m = fit_marginal(self.VALUES, CONT)
        u = ndtr(self.ZS)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out, q = m.from_latent(self.ZS), m.quantile(u)
            assert [m.from_latent(z) for z in self.ZS] == out.tolist()
            assert [m.quantile(p) for p in u] == q.tolist()
        assert np.array_equal(out, q)
        # the nodes of 12 values are k/13: the z's fall in the two outer gaps
        t = np.where(self.ZS < 0, u * 13 - 1, u * 13 - 11)
        y0 = np.where(self.ZS < 0, -1.7e308, 7.0)
        y1 = np.where(self.ZS < 0, -2.0, 1.7e308)
        np.testing.assert_allclose(out, (1 - t) * y0 + t * y1, rtol=1e-12)

    def test_interp_step_takes_the_bits_of_interp_exact(self):
        # floats, as a window passes them
        nodes = (np.arange(1.0, 13.0) / 13).tolist()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for v in ndtr(self.ZS).tolist():
                j = int(np.searchsorted(nodes, v)) - 1
                got = _interp_step(v, nodes[j], nodes[j + 1], self.VALUES[j],
                                   self.VALUES[j + 1])
                want = _interp_exact(v, np.array(nodes), np.array(self.VALUES))
                assert _bits(got) == _bits(want)

    @pytest.mark.parametrize("y0, y1", [(0.25, 0.75), (0.5, 0.5), (-3.0, 1e300)])
    def test_interp_step_retries_a_nan_from_the_right_end(self, y0, y1):
        # x1 - x0 overflows, so the slope is 0, and 0 * (x - x0) is NaN
        # where x - x0 overflows as well
        for x in (-0.5e308, 0.0, 0.9e308, 0.999e308):
            want = np.interp(x, [-1e308, 1e308], [y0, y1])
            assert _bits(_interp_step(x, -1e308, 1e308, y0, y1)) == _bits(want), x
        # infinite ends: both tries give NaN there, and equal values y0
        want = np.interp(0.0, [-np.inf, np.inf], [y0, y1])
        assert _bits(_interp_step(0.0, -np.inf, np.inf, y0, y1)) == _bits(want)


class TestFromLatent:
    def test_ordinal_cell_lookup(self):
        m = fit_marginal([1, 1, 2, 3], ORD)
        # Phi(0.1) = 0.5398 falls in the [0.5, 0.75) cell
        assert m.from_latent(0.1) == 2
        assert m.from_latent(-0.1) == 1
        assert m.from_latent(10.0) == 3

    def test_continuous_round_trip(self):
        vals = np.random.default_rng(2).lognormal(size=25)
        m = fit_marginal(vals, CONT)
        lo, _ = m.latent_bounds(vals)
        assert np.allclose(m.from_latent(lo), vals, rtol=1e-9)

    def test_truncated_boundary_from_latent(self):
        col = np.concatenate([np.zeros(4), np.linspace(0.5, 4, 6)])
        m = fit_marginal(col, VariableType(LOWER_TRUNCATED, lower=0.0))
        # Phi(-1) = 0.1587 <= p_alpha = 0.4
        assert m.from_latent(-1.0) == 0.0
        assert m.from_latent(2.0) > 0.0

    def test_discrete_round_trip_within_cell(self):
        rng = np.random.default_rng(3)
        ints = rng.integers(0, 5, size=60).astype(float)
        m_ord = fit_marginal(ints, ORD)
        col = np.concatenate([np.zeros(30), rng.uniform(0.5, 3, 70)])
        m_tr = fit_marginal(col, VariableType(LOWER_TRUNCATED, lower=0.0))
        for m, xs in ((m_ord, np.unique(ints)), (m_tr, [0.0])):
            for x in xs:
                lower, upper = m.latent_bounds(x)
                probes = [lower, np.clip(lower, -8, 8) / 2 + np.clip(upper, -8, 8) / 2]
                for z in probes:
                    if np.isfinite(z):
                        assert m.from_latent(z) == x

    def test_monotonicity(self):
        rng = np.random.default_rng(4)
        marginals = [
            fit_marginal(rng.normal(size=40), CONT),
            fit_marginal(rng.integers(0, 4, 40).astype(float), ORD),
            fit_marginal(np.concatenate([np.zeros(20), rng.uniform(1, 5, 60)]),
                         VariableType(LOWER_TRUNCATED, lower=0.0)),
        ]
        zs = np.linspace(-4, 4, 201)
        for m in marginals:
            out = np.asarray(m.from_latent(zs), dtype=float)
            assert np.all(np.diff(out) >= 0)

    def test_equivariance_at_sample_points(self):
        vals = np.random.default_rng(5).normal(size=30)
        m = fit_marginal(vals, CONT)
        mg = fit_marginal(np.exp(vals), CONT)
        lo, _ = m.latent_bounds(vals)
        lo_g, _ = mg.latent_bounds(np.exp(vals))
        assert np.array_equal(lo, lo_g)  # rank-based encoding is unchanged
        assert np.allclose(mg.from_latent(lo), np.exp(vals), rtol=1e-9)


class TestWeights:
    def test_decayed_examples(self):
        assert np.array_equal(decayed_weights(5, 1.0), np.ones(5))
        assert np.allclose(decayed_weights(3, 0.5), [0.5, 0.25, 0.125])

    def test_decayed_weights_stay_positive(self):
        w = decayed_weights(400, 0.01)
        tiny = np.finfo(float).tiny
        assert (w > 0).all() and w[-1] == tiny
        # weights above the floor keep their bits
        exact = 0.01 ** np.arange(1, 401, dtype=float)
        assert np.array_equal(w[exact >= tiny], exact[exact >= tiny])

    def test_bad_args(self):
        with pytest.raises(ValueError):
            decayed_weights(3, 0.0)
        with pytest.raises(ValueError):
            decayed_weights(3, 1.5)
        with pytest.raises(ValueError):
            decayed_weights(0, 0.5)

    def test_tiny_decay_pulls_quantiles_to_most_recent(self):
        # ordinal: the most recent level takes almost all mass
        vals = np.array([1.0, 2.0, 3.0, 4.0, 5.0])  # oldest .. newest
        w = decayed_weights(5, 1e-6)[::-1]           # align to oldest-first
        m = weighted_marginal(vals, ORD, weights=w)
        assert m.from_latent(0.0) == 5.0
        # continuous: the median lands within one grid cell of the newest
        mc = weighted_marginal(vals, CONT, weights=w)
        q = float(mc.quantile(0.5))
        assert 4.0 <= q <= 5.0
