import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treecast.errors import NumericError
from treecast.targets import PHI, TargetSpec

from conftest import ets_filter_one, ets_one_series, ets_sse
from losses import finite_diff_check
from reference_ets import EtsState, ets_init
from reference_forecast import ets_forecast


def spec_ets(m=12, damping="power"):
    return TargetSpec(kind="ets", m=m, damping=damping)


def constant_values(n, alpha, beta, gamma, phi):
    return np.tile([alpha, beta, gamma, phi], (n, 1)).astype(np.float64)


def forecast_one(state, phi_future, h, spec):
    """The reference one-series forecast, checked bit for bit against the
    target's panel forecast of the same series (S = 1)."""
    want = ets_forecast(state, phi_future, h, spec)
    values = np.zeros((1, h, spec.param_count))
    if spec.target.seasonal:
        values[0, :, PHI] = phi_future
    ends = (np.array([state.level]), np.array([state.trend]), state.ring[None])
    assert np.array_equal(spec.target.forecast(values, None, None, ends), want[None])
    return want


class TestFilter:
    def test_hand_recursion(self):
        state = EtsState(100.0, 10.0, np.ones(1))
        fitted, out = ets_filter_one(
            np.array([120.0]), constant_values(1, 0.5, 0.5, 0.0, 1.0),
            spec_ets(m=1), state,
        )
        assert fitted[0] == 110.0
        assert out.level == 115.0
        assert out.trend == 12.5
        assert out.ring[0] == 1.0

    def test_alpha_one_is_naive(self):
        y = np.array([5.0, 9.0, 4.0, 7.0])
        state = EtsState(y[0], 0.0, np.ones(1))
        fitted, out = ets_filter_one(y, constant_values(4, 1.0, 0.0, 0.0, 1.0),
                                     spec_ets(m=1), state)
        assert out.level == y[-1]
        assert np.array_equal(fitted[1:], y[:-1])

    def test_independent_reference_recursion(self, air_full):
        """Plain-loop oracle written directly from the displayed updates."""
        y = air_full.y[air_full.rows_of(0)]
        m = 12
        spec = spec_ets(m=m)
        init = ets_init(y, m, True)
        values = constant_values(len(y), 0.3, 0.3, 0.3, 0.3)
        fitted, state = ets_filter_one(y, values, spec, init)

        # oracle: 1-based indexing, explicit seasonal history list
        a = b = g = p = 0.3
        level, trend = init.level, init.trend
        s_hist = list(init.ring)
        ref = []
        for t in range(len(y)):
            s_m = s_hist[t]
            v = level + p * trend
            ref.append(v * s_m)
            new_level = a * (y[t] / s_m) + (1 - a) * v
            new_trend = b * (new_level - level) + (1 - b) * p * trend
            s_hist.append(g * y[t] / v + (1 - g) * s_m)
            level, trend = new_level, new_trend
        assert np.allclose(fitted, ref, atol=1e-10)
        assert state.level == pytest.approx(level, abs=1e-10)
        assert state.trend == pytest.approx(trend, abs=1e-10)
        assert np.allclose(state.ring, s_hist[-m:], atol=1e-10)

    def test_guard_on_nonpositive_state(self):
        y = np.array([1.0, -50.0, 1.0])
        init = EtsState(1.0, 0.0, np.ones(2))
        values = constant_values(3, 0.9, 0.5, 0.5, 1.0)
        with pytest.raises(NumericError, match="step"):
            ets_filter_one(y, values, spec_ets(m=2), init, series_id="bad")

    def test_masked_steps_freeze_state(self):
        y = np.array([10.0, 12.0, 999.0, 999.0])
        mask = np.array([True, True, False, False])
        init = ets_init(y[:2], 2, True)
        values = constant_values(4, 0.4, 0.3, 0.2, 0.9)
        fitted, state = ets_filter_one(y, values, spec_ets(m=2), init, mask)
        fitted2, state2 = ets_filter_one(y[:2], values[:2], spec_ets(m=2), init)
        assert np.array_equal(fitted[:2], fitted2)
        assert fitted[2] == 0.0 and fitted[3] == 0.0
        assert state.level == state2.level and state.trend == state2.trend
        assert np.array_equal(state.ring, state2.ring)

    def test_purity(self):
        rng = np.random.default_rng(0)
        y = 20 + np.abs(rng.normal(0, 2, 30))
        init = ets_init(y, 4, True)
        values = spec_ets(m=4).target.link(rng.normal(0, 1, (30, 4)))
        f1, s1 = ets_filter_one(y, values, spec_ets(m=4), init)
        f2, s2 = ets_filter_one(y, values, spec_ets(m=4), init)
        assert np.array_equal(f1, f2)
        assert s1.level == s2.level and np.array_equal(s1.ring, s2.ring)


class TestForecast:
    def test_linear_trend_limit(self):
        state = EtsState(10.0, 2.0, np.ones(1))
        spec = TargetSpec(kind="ets_linear", m=1)
        out = forecast_one(state, np.ones(4), 4, spec)
        assert np.allclose(out, [12.0, 14.0, 16.0, 18.0])

    def test_zero_trend_seasonal_wrap(self):
        ring = np.array([0.8, 1.2, 1.0])
        state = EtsState(100.0, 0.0, ring)
        out = forecast_one(state, np.ones(6), 6, spec_ets(m=3))
        assert np.allclose(out, [80.0, 120.0, 100.0, 80.0, 120.0, 100.0])

    def test_damping_power_example(self):
        state = EtsState(100.0, 10.0, np.ones(1))
        out = forecast_one(state, np.full(2, 0.5), 2, spec_ets(m=1))
        assert out[1] == pytest.approx(100.0 + (0.5 + 0.25) * 10.0)

    def test_damping_cumprod_convention(self):
        state = EtsState(100.0, 10.0, np.ones(1))
        phis = np.array([0.5, 0.8])
        out = forecast_one(state, phis, 2, spec_ets(m=1, damping="cumprod"))
        assert out[1] == pytest.approx(100.0 + (0.5 + 0.4) * 10.0)


class TestDerivatives:
    def test_saturated_gamma_gradient_vanishes(self):
        rng = np.random.default_rng(1)
        y = 50 + np.abs(rng.normal(0, 5, 24))
        raw = rng.normal(0, 1, (24, 4))
        raw[:, 2] = -40.0  # gamma link saturated at ~0
        init = ets_init(y, 4, True)
        _, g, _, _ = ets_one_series(y, raw, spec_ets(m=4), init)
        assert np.max(np.abs(g[:, 2])) < 1e-10

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        y = 50 + np.cumsum(rng.normal(0.3, 1.5, 30))
        y = np.maximum(y, 5.0)
        raw = rng.normal(0, 1, (30, 4))
        init = ets_init(y, 6, True)
        spec = spec_ets(m=6)
        loss, g, h, _ = ets_one_series(y, raw, spec, init)
        err = finite_diff_check(
            lambda r: ets_one_series(y, r.reshape(30, 4), spec, init)[0], g, raw
        )
        assert err < 1e-3
        assert loss == ets_sse(y, raw, spec, init)

    def test_zero_residual_zero_gradient(self):
        # generate y by running the recursion forward with known parameters
        rng = np.random.default_rng(3)
        m = 4
        spec = spec_ets(m=m)
        raw = rng.normal(0, 0.5, (40, 4))
        values = spec.target.link(raw)
        level, trend = 100.0, 1.0
        ring = np.array([0.9, 1.1, 1.0, 1.0])
        y = np.empty(40)
        rg = ring.copy()
        for t in range(40):
            slot = t % m
            v = level + values[t, 3] * trend
            y[t] = v * rg[slot]  # y equals the one-step fit exactly
            new_level = values[t, 0] * (y[t] / rg[slot]) + (1 - values[t, 0]) * v
            new_trend = values[t, 1] * (new_level - level) + (1 - values[t, 1]) * values[t, 3] * trend
            rg[slot] = values[t, 2] * y[t] / v + (1 - values[t, 2]) * rg[slot]
            level, trend = new_level, new_trend
        init = EtsState(100.0, 1.0, ring)
        loss, g, _, fitted = ets_one_series(y, raw, spec, init)
        assert loss < 1e-16
        assert np.max(np.abs(g)) < 1e-8

    def test_linear_variant_matches_fd(self):
        rng = np.random.default_rng(4)
        y = rng.normal(20, 5, 25)
        raw = rng.normal(0, 1, (25, 2))
        spec = TargetSpec(kind="ets_linear", m=1)
        init = ets_init(y, 1, False)
        _, g, _, _ = ets_one_series(y, raw, spec, init)
        err = finite_diff_check(
            lambda r: ets_one_series(y, r.reshape(25, 2), spec, init)[0], g, raw
        )
        assert err < 1e-4


class TestLinks:
    @given(st.lists(st.floats(-1e6, 1e6), min_size=4, max_size=4))
    @settings(max_examples=200)
    def test_link_ranges(self, raws):
        spec = spec_ets()
        values = spec.target.link(np.array([raws]))
        a, b, g, p = values[0]
        assert 0.0 < a < 1.0
        assert 0.0 < b < 1.0
        assert 0.0 < g < 1.0
        assert 0.0 < p <= 1.0

    def test_init_heuristic(self):
        y = np.array([10.0, 20.0, 30.0, 40.0], dtype=np.float64)
        st_ = ets_init(y, 2, True)
        assert st_.level == 15.0
        assert st_.trend == pytest.approx((35.0 - 15.0) / 2)
        ring = np.array([10.0, 20.0]) / 15.0
        ring *= 2 / ring.sum()
        assert np.allclose(st_.ring, ring)
