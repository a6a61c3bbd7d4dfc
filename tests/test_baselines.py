import numpy as np
import pytest

from treecast.baselines import (classical_decompose, fit_ols_ar, fixed_ets_forecast,
                                grid_search_ets, ols_ar_forecast)
from treecast.errors import DataError
from treecast.metrics import wape
from treecast.targets import TargetSpec, ets_filter, ets_forecast, ets_init

from conftest import ar2_sim


class TestOlsAr:
    def test_exact_recovery_noiseless(self):
        y = np.empty(60)
        y[0] = 2.0
        for t in range(1, 60):
            y[t] = 0.5 * y[t - 1]
        model = fit_ols_ar(y, 1)
        assert model.coefficients[0] == pytest.approx(0.5, abs=1e-10)

    def test_constant_series_with_intercept_rank_deficient(self):
        with pytest.raises(DataError, match="collinear"):
            fit_ols_ar(np.full(30, 7.0), 1, intercept=True)

    def test_ar2_simulation_recovery(self):
        y = ar2_sim(n=500, seed=77)
        model = fit_ols_ar(y, 2)
        assert abs(model.coefficients[0] - 0.55) < 0.1
        assert abs(model.coefficients[1] + 0.25) < 0.1

    def test_too_short(self):
        with pytest.raises(DataError, match="too short"):
            fit_ols_ar(np.arange(4.0), 2)

    def test_optimality_under_perturbation(self):
        y = ar2_sim(n=200, seed=5)
        model = fit_ols_ar(y, 2)
        X = np.column_stack([y[1:-1], y[:-2]])
        t = y[2:]

        def sse(coef):
            r = t - X @ coef
            return float(r @ r)

        base = sse(model.coefficients)
        for j in range(2):
            for delta in (1e-3, -1e-3):
                coef = model.coefficients.copy()
                coef[j] += delta
                assert sse(coef) >= base

    def test_forecast_recursion(self):
        model = fit_ols_ar(ar2_sim(n=100, seed=9), 2)
        out = ols_ar_forecast(model, [1.0, 2.0], 3)
        c = model.coefficients
        e1 = c[0] * 2.0 + c[1] * 1.0
        e2 = c[0] * e1 + c[1] * 2.0
        assert out[0] == pytest.approx(e1)
        assert out[1] == pytest.approx(e2)


class TestClassicalDecompose:
    def test_sine_plus_line(self):
        t = np.arange(96)
        y = 0.5 * t + 10 * np.sin(2 * np.pi * t / 12)
        trend, seasonal, remainder = classical_decompose(y, 12)
        ok = ~np.isnan(trend)
        line = 0.5 * t
        corr = np.corrcoef(trend[ok], line[ok])[0, 1]
        assert corr >= 0.999

    def test_constant_series_zero_seasonal(self):
        trend, seasonal, _ = classical_decompose(np.full(48, 3.0), 12)
        ok = ~np.isnan(trend)
        assert np.allclose(seasonal[ok], 0.0, atol=1e-12)

    def test_identity_on_interior(self):
        rng = np.random.default_rng(0)
        y = 100 + np.cumsum(rng.normal(0, 1, 60))
        trend, seasonal, remainder = classical_decompose(y, 12)
        ok = ~np.isnan(trend)
        assert np.allclose((trend + seasonal + remainder)[ok], y[ok], atol=1e-10)

    def test_air_interior_points(self, air_full):
        trend, _, _ = classical_decompose(air_full.y[air_full.rows_of(0)], 12)
        assert int((~np.isnan(trend)).sum()) == 132

    def test_too_short(self):
        with pytest.raises(DataError):
            classical_decompose(np.arange(20.0), 12)


class TestFixedEts:
    def test_matches_target_code_path(self, air_full):
        y = air_full.y[air_full.rows_of(0)][:60]
        params = {"alpha": 0.3, "beta": 0.3, "gamma": 0.3, "phi": 0.3}
        got = fixed_ets_forecast(y, params, 12, 6)
        spec = TargetSpec(kind="ets", m=12)
        init = ets_init(y, 12, True)
        values = np.tile([0.3, 0.3, 0.3, 0.3], (60, 1))
        _, state = ets_filter(y, values, spec, init)
        expected = ets_forecast(state, np.full(6, 0.3), 6, spec)
        assert np.array_equal(got, expected)

    def test_gamma_zero_freezes_seasonal(self):
        rng = np.random.default_rng(1)
        y = 50 + 10 * np.sin(2 * np.pi * np.arange(36) / 12) + rng.normal(0, 0.5, 36)
        spec = TargetSpec(kind="ets", m=12)
        init = ets_init(y, 12, True)
        values = np.tile([0.5, 0.1, 0.0, 1.0], (36, 1))
        _, state = ets_filter(y, values, spec, init)
        assert np.allclose(np.sort(state.ring), np.sort(init.ring))

    def test_grid_search_is_argmin_of_bruteforce(self):
        t = np.arange(72)
        y = 100 + t + 20 * np.sin(2 * np.pi * t / 12)
        best, params = grid_search_ets([y], 12, horizon=12)
        scores = {}
        for c in [round(0.1 * k, 1) for k in range(1, 10)]:
            p = {k_: c for k_ in ("alpha", "beta", "gamma", "phi")}
            try:
                fc = fixed_ets_forecast(y[:-12], p, 12, 12)
                scores[c] = wape(y[-12:], fc)
            except Exception:
                pass
        assert best == min(scores, key=scores.get)
        assert params["alpha"] == best
