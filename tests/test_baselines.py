import numpy as np
import pytest

from treecast.baselines import (BaselineModel, classical_decompose, fit_ols_ar,
                                forecast_baseline, grid_search_ets, train_baseline)
from treecast.cli import prepare_dataset
from treecast.config import config_from_dict
from treecast.data import pad_for_ets
from treecast.errors import DataError, NumericError
from treecast.metrics import wape
from treecast.targets import TargetSpec

from conftest import ar2_sim, ar_forecast_one, drop_last, ets_filter_one, make_panel
from reference_ets import ets_init, reference_filter
from reference_forecast import ets_forecast

GRID = [round(0.1 * k, 1) for k in range(1, 10)]


def replay(y, value, kind, m, h, damping="power"):
    """The one-series oracle of a smoothing baseline: filter ``y`` with every
    parameter at ``value``, then forecast h steps."""
    spec = TargetSpec(kind, m=m, damping=damping)
    values = np.full((len(y), spec.param_count), value)
    _, state = reference_filter(y, values, spec, ets_init(y, m, kind == "ets"))
    return ets_forecast(state, np.full(h, value), h, spec)


def baseline_panel(**model):
    """The bundled unequal-length panel, prepared for a baseline config."""
    cfg = config_from_dict({"data": {"path": "bundled:panel_seasonal_b.csv"},
                            "model": {"family": "baseline", "m": 12, **model}})
    return cfg, prepare_dataset(cfg)


def observed(ds, i):
    rows = ds.rows_of(i)
    return ds.y[rows][ds.mask[rows]]


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
        out = ar_forecast_one(np.tile(model.coefficients, (3, 1)), [1.0, 2.0], 3)
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
        ds = pad_for_ets(drop_last(air_full, 84))
        y = observed(ds, 0)
        assert len(y) == 60
        model = BaselineModel.smoothing(TargetSpec("ets", m=12), 0.3)
        got = forecast_baseline(model, ds, 6)[0][0]
        assert np.array_equal(got, replay(y, 0.3, "ets", 12, 6))

    def test_gamma_zero_freezes_seasonal(self):
        rng = np.random.default_rng(1)
        y = 50 + 10 * np.sin(2 * np.pi * np.arange(36) / 12) + rng.normal(0, 0.5, 36)
        spec = TargetSpec(kind="ets", m=12)
        init = ets_init(y, 12, True)
        values = np.tile([0.5, 0.1, 0.0, 1.0], (36, 1))
        _, state = ets_filter_one(y, values, spec, init)
        assert np.allclose(np.sort(state.ring), np.sort(init.ring))

    def test_grid_search_is_argmin_of_bruteforce(self):
        t = np.arange(72)
        y = 100 + t + 20 * np.sin(2 * np.pi * t / 12)
        spec = TargetSpec("ets", m=12)
        best = grid_search_ets(spec.target.prepare(make_panel({"a": y})), spec, horizon=12)
        scores = {}
        for c in GRID:
            try:
                scores[c] = wape(y[-12:], replay(y[:-12], c, "ets", 12, 12))
            except NumericError:
                pass
        assert best == min(scores, key=scores.get)

    @pytest.mark.parametrize("kind", ["ets", "ets_linear"])
    def test_panel_grid_search_is_argmin_of_bruteforce(self, kind):
        """Unequal lengths: each series holds out min(horizon, n // 4) values
        and a candidate scores the mean WAPE over the series."""
        cfg, ds = baseline_panel(target=kind)
        spec = cfg.target_spec(ds.frequency)
        best = grid_search_ets(ds, spec, horizon=12)
        splits = []
        for i in range(ds.n_series):
            y = observed(ds, i)
            h = min(12, len(y) // 4)
            splits.append((y[:-h], y[-h:]))
        assert len({len(tr) for tr, _ in splits}) > 1
        scores = {c: np.mean([wape(te, replay(tr, c, kind, 12, len(te))) for tr, te in splits])
                  for c in GRID}
        assert best == min(scores, key=scores.get)


class TestBaselineForecast:
    @pytest.mark.parametrize("kind", ["ets", "ets_linear"])
    def test_smoothing_matches_replay_on_padded_panel(self, kind):
        cfg, ds = baseline_panel(target=kind, fixed_value=0.3)
        assert not ds.mask.all()  # unequal lengths: the shorter series are padded
        model = train_baseline(ds, cfg)
        fc, _ = forecast_baseline(model, ds, 12)
        for i, s in enumerate(ds.series):
            assert np.array_equal(fc[i], replay(observed(ds, i), 0.3, kind, 12, 12))

    def test_cumprod_damping_matches_replay(self):
        """The baseline forecasts under the configured damping convention,
        also after a round trip through its bundle encoding."""
        cfg, ds = baseline_panel(target="ets", fixed_value=0.9, damping="cumprod")
        model = BaselineModel.from_dict(train_baseline(ds, cfg).to_dict())
        assert model.spec == cfg.target_spec(ds.frequency)
        fc, _ = forecast_baseline(model, ds, 12)
        for i, s in enumerate(ds.series):
            want = replay(observed(ds, i), 0.9, "ets", 12, 12, damping="cumprod")
            assert np.array_equal(fc[i], want)

    def test_ar_with_intercept_matches_hand_recursion(self):
        cfg, ds = baseline_panel(target="ar", p=2, intercept=True)
        model = train_baseline(ds, cfg)
        fc, _ = forecast_baseline(model, ds, 12)
        for i, s in enumerate(ds.series):
            entry = model.per_series[s.series_id]
            (t1, t2), c = entry["coefficients"], entry["intercept"]
            assert c != 0.0
            y = list(observed(ds, i))
            for _ in range(12):
                y.append(c + (t1 * y[-1] + t2 * y[-2]))
            assert np.array_equal(fc[i], y[-12:])

    def test_parameters_tile_the_constants(self):
        cfg, ds = baseline_panel(target="ets", fixed_value=0.7)
        values = train_baseline(ds, cfg).parameters(ds)
        assert values.shape == (ds.n_rows, 4) and values.dtype == np.float64
        assert np.all(values == 0.7)
