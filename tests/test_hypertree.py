import numpy as np
import pytest

from treecast.boosting import TreeEnsemble
from treecast.data import pad_for_ets
from treecast.errors import NumericError
from treecast.hypertree import (BoostConfig, FeatureRecipe, HyperTreeModel,
                                average_parameters, forecast, train)
from treecast.metrics import mape, wape
from treecast.targets import TargetSpec

from conftest import ar2_sim, make_panel


class TestTraining:
    def test_zero_rounds_outputs_base(self, air_train, air_recipe):
        spec = TargetSpec(kind="ar", p=12)
        model, log = train(air_train, spec, BoostConfig(rounds=0), air_recipe)
        fs = air_recipe.build(air_train)
        raw, values = model.predict_parameters(fs.X)
        assert not raw.any()
        assert not values.any()
        assert log.rows == []

    def test_zero_rounds_ets_base_is_point_three(self):
        ds = pad_for_ets(make_panel({"a": 50 + np.arange(30.0)}))
        spec = TargetSpec(kind="ets", m=12)
        model, _ = train(ds, spec, BoostConfig(rounds=0), FeatureRecipe(calendar=("month",)))
        fs = FeatureRecipe(calendar=("month",)).build(ds)
        _, values = model.predict_parameters(fs.X)
        assert np.allclose(values, 0.3, atol=1e-9)

    def test_all_masked_is_empty_loss_error(self):
        import dataclasses

        ds = make_panel({"a": np.arange(10.0) + 1})
        ds = dataclasses.replace(ds, mask=np.zeros(ds.n_rows, dtype=bool))
        with pytest.raises(NumericError, match="empty"):
            train(ds, TargetSpec(kind="ar", p=2), BoostConfig(rounds=1), FeatureRecipe())

    def test_loss_logged_per_round(self, air_ar_model):
        _, log = air_ar_model
        assert len(log.rows) == 100
        assert [r[0] for r in log.rows] == list(range(1, 101))

    def test_loss_mostly_monotone_small_lr(self, air_train, air_recipe):
        spec = TargetSpec(kind="ar", p=12)
        _, log = train(air_train, spec,
                       BoostConfig(rounds=100, learning_rate=0.05), air_recipe)
        losses = [r[1] for r in log.rows]
        drops = sum(1 for a, b in zip(losses, losses[1:]) if b <= a + 1e-12)
        assert drops >= 95

    def test_depth0_constant_features_matches_ols(self):
        from treecast.baselines import fit_ols_ar

        y = ar2_sim(n=300)
        ds = make_panel({"sim": y}, frequency="daily")
        spec = TargetSpec(kind="ar", p=2)
        model, log = train(ds, spec,
                           BoostConfig(rounds=500, learning_rate=0.1, lam=0.0, max_depth=0),
                           FeatureRecipe(calendar=()))
        ols = fit_ols_ar(y, 2, intercept=False)
        w, lags = spec.target.design(ds)
        ols_mse = float(np.mean((ds.y[w] - lags[w] @ ols.coefficients) ** 2))
        assert log.rows[-1][1] <= 1.05 * ols_mse


class TestPredictParameters:
    def test_identical_features_identical_parameters(self, air_ar_model, air_train, air_recipe):
        model, _ = air_ar_model
        fs = air_recipe.build(air_train)
        _, values = model.predict_parameters(fs.X)
        rows = {}
        for i in range(air_train.n_rows):
            key = (air_train.month[i], air_train.quarter[i])
            if key in rows:
                assert np.array_equal(values[i], values[rows[key]])
            else:
                rows[key] = i

    def test_schema_mismatch_rejected(self, air_ar_model, air_train):
        model, _ = air_ar_model
        from treecast.errors import SchemaError

        with pytest.raises(SchemaError):
            model.check_schema(("month",))

    def test_consistent_one_step_fits(self, air_ar_model, air_train, air_recipe):
        model, _ = air_ar_model
        fs = air_recipe.build(air_train)
        _, values = model.predict_parameters(fs.X)
        weight, lags = TargetSpec(kind="ar", p=12).target.design(air_train)
        fitted = np.einsum("np,np->n", values, np.where(weight[:, None], lags, 0.0))
        seen = {}
        for i in range(air_train.n_rows):
            if not weight[i]:
                continue
            key = (air_train.month[i], air_train.quarter[i], tuple(lags[i]))
            if key in seen:
                assert fitted[i] == seen[key]
            seen[key] = fitted[i]


class TestForecast:
    def test_h_zero_empty(self, air_ar_model, air_train):
        model, _ = air_ar_model
        fc, future = forecast(model, air_train, 0)
        assert [s.series_id for s in future] == ["AirPassengers"]
        assert fc.shape == (1, 0) and len(future[0]) == 0

    def test_naive_theta_flat_forecast(self, air_train, air_recipe):
        spec = TargetSpec(kind="ar", p=12)
        fs = air_recipe.build(air_train)
        base = np.zeros(12)
        base[0] = 1.0  # theta = e1: naive one-step
        model = HyperTreeModel(
            spec,
            [TreeEnsemble(BoostConfig(), n_features=fs.n_features)
             for _ in range(12)],
            base, air_recipe, fs.names, fs.kinds,
        )
        (out,), _ = forecast(model, air_train, 6)
        last = air_train.y[air_train.rows_of(0)][-1]
        assert np.array_equal(out, np.full(6, last))

    def test_beats_reasonable_error_on_airp(self, air_ar_model, air_train, air_holdout):
        model, _ = air_ar_model
        (pred,), (future,) = forecast(model, air_train, 12)
        assert mape(air_holdout, pred) < 8.630
        assert future.timestamps[0].isoformat() == "1960-01-01"

    def test_average_parameters_identity_when_constant(self):
        vals = np.tile([0.5, -0.2], (6, 1))
        assert np.allclose(average_parameters(vals), vals, rtol=0, atol=1e-15)

    def test_average_parameters_mean(self):
        vals = np.array([[0.2], [0.4]])
        assert np.allclose(average_parameters(vals), [[0.3], [0.3]])

    def test_averaging_hurts_on_airp(self, air_ar_model, air_train, air_holdout):
        model, _ = air_ar_model
        (tv,), _ = forecast(model, air_train, 12)
        (avg,), _ = forecast(model, air_train, 12, average=True)
        assert wape(air_holdout, avg) >= wape(air_holdout, tv)

    def test_ets_forecast_path(self):
        t = np.arange(48)
        y = 100 + 2 * t + 15 * np.sin(2 * np.pi * t / 12)
        ds = pad_for_ets(make_panel({"a": y}))
        spec = TargetSpec(kind="ets", m=12)
        model, _ = train(ds, spec, BoostConfig(rounds=30), FeatureRecipe(calendar=("month",)))
        (fc,), _ = forecast(model, ds, 6)
        assert len(fc) == 6
        assert np.all(np.isfinite(fc))

    def test_linear_trend_variant_forecast(self):
        # trend-only smoothing on a drifting series; any-sign data allowed
        rng = np.random.default_rng(6)
        y = -20 + 1.5 * np.arange(40) + rng.normal(0, 0.5, 40)
        ds = pad_for_ets(make_panel({"a": y}, frequency="yearly"))
        spec = TargetSpec(kind="ets_linear", m=1)
        model, log = train(ds, spec, BoostConfig(rounds=50), FeatureRecipe(calendar=("year",)))
        assert log.rows[-1][1] < log.rows[0][1]
        (fc,), _ = forecast(model, ds, 5)
        assert np.all(np.diff(fc) > 0)  # trend continues upward

    def test_stl_forecast_path(self):
        t = np.arange(48)
        y = 100 + 2 * t + 15 * np.sin(2 * np.pi * t / 12)
        ds = make_panel({"a": y})
        spec = TargetSpec(kind="stl", n_season=1, period=12)
        recipe = FeatureRecipe(calendar=("month",), include_time=True)
        model, _ = train(ds, spec, BoostConfig(rounds=30), recipe)
        (fc,), _ = forecast(model, ds, 6)
        assert len(fc) == 6
        assert np.all(np.isfinite(fc))


class TestPersistence:
    def test_roundtrip_identical_predictions(self, air_ar_model, air_train, air_recipe, tmp_path):
        import json

        model, _ = air_ar_model
        d = model.to_dict()
        back = HyperTreeModel.from_dict(json.loads(json.dumps(d)))
        fs = air_recipe.build(air_train)
        assert np.array_equal(model.predict_parameters(fs.X)[0], back.predict_parameters(fs.X)[0])

    def test_indented_bundle_loads_bit_exact(self, air_ar_model, air_train, air_recipe,
                                             tmp_path):
        import json

        from treecast.bundle import load_bundle, save_bundle

        model, log = air_ar_model
        save_bundle(tmp_path / "compact", model, log)
        indented = tmp_path / "indented"
        indented.mkdir()
        for src in (tmp_path / "compact").glob("*.json"):
            text = src.read_text()
            assert "\n" not in text
            (indented / src.name).write_text(json.dumps(json.loads(text), indent=1))
        fs = air_recipe.build(air_train)
        for path in (tmp_path / "compact", indented):
            back, _, _ = load_bundle(path)
            assert back.to_dict() == model.to_dict()
            assert np.array_equal(back.predict_parameters(fs.X)[0],
                                  model.predict_parameters(fs.X)[0])

    def test_save_and_load_restore_the_collector(self, air_ar_model, tmp_path, monkeypatch):
        import gc

        from treecast.bundle import load_bundle, save_bundle
        from treecast.errors import DataError

        model, log = air_ar_model
        seen = []
        monkeypatch.setattr(HyperTreeModel, "from_dict",
                            classmethod(lambda cls, d: seen.append(gc.isenabled()) or model))
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            try:
                save_bundle(tmp_path / "b", model, log)
                assert gc.isenabled() == enabled
                assert load_bundle(tmp_path / "b")[0] is model
                assert gc.isenabled() == enabled
                with pytest.raises(DataError):
                    load_bundle(tmp_path / "missing")
                assert gc.isenabled() == enabled
            finally:
                gc.enable()
        assert seen == [False, False]


def leaf_dicts(node):
    if node["type"] == "leaf":
        return [node]
    return leaf_dicts(node["left"]) + leaf_dicts(node["right"])


class TestLinearLeafPersistence:
    """A linear leaf stores its value once, in ``weight``; files written
    when it was stored twice (``weight`` and ``intercept``) still load."""

    @pytest.fixture(scope="class")
    def linear_model(self, air_train, air_recipe):
        model, log = train(air_train, TargetSpec(kind="ar", p=12),
                           BoostConfig(rounds=5, linear_leaves=True), air_recipe)
        return model, log

    def test_bundle_round_trips_without_intercept(self, linear_model, air_train, air_recipe,
                                                  tmp_path):
        import json

        from treecast.bundle import load_bundle, save_bundle

        model, log = linear_model
        save_bundle(tmp_path / "b", model, log)
        back, manifest, _ = load_bundle(tmp_path / "b")
        leaves = [leaf for fname in manifest["ensemble_files"]
                  for tree in json.loads((tmp_path / "b" / fname).read_text())["trees"]
                  for leaf in leaf_dicts(tree)]
        assert any("lin_features" in leaf for leaf in leaves)
        assert not any("intercept" in leaf for leaf in leaves)
        assert back.to_dict() == model.to_dict()
        fs = air_recipe.build(air_train)
        assert np.array_equal(back.predict_parameters(fs.X)[0], model.predict_parameters(fs.X)[0])

    @pytest.mark.parametrize("old_weight", ["same", "other"])
    def test_old_layout_predicts_the_same(self, linear_model, air_train, air_recipe,
                                          old_weight):
        """The old evaluator read ``intercept`` for a linear leaf, so the
        loader takes it as the weight even where ``weight`` differs."""
        model, _ = linear_model
        fs = air_recipe.build(air_train)
        for ens in model.ensembles:
            old = ens.to_dict()
            for tree in old["trees"]:
                for leaf in leaf_dicts(tree):
                    if "lin_features" in leaf:
                        leaf["intercept"] = leaf["weight"]
                        if old_weight == "other":
                            leaf["weight"] = leaf["weight"] + 1.0
            back = TreeEnsemble.from_dict(old)
            assert np.array_equal(back.predict(fs.X), ens.predict(fs.X))
            assert back.to_dict() == ens.to_dict()
