import json

import numpy as np
import pytest

from treecast.boosting import Leaf
from treecast.hypertree import BoostConfig, forecast
from treecast.targets import Objective, TargetSpec
from treecast.treenet import Mlp, NetConfig, TreeNetModel, embedding_grad_hess, train

from conftest import ar2_sim, make_panel
from losses import finite_diff_check


def ar_panel(n=80, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(n)
    y = 50 + 0.4 * t + 8 * np.sin(2 * np.pi * t / 12) + rng.normal(0, 1, n)
    return make_panel({"a": y})


class TestForward:
    def test_zero_iterations_base_embeddings(self):
        ds = ar_panel()
        spec = TargetSpec(kind="ar", p=3)
        model, log = train(ds, spec, BoostConfig(rounds=0), NetConfig(), seed=1)
        fs = model.recipe.build(ds)
        E = model.embeddings(fs.X)
        assert not E.any()
        raw, _ = model.predict_parameters(fs.X)
        # all-zero embeddings: every row gets mlp(0)
        assert np.allclose(raw, raw[0])

    def test_eval_mode_deterministic(self):
        ds = ar_panel()
        model, _ = train(ds, TargetSpec(kind="ar", p=3), BoostConfig(rounds=5),
                         NetConfig(), seed=3)
        fs = model.recipe.build(ds)
        a, _ = model.predict_parameters(fs.X)
        b, _ = model.predict_parameters(fs.X)
        assert np.array_equal(a, b)

    def test_zero_mlp_blocks_signal(self):
        ds = ar_panel()
        spec = TargetSpec(kind="ar", p=3)
        model, _ = train(ds, spec, BoostConfig(rounds=0), NetConfig(dropout=0.0), seed=0)
        model.mlp.W1[:] = 0.0
        model.mlp.b1[:] = 0.0
        model.mlp.W2[:] = 0.0
        model.mlp.b2[:] = 0.0
        fs = model.recipe.build(ds)
        obj = Objective(ds, spec)
        E, raw, cache = model.forward(fs.X)
        _, g, h, _ = obj.evaluate(raw)
        ge, he = embedding_grad_hess(model, obj, cache, raw, g, h)
        assert not ge.any()
        # trees grown on zero gradients stay single zero leaves
        from reference_engine import grow_tree

        tree = grow_tree(fs.X, fs.kinds, ge[:, 0], he[:, 0], np.arange(ds.n_rows),
                         BoostConfig())
        assert isinstance(tree, Leaf)
        assert tree.weight == 0.0

    def test_identity_mlp_reduces_to_ar_derivatives(self):
        # k = d = P = 1, weights 1, biases 0, positive embeddings
        ds = make_panel({"a": 10 + np.arange(30.0)})
        spec = TargetSpec(kind="ar", p=1)
        model, _ = train(ds, spec, BoostConfig(rounds=0),
                         NetConfig(d=1, k=1, hidden=1, dropout=0.0), seed=0)
        model.mlp.W1[:] = 1.0
        model.mlp.b1[:] = 0.0
        model.mlp.W2[:] = 1.0
        model.mlp.b2[:] = 0.0
        model.projection[:] = 1.0
        fs = model.recipe.build(ds)
        E = np.full((ds.n_rows, 1), 0.5)
        z = model.project(E)
        o, cache = model.mlp.forward(z)
        obj = Objective(ds, spec)
        loss, g, h, _ = obj.evaluate(o)
        ge, he = embedding_grad_hess(model, obj, cache, o, g, h)
        assert np.allclose(ge, g)
        assert np.allclose(he, h)

    def test_zero_residual_zero_embedding_gradient(self):
        ds = make_panel({"a": np.full(20, 7.0)})
        spec = TargetSpec(kind="ar", p=1)
        model, _ = train(ds, spec, BoostConfig(rounds=0),
                         NetConfig(d=1, k=1, hidden=4, dropout=0.0), seed=0)
        fs = model.recipe.build(ds)
        obj = Objective(ds, spec)
        # force theta = 1 exactly: naive fit has zero residual on constant series
        model.mlp.W1[:] = 0.0
        model.mlp.b1[:] = 0.0
        model.mlp.W2[:] = 0.0
        model.mlp.b2[:] = 1.0
        E, raw, cache = model.forward(fs.X)
        assert np.allclose(raw, 1.0)
        loss, g, h, _ = obj.evaluate(raw)
        ge, _ = embedding_grad_hess(model, obj, cache, raw, g, h)
        assert np.allclose(ge, 0.0)


class TestEmbeddingGradients:
    def test_matches_finite_differences(self):
        ds = ar_panel(n=40, seed=5)
        spec = TargetSpec(kind="ar", p=3)
        model, _ = train(ds, spec, BoostConfig(rounds=3),
                         NetConfig(d=2, dropout=0.0), seed=5)
        fs = model.recipe.build(ds)
        obj = Objective(ds, spec)
        E, raw, cache = model.forward(fs.X)
        _, g, h, _ = obj.evaluate(raw)
        ge, _ = embedding_grad_hess(model, obj, cache, raw, g, h)

        def loss_of(Eflat):
            z = model.project(Eflat.reshape(E.shape))
            o, _ = model.mlp.forward(z)
            return obj.evaluate(o)[0]

        assert finite_diff_check(loss_of, ge, E) < 1e-4


class TestTraining:
    def test_both_flows_reduce_loss(self):
        y = ar2_sim(n=120, seed=8) + 30
        ds = make_panel({"a": y})
        spec = TargetSpec(kind="ar", p=2)
        for flow in ("separate", "shared"):
            model, log = train(ds, spec, BoostConfig(rounds=50),
                               NetConfig(flow=flow), seed=1)
            assert log.rows[-1][1] < log.rows[0][1]

    def test_shared_flow_accuracy_close_to_separate(self, air_train, air_recipe, air_holdout):
        from treecast.metrics import wape

        spec = TargetSpec(kind="ar", p=12)
        scores = {}
        for flow in ("separate", "shared"):
            model, _ = train(air_train, spec, BoostConfig(rounds=200),
                             NetConfig(flow=flow), seed=42, recipe=air_recipe)
            (pred,), _ = forecast(model, air_train, 12)
            scores[flow] = wape(air_holdout, pred)
        assert abs(scores["shared"] - scores["separate"]) <= 0.10 * scores["separate"]

    def test_smoothing_target_through_embeddings(self):
        # state-coupled target: curvature is transported per parameter
        from treecast.data import pad_for_ets

        t = np.arange(36)
        y = 100 + 2 * t + 10 * np.sin(2 * np.pi * t / 12)
        ds = pad_for_ets(make_panel({"a": y}))
        spec = TargetSpec(kind="ets", m=12)
        model, log = train(ds, spec, BoostConfig(rounds=20), NetConfig(), seed=4)
        assert np.isfinite([r[1] for r in log.rows]).all()
        assert log.rows[-1][1] < log.rows[0][1]
        (fc,), _ = forecast(model, ds, 6)
        assert np.all(np.isfinite(fc))

    def test_direct_target_forecasts_from_features(self):
        # no intermediate model: the single output is the fitted value itself
        t = np.arange(48)
        y = 100 + 10 * np.sin(2 * np.pi * t / 12)
        ds = make_panel({"a": y})
        spec = TargetSpec(kind="direct")
        model, log = train(ds, spec, BoostConfig(rounds=60), NetConfig(), seed=3)
        assert log.rows[-1][1] < log.rows[0][1]
        (fc,), _ = forecast(model, ds, 6)
        assert len(fc) == 6 and np.all(np.isfinite(fc))

    def test_inert_when_all_rates_zero(self):
        ds = ar_panel()
        spec = TargetSpec(kind="ar", p=3)
        models = []
        for flow in ("separate", "shared"):
            model, _ = train(ds, spec,
                             BoostConfig(rounds=4, learning_rate=0.0),
                             NetConfig(flow=flow, dropout=0.0, lr=0.0), seed=9)
            models.append(model.to_dict())
        assert json.dumps(models[0]["mlp"]) == json.dumps(models[1]["mlp"])
        assert json.dumps(models[0]["ensembles"]) == json.dumps(models[1]["ensembles"])

    def test_projection_immutable_during_training(self):
        ds = ar_panel()
        spec = TargetSpec(kind="ar", p=3)
        net = NetConfig()
        model, _ = train(ds, spec, BoostConfig(rounds=0), net, seed=11)
        before = model.projection.copy()
        model2, _ = train(ds, spec, BoostConfig(rounds=10), net, seed=11)
        assert np.array_equal(model2.projection, before)

    def test_full_batch_gradients_cover_all_rows(self):
        ds = ar_panel(n=50)
        spec = TargetSpec(kind="ar", p=3)
        model, _ = train(ds, spec, BoostConfig(rounds=1), NetConfig(), seed=0)
        fs = model.recipe.build(ds)
        obj = Objective(ds, spec)
        E, raw, cache = model.forward(fs.X)
        _, g, h, _ = obj.evaluate(raw)
        ge, he = embedding_grad_hess(model, obj, cache, raw, g, h)
        assert ge.shape[0] == ds.n_rows
        assert he.shape[0] == ds.n_rows

    def test_seed_reproducibility(self):
        ds = ar_panel()
        spec = TargetSpec(kind="ar", p=3)
        a, _ = train(ds, spec, BoostConfig(rounds=8), NetConfig(), seed=21)
        b, _ = train(ds, spec, BoostConfig(rounds=8), NetConfig(), seed=21)
        assert json.dumps(a.to_dict()) == json.dumps(b.to_dict())

    def test_feature_encoder_mode(self):
        ds = ar_panel()
        spec = TargetSpec(kind="ar", p=3)
        model, log = train(ds, spec, BoostConfig(rounds=30),
                           NetConfig(encoder="features"), seed=2)
        assert model.ensembles == []
        assert log.rows[-1][1] < log.rows[0][1]
        fc, _ = forecast(model, ds, 4)
        assert fc.shape == (1, 4)

    @pytest.mark.parametrize("flow", ["separate", "shared"])
    def test_feature_encoder_projection_wider_than_features(self, flow):
        """With no trees to grow, no embedding derivatives are taken, so a
        projection with more rows than there are features trains under
        either flow (ablations a7 and a10 together)."""
        ds = ar_panel()
        spec = TargetSpec(kind="ar", p=3)
        model, log = train(ds, spec, BoostConfig(rounds=3),
                           NetConfig(encoder="features", flow=flow, k=16), seed=2)
        assert model.projection.shape[0] > model.projection.shape[1]
        assert np.isfinite([r[1] for r in log.rows]).all()

    def test_no_projection_mode(self):
        ds = ar_panel()
        spec = TargetSpec(kind="ar", p=3)
        model, log = train(ds, spec, BoostConfig(rounds=10),
                           NetConfig(use_projection=False), seed=2)
        assert model.projection is None
        assert log.rows[-1][1] < log.rows[0][1]


class TestPersistence:
    def test_roundtrip(self):
        ds = ar_panel()
        spec = TargetSpec(kind="ar", p=3)
        model, _ = train(ds, spec, BoostConfig(rounds=5), NetConfig(), seed=13)
        back = TreeNetModel.from_dict(json.loads(json.dumps(model.to_dict())))
        fs = model.recipe.build(ds)
        a, _ = model.predict_parameters(fs.X)
        b, _ = back.predict_parameters(fs.X)
        assert np.array_equal(a, b)


class TestNetConfig:
    @pytest.mark.parametrize("field", ["flow", "encoder"])
    def test_unknown_value_raises(self, field):
        """Training branches on these fields; an unknown value must not
        quietly run as one of the known ones."""
        with pytest.raises(ValueError, match=f"unknown {field} 'x'"):
            NetConfig(**{field: "x"})


class TestMlpUnit:
    def test_adam_step_moves_against_gradient(self):
        mlp = Mlp(2, 4, 1, np.random.default_rng(0))
        z = np.random.default_rng(1).normal(size=(10, 2))
        o, cache = mlp.forward(z)
        before = mlp.W2.copy()
        grads = mlp.backward(cache, np.ones((10, 1)))
        mlp.adam_step(grads, 1e-2)
        assert not np.array_equal(before, mlp.W2)

    def test_dropout_only_in_training(self):
        mlp = Mlp(2, 4, 3, np.random.default_rng(0))
        z = np.random.default_rng(1).normal(size=(50, 2))
        o_eval, (_, _, scale) = mlp.forward(z)
        assert scale is None
        rng = np.random.default_rng(2)
        o_train, (_, _, scale2) = mlp.forward(z, dropout=0.5, rng=rng)
        assert scale2 is not None
        assert (o_train == 0).sum() > 0

    def test_backward_matches_fd_on_weights(self):
        rng = np.random.default_rng(3)
        mlp = Mlp(2, 3, 2, rng)
        z = rng.normal(size=(6, 2))
        y = rng.normal(size=(6, 2))

        def loss_fn():
            o, cache = mlp.forward(z)
            return float(np.sum((o - y) ** 2)), cache

        loss, cache = loss_fn()
        o, _ = mlp.forward(z)
        grads = mlp.backward(cache, 2.0 * (o - y))
        for param, grad in zip((mlp.W1, mlp.b1, mlp.W2, mlp.b2), grads):
            flat = param.ravel()
            idx = rng.integers(0, flat.size)
            eps = 1e-6
            flat[idx] += eps
            hi, _ = loss_fn()
            flat[idx] -= 2 * eps
            lo, _ = loss_fn()
            flat[idx] += eps
            fd = (hi - lo) / (2 * eps)
            assert grad.ravel()[idx] == pytest.approx(fd, rel=1e-4, abs=1e-7)
