"""Acceptance criteria, one test per criterion, each printing a PASS line
(run with `pytest tests/test_acceptance.py -s` to see them stream)."""

import functools
import time

import numpy as np
import pytest
import yaml
from click.testing import CliRunner

from treecast import treenet
from treecast.baselines import classical_decompose, fit_ols_ar
from treecast.boosting import Leaf, Split
from treecast.cli import main, run_scaling_benchmark
from treecast.config import config_from_dict
from treecast.hypertree import BoostConfig, FeatureRecipe, forecast, train
from treecast.metrics import mae, mape, rmse, smape, wape
from treecast.targets import Objective, TargetSpec, ar_forecast, stl_components

from conftest import (ar2_sim, ets_filter_one, ets_one_series, ets_sse, make_panel,
                      stl_loss_grad)
from losses import finite_diff_check
from reference_engine import grow_tree, reference_goes_left, split_gain
from reference_ets import ets_init


def criterion(num, desc):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"FAIL criterion {num:2d}: {desc}")
                raise
            print(f"PASS criterion {num:2d}: {desc}")

        return wrapper

    return decorate


@criterion(1, "derivative certification vs central finite differences")
def test_criterion_01_derivatives():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)

    worst_ar = worst_stl = worst_emb = worst_ets = 0.0
    # autoregressive target: 100 seeded instances
    for _ in range(100):
        T, p = 20, 3
        ds = make_panel({"a": rng.uniform(1, 10, T)})
        obj = Objective(ds, TargetSpec(kind="ar", p=p))
        raw = rng.normal(0, 0.5, (T, p))
        _, g, _, _ = obj.evaluate(raw)
        err = finite_diff_check(lambda r: obj.evaluate(r.reshape(T, p))[0], g, raw)
        worst_ar = max(worst_ar, err)

    # trend+Fourier target
    for _ in range(100):
        T = 24
        t = np.arange(T)
        y = rng.normal(10, 3, T)
        spec = TargetSpec(kind="stl", n_season=2, penalty=rng.uniform(0, 3))
        raw = rng.normal(0, 1, (T, spec.param_count))
        _, g, _, _ = stl_loss_grad(raw, t, y, spec)
        err = finite_diff_check(lambda r: stl_loss_grad(r.reshape(raw.shape), t, y, spec)[0],
                                g, raw)
        worst_stl = max(worst_stl, err)

    # smoothing target; the larger step keeps round-off on the ~1e5-magnitude
    # loss below the comparison tolerance (truncation stays second order).
    # The differences evaluate the kernel's loss through the forward filter
    # alone, which gives it bit for bit at half the cost.
    spec_ets = TargetSpec(kind="ets", m=4)
    for _ in range(100):
        T = 24
        y = np.maximum(50 + np.cumsum(rng.normal(0.3, 1.5, T)), 5.0)
        raw = rng.normal(0, 1, (T, 4))
        init = ets_init(y, 4, True)
        _, g, _, _ = ets_one_series(y, raw, spec_ets, init)
        err = finite_diff_check(
            lambda r: ets_sse(y, r.reshape(T, 4), spec_ets, init), g, raw, eps=1e-3)
        worst_ets = max(worst_ets, err)

    # embedding gradients through the frozen decoder
    ds = make_panel({"a": rng.uniform(10, 30, 20)})
    obj = Objective(ds, TargetSpec(kind="ar", p=3))
    for i in range(100):
        model, _ = treenet.train(ds, TargetSpec(kind="ar", p=3), BoostConfig(rounds=0),
                                 treenet.NetConfig(d=2, dropout=0.0), seed=1000 + i)
        fs = model.recipe.build(ds)
        E = rng.normal(0, 1, (ds.n_rows, 2))
        z = model.project(E)
        o, cache = model.mlp.forward(z)
        _, g, h, _ = obj.evaluate(o)
        ge, _ = treenet.embedding_grad_hess(model, obj, cache, o, g, h)

        def loss_of(Eflat):
            zz = model.project(Eflat.reshape(E.shape))
            oo, _ = model.mlp.forward(zz)
            return obj.evaluate(oo)[0]

        worst_emb = max(worst_emb, finite_diff_check(loss_of, ge, E))

    elapsed = time.perf_counter() - t0
    print(f"  max rel err: ar={worst_ar:.2e} stl={worst_stl:.2e} "
          f"ets={worst_ets:.2e} emb={worst_emb:.2e} ({elapsed:.1f}s)")
    assert worst_ar < 1e-4
    assert worst_stl < 1e-4
    assert worst_emb < 1e-4
    assert worst_ets < 1e-3
    assert elapsed < 30.0


@criterion(2, "Newton engine equals exhaustive split enumeration on 200 desk-scale cases")
def test_criterion_02_engine_oracle():
    rng = np.random.default_rng(202)
    lam = 1.0
    for case in range(200):
        n = int(rng.integers(2, 9))
        X = rng.integers(0, 4, size=(n, 2)).astype(np.float64)
        g = rng.integers(-3, 4, size=n).astype(np.float64)
        h = rng.integers(1, 4, size=n).astype(np.float64)

        # oracle: enumerate every (feature, threshold) candidate by direct sums
        best = 0.0
        for f in (0, 1):
            for thr in np.unique(X[:, f])[:-1]:
                left = X[:, f] <= thr
                best = max(best, split_gain(float(g[left].sum()), float(h[left].sum()),
                                            float(g[~left].sum()), float(h[~left].sum()),
                                            lam))
        tree = grow_tree(X, ("num", "num"), g, h, np.arange(n),
                         BoostConfig(lam=lam, max_depth=1, min_leaf=1))
        got = tree.gain if isinstance(tree, Split) else 0.0
        assert got == best, f"case {case}: engine gain {got} != oracle max {best}"

        # every leaf weight is exactly the Newton step of its row set
        deep = grow_tree(X, ("num", "num"), g, h, np.arange(n),
                         BoostConfig(lam=lam, max_depth=3, min_leaf=1))

        def check(node, idx):
            if isinstance(node, Leaf):
                G, H = g[idx].sum(), h[idx].sum()
                assert abs(node.weight - (-G / (H + lam))) <= 1e-12
                return
            left = reference_goes_left(node, X, idx)
            check(node.left, idx[left])
            check(node.right, idx[~left])

        check(deep, np.arange(n))


@criterion(3, "depth-0 boosting reaches the least-squares optimum within 5%")
def test_criterion_03_ols_equivalence():
    t0 = time.perf_counter()
    y = ar2_sim(n=300, seed=2024)
    ds = make_panel({"sim": y}, frequency="daily")
    spec = TargetSpec(kind="ar", p=2)
    _, log = train(ds, spec,
                   BoostConfig(rounds=500, learning_rate=0.1, lam=0.0, max_depth=0),
                   FeatureRecipe(calendar=()))
    ols = fit_ols_ar(y, 2, intercept=False)
    w, lags = spec.target.design(ds)
    ols_mse = float(np.mean((ds.y[w] - lags[w] @ ols.coefficients) ** 2))
    elapsed = time.perf_counter() - t0
    print(f"  boost mse={log.rows[-1][1]:.6f} ols mse={ols_mse:.6f} ({elapsed:.1f}s)")
    assert log.rows[-1][1] <= 1.05 * ols_mse
    assert elapsed < 20.0


@criterion(4, "smoothing filter matches an independently coded recursion to 1e-10")
def test_criterion_04_ets_oracle(air_full):
    y = air_full.y[air_full.rows_of(0)]
    m = 12
    spec = TargetSpec(kind="ets", m=m)
    init = ets_init(y, m, True)
    values = np.tile([0.3, 0.3, 0.3, 0.3], (len(y), 1))
    fitted, state = ets_filter_one(y, values, spec, init)

    # reference recursion, written independently as a plain loop
    a = b = g_ = p = 0.3
    level, trend = init.level, init.trend
    s = list(init.ring)
    ref = np.empty(len(y))
    for t in range(len(y)):
        forecast_base = level + p * trend
        ref[t] = forecast_base * s[t]
        new_level = a * (y[t] / s[t]) + (1 - a) * forecast_base
        new_trend = b * (new_level - level) + (1 - b) * p * trend
        s.append(g_ * y[t] / forecast_base + (1 - g_) * s[t])
        level, trend = new_level, new_trend
    worst = float(np.max(np.abs(fitted - ref)))
    print(f"  max abs deviation: {worst:.3e}")
    assert worst <= 1e-10
    assert abs(state.level - level) <= 1e-10
    assert abs(state.trend - trend) <= 1e-10


@criterion(5, "hold-out accuracy on the monthly airline series beats the fixed-coefficient fit")
def test_criterion_05_airline_end_to_end(air_train, air_holdout, air_ar_model, air_full):
    t0 = time.perf_counter()
    model, _ = air_ar_model
    (pred,), _ = forecast(model, air_train, 12)
    model_mape = mape(air_holdout, pred)

    history = air_full.y[air_full.rows_of(0)][:-12]
    ols = fit_ols_ar(history, 12, intercept=False)
    baseline = mape(air_holdout,
                    ar_forecast(np.tile(ols.coefficients, (1, 12, 1)), history[None])[0])
    elapsed = time.perf_counter() - t0
    print(f"  model MAPE={model_mape:.3f} fixed-coefficient baseline={baseline:.3f} "
          f"({elapsed:.1f}s)")
    assert model_mape <= 5.0
    assert model_mape < baseline
    assert elapsed < 120.0


@criterion(6, "averaging parameters over the horizon degrades accuracy by >= 1.2x")
def test_criterion_06_averaging_ablation(air_train, air_holdout, air_ar_model):
    model, _ = air_ar_model
    (tv,), _ = forecast(model, air_train, 12)
    (avg,), _ = forecast(model, air_train, 12, average=True)
    ratio = wape(air_holdout, avg) / wape(air_holdout, tv)
    print(f"  WAPE ratio averaged/time-varying = {ratio:.2f}")
    assert ratio >= 1.2


@criterion(7, "runtime scaling: near-flat for the hybrid, >= 4x for one-per-parameter")
def test_criterion_07_scaling():
    t0 = time.perf_counter()
    cfg = config_from_dict({})
    rows = run_scaling_benchmark(cfg, [1, 6, 12, 24], 5000, 20, seed=7)
    rel = {(family, P): r for P, family, _, r in rows}
    elapsed = time.perf_counter() - t0
    print(f"  hypertree 24/1 = {rel[('hypertree', 24)]:.2f}, "
          f"treenet 24/1 = {rel[('treenet', 24)]:.2f} ({elapsed:.1f}s)")
    assert rel[("treenet", 24)] <= 1.5
    assert rel[("hypertree", 24)] >= 4.0
    assert elapsed < 300.0


@criterion(8, "learned decomposition correlates >= 0.95 with the classical one")
def test_criterion_08_decomposition(air_full):
    spec = TargetSpec(kind="stl", n_season=4, period=12, penalty=1.0)
    recipe = FeatureRecipe(calendar=("month", "quarter", "year"), include_time=True)
    # min_leaf > n/2 keeps the coefficients global, as the constant-pattern
    # classical reference requires
    model, _ = train(air_full, spec, BoostConfig(rounds=500, min_leaf=73), recipe)
    fs = recipe.build(air_full)
    _, values = model.predict_parameters(fs.X)
    trend, seas, _ = stl_components(values, air_full.time_index, spec)
    ctrend, cseas, _ = classical_decompose(air_full.y[air_full.rows_of(0)], 12)
    ok = ~np.isnan(ctrend)
    ct = float(np.corrcoef(trend[ok], ctrend[ok])[0, 1])
    cs = float(np.corrcoef(seas[ok], cseas[ok])[0, 1])
    print(f"  trend corr={ct:.4f} seasonal corr={cs:.4f}")
    assert ct >= 0.95
    assert cs >= 0.95


@criterion(9, "metric goldens exact; scale invariance over 100 rescalings")
def test_criterion_09_metrics():
    assert mape([100, 200], [110, 180]) == pytest.approx(10.0, abs=1e-12)
    assert mape([50, 60], [50, 60]) == 0.0
    assert mape([50], [75]) == pytest.approx(50.0, abs=1e-12)
    assert smape([100], [110]) == pytest.approx(2000.0 / 210.0, abs=1e-12)
    assert smape([10], [10]) == 0.0
    assert smape([0.0], [0.0]) == 0.0
    assert wape([100, 200], [110, 180]) == pytest.approx(10.0, abs=1e-12)
    assert rmse([3, 4], [0, 0]) == pytest.approx(np.sqrt(12.5), abs=1e-12)
    assert mae([3, 4], [0, 0]) == pytest.approx(3.5, abs=1e-12)

    rng = np.random.default_rng(909)
    y = rng.uniform(10, 100, 24)
    f = y + rng.normal(0, 5, 24)
    base = (mape(y, f), smape(y, f), wape(y, f), rmse(y, f), mae(y, f))
    for _ in range(100):
        c = float(rng.uniform(1e-3, 1e3))
        assert mape(c * y, c * f) == pytest.approx(base[0], rel=1e-9)
        assert smape(c * y, c * f) == pytest.approx(base[1], rel=1e-9)
        assert wape(c * y, c * f) == pytest.approx(base[2], rel=1e-9)
        assert rmse(c * y, c * f) == pytest.approx(c * base[3], rel=1e-9)
        assert mae(c * y, c * f) == pytest.approx(c * base[4], rel=1e-9)


@pytest.fixture(scope="module")
def air_treenet_model(air_train, air_recipe):
    return treenet.train(air_train, TargetSpec(kind="ar", p=12),
                         BoostConfig(rounds=200), treenet.NetConfig(), seed=42,
                         recipe=air_recipe)


@criterion(10, "calendar-driven parameters repeat exactly across years")
def test_criterion_10_parameter_consistency(air_train, air_recipe, air_ar_model,
                                            air_treenet_model):
    fs = air_recipe.build(air_train)
    keys = list(zip(air_train.month.tolist(), air_train.quarter.tolist()))

    for label, model in (("hypertree", air_ar_model[0]), ("treenet", air_treenet_model[0])):
        _, values = model.predict_parameters(fs.X)
        seen = {}
        for i, key in enumerate(keys):
            if key in seen:
                assert np.array_equal(values[i], values[seen[key]]), (label, key)
            else:
                seen[key] = i

    # one-dimensional embeddings repeat with period 12 over the training years
    tn_model, _ = air_treenet_model
    E = tn_model.embeddings(fs.X)
    assert E.shape[1] == 1
    e = E[:, 0]
    assert np.array_equal(e[12:], e[:-12])
    print("  exact parameter and embedding repetition verified")

    # the treenet model also clears the fixed-coefficient bar (separate flow)
    (pred,), _ = forecast(tn_model, air_train, 12)
    from treecast.metrics import mape as _mape

    assert _mape(np.asarray([417, 391, 419, 461, 472, 535, 622, 606, 508, 461, 390, 432],
                            dtype=float), pred) < 8.630


@criterion(11, "identical config and seed reproduce output files byte for byte")
def test_criterion_11_reproducibility(tmp_path):
    runner = CliRunner()
    cfg = {
        "seed": 42,
        "data": {"path": "bundled:air_passengers.csv"},
        "features": {"calendar": ["month", "quarter"], "summary": False},
        "model": {"family": "treenet", "target": "ar", "p": 12},
        "boosting": {"rounds": 15},
        "eval": {"horizon": 12},
    }
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(yaml.safe_dump(cfg))

    outputs = []
    for run in ("one", "two"):
        bundle = tmp_path / f"bundle_{run}"
        fc = tmp_path / f"fc_{run}.csv"
        exp = tmp_path / f"exp_{run}.csv"
        assert runner.invoke(main, ["train", str(cfg_path), "--out", str(bundle)]).exit_code == 0
        assert runner.invoke(main, ["forecast", "--bundle", str(bundle),
                                    "--out", str(fc)]).exit_code == 0
        assert runner.invoke(main, ["export", "--bundle", str(bundle),
                                    "--what", "embeddings", "--out", str(exp)]).exit_code == 0
        model_files = {
            p.name: p.read_bytes()
            for p in sorted(bundle.iterdir())
            if p.name not in ("training_log.csv", "training_notes.txt")
        }
        outputs.append((model_files, fc.read_bytes(), exp.read_bytes()))
    assert outputs[0][0] == outputs[1][0]
    assert outputs[0][1] == outputs[1][1]
    assert outputs[0][2] == outputs[1][2]
    print("  bundles, forecasts and exports byte-identical")
