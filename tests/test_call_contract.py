"""The call contract of the traced benchmark, checked in Tier-1.

In a traced run, ``perfbench/child.py:expected_calls`` requires training to
call ``TreeEnsemble.boost_round`` and ``boosting.tree_values`` once per round
and ensemble; the tracer counts the calls and fails the run when they
differ.  Growing the trees of a round in one call, or updating predictions
from a leaf cache instead of re-walking each new tree, breaks that count,
so such a change must update the benchmark first.  The traced run also
requires ``TreeEnsemble.predict`` to be called once per ensemble for each
``predict_parameters`` call.  These tests fail here rather than only in a
traced benchmark run.
"""

import sys

import numpy as np
import pytest

from treecast import boosting, hypertree, treenet
from treecast.data import build_lags
from treecast.hypertree import BoostConfig
from treecast.targets import TargetSpec
from treecast.treenet import NetConfig

from conftest import make_panel

ROUNDS = 3


@pytest.fixture
def calls(monkeypatch):
    """Counts of boost_round and tree_values calls, with tree_values replaced
    at every treecast module that binds it."""
    counts = {"boost_round": 0, "tree_values": 0}
    boost_round, tree_values = boosting.TreeEnsemble.boost_round, boosting.tree_values

    def counted_boost_round(self, *args, **kwargs):
        counts["boost_round"] += 1
        return boost_round(self, *args, **kwargs)

    def counted_tree_values(*args, **kwargs):
        counts["tree_values"] += 1
        return tree_values(*args, **kwargs)

    monkeypatch.setattr(boosting.TreeEnsemble, "boost_round", counted_boost_round)
    for name, module in list(sys.modules.items()):
        if name.startswith("treecast") and getattr(module, "tree_values", None) is tree_values:
            monkeypatch.setattr(module, "tree_values", counted_tree_values)
    return counts


def panel(p):
    rng = np.random.default_rng(0)
    t = np.arange(60)
    series = {sid: 50 + 0.3 * t + 8 * np.sin(2 * np.pi * t / 12 + k) + rng.normal(0, 1, 60)
              for k, sid in enumerate(("a", "b"))}
    return build_lags(make_panel(series), p)


def test_hypertree_one_call_each_per_round_and_parameter(calls):
    spec = TargetSpec(kind="ar", p=3)
    hypertree.train(panel(3), spec, BoostConfig(rounds=ROUNDS, max_depth=2))
    assert spec.param_count > 1
    expected = ROUNDS * spec.param_count
    assert calls == {"boost_round": expected, "tree_values": expected}


def test_treenet_one_call_each_per_round_and_dimension(calls):
    net = NetConfig(d=2, hidden=8)
    treenet.train(panel(3), TargetSpec(kind="ar", p=3), BoostConfig(rounds=ROUNDS, max_depth=2),
                  net, seed=0)
    expected = ROUNDS * net.d
    assert calls == {"boost_round": expected, "tree_values": expected}


@pytest.fixture
def predicts(monkeypatch):
    """Counts of TreeEnsemble.predict calls and of predict_parameters calls
    of either model family."""
    counts = {"predict": 0, "predict_parameters": 0}

    def counted(owner, attr, key):
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, attr, wrapper)

    counted(boosting.TreeEnsemble, "predict", "predict")
    counted(hypertree.HyperTreeModel, "predict_parameters", "predict_parameters")
    counted(treenet.TreeNetModel, "predict_parameters", "predict_parameters")
    return counts


def test_hypertree_one_predict_per_parameter_and_forecast(predicts):
    spec = TargetSpec(kind="ar", p=3)
    ds = panel(3)
    model, _ = hypertree.train(ds, spec, BoostConfig(rounds=ROUNDS, max_depth=2))
    hypertree.forecast(model, ds, 4)
    assert predicts["predict_parameters"] == 1
    assert predicts["predict"] == spec.param_count * predicts["predict_parameters"]


def test_treenet_one_predict_per_dimension_and_forecast(predicts):
    net = NetConfig(d=2, hidden=8)
    ds = panel(3)
    model, _ = treenet.train(ds, TargetSpec(kind="ar", p=3),
                             BoostConfig(rounds=ROUNDS, max_depth=2), net, seed=0)
    hypertree.forecast(model, ds, 4)
    assert predicts["predict_parameters"] == 1
    assert predicts["predict"] == net.d * predicts["predict_parameters"]
