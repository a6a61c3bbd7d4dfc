"""Trees evaluated once per distinct feature row.

``boosting.distinct_rows`` keys rows by their bytes; predictions
(``HyperTreeModel.predict_parameters``, ``TreeNetModel.embeddings``) evaluate
every ensemble on the distinct rows only and gather the values back, and
both trainers add each new tree's values the same way.  The oracle is the
row-by-row recursive evaluator ``reference_engine.reference_predict`` on
every row of X; outputs must equal it bit for bit (NaN counted equal, the
sign of zero counted).  Trees are grown on the distinct rows too
(``SplitMatrix``), and the training update must give the same splits as a
fit that treats every row as distinct, with leaf values and parameters
equal up to the order in which gradients are summed.
"""

import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from treecast import boosting, hypertree, treenet
from treecast.boosting import BoostConfig, Leaf, NodeTable, Split, TreeEnsemble, distinct_rows
from treecast.hypertree import FeatureRecipe, HyperTreeModel, forecast
from treecast.targets import TargetSpec
from treecast.treenet import Mlp, NetConfig, TreeNetModel

from conftest import make_panel
from reference_engine import reference_predict
from test_tree_table import random_X, random_tree

# NaN and +-inf cells make casts, linear terms, the link and the MLP warn,
# in the oracle as in the model
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

SPECS = (TargetSpec("ar", p=2), TargetSpec("ets", m=12))   # identity and sigmoid links


def assert_same(got, want):
    """Equal under ``np.array_equal`` with NaN counted equal, and with the
    same sign on every zero.  A NaN's sign bit depends on the order of the
    operations that made it, so it is not compared."""
    assert got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)
    number = ~np.isnan(want)
    assert np.array_equal(np.signbit(got[number]), np.signbit(want[number]))


def every_row_distinct(X):
    X = np.ascontiguousarray(X)
    return X, np.arange(len(X))


# -- the helper ----------------------------------------------------------


class TestDistinctRows:
    def test_gathers_back_bit_for_bit(self):
        nan2 = np.array([0x7FF8000000000001], dtype=np.uint64).view(np.float64)[0]
        X = np.array([[1.0, 0.0], [1.0, -0.0], [np.nan, 2.0], [nan2, 2.0],
                      [1.0, 0.0], [np.inf, -np.inf], [1.0, -0.0], [np.nan, 2.0]])
        rows, inverse = distinct_rows(X)
        assert np.array_equal(rows[inverse].view(np.uint64), X.view(np.uint64))
        # -0.0 and 0.0, and two NaN payloads, are different rows
        assert len(rows) == 5
        assert len({r.tobytes() for r in rows}) == 5

    def test_zero_rows_and_zero_columns(self):
        rows, inverse = distinct_rows(np.zeros((0, 3)))
        assert rows.shape == (0, 3) and inverse.shape == (0,)
        rows, inverse = distinct_rows(np.zeros((4, 0)))
        assert rows.shape == (1, 0) and inverse.tolist() == [0] * 4
        rows, inverse = distinct_rows(np.zeros((0, 0)))
        assert rows.shape == (0, 0) and inverse.shape == (0,)

    def test_non_contiguous_input(self):
        X = np.arange(24.0).reshape(6, 4)[::2, ::2] % 3
        rows, inverse = distinct_rows(X)
        assert np.array_equal(rows[inverse], X)


# -- predictions against the row-by-row oracle ---------------------------


def repeated_case(seed):
    """(spec, ensembles, base_raw, kinds, X): P random ensembles and an X of
    a few rows repeated and shuffled (or zero rows, one row, all rows
    distinct), with NaN/+-inf cells, 0.0 and -0.0 in one column and unseen
    or non-integer categorical codes."""
    rng = np.random.default_rng(seed)
    spec = SPECS[int(rng.integers(len(SPECS)))]
    n_feat = int(rng.integers(0, 5))
    kinds = tuple(str(k) for k in rng.choice(["num", "cat"], n_feat))
    max_depth = int(rng.integers(0, 6)) if n_feat else 0
    ensembles = []
    for _ in range(spec.param_count):
        trees = [random_tree(rng, kinds, max_depth) for _ in range(int(rng.integers(0, 12)))]
        for tree in trees:   # some -0.0 leaves, so the sign of a zero shows
            if isinstance(tree, Leaf) and rng.random() < 0.3:
                tree.weight = -0.0
        ens = TreeEnsemble(BoostConfig(learning_rate=float(rng.choice([0.1, 0.3, 1.0]))),
                           base=float(rng.choice([0.7, 0.0, -0.0])), n_features=n_feat)
        ens.trees = trees
        ensembles.append(ens)
    base_raw = rng.choice([-0.0, 0.0, 0.4, -1.3], spec.param_count)
    layout = rng.choice(["repeat", "repeat", "distinct", "zero", "one"])
    n_base = {"zero": 0, "one": 1}.get(layout, int(rng.integers(1, 7)))
    base = random_X(rng, kinds, n_base)
    if n_feat and n_base:
        zero = rng.random(n_base) < 0.4
        base[zero, 0] = rng.choice([0.0, -0.0], int(zero.sum()))
    if layout == "repeat":
        X = base[rng.integers(0, n_base, int(rng.integers(n_base, 40)))]
    else:
        X = base[rng.permutation(n_base)]
    return spec, ensembles, base_raw, kinds, X


def oracle_columns(ensembles, X, base_raw=None):
    """Each ensemble's ``reference_predict`` on every row of X, as columns,
    plus ``base_raw[j]`` when given."""
    cols = [reference_predict(e, X) for e in ensembles]
    if base_raw is not None:
        cols = [b + c for b, c in zip(base_raw, cols)]
    return np.column_stack(cols) if cols else np.zeros((len(X), 0))


def treenet_model(spec, ensembles, kinds, seed):
    rng = np.random.default_rng(seed)
    d, k = len(ensembles), 3
    mlp = Mlp(k, 8, spec.param_count, rng)
    return TreeNetModel(spec, ensembles, rng.standard_normal((k, d)), mlp,
                        NetConfig(d=d, k=k, hidden=8), FeatureRecipe(),
                        [f"f{i}" for i in range(len(kinds))], kinds, seed)


class TestPredictOracle:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_predict_parameters(self, seed):
        spec, ensembles, base_raw, kinds, X = repeated_case(seed)
        model = HyperTreeModel(spec, ensembles, base_raw, FeatureRecipe(),
                               [f"f{i}" for i in range(len(kinds))], kinds)
        raw, values = model.predict_parameters(X)
        want = oracle_columns(ensembles, X, base_raw)
        assert_same(raw, want)
        assert_same(values, spec.target.link(want))

    @given(st.integers(0, 2**32 - 1))
    @example(seed=1550)  # NaN parameters whose sign bit differs from the oracle's
    @example(seed=4857)
    @settings(max_examples=100, deadline=None)
    def test_embeddings_and_treenet_parameters(self, seed):
        spec, ensembles, _, kinds, X = repeated_case(seed)
        model = treenet_model(spec, ensembles, kinds, seed)
        E = model.embeddings(X)
        want = oracle_columns(ensembles, X)
        assert_same(E, want)
        # the MLP decodes every row, as it decodes the oracle's embeddings
        o, _ = model.mlp.forward(model.project(want))
        raw, values = model.predict_parameters(X)
        assert_same(raw, o)
        assert_same(values, spec.target.link(o))

    def test_signed_zero_rows_stay_apart(self):
        # a -0.0 base, a -0.0 leaf weight and a linear term on x: the raw
        # value is -0.0 at x = -0.0 and 0.0 at x = 0.0
        ens = TreeEnsemble(BoostConfig(learning_rate=1.0), base=-0.0, n_features=1)
        ens.trees = [Leaf(-0.0, lin_features=(0,), lin_coef=(1.0,))]
        spec = TargetSpec("ar", p=2)
        model = HyperTreeModel(spec, [ens] * spec.param_count, [-0.0] * spec.param_count,
                               FeatureRecipe(), ["x"], ["num"])
        X = np.array([[0.0], [-0.0], [-0.0], [0.0]])
        raw = model.predict_parameters(X)[0]
        assert np.signbit(raw[:, 0]).tolist() == [False, True, True, False]
        assert_same(raw, oracle_columns(model.ensembles, X, model.base_raw))

    def test_one_predict_per_ensemble_on_the_distinct_rows(self, monkeypatch):
        calls = []
        predict = TreeEnsemble.predict

        def spy(self, X):
            calls.append(X.shape)
            return predict(self, X)

        monkeypatch.setattr(TreeEnsemble, "predict", spy)
        ens = TreeEnsemble(BoostConfig(), n_features=2)
        ens.trees = [Split(0, "num", 1.5, None, Leaf(-1.0), Leaf(1.0), 1.0)]
        model = HyperTreeModel(TargetSpec("ets", m=12), [ens] * 4, np.zeros(4),
                               FeatureRecipe(), ["a", "b"], ["num", "cat"])
        X = np.tile([[1.0, 3.0], [2.0, 3.0], [2.0, 4.0]], (50, 1))
        model.predict_parameters(X)
        assert calls == [(3, 2)] * 4


def test_no_features_trains_and_forecasts():
    """``features.calendar=[]`` leaves X with no columns; trees are leaves."""
    rng = np.random.default_rng(0)
    ds = make_panel({"a": 50 + rng.normal(0, 1, 40), "b": 20 + rng.normal(0, 1, 30)})
    recipe = FeatureRecipe(calendar=())
    model, _ = hypertree.train(ds, TargetSpec("ar", p=2), BoostConfig(rounds=3), recipe)
    X = recipe.build(ds).X
    assert X.shape == (70, 0)
    assert_same(model.predict_parameters(X)[0], oracle_columns(model.ensembles, X, model.base_raw))
    fc, _ = forecast(model, ds, 5)
    assert fc.shape == (2, 5) and np.isfinite(fc).all()


# -- the training update -------------------------------------------------


def seasonal(n, level, seed):
    rng = np.random.default_rng(seed)
    t = np.arange(n)
    return level + 0.2 * t + 5 * np.sin(2 * np.pi * t / 12) + rng.normal(0, 0.5, n)


def panel(covariate=False, unequal=False):
    """Three monthly series sharing their calendar rows; optionally a numeric
    covariate of a few repeated values, or unequal lengths."""
    lengths = (48, 36, 30) if unequal else (48, 48, 48)
    values = {s: seasonal(n, 40 + 10 * i, i) for i, (s, n) in enumerate(zip("abc", lengths))}
    num = None
    if covariate:
        num = {"x": np.round(np.random.default_rng(9).normal(size=sum(lengths)), 1)}
    return make_panel(values, num=num)


CASES = {
    "calendar": dict(),
    "covariate": dict(covariate=True),
    "ragged": dict(unequal=True, kind="ets"),
    "linear_leaves": dict(covariate=True, linear=True),
}


def fit(family, case):
    opts = CASES[case]
    spec = TargetSpec(opts.get("kind", "ar"), p=2)
    ds = panel(opts.get("covariate", False), opts.get("unequal", False))
    cfg = BoostConfig(rounds=4, max_depth=3, min_leaf=3, linear_leaves=opts.get("linear", False))
    recipe = FeatureRecipe(calendar=("month", "quarter"))
    if family == "hypertree":
        model, _ = hypertree.train(ds, spec, cfg, recipe)
    else:
        model, _ = treenet.train(ds, spec, cfg, NetConfig(d=2, hidden=8), seed=3, recipe=recipe)
    return model, ds, recipe


def assert_close_trees(a, b, rtol):
    """Two ensembles' trees: the same nodes, features, thresholds, codes and
    linear-term features, with leaf weights and linear coefficients within
    ``rtol`` (relative)."""
    ta, tb = NodeTable(a.trees), NodeTable(b.trees)
    for name in ("is_split", "feature", "threshold", "is_cat", "codes", "cat_keys",
                 "lin_feature", "lin_ptr", "roots"):
        assert np.array_equal(getattr(ta, name), getattr(tb, name), equal_nan=True), name
    for name in ("value", "lin_coef"):
        np.testing.assert_allclose(getattr(ta, name), getattr(tb, name), rtol=rtol, atol=0)


def bound_modules(name):
    """The treecast modules that bind ``name`` to boosting's function."""
    value = getattr(boosting, name)
    return [mod for key, mod in sys.modules.items()
            if key.startswith("treecast") and getattr(mod, name, None) is value]


@pytest.mark.parametrize("family", ["hypertree", "treenet"])
@pytest.mark.parametrize("case", list(CASES))
def test_training_update_matches_every_row_distinct(family, case, monkeypatch):
    shapes = []
    tree_values = boosting.tree_values

    def spy(tree, X):
        shapes.append(X.shape[0])
        return tree_values(tree, X)

    with monkeypatch.context() as m:
        for mod in bound_modules("tree_values"):
            m.setattr(mod, "tree_values", spy)
        model, ds, recipe = fit(family, case)
    X = recipe.build(ds).X
    n_distinct = len(distinct_rows(X)[0])
    # each new tree is evaluated on the fit's distinct rows
    assert shapes and set(shapes) == {n_distinct}
    if case in ("calendar", "ragged"):   # month and quarter repeat
        assert 4 * n_distinct <= ds.n_rows
    if case == "linear_leaves":
        assert any("lin_features" in str(e) for e in model.to_dict()["ensembles"])
    for mod in bound_modules("distinct_rows"):
        monkeypatch.setattr(mod, "distinct_rows", every_row_distinct)
    plain, _, _ = fit(family, case)
    # the two fits sum each node's gradients in different orders
    for a, b in zip(model.ensembles, plain.ensembles, strict=True):
        assert_close_trees(a, b, rtol=1e-10)
    np.testing.assert_allclose(model.predict_parameters(X)[0], plain.predict_parameters(X)[0],
                               rtol=1e-10, atol=0)


@pytest.mark.parametrize("family", ["hypertree", "treenet"])
def test_distinct_rows_runs_once_per_fit(family, monkeypatch):
    """The split matrix finds the fit's distinct rows, and the training
    update takes them from it."""
    calls = []
    distinct = boosting.distinct_rows

    def spy(X):
        calls.append(X.shape)
        return distinct(X)

    for mod in bound_modules("distinct_rows"):
        monkeypatch.setattr(mod, "distinct_rows", spy)
    _, ds, recipe = fit(family, "calendar")
    assert calls == [recipe.build(ds).X.shape]
