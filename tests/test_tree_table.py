"""The node-table evaluator against the recursive reference evaluator.

``tree_values`` and ``TreeEnsemble.predict`` lay trees out as a
``NodeTable`` and move every row through every tree one depth at a time;
``reference_engine.reference_tree_values`` walks each tree recursively.
Both must give the same values bit for bit on any tree and any X.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treecast import boosting
from treecast.boosting import BoostConfig, Leaf, NodeTable, Split, TreeEnsemble, tree_values

from reference_engine import reference_predict, reference_tree_values

# thresholds and numeric cells share this grid, so cells fall on thresholds
GRID = np.array([-2.0, -1.0, -0.5, 0.0, 0.25, 0.5, 1.0, 3.0])
CODES = np.arange(-2, 7)       # codes a categorical split may send left
ODD_CELLS = np.array([np.nan, np.inf, -np.inf])
ODD_CODES = np.array([-7.0, 11.0, 2.5, -0.5, 3.999, -1.25])   # unseen, negative, non-integer

# NaN and +-inf cells make the cast to a code and the linear terms warn, in
# the reference as in the table
pytestmark = pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")


def random_leaf(rng, n_feat):
    weight = float(rng.normal() * 10.0 ** rng.integers(-3, 3))
    if rng.random() < 0.5:
        return Leaf(weight)
    k = int(rng.integers(0, n_feat + 1))
    fids = tuple(int(f) for f in rng.choice(n_feat, k, replace=False))
    coef = tuple(float(c) for c in rng.normal(size=k) * 10.0 ** rng.integers(-2, 3, k))
    return Leaf(weight, intercept=weight, lin_features=fids, lin_coef=coef)


def random_tree(rng, kinds, max_depth, depth=0):
    if depth >= max_depth or rng.random() < 0.25:
        return random_leaf(rng, len(kinds))
    f = int(rng.integers(len(kinds)))
    left = random_tree(rng, kinds, max_depth, depth + 1)
    right = random_tree(rng, kinds, max_depth, depth + 1)
    gain = float(rng.exponential())
    if kinds[f] == "cat":
        codes = frozenset(int(c) for c in rng.choice(CODES, int(rng.integers(0, 5)),
                                                     replace=False))
        return Split(f, "cat", None, codes, left, right, gain)
    return Split(f, "num", float(rng.choice(GRID)), None, left, right, gain)


def random_X(rng, kinds, n):
    X = np.empty((n, len(kinds)))
    for f, kind in enumerate(kinds):
        if kind == "cat":
            X[:, f] = rng.choice(CODES, n)
            odd = rng.random(n) < 0.2
            X[odd, f] = rng.choice(ODD_CODES, int(odd.sum()))
        else:
            X[:, f] = np.where(rng.random(n) < 0.5, rng.choice(GRID, n), rng.normal(size=n))
        bad = rng.random(n) < 0.1
        X[bad, f] = rng.choice(ODD_CELLS, int(bad.sum()))
    return X


def random_case(seed):
    rng = np.random.default_rng(seed)
    n_feat = int(rng.integers(1, 5))
    kinds = tuple(str(k) for k in rng.choice(["num", "cat"], n_feat))
    n = int(rng.choice([0, 1, 2, int(rng.integers(3, 60))]))
    max_depth = int(rng.integers(0, 7))
    trees = [random_tree(rng, kinds, max_depth) for _ in range(int(rng.integers(1, 30)))]
    return trees, random_X(rng, kinds, n)


def reference_gain_by_feature(node, acc):
    """Summed gain per feature, left-first preorder, recursively."""
    if isinstance(node, Split):
        acc[node.feature] = acc.get(node.feature, 0.0) + node.gain
        reference_gain_by_feature(node.left, acc)
        reference_gain_by_feature(node.right, acc)
    return acc


def ensemble(trees, n_feat, lr=0.3, base=0.7):
    ens = TreeEnsemble(BoostConfig(learning_rate=lr), base=base, n_features=n_feat)
    ens.trees = trees
    return ens


def blocks_of(ens, X, cells):
    """predict(X) with a budget of ``cells``, and the (trees, rows) shape of
    every block it evaluated."""
    shapes = []
    evaluate = NodeTable.evaluate

    def spy(self, *args):
        out = evaluate(self, *args)
        shapes.append(out.shape)
        return out

    with mock.patch.object(boosting, "_GRID_CELLS", cells), \
            mock.patch.object(NodeTable, "evaluate", spy):
        return ens.predict(X), shapes


class TestOracle:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_tree_values_match_reference(self, seed):
        trees, X = random_case(seed)
        for tree in trees:
            got = tree_values(tree, X)
            assert got.shape == (len(X),)
            assert np.array_equal(got, reference_tree_values(tree, X), equal_nan=True)

    @given(st.integers(0, 2**32 - 1), st.sampled_from([boosting._GRID_CELLS, 1, 7, 64]))
    @settings(max_examples=200, deadline=None)
    def test_predict_matches_reference_in_blocks(self, seed, cells):
        trees, X = random_case(seed)
        ens = ensemble(trees, X.shape[1])
        got, shapes = blocks_of(ens, X, cells)
        assert np.array_equal(got, reference_predict(ens, X), equal_nan=True)
        # blocks cover every tree once, each within the cell budget
        assert sum(s[0] for s in shapes) == len(trees)
        assert all(s[0] == 1 or s[0] * s[1] <= cells for s in shapes)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_importances_match_recursive_preorder(self, seed):
        trees, X = random_case(seed)
        want: dict = {}
        for tree in trees:
            reference_gain_by_feature(tree, want)
        got = ensemble(trees, X.shape[1]).gain_importances()
        assert list(got.items()) == list(want.items())


class TestCases:
    def test_leaf_only_trees_and_zero_rows(self):
        trees = [Leaf(1.5), Leaf(-2.0, intercept=-2.0, lin_features=(1, 0), lin_coef=(0.5, 3.0))]
        for n in (0, 1, 4):
            X = np.arange(2.0 * n).reshape(n, 2)
            for tree in trees:
                assert np.array_equal(tree_values(tree, X), reference_tree_values(tree, X))
            ens = ensemble(trees, 2)
            assert np.array_equal(ens.predict(X), reference_predict(ens, X))
        assert ensemble([], 2).predict(np.zeros((3, 2))).tolist() == [0.7] * 3

    def test_many_blocks(self):
        rng = np.random.default_rng(5)
        kinds = ("num", "cat", "num")
        trees = [random_tree(rng, kinds, 5) for _ in range(50)]
        X = random_X(rng, kinds, 10)
        ens = ensemble(trees, 3)
        got, shapes = blocks_of(ens, X, 64)
        assert shapes == [(6, 10)] * 8 + [(2, 10)]
        assert np.array_equal(got, reference_predict(ens, X), equal_nan=True)

    def test_threshold_is_strict(self):
        tree = Split(0, "num", 1.0, None, Leaf(-1.0), Leaf(1.0), 1.0)
        X = np.array([[0.5], [1.0], [1.5], [np.nan], [-np.inf], [np.inf]])
        assert tree_values(tree, X).tolist() == [-1.0, 1.0, 1.0, 1.0, -1.0, 1.0]

    def test_codes_route_left(self):
        tree = Split(0, "cat", None, frozenset({-1, 2, 5}), Leaf(-1.0), Leaf(1.0), 1.0)
        X = np.array([[-1.0], [2.0], [5.0], [2.7], [-1.5], [0.0], [9.0], [np.nan]])
        with np.errstate(invalid="ignore"):
            got = tree_values(tree, X).tolist()
        assert got == [-1.0, -1.0, -1.0, -1.0, -1.0, 1.0, 1.0, 1.0]

    def test_linear_terms_add_in_stored_order(self):
        leaf = Leaf(0.0, intercept=0.0, lin_features=(0, 1, 0), lin_coef=(1.0, 1e16, -1e16))
        X = np.array([[1.0, 1.0]])
        # ((0 + 1) + 1e16) - 1e16 is 0 in stored order, 1 in reverse order
        assert tree_values(leaf, X).tolist() == [0.0]
        assert reference_tree_values(leaf, X).tolist() == [0.0]
