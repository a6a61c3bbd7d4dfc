"""The level-wise split engine against the node-by-node reference engine."""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from treecast import boosting
from treecast.boosting import (DENSE_ROWS_PER_VALUE, TIE_RTOL, BoostConfig, Leaf, Split,
                               SplitMatrix, TreeEnsemble)
from treecast.errors import NumericError

from reference_engine import (best_gain, grow_tree, numeric_candidates, reference_goes_left,
                              reference_grow_tree)


def assert_same_tree(a, b):
    if isinstance(a, Leaf):
        assert isinstance(b, Leaf)
        assert (a.weight, a.intercept, a.lin_features, a.lin_coef) == \
            (b.weight, b.intercept, b.lin_features, b.lin_coef)
        return
    assert isinstance(b, Split)
    assert (a.feature, a.kind, a.threshold, a.codes, a.gain) == \
        (b.feature, b.kind, b.threshold, b.codes, b.gain)
    assert_same_tree(a.left, b.left)
    assert_same_tree(a.right, b.right)


def random_panel(seed, integer_grads):
    """Rows with one low- and one high-cardinality column plus random extras.

    Column 0 has at most rows / DENSE_ROWS_PER_VALUE distinct values and
    column 1 one per row or nearly so, so both scan paths run; kinds, extra
    columns, masked rows (count 0, g = h = 0) and parameters are drawn.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(8, 90))
    n_feat = int(rng.integers(2, 5))
    kinds = tuple(str(k) for k in rng.choice(["num", "cat"], n_feat))
    X = np.empty((n, n_feat))
    for f in range(n_feat):
        if f == 0:
            card = int(rng.integers(2, n // DENSE_ROWS_PER_VALUE + 1))
        elif f == 1:
            card = n
        else:
            card = int(rng.choice([2, 3, n // 4, n // 2, n]))
        if kinds[f] == "cat":
            X[:, f] = rng.integers(0, card, n)
        else:
            X[:, f] = np.round(rng.normal(size=card), 3)[rng.integers(0, card, n)]
    if integer_grads:
        g = rng.integers(-6, 7, n).astype(np.float64)
        h = rng.integers(1, 4, n).astype(np.float64)
    else:
        g = rng.normal(size=n) * 10.0 ** rng.integers(-3, 4)
        h = rng.uniform(0.05, 3.0, n)
    counts = (rng.random(n) >= rng.choice([0.0, 0.2, 0.5])).astype(np.float64)
    g[counts == 0] = 0.0
    h[counts == 0] = 0.0
    params = BoostConfig(lam=float(rng.choice([0.0, 0.5, 1.0])),
                        max_depth=int(rng.integers(0, 5)),
                        min_leaf=int(rng.integers(1, 6)),
                        linear_leaves=bool(rng.integers(0, 2)),
                        linear_ridge=1e-6)
    return X, kinds, g, h, counts, params


def grow_both(X, kinds, g, h, counts, params):
    """Both engines' trees, or the NumericError both raise (a leaf with H + lambda = 0)."""
    out = []
    for grow in (grow_tree, reference_grow_tree):
        try:
            out.append(grow(X, kinds, g, h, np.arange(len(g)), params, counts, []))
        except NumericError as exc:
            out.append(type(exc))
    return out


class TestOracle:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_integer_gradients_give_identical_trees(self, seed):
        new, ref = grow_both(*random_panel(seed, integer_grads=True))
        if new is NumericError or ref is NumericError:
            assert new is ref
        else:
            assert_same_tree(new, ref)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_float_gradients_choose_the_best_gain(self, seed):
        X, kinds, g, h, counts, params = random_panel(seed, integer_grads=False)
        tree = grow_tree(X, kinds, g, h, np.arange(len(g)), params, counts)

        def check(node, rows):
            if isinstance(node, Leaf):
                return
            best = best_gain(X[rows], kinds, g[rows], h[rows], counts[rows], params.lam,
                             params.min_leaf)
            # the gain is a difference of terms as large as the parent's
            # G^2/(H+lambda): summation order moves it by rounding of that size
            G, H = g[rows].sum(), h[rows].sum()
            scale = abs(best) + G * G / (H + params.lam)
            assert abs(node.gain - best) <= TIE_RTOL * abs(best) + 1e-14 * scale
            left = reference_goes_left(node, X, rows)
            check(node.left, rows[left])
            check(node.right, rows[~left])

        check(tree, np.arange(len(g)))

    def test_grid_in_node_batches(self, monkeypatch):
        # a tiny cell budget scans every depth in several batches of nodes
        monkeypatch.setattr(boosting, "_GRID_CELLS", 64)
        for seed in range(60):
            new, ref = grow_both(*random_panel(seed, integer_grads=True))
            if new is NumericError or ref is NumericError:
                assert new is ref
            else:
                assert_same_tree(new, ref)


def same_splits_and_leaves(a, b):
    """Features, thresholds, codes and leaf values equal; gains returned in
    preorder, split by split, as (a's gain, b's gain)."""
    if isinstance(a, Leaf):
        assert isinstance(b, Leaf)
        assert (a.weight, a.intercept, a.lin_features, a.lin_coef) == \
            (b.weight, b.intercept, b.lin_features, b.lin_coef)
        return []
    assert isinstance(b, Split)
    assert (a.feature, a.kind, a.threshold, a.codes) == (b.feature, b.kind, b.threshold, b.codes)
    return ([(a.gain, b.gain)] + same_splits_and_leaves(a.left, b.left)
            + same_splits_and_leaves(a.right, b.right))


class TestSharedMatrix:
    """Several rounds of fresh g/h grown through one SplitMatrix, as the
    trainers do, against the reference engine.  Two columns are appended so
    that a sorted categorical and a sorted numeric column are always scanned;
    a small _GRID_CELLS splits every depth into batches and chunks."""

    @staticmethod
    def rounds(seed, integer_grads, cells):
        X, kinds, _, _, counts, params = random_panel(seed, integer_grads)
        rng = np.random.default_rng([seed, 1])
        n = len(X)
        # codes in pairs: n // 2 or more levels, always past the dense rule
        X = np.column_stack([X, rng.permutation(n) // 2,
                             np.round(rng.normal(size=n), 2)])
        kinds = kinds + ("cat", "num")
        matrix = SplitMatrix(X, kinds)
        assert set(matrix.sparse) >= {len(kinds) - 2, len(kinds) - 1}
        ensemble = TreeEnsemble(params)
        for _ in range(3):
            if integer_grads:
                g = rng.integers(-6, 7, n).astype(np.float64)
                h = rng.integers(1, 4, n).astype(np.float64)
            else:
                g = rng.normal(size=n) * 10.0 ** rng.integers(-3, 4)
                h = rng.uniform(0.05, 3.0, n)
            g[counts == 0] = 0.0
            h[counts == 0] = 0.0
            trees = []
            for grow in (lambda: ensemble.boost_round(matrix, g, h, counts, []),
                         lambda: reference_grow_tree(X, kinds, g, h, np.arange(n), params,
                                                     counts, [])):
                try:
                    with mock.patch.object(boosting, "_GRID_CELLS", cells):
                        trees.append(grow())
                except NumericError as exc:
                    trees.append(type(exc))
            yield trees, g, h

    @given(st.integers(0, 2**32 - 1), st.sampled_from([boosting._GRID_CELLS, 64]))
    @settings(max_examples=150, deadline=None)
    def test_integer_gradients_give_identical_trees(self, seed, cells):
        for (new, ref), _, _ in self.rounds(seed, True, cells):
            if new is NumericError or ref is NumericError:
                assert new is ref
            else:
                assert_same_tree(new, ref)

    @given(st.integers(0, 2**32 - 1), st.sampled_from([boosting._GRID_CELLS, 64]))
    @settings(max_examples=150, deadline=None)
    def test_float_gradients_give_the_same_splits(self, seed, cells):
        for (new, ref), g, h in self.rounds(seed, False, cells):
            if new is NumericError or ref is NumericError:
                assert new is ref
                continue
            for got, want in same_splits_and_leaves(new, ref):
                # as in test_float_gradients_choose_the_best_gain, up to the
                # rounding of the parent's terms (bounded here by the root's)
                scale = abs(want) + g.sum() ** 2 / h.sum()
                assert abs(got - want) <= TIE_RTOL * abs(want) + 1e-14 * scale


def test_cardinality_rule_picks_the_scan_path():
    X, kinds, *_ = random_panel(3, integer_grads=True)
    matrix = SplitMatrix(X, kinds)
    assert 0 in matrix.dense and 1 in matrix.sparse


def _tie_gradients(rng, left):
    return np.where(left, -1.0, 0.7) + rng.uniform(-0.05, 0.05, len(left)) / 3.0


class TestTieBreak:
    """Two columns induce the same best partition but sum in different orders.

    With these seeds the second column's gain, summed by a sorted scan, is
    the larger by rounding alone, so a strict maximum would take it.
    """

    def test_grid_columns_month_and_quarter(self):
        month = np.tile(np.arange(1.0, 13.0), 10)
        quarter = (month - 1) // 3 + 1
        g = _tie_gradients(np.random.default_rng(0), month <= 3)
        h = np.ones(len(g))
        params = BoostConfig(lam=1.0, max_depth=1, min_leaf=1)
        gains = [max(numeric_candidates(col, g, h, h, 1.0, 1))[0] for col in (month, quarter)]
        assert gains[0] < gains[1]
        for cols, thr in (((month, quarter), 3.5), ((quarter, month), 1.5)):
            X = np.column_stack(cols)
            tree = grow_tree(X, ("num", "num"), g, h, np.arange(len(g)), params)
            assert (tree.feature, tree.threshold) == (0, thr)
            ref = reference_grow_tree(X, ("num", "num"), g, h, np.arange(len(g)), params)
            assert (ref.feature, ref.threshold) == (0, thr)

    def test_sorted_columns(self):
        n = 40
        rng = np.random.default_rng(3)
        a = rng.permutation(n).astype(np.float64)
        left = a < n // 2
        b = np.empty(n)  # the same partition at the median, another order on each side
        b[left] = rng.permutation(n // 2)
        b[~left] = n // 2 + rng.permutation(n // 2)
        g = _tie_gradients(rng, left)
        h = np.ones(n)
        params = BoostConfig(lam=1.0, max_depth=1, min_leaf=1)
        gains = [max(numeric_candidates(col, g, h, h, 1.0, 1))[0] for col in (a, b)]
        assert gains[0] < gains[1]
        for cols in ((a, b), (b, a)):
            X = np.column_stack(cols)
            assert list(SplitMatrix(X, ("num", "num")).sparse) == [0, 1]
            tree = grow_tree(X, ("num", "num"), g, h, np.arange(n), params)
            assert (tree.feature, tree.threshold) == (0, n // 2 - 0.5)
