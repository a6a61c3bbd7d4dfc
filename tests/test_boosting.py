import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treecast.boosting import (HESS_FLOOR, BoostConfig, Leaf, Split, SplitMatrix,
                               TreeEnsemble, fit_linear_leaf, floor_hessian, leaf_weight)
from treecast.errors import NumericError

from reference_engine import grow_tree, split_gain


class TestLeafWeight:
    def test_direct_formula(self):
        assert leaf_weight(2.0, 3.0, 1.0) == -0.5

    def test_zero_gradient(self):
        assert leaf_weight(0.0, 5.0, 2.0) == 0.0

    def test_negative_gradient(self):
        assert leaf_weight(-4.0, 1.0, 0.0) == 4.0

    def test_guard(self):
        with pytest.raises(NumericError):
            leaf_weight(1.0, 0.0, 0.0)

    @given(st.floats(-100, 100), st.floats(0.01, 100), st.floats(0, 10))
    def test_newton_step_minimizes_leaf_objective(self, G, H, lam):
        # w* minimizes G w + 0.5 (H + lam) w^2
        w = leaf_weight(G, H, lam)
        obj = lambda x: G * x + 0.5 * (H + lam) * x * x
        assert obj(w) <= obj(w + 1e-3) + 1e-12
        assert obj(w) <= obj(w - 1e-3) + 1e-12


class TestSplitGain:
    def test_direct_formula(self):
        assert split_gain(-2.0, 1.0, 4.0, 1.0, 0.0) == 18.0

    def test_symmetric_halves(self):
        assert split_gain(1.0, 1.0, 1.0, 1.0, 0.0) == 0.0

    def test_identical_rows_no_gain(self):
        g, h = 0.7, 1.3
        for nl in (1, 2, 3):
            nr = 4 - nl
            assert split_gain(nl * g, nl * h, nr * g, nr * h, 0.0) == pytest.approx(0.0, abs=1e-12)

    @given(
        st.lists(st.tuples(st.floats(-5, 5), st.floats(0.1, 5)), min_size=2, max_size=20),
        st.integers(1, 19),
        st.floats(0, 5),
    )
    @settings(max_examples=60)
    def test_gain_matches_bruteforce_objective_reduction(self, rows, cut, lam):
        # objective at the Newton optimum of sum_i (g_i w + h_i w^2 / 2) + lam w^2 / 2
        if cut >= len(rows):
            cut = len(rows) - 1
        g = np.array([r[0] for r in rows])
        h = np.array([r[1] for r in rows])

        def best_obj(gs, hs):
            G, H = gs.sum(), hs.sum()
            w = -G / (H + lam)
            return G * w + 0.5 * (H + lam) * w * w

        reduction = best_obj(g[:cut], h[:cut]) + best_obj(g[cut:], h[cut:]) - best_obj(g, h)
        gain = split_gain(g[:cut].sum(), h[:cut].sum(), g[cut:].sum(), h[cut:].sum(), lam)
        assert gain == pytest.approx(-2.0 * reduction, rel=1e-9, abs=1e-9)


def params(**kw):
    defaults = dict(learning_rate=0.1, lam=0.0, max_depth=6, min_leaf=1)
    defaults.update(kw)
    return BoostConfig(**defaults)


class TestGrowTree:
    def test_all_zero_gradients_single_leaf(self):
        X = np.arange(10.0).reshape(-1, 1)
        g = np.zeros(10)
        h = np.ones(10)
        tree = grow_tree(X, ("num",), g, h, np.arange(10), params())
        assert isinstance(tree, Leaf)
        assert tree.weight == 0.0

    def test_perfect_separation(self):
        X = np.array([[0.0], [1.0]])
        g = np.array([-1.0, 1.0])
        h = np.array([1.0, 1.0])
        tree = grow_tree(X, ("num",), g, h, np.arange(2), params())
        assert isinstance(tree, Split)
        assert tree.threshold == 0.5
        assert tree.left.weight == 1.0 and tree.right.weight == -1.0

    @pytest.mark.parametrize("lo, hi", [(1.0, np.nextafter(1.0, np.inf)), (1e308, 1.7e308)])
    @pytest.mark.parametrize("linear_leaves", [False, True])
    def test_split_parts_values_their_midpoint_cannot(self, lo, hi, linear_leaves):
        """The midpoint of adjacent floats rounds to the lower one, and that
        of two huge values overflows; either split would send every row one
        way.  The threshold is then the upper value."""
        X = np.array([[lo], [hi]] * 3)
        g = np.array([-1.0, 1.0] * 3)
        assert not lo < 0.5 * (lo + hi) <= hi
        tree = grow_tree(X, ("num",), g, np.ones(6), np.arange(6),
                         params(min_leaf=1, linear_leaves=linear_leaves))
        assert isinstance(tree, Split) and tree.threshold == hi
        assert tree.left.weight > 0 > tree.right.weight

    def test_depth_zero_global_newton_step(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(20, 2))
        g = rng.normal(size=20)
        h = np.abs(rng.normal(size=20)) + 0.1
        tree = grow_tree(X, ("num", "num"), g, h, np.arange(20), params(max_depth=0, lam=1.0))
        assert isinstance(tree, Leaf)
        assert tree.weight == pytest.approx(-g.sum() / (h.sum() + 1.0))

    def test_min_leaf_respected(self):
        X = np.array([[0.0], [1.0], [1.0], [1.0]])
        g = np.array([-3.0, 1.0, 1.0, 1.0])
        h = np.ones(4)
        tree = grow_tree(X, ("num",), g, h, np.arange(4), params(min_leaf=2))
        assert isinstance(tree, Leaf)  # isolating row 0 would leave one row

    def test_tie_break_lowest_feature_then_threshold(self):
        # identical split available on both features; choose feature 0
        X = np.array([[0.0, 0.0], [1.0, 1.0]])
        g = np.array([-1.0, 1.0])
        h = np.ones(2)
        tree = grow_tree(X, ("num", "num"), g, h, np.arange(2), params())
        assert tree.feature == 0

    def test_categorical_split(self):
        codes = np.array([0, 0, 1, 1, 2, 2], dtype=np.float64)
        g = np.array([-2.0, -2.0, 3.0, 3.0, -2.0, -2.0])
        h = np.ones(6)
        tree = grow_tree(codes.reshape(-1, 1), ("cat",), g, h, np.arange(6), params())
        assert isinstance(tree, Split)
        assert tree.kind == "cat"
        assert tree.codes in (frozenset({0, 2}), frozenset({1}))

    def test_greedy_matches_exhaustive_small(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            n = rng.integers(2, 9)
            X = rng.integers(0, 4, size=(n, 2)).astype(np.float64)
            g = rng.integers(-3, 4, size=n).astype(np.float64)
            h = rng.integers(1, 4, size=n).astype(np.float64)
            lam = 1.0
            best = 0.0
            for f in (0, 1):
                for thr in np.unique(X[:, f])[:-1]:
                    left = X[:, f] <= thr
                    gain = split_gain(g[left].sum(), h[left].sum(),
                                      g[~left].sum(), h[~left].sum(), lam)
                    best = max(best, gain)
            tree = grow_tree(X, ("num", "num"), g, h, np.arange(n),
                             params(lam=lam, max_depth=1))
            got = tree.gain if isinstance(tree, Split) else 0.0
            assert got == best


class TestEnsemble:
    def test_empty_ensemble_base_everywhere(self):
        ens = TreeEnsemble(params(), base=3.5, n_features=1)
        X = np.zeros((4, 1))
        assert np.array_equal(ens.predict(X), np.full(4, 3.5))

    def test_single_leaf_tree(self):
        ens = TreeEnsemble(params(learning_rate=0.5), base=1.0, n_features=1)
        ens.trees.append(Leaf(2.0))
        assert np.array_equal(ens.predict(np.zeros((3, 1))), np.full(3, 2.0))

    def test_zero_learning_rate_no_change(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(30, 2))
        g = rng.normal(size=30)
        h = np.ones(30)
        ens = TreeEnsemble(BoostConfig(learning_rate=0.0, lam=1.0), n_features=2)
        before = ens.predict(X)
        ens.boost_round(SplitMatrix(X, ("num", "num")), g, h)
        assert np.array_equal(ens.predict(X), before)

    def test_schema_error_on_wrong_feature_count(self):
        from treecast.errors import SchemaError

        ens = TreeEnsemble(params(), base=0.0, n_features=3)
        with pytest.raises(SchemaError):
            ens.predict(np.zeros((4, 2)))

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(50, 2))
        g = rng.normal(size=50)
        h = np.ones(50)
        ens = TreeEnsemble(params(lam=1.0), n_features=2)
        ens.boost_round(SplitMatrix(X, ("num", "num")), g, h)
        perm = rng.permutation(50)
        assert np.array_equal(ens.predict(X)[perm], ens.predict(X[perm]))

    def test_two_rounds_reduce_mse(self):
        # fixed random regression dataset built up-front
        rng = np.random.default_rng(7)
        X = rng.uniform(0, 1, size=(80, 2))
        y = 3.0 * (X[:, 0] > 0.5) - 2.0 * (X[:, 1] > 0.3) + rng.normal(0, 0.1, 80)
        ens = TreeEnsemble(params(lam=1.0, learning_rate=0.3), n_features=2)

        def mse():
            return float(np.mean((ens.predict(X) - y) ** 2))

        losses = [mse()]
        for _ in range(2):
            pred = ens.predict(X)
            g = 2.0 * (pred - y)
            h = np.full(80, 2.0)
            ens.boost_round(SplitMatrix(X, ("num", "num")), g, h)
            losses.append(mse())
        assert losses[1] < losses[0]
        assert losses[2] < losses[1]

    def test_monotone_loss_50_rounds(self):
        rng = np.random.default_rng(11)
        X = rng.uniform(0, 1, size=(60, 2))
        y = np.sin(6 * X[:, 0]) + X[:, 1]
        ens = TreeEnsemble(BoostConfig(learning_rate=0.3, lam=1.0, max_depth=4,
                                      min_leaf=5), n_features=2)
        matrix = SplitMatrix(X, ("num", "num"))
        prev = np.inf
        for _ in range(50):
            pred = ens.predict(X)
            loss = float(np.mean((pred - y) ** 2))
            assert loss <= prev + 1e-12
            prev = loss
            ens.boost_round(matrix, 2.0 * (pred - y), np.full(60, 2.0))

    def test_determinism_bit_identical(self):
        def build():
            rng = np.random.default_rng(3)
            X = rng.normal(size=(40, 3))
            y = rng.normal(size=40)
            ens = TreeEnsemble(params(lam=1.0), n_features=3)
            matrix = SplitMatrix(X, ("num", "num", "num"))
            for _ in range(5):
                pred = ens.predict(X)
                ens.boost_round(matrix, 2 * (pred - y), np.full(40, 2.0))
            return json.dumps(ens.to_dict())

        assert build() == build()

    def test_serialization_roundtrip_bit_exact(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(40, 2))
        y = rng.normal(size=40)
        ens = TreeEnsemble(BoostConfig(lam=0.7, learning_rate=0.13, max_depth=3,
                                      min_leaf=2), n_features=2)
        matrix = SplitMatrix(X, ("num", "num"))
        for _ in range(4):
            pred = ens.predict(X)
            ens.boost_round(matrix, 2 * (pred - y), np.full(40, 2.0))
        text = json.dumps(ens.to_dict())
        back = TreeEnsemble.from_dict(json.loads(text))
        assert np.array_equal(ens.predict(X), back.predict(X))
        assert json.dumps(back.to_dict()) == text


class TestLinearLeaf:
    def test_constant_features_intercept_is_leaf_weight(self):
        g = np.array([1.0, 2.0, -1.0])
        h = np.array([1.0, 1.0, 1.0])
        Xn = np.ones((3, 1))
        b0, fids, coef, ok = fit_linear_leaf(Xn, [0], g, h, lam=1.0, ridge=0.1)
        assert ok and fids == () and coef == ()
        assert b0 == leaf_weight(g.sum(), h.sum(), 1.0)

    def test_recovers_exact_linear_relation(self):
        # response -g/h = 2x exactly; ridge -> 0 recovers the slope
        x = np.linspace(-1, 3, 12)
        h = np.full(12, 2.0)
        g = -2.0 * x * h
        b0, fids, coef, ok = fit_linear_leaf(x.reshape(-1, 1), [5], g, h,
                                             lam=0.0, ridge=1e-12)
        assert ok and fids == (5,)
        assert coef[0] == pytest.approx(2.0, abs=1e-8)
        assert b0 == pytest.approx(0.0, abs=1e-8)

    def test_huge_ridge_shrinks_coefficients(self):
        x = np.linspace(-1, 3, 12)
        h = np.full(12, 2.0)
        g = -2.0 * x * h
        _, _, coef, ok = fit_linear_leaf(x.reshape(-1, 1), [0], g, h,
                                         lam=0.0, ridge=1e12)
        assert ok
        assert abs(coef[0]) < 1e-6

    def test_linear_mode_in_tree(self):
        # y = 2x learned by one linear-leaf tree at the root
        x = np.linspace(0, 1, 20)
        y = 2.0 * x
        ens = TreeEnsemble(BoostConfig(learning_rate=1.0, lam=0.0, max_depth=1,
                                      min_leaf=5, linear_leaves=True,
                                      linear_ridge=1e-10), n_features=1)
        pred = ens.predict(x.reshape(-1, 1))
        ens.boost_round(SplitMatrix(x.reshape(-1, 1), ("num",)), 2 * (pred - y),
                        np.full(20, 2.0))
        pred = ens.predict(x.reshape(-1, 1))
        assert np.allclose(pred, y, atol=1e-6)


def test_floor_hessian_masked_rows_stay_zero():
    h = np.array([0.0, 1e-9, 2.0])
    mask = np.array([False, True, True])
    out = floor_hessian(h, mask)
    assert out[0] == 0.0
    assert out[1] == HESS_FLOOR
    assert out[2] == 2.0
    # (N, P) with N == P: a mask broadcast along columns instead of rows
    # still gives the right shape, so only the values catch it
    h2 = np.array([[0.0, 1e-9, 2.0], [3.0, 0.0, -1.0], [1e-9, 5.0, 0.5]])
    out2 = floor_hessian(h2, mask)
    assert out2.tolist() == [[0.0, 0.0, 0.0], [3.0, HESS_FLOOR, HESS_FLOOR],
                             [HESS_FLOOR, 5.0, 0.5]]
