"""``boosting.Booster`` against the trees it grew, after every round.

The booster keeps the training outputs F at the fit's distinct rows and
adds each new tree's values there.  The oracle is the ensembles
themselves, evaluated on every row of X: ``predict`` with a zero start,
and the sum of ``tree_values`` in round order with a drawn one.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from treecast import boosting
from treecast.boosting import BoostConfig, Booster
from treecast.data import FeatureSet


def column(rng, kind, n):
    """n cells of one feature column.  ``adjacent`` draws from four
    consecutive floats, so a split's midpoint falls between neighbours."""
    if kind == "cat":
        return rng.integers(0, 5, n).astype(np.float64)
    if kind == "adjacent":
        ladder = [rng.normal(0, 100)]
        for _ in range(3):
            ladder.append(np.nextafter(ladder[-1], np.inf))
        return rng.choice(np.array(ladder), n)
    return np.round(rng.normal(0, 1, n), int(rng.integers(0, 3)))


@st.composite
def fits(draw):
    """(FeatureSet, count weight, targets y (N, E), BoostConfig, rng): base
    rows tiled or resampled (or as drawn), some rows outside the weight."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cols = draw(st.lists(st.sampled_from(["num", "adjacent", "cat"]), min_size=1, max_size=3))
    n_base = draw(st.integers(2, 30))
    base = np.column_stack([column(rng, kind, n_base) for kind in cols])
    layout = draw(st.sampled_from(["as_drawn", "tiled", "resampled"]))
    if layout == "tiled":
        X = np.tile(base, (draw(st.integers(2, 4)), 1))
    elif layout == "resampled":
        X = base[rng.integers(0, n_base, draw(st.integers(2, 90)))]
    else:
        X = base
    kinds = tuple("cat" if kind == "cat" else "num" for kind in cols)
    fs = FeatureSet(X, tuple(f"x{i}" for i in range(len(cols))), kinds)
    weight = rng.random(len(X)) >= draw(st.sampled_from([0.0, 0.3]))
    n_ens = draw(st.integers(1, 3))
    y = rng.normal(0, 1, (len(X), n_ens)) + X[:, :1]
    params = BoostConfig(rounds=draw(st.integers(1, 4)),
                         learning_rate=draw(st.sampled_from([0.1, 0.3, 1.0])),
                         lam=draw(st.sampled_from([0.1, 1.0])),
                         max_depth=draw(st.integers(1, 4)), min_leaf=draw(st.integers(1, 3)),
                         linear_leaves=draw(st.booleans()))
    return fs, weight, y, params, rng


@given(fits())
@settings(max_examples=80, deadline=None)
def test_outputs_are_the_trees_summed_over_every_row(fit):
    fs, weight, y, params, rng = fit
    n_ens = y.shape[1]
    start = rng.normal(0, 10, n_ens)
    zero, drawn = Booster(fs, params, weight, np.zeros(n_ens)), Booster(fs, params, weight, start)
    want = np.tile(start, (len(fs.X), 1))
    for _ in range(params.rounds):
        # squared-error gradients, zero outside the count weight as the trainers pass them
        g = np.where(weight[:, None], 2.0 * (zero.outputs() - y), 0.0)
        h = np.where(weight[:, None], np.full(g.shape, 2.0), 0.0)
        zero.round(g, h)
        drawn.round(g, h)
        for j, ens in enumerate(zero.ensembles):
            assert np.array_equal(zero.outputs()[:, j], ens.predict(fs.X))
        for j, ens in enumerate(drawn.ensembles):
            want[:, j] += params.learning_rate * boosting.tree_values(ens.trees[-1], fs.X)
        assert np.array_equal(drawn.outputs(), want)
    assert all(len(ens.trees) == params.rounds for ens in zero.ensembles + drawn.ensembles)
