"""The MLP passes against the buffered reference passes, bit for bit.

``reference_mlp.ReferenceMlp`` writes every pass into an ``MlpScratch`` and
reads the ReLU mask from the pre-activation; ``treecast.treenet.Mlp``
allocates its arrays and reads the mask from the ReLU output.  The cases
cover pre-activations that are exactly 0 or NaN, dropout on and off, and
two live forward caches: the reference finishes each backward and
directional pass before its next forward (its scratch holds one cache), the
new passes take them from the first cache after a second forward.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from treecast.treenet import Mlp

from reference_mlp import MlpScratch, ReferenceMlp


def same(a, b):
    return np.array_equal(a, b, equal_nan=True)


@st.composite
def cases(draw):
    n = draw(st.integers(1, 12))
    k = draw(st.integers(1, 5))
    hidden = draw(st.integers(1, 8))
    P = draw(st.integers(1, 4))
    return {
        "shape": (n, k, hidden, P),
        "seed": draw(st.integers(0, 2**32 - 1)),
        "dropout": draw(st.sampled_from([0.0, 0.1, 0.5])),
        # rows of z and hidden biases set to 0 give pre-activations exactly 0
        "zero_rows": draw(st.lists(st.integers(0, n - 1), max_size=n)),
        "zero_units": draw(st.lists(st.integers(0, hidden - 1), max_size=hidden)),
        # a NaN input cell makes its row's pre-activations NaN
        "nan_cells": draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, k - 1)),
                                   max_size=2)),
        "steps": draw(st.integers(1, 3)),
    }


def networks(case):
    n, k, hidden, P = case["shape"]
    new = Mlp(k, hidden, P, np.random.default_rng(case["seed"]))
    ref = ReferenceMlp(k, hidden, P, np.random.default_rng(case["seed"]))
    for mlp in (new, ref):
        mlp.b1[case["zero_units"]] = 0.0
    rng = np.random.default_rng(case["seed"] + 1)
    z1 = rng.normal(size=(n, k))
    z1[case["zero_rows"]] = 0.0
    for i, j in case["nan_cells"]:
        z1[i, j] = np.nan
    z2 = rng.normal(size=(n, k))
    return new, ref, z1, z2, rng


@settings(max_examples=150, deadline=None)
@given(cases())
def test_passes_match_reference(case):
    new, ref, z1, z2, rng = networks(case)
    n, k, hidden, P = case["shape"]
    upstream = rng.normal(size=(n, P))
    dz = rng.normal(size=k)
    dropout = case["dropout"]

    with np.errstate(invalid="ignore"):
        scratch = MlpScratch(n, hidden, P)
        o1_ref, (_, a1_ref, r1_ref, scale_ref) = ref.forward(
            z1, dropout, np.random.default_rng(case["seed"] + 2), scratch)
        o1_ref, r1_ref = o1_ref.copy(), r1_ref.copy()
        grads_ref = ref.backward((z1, a1_ref, r1_ref, scale_ref), upstream, scratch)
        dir1_ref = ref.directional((z1, a1_ref, r1_ref, scale_ref), dz, scratch).copy()
        o2_ref, cache2_ref = ref.forward(z2, scratch=scratch)
        dir2_ref = ref.directional(cache2_ref, dz, scratch)

        o1, cache1 = new.forward(z1, dropout, np.random.default_rng(case["seed"] + 2))
        o2, cache2 = new.forward(z2)
        grads = new.backward(cache1, upstream)
        dir1 = new.directional(cache1, dz)
        dir2 = new.directional(cache2, dz)

    z, r1, scale = cache1
    assert z is z1 and same(r1, r1_ref)
    assert (scale is None) == (scale_ref is None) == (dropout == 0.0)
    assert scale is None or same(scale, scale_ref)
    assert same(o1, o1_ref) and same(o2, o2_ref)
    assert all(same(g, g_ref) for g, g_ref in zip(grads, grads_ref))
    assert same(dir1, dir1_ref) and same(dir2, dir2_ref)


@settings(max_examples=60, deadline=None)
@given(cases())
def test_adam_steps_match_reference(case):
    new, ref, z1, _, rng = networks(case)
    z1 = np.nan_to_num(z1)      # NaN gradients would freeze every weight at NaN
    y = rng.normal(size=(z1.shape[0], case["shape"][3]))
    drop_new = np.random.default_rng(case["seed"] + 2)
    drop_ref = np.random.default_rng(case["seed"] + 2)
    for _ in range(case["steps"]):
        o, cache = new.forward(z1, case["dropout"], drop_new)
        new.adam_step(new.backward(cache, 2.0 * (o - y)), 1e-2)
        o_ref, cache_ref = ref.forward(z1, case["dropout"], drop_ref)
        ref.adam_step(ref.backward(cache_ref, 2.0 * (o_ref - y)), 1e-2)
        assert same(o, o_ref)
        for name in ("W1", "b1", "W2", "b2"):
            assert same(getattr(new, name), getattr(ref, name))
