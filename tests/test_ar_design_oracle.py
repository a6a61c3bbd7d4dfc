"""The AR target's lag design against the loops it replaced
(``reference_lags``), on random panels with short series and masked rows."""

import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treecast.baselines import fit_ols_ar
from treecast.errors import DataError
from treecast.targets import TargetSpec

from conftest import make_panel
from reference_lags import build_lags, ols_ar_design


@st.composite
def cases(draw):
    """(panel of 1-4 series of 1-30 rows with a few rows masked, p in 1..6)."""
    lengths = draw(st.lists(st.integers(1, 30), min_size=1, max_size=4))
    n = sum(lengths)
    y = draw(st.lists(st.floats(-100.0, 100.0, allow_nan=False), min_size=n, max_size=n))
    bounds = np.cumsum([0] + lengths)
    ds = make_panel({f"s{i}": y[a:b] for i, (a, b) in enumerate(zip(bounds, bounds[1:]))})
    masked = draw(st.lists(st.integers(0, n - 1), max_size=3))
    mask = np.ones(n, dtype=bool)
    mask[masked] = False
    return replace(ds, mask=mask), draw(st.integers(1, 6))


def recorded(fn, *args):
    """(fn's result, the messages of the warnings it raised)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = fn(*args)
    return out, {str(w.message) for w in caught}


@given(cases(), st.booleans())
@settings(max_examples=60, deadline=None)
def test_design_matches_reference(case, intercept):
    ds, p = case
    target = TargetSpec("ar", p=p).target
    (lags, lag_valid), want_warnings = recorded(build_lags, ds, p)
    (weight, _), got_warnings = recorded(target.design, ds)
    assert np.array_equal(weight, lag_valid & ds.mask)
    assert got_warnings == want_warnings

    (bound_weight, (X, _, _)), _ = recorded(target.bind, ds)
    assert np.array_equal(bound_weight, weight)
    assert np.array_equal(X, np.where(weight[:, None], lags, 0.0))

    for i in range(ds.n_series):
        y = ds.y[ds.rows_of(i)]
        if len(y) < 2 * p + 1:
            continue
        R, t = ols_ar_design(y, p)
        design = np.column_stack([np.ones(len(t)), R]) if intercept else R
        sol, _, rank, _ = np.linalg.lstsq(design, t, rcond=None)
        if rank < design.shape[1]:
            with pytest.raises(DataError, match="rank-deficient"):
                fit_ols_ar(y, p, intercept)
            continue
        ols = fit_ols_ar(y, p, intercept)
        assert np.array_equal(ols.coefficients, sol[1:] if intercept else sol)
        assert ols.intercept == (float(sol[0]) if intercept else None)
