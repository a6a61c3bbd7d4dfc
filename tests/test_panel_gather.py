"""Property tests for the panels derived by row gather: pad, drop, future."""

import dataclasses
import warnings

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from treecast.data import extend_timestamps, future_panel, pad_for_ets

from conftest import drop_last, make_panel


@st.composite
def panels(draw):
    """1-4 series of random lengths with one categorical and one numeric
    column."""
    lengths = draw(st.lists(st.integers(1, 14), min_size=1, max_size=4))
    frequency = draw(st.sampled_from(["monthly", "daily", "yearly"]))
    n = sum(lengths)
    floats = st.floats(0.5, 100.0, allow_nan=False)
    y = draw(st.lists(floats, min_size=n, max_size=n))
    cat = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    num = draw(st.lists(floats, min_size=n, max_size=n))
    bounds = np.cumsum([0] + lengths)
    return make_panel({f"s{i}": y[a:b] for i, (a, b) in enumerate(zip(bounds, bounds[1:]))},
                      frequency=frequency, cat={"kind": cat}, num={"price": num})


def assert_panels_equal(a, b, skip_num=()):
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if f.name in ("cat", "num"):
            x = {k: v for k, v in x.items() if k not in skip_num}
            y = {k: v for k, v in y.items() if k not in skip_num}
            assert x.keys() == y.keys(), f.name
            for k in x:
                assert np.array_equal(x[k], y[k]), (f.name, k)
        elif isinstance(x, np.ndarray):
            assert np.array_equal(x, y, equal_nan=x.dtype.kind == "f"), f.name
        else:
            assert x == y, f.name


def quiet(fn, *args):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return fn(*args)


@given(panels())
@settings(max_examples=150, deadline=None)
def test_pad_copies_tail_and_last_covariates(ds):
    padded = quiet(pad_for_ets, ds)
    max_len = max(len(s) for s in ds.series)
    assert np.array_equal(padded.num["is_pad"] == 1.0, ~padded.mask)
    for i, s in enumerate(ds.series):
        old, new = ds.rows_of(i), padded.rows_of(i)
        n, k = len(old), max_len - len(old)
        assert len(padded.series[i]) == len(new) == max_len
        assert padded.series[i].timestamps[:n] == s.timestamps
        real, pad = new[:n], new[n:]
        assert padded.mask[real].all() and not padded.mask[pad].any()
        assert np.array_equal(padded.y[real], ds.y[old])
        tail = ds.y[old][-min(k, n):] if k else ds.y[old][:0]
        assert np.array_equal(padded.y[pad], np.tile(tail, k)[:k])
        for cols, old_cols in ((padded.cat, ds.cat), (padded.num, ds.num)):
            for name, col in old_cols.items():
                assert np.array_equal(cols[name][real], col[old])
                assert (cols[name][pad] == col[old[-1]]).all()


@given(panels(), st.integers(1, 5))
@settings(max_examples=150, deadline=None)
def test_future_ignores_padding(ds, h):
    assert_panels_equal(future_panel(quiet(pad_for_ets, ds), h), future_panel(ds, h),
                        skip_num=("is_pad",))


@given(panels(), st.integers(1, 5), st.integers(1, 5))
@settings(max_examples=150, deadline=None)
def test_future_after_drop_continues_from_shortened_end(ds, d, h):
    assume(min(len(s) for s in ds.series) > d)
    fut = future_panel(drop_last(ds, d), h)
    for i, s in enumerate(ds.series):
        end = len(s) - d  # rows kept
        rows = fut.rows_of(i)
        assert fut.series[i].timestamps == tuple(
            extend_timestamps(s.timestamps[end - 1], ds.frequency, h))
        # the future rows retrace the dropped rows, as far as those reach
        assert fut.series[i].timestamps[:d] == s.timestamps[end:end + h]
        assert np.array_equal(fut.time_index[rows], np.arange(end, end + h))
        last = ds.rows_of(i)[end - 1]
        assert (fut.cat["kind"][rows] == ds.cat["kind"][last]).all()
        assert (fut.num["price"][rows] == ds.num["price"][last]).all()
