"""Property tests for the panels derived by row gather: drop, future."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from treecast.data import extend_timestamps, future_panel

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
