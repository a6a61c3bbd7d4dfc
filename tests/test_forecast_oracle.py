"""Panel-wide forecasts against the per-series reference loops, bit for bit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treecast.baselines import BaselineModel, forecast_baseline
from treecast.errors import DataError, NumericError
from treecast.hypertree import forecast
from treecast.targets import KINDS, TargetSpec, ar_forecast

import reference_forecast as ref
from conftest import make_panel
from reference_ets import EtsState

# panels with series shorter than p + 1 are drawn on purpose
pytestmark = pytest.mark.filterwarnings("ignore:series .* excluded from lag training")


class DrawnParameters:
    """A model whose parameters are drawn afresh, the same for the same
    panel: the link of standard normal raw values, AR coefficients scaled
    down so the recursion stays finite."""

    def __init__(self, spec, seed):
        self.spec, self.seed = spec, seed

    def parameters(self, ds):
        rng = np.random.default_rng([self.seed, ds.n_rows])
        raw = rng.normal(0, 1, (ds.n_rows, self.spec.param_count))
        if self.spec.kind == "ar":
            raw *= 0.5 / self.spec.p
        return self.spec.target.link(raw)


def draw_spec(draw, kind):
    if kind == "ar":
        return TargetSpec(kind, p=draw(st.integers(1, 5)))
    if kind in ("ets", "ets_linear"):
        return TargetSpec(kind, m=draw(st.sampled_from([1, 2, 4, 12])),
                          damping=draw(st.sampled_from(["power", "cumprod"])))
    if kind == "stl":
        return TargetSpec(kind, n_season=draw(st.integers(1, 3)),
                          period=draw(st.sampled_from([4, 12])))
    return TargetSpec(kind)


@st.composite
def panels(draw, kinds=tuple(KINDS)):
    """A panel of 1-4 positive series of unequal length (possibly shorter
    than p for AR), a horizon and a seed."""
    spec = draw_spec(draw, draw(st.sampled_from(kinds)))
    lengths = draw(st.lists(st.integers(1, 30), min_size=1, max_size=4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    panel = make_panel({
        f"s{i}": 20 + 5 * np.sin(np.arange(n)) + rng.uniform(0, 3, n)
        for i, n in enumerate(lengths)
    })
    return spec, panel, draw(st.integers(1, 13)), draw(st.integers(0, 99))


def outcome(fn):
    """(None, fn()'s value), or (the type and text of the data or numeric
    error it raised, None)."""
    try:
        return None, fn()
    except (DataError, NumericError) as exc:
        return (type(exc), str(exc)), None


def assert_same(ds, h, got, want):
    """The panel forecast (S, h) grid and future series equal the reference's
    per-series forecasts and timestamps, bit for bit; or both raised the
    same error."""
    (got_error, got), (want_error, want) = got, want
    assert got_error == want_error
    if want_error:
        return
    fc, future = got
    assert fc.shape == (ds.n_series, h)
    assert [s.series_id for s in future] == list(want)
    for row, s in zip(fc, future):
        values, stamps = want[s.series_id]
        assert np.array_equal(row, values)
        assert list(s.timestamps) == stamps


def check_kind(spec, ds, h, seed, average):
    model = DrawnParameters(spec, seed)
    got = outcome(lambda: forecast(model, ds, h, average=average))
    assert_same(ds, h, got, outcome(lambda: ref.forecast(model, ds, h, average=average)))


def check_ar_baseline(spec, ds, h, seed, intercept):
    rng = np.random.default_rng(seed)
    per_series = {s.series_id: {"coefficients": list(rng.normal(0, 0.5 / spec.p, spec.p)),
                                "intercept": float(rng.normal(0, 3)) if intercept else None}
                  for s in ds.series}
    model = BaselineModel(spec, intercept, per_series, None)
    got = outcome(lambda: forecast_baseline(model, ds, h))
    assert_same(ds, h, got, outcome(lambda: ref.forecast_baseline(model, ds, h)))


@pytest.mark.parametrize("kind", list(KINDS))
@given(data=st.data(), average=st.booleans())
@settings(max_examples=30, deadline=None)
def test_every_kind_matches_reference(kind, data, average):
    check_kind(*data.draw(panels(kinds=(kind,))), average)


@given(panels(kinds=("ar",)), st.booleans())
@settings(max_examples=40, deadline=None)
def test_ar_baseline_matches_reference(case, intercept):
    spec, ds, h, seed = case
    check_ar_baseline(spec, ds, h, seed, intercept)


@pytest.mark.parametrize("kind", list(KINDS))
@pytest.mark.parametrize("average", [False, True])
def test_one_series_one_step(kind, average):
    spec = TargetSpec(kind, p=3, m=4)
    ds = make_panel({"a": 20 + np.arange(10.0)})
    check_kind(spec, ds, 1, 5, average)
    if kind == "ar":
        for intercept in (False, True):
            check_ar_baseline(spec, ds, 1, 5, intercept)


def test_short_series_names_first_in_series_order():
    spec = TargetSpec("ar", p=4)
    ds = make_panel({"a": np.ones(6), "b": np.ones(2), "c": np.ones(3)})
    msg = "series 'b': an AR(4) forecast needs 4 observed values, got 2"
    with pytest.raises(DataError) as err:
        forecast(DrawnParameters(spec, 0), ds, 3)
    assert str(err.value) == msg
    check_kind(spec, ds, 3, 0, False)
    for intercept in (False, True):
        check_ar_baseline(spec, ds, 3, 0, intercept)


@pytest.mark.parametrize("kind", ["ets", "ets_linear"])
@pytest.mark.parametrize("damping", ["power", "cumprod"])
def test_damped_forecast_matches_reference_on_many_series(kind, damping):
    """Enough series and steps that a last-bit change in any damping term
    shows."""
    spec = TargetSpec(kind, m=12, damping=damping)
    target, S, h = spec.target, 500, 24
    rng = np.random.default_rng(3)
    level, trend = rng.uniform(50, 150, S), rng.normal(0, 5, S)
    ring = rng.uniform(0.5, 1.5, (S, target.m)) if target.seasonal else np.ones((S, 1))
    values = target.link(rng.normal(0, 1, (S, h, spec.param_count)))
    got = target.forecast(values, None, None, (level, trend, ring))
    for i in range(S):
        phi = values[i, :, -1]
        want = ref.ets_forecast(EtsState(level[i], trend[i], ring[i]), phi, h, spec)
        assert np.array_equal(got[i], want)


@pytest.mark.parametrize("intercept", [False, True])
def test_ar_recursion_matches_reference_on_many_series(intercept):
    """A high order and many series, so that any change in the order of
    the lag sum shows."""
    S, h, p = 300, 12, 24
    rng = np.random.default_rng(4)
    theta = rng.normal(0, 0.5 / p, (S, h, p))
    history = rng.uniform(50, 150, (S, p + 3))
    c = rng.normal(0, 3, S) if intercept else np.zeros(S)
    got = ar_forecast(theta, history, c)
    for i in range(S):
        assert np.array_equal(got[i], ref.ar_forecast_recursive(theta[i], history[i], h, c[i]))
