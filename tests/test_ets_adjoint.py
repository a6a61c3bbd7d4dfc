"""The batched smoothing kernel and the panel-wide start state against the
single-series reference loops, the ragged (T, S) grid against each series
alone, and the positivity guard across series."""

import numpy as np
import pytest
import yaml
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from treecast.boosting import HESS_FLOOR
from treecast.cli import main
from treecast.errors import NumericError
from treecast import targets
from treecast.targets import Objective, TargetSpec

from conftest import ets_filter_one, make_panel
from reference_ets import EtsState, ets_init, reference_derivatives, reference_filter, series_inits
from reference_forecast import guard_step, smoothing_end_states

RTOL = 1e-12  # of the largest entry of each compared array


class FixedParameters:
    """A model whose parameters are a given raw matrix, for forecast_state."""

    def __init__(self, spec, raw):
        self.values = spec.target.link(raw)

    def parameters(self, ds):
        return self.values


def close(got, ref):
    return np.max(np.abs(got - ref), initial=0.0) <= RTOL * np.max(np.abs(ref), initial=0.0)


# start-state faults a drawn series may carry: a level at or below the guard
# (tiny or negative values), or 1.6e307 values whose sum of twelve overflows,
# so the seasonal ring degenerates
FAULTS = ("tiny", "negative", "huge")


def fault_panel(spec, lengths, faults, rng):
    """(panel, raw parameters): positive series of the given lengths, each
    carrying its fault from ``FAULTS`` or None."""
    series = {}
    for i, (n, fault) in enumerate(zip(lengths, faults)):
        y = 20 + 5 * np.sin(np.arange(n)) + rng.uniform(0, 3, n)
        if fault == "tiny":
            y *= 1e-12
        elif fault == "negative":
            y = -y
        elif fault == "huge":
            y = np.full(max(n, 12), 1.6e307)
        series[f"s{i}"] = y
    ds = make_panel(series)
    return ds, rng.normal(0, 1, (ds.n_rows, spec.param_count))


@st.composite
def ragged_panels(draw):
    """1-5 series of unequal length (some shorter than m) from
    ``fault_panel``, each with or without a fault; "huge" only where it
    trips the ring check (seasonal, m = 12)."""
    spec = TargetSpec(draw(st.sampled_from(["ets", "ets_linear"])),
                      m=draw(st.sampled_from([1, 2, 4, 12])))
    lengths = draw(st.lists(st.integers(1, 39), min_size=1, max_size=5))
    faults = FAULTS if spec.target.seasonal and spec.m == 12 else FAULTS[:2]
    faults = [draw(st.sampled_from((None,) * 6 + faults)) for _ in lengths]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return (spec, *fault_panel(spec, lengths, faults, rng))


def start_states(spec, ds):
    """The per-series oracle's start states, once the panel-wide ones are
    checked equal to them bit for bit; None where the oracle fails, once the
    panel is checked to fail with the same text (the lowest failing series)."""
    target = spec.target
    try:
        inits = series_inits(ds, spec.m, target.seasonal)
    except NumericError as exc:
        with pytest.raises(NumericError) as err:
            Objective(ds, spec)
        assert str(err.value) == str(exc)
        return None
    level, trend, ring = target.bind(ds)[1][4]
    for i, init in enumerate(inits):
        assert (level[i], trend[i]) == (init.level, init.trend)
        assert np.array_equal(ring[i], init.ring if target.seasonal else np.ones(1))
    return inits


def test_grid_column_without_observed_cell_is_named():
    """No series of a panel is empty, but the start-state kernel still names
    a grid column with no observed cell."""
    y, mask = np.full((6, 3), 20.0), np.ones((6, 3), dtype=bool)
    mask[:, 1] = False
    with pytest.raises(NumericError, match="^series 'b': cannot initialize smoothing "
                                           "state from empty series$"):
        targets.ets_init(y, mask, 2, True, ["a", "b", "c"])


def pinned(kind, m, lengths, faults):
    spec = TargetSpec(kind, m=m)
    return (spec, *fault_panel(spec, lengths, faults, np.random.default_rng(0)))


@given(ragged_panels())
@example(pinned("ets", 12, [5, 3], [None, None]))  # a grid shorter than m
@example(pinned("ets_linear", 4, [9, 2], ["negative", None]))
# each start-state failure, named at series s1 or s0
@example(pinned("ets", 4, [2, 9, 30], [None, "tiny", "negative"]))
@example(pinned("ets", 12, [30, 14, 20], [None, "huge", "negative"]))
@example(pinned("ets", 2, [1, 4, 6], ["tiny", "negative", None]))
@settings(max_examples=150, deadline=None)
def test_kernel_matches_reference(case):
    spec, ds, raw = case
    target = spec.target
    inits = start_states(spec, ds)
    if inits is None:
        return

    refs, loss_ref = [], 0.0
    try:
        for i, (s, init) in enumerate(zip(ds.series, inits)):
            rows = ds.rows_of(i)
            values = target.link(raw[rows])
            ref = reference_derivatives(ds.y[rows], raw[rows], spec, init,
                                        series_id=s.series_id)
            fitted, end = reference_filter(ds.y[rows], values, spec, init,
                                           series_id=s.series_id)
            refs.append((rows, init, values, ref, fitted, end))
            loss_ref += ref[0]
    except NumericError:
        with pytest.raises(NumericError, match="non-positive smoothing state"):
            Objective(ds, spec).evaluate(raw)
        return

    loss, g, h, fitted = Objective(ds, spec).evaluate(raw)
    level, trend, ring = target.forecast_state(FixedParameters(spec, raw), ds)
    assert abs(loss - loss_ref) <= RTOL * loss_ref
    for i, (rows, init, values, (_, g_ref, h_ref, fit_ref), fit_filter, end) in enumerate(refs):
        assert close(g[rows], g_ref)
        assert close(h[rows], np.maximum(h_ref, HESS_FLOOR))
        # the forward arithmetic is the reference filter's, bit for bit
        assert np.array_equal(fitted[rows], fit_ref)
        assert np.array_equal(fitted[rows], fit_filter)
        one_fit, one_end = ets_filter_one(ds.y[rows], values, spec, init)
        assert np.array_equal(one_fit, fit_filter)
        for state in (EtsState(level[i], trend[i], ring[i]), one_end):
            assert (state.level, state.trend) == (end.level, end.trend)
            assert np.array_equal(state.ring, end.ring)


def dip_panel(spec, lengths, dips, rng):
    """(panel, raw parameters): positive series of the given lengths; a
    series with a dip step d drops to -500 there, or to 1e-12 times its
    values from d on, both of which trip the positivity guard once the
    state reaches them (the multiplicative kind), or not at all (the linear
    kind, which has no guard)."""
    series = {}
    for i, (n, dip) in enumerate(zip(lengths, dips)):
        y = 20 + 5 * np.sin(np.arange(n)) + rng.uniform(0, 3, n)
        if dip is not None and dip[0] < n:
            if dip[1] == "negative":
                y[dip[0]] = -500.0
            else:
                y[dip[0]:] *= 1e-12
        series[f"s{i}"] = y
    ds = make_panel(series)
    return spec, ds, rng.normal(0, 1, (ds.n_rows, spec.param_count))


@st.composite
def dipped_panels(draw):
    """1-5 series of unequal length, some dipping at a drawn step."""
    spec = TargetSpec(draw(st.sampled_from(["ets", "ets_linear"])),
                      m=draw(st.sampled_from([1, 2, 4, 12])))
    lengths = draw(st.lists(st.integers(1, 39), min_size=1, max_size=5))
    dip = st.tuples(st.integers(1, 38), st.sampled_from(["negative", "near_zero"]))
    dips = [draw(st.one_of(st.none(), st.none(), dip)) for _ in lengths]
    return dip_panel(spec, lengths, dips, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))


def dipped(kind, lengths, dips):
    return dip_panel(TargetSpec(kind, m=2), lengths, dips, np.random.default_rng(1))


@given(dipped_panels())
# series s1 fails at an earlier step than s0; s1 and s2 at the same step
@example(dipped("ets", [20, 15, 9], [(9, "negative"), (4, "negative"), None]))
@example(dipped("ets", [12, 12, 12], [None, (6, "negative"), (6, "negative")]))
@example(dipped("ets_linear", [12, 5], [(3, "near_zero"), None]))
@settings(max_examples=150, deadline=None)
def test_each_series_matches_itself_alone(case):
    """On the ragged grid, each series' rows of ``Objective.evaluate`` equal
    that series evaluated alone, bit for bit, and its ``forecast_state`` end
    state the single-series reference filter's.  A guard failure is the
    reference's at the earliest step, then the lowest series."""
    spec, ds, raw = case
    target = spec.target
    model = FixedParameters(spec, raw)
    try:
        ends = smoothing_end_states(spec, ds, model.values)
    except NumericError as exc:
        for run in (lambda: Objective(ds, spec).evaluate(raw),
                    lambda: target.forecast_state(model, ds)):
            with pytest.raises(NumericError) as err:
                run()
            assert str(err.value) == str(exc)
        return

    loss, g, h, fitted = Objective(ds, spec).evaluate(raw)
    total = 0.0
    for i, s in enumerate(ds.series):
        rows = ds.rows_of(i)
        alone = Objective(ds.take((s,), rows), spec).evaluate(raw[rows])
        total += alone[0]
        for got, want in zip((g[rows], h[rows], fitted[rows]), alone[1:]):
            assert got.dtype == want.dtype and np.array_equal(got, want)
    assert abs(loss - total) <= RTOL * total
    level, trend, ring = target.forecast_state(model, ds)
    for i, end in enumerate(ends):
        assert (level[i], trend[i]) == (end.level, end.trend)
        assert np.array_equal(ring[i], end.ring if target.seasonal else np.ones(target.m))


def failing_panel():
    """Series "a" fails the guard at step 8, series "b" at step 5 and
    series "c" at step 5 as well (m = 2, every parameter 0.5)."""
    y = np.full(10, 10.0)
    a, b, c = y.copy(), y.copy(), y.copy()
    a[7] = b[4] = c[4] = -500.0
    return make_panel({"a": a, "b": b, "c": c})


class TestGuardAcrossSeries:
    def test_earliest_step_then_lowest_series(self):
        spec = TargetSpec("ets", m=2)
        ds = failing_panel()
        raw = np.zeros((ds.n_rows, 4))
        steps = {}
        for i, s in enumerate(ds.series):
            rows = ds.rows_of(i)
            init = ets_init(ds.y[rows], 2, True)
            with pytest.raises(NumericError) as err:
                reference_filter(ds.y[rows], spec.target.link(raw[rows]), spec, init,
                                 series_id=s.series_id)
            steps[s.series_id] = guard_step(err.value)
        assert steps == {"a": 8, "b": 5, "c": 5}
        with pytest.raises(NumericError, match=r"^series 'b': non-positive smoothing state "
                                               r"at step 5 \(level\+phi\*trend="):
            Objective(ds, spec).evaluate(raw)

    def test_train_exit_4_without_traceback(self, tmp_path):
        panel = failing_panel()
        rows = ["series_id,timestamp,value"] + [
            f"{s.series_id},{ts.isoformat()},{v}"
            for i, s in enumerate(panel.series)
            for ts, v in zip(s.timestamps, panel.y[panel.rows_of(i)])
        ]
        data = tmp_path / "failing.csv"
        data.write_text("\n".join(rows) + "\n")
        cfg = {
            "seed": 1,
            "data": {"path": str(data)},
            "features": {"calendar": ["month"], "summary": False},
            "model": {"family": "hypertree", "target": "ets", "m": 2},
            "boosting": {"rounds": 2},
            "eval": {"horizon": 2},
        }
        path = tmp_path / "failing.yaml"
        path.write_text(yaml.safe_dump(cfg))
        res = CliRunner().invoke(main, ["train", str(path), "--out", str(tmp_path / "b")])
        assert res.exit_code == 4, res.output
        assert isinstance(res.exception, SystemExit)
        assert "series 'b': non-positive smoothing state at step 5" in res.output
        assert "Traceback" not in res.output
