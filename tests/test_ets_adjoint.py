"""The batched smoothing kernel against the single-series reference loops,
and its positivity guard across series."""

from dataclasses import replace

import numpy as np
import pytest
import yaml
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from treecast.boosting import HESS_FLOOR
from treecast.cli import main
from treecast.data import pad_for_ets
from treecast.errors import NumericError
from treecast.targets import EtsState, Objective, TargetSpec, ets_init

from conftest import ets_filter_one, make_panel
from reference_ets import reference_derivatives, reference_filter

RTOL = 1e-12  # of the largest entry of each compared array


class FixedParameters:
    """A model whose parameters are a given raw matrix, for forecast_state."""

    def __init__(self, spec, raw):
        self.values = spec.target.link(raw)

    def parameters(self, ds):
        return self.values


def close(got, ref):
    return np.max(np.abs(got - ref), initial=0.0) <= RTOL * np.max(np.abs(ref), initial=0.0)


@st.composite
def padded_panels(draw):
    """1-5 positive series of unequal length (some shorter than m), padded,
    with a few interior rows masked as well (never a series' first row)."""
    spec = TargetSpec(draw(st.sampled_from(["ets", "ets_linear"])),
                      m=draw(st.sampled_from([1, 2, 4, 12])))
    lengths = draw(st.lists(st.integers(1, 30), min_size=1, max_size=5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    panel = make_panel({
        f"s{i}": 20 + 5 * np.sin(np.arange(n)) + rng.uniform(0, 3, n)
        for i, n in enumerate(lengths)
    })
    ds = spec.target.prepare(panel)
    extra = rng.random(ds.n_rows) < 0.1
    extra[[ds.rows_of(i)[0] for i in range(ds.n_series)]] = False
    ds = replace(ds, mask=ds.mask & ~extra)
    raw = rng.normal(0, 1, (ds.n_rows, spec.param_count))
    return spec, ds, raw


@given(padded_panels())
@settings(max_examples=150, deadline=None)
def test_kernel_matches_reference(case):
    spec, ds, raw = case
    target = spec.target
    refs, loss_ref = [], 0.0
    try:
        for i, s in enumerate(ds.series):
            rows = ds.rows_of(i)
            init = ets_init(ds.y[rows][ds.mask[rows]], spec.m, target.seasonal)
            values = target.link(raw[rows])
            ref = reference_derivatives(ds.y[rows], raw[rows], spec, init, ds.mask[rows],
                                        s.series_id)
            fitted, end = reference_filter(ds.y[rows], values, spec, init, ds.mask[rows],
                                           s.series_id)
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
        on = ds.mask[rows][:, None]
        assert close(g[rows], np.where(on, g_ref, 0.0))
        assert close(h[rows], np.where(on, np.maximum(h_ref, HESS_FLOOR), 0.0))
        # the forward arithmetic is the reference filter's, bit for bit
        assert np.array_equal(fitted[rows], fit_ref)
        assert np.array_equal(fitted[rows], fit_filter)
        one_fit, one_end = ets_filter_one(ds.y[rows], values, spec, init, ds.mask[rows])
        assert np.array_equal(one_fit, fit_filter)
        for state in (EtsState(level[i], trend[i], ring[i]), one_end):
            assert (state.level, state.trend) == (end.level, end.trend)
            assert np.array_equal(state.ring, end.ring)


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
        ds = pad_for_ets(failing_panel())
        raw = np.zeros((ds.n_rows, 4))
        steps = {}
        for i, s in enumerate(ds.series):
            rows = ds.rows_of(i)
            init = ets_init(ds.y[rows], 2, True)
            with pytest.raises(NumericError) as err:
                reference_filter(ds.y[rows], spec.target.link(raw[rows]), spec, init,
                                 series_id=s.series_id)
            steps[s.series_id] = int(str(err.value).split("at step ")[1].split()[0])
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
