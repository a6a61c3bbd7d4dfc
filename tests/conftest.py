from dataclasses import fields
from datetime import date

import numpy as np
import pytest

from treecast.data import PanelDataset, TimeSeries, extend_timestamps, ingest_csv
from treecast.datasets import bundled_path
from treecast.errors import DataError, NumericError
from treecast.hypertree import BoostConfig, FeatureRecipe
from treecast.hypertree import train as train_hypertree
from treecast.targets import (TargetSpec, _ets_adjoint, _ets_end_states, _ets_forward, _stl_loss,
                              ar_forecast)

from reference_ets import EtsState, reference_filter, series_inits
from reference_forecast import ar_forecast_recursive


def make_panel(series_values, frequency="monthly", start=date(2000, 1, 1), cat=None, num=None):
    """Panel from {series_id: values}; optional flat cat/num column arrays."""
    series = [
        TimeSeries(sid, tuple([start] + extend_timestamps(start, frequency, len(vals) - 1)))
        for sid, vals in series_values.items()
    ]
    y = np.concatenate([np.asarray(v, dtype=np.float64) for v in series_values.values()])
    return PanelDataset.build(series, y, frequency, cat=cat, num=num)


def drop_last(ds: PanelDataset, h: int) -> PanelDataset:
    """Remove the trailing h rows of every series (hold-out construction).

    Calendar features are re-derived for the shortened panel.  h = 0
    returns the panel unchanged.
    """
    if h < 0:
        raise ValueError(f"drop_last needs h >= 0, got {h}")
    if h == 0:
        return ds
    series, keep = [], []
    for i, s in enumerate(ds.series):
        rows = ds.rows_of(i)
        if len(rows) <= h:
            raise DataError(f"series {s.series_id!r} shorter than hold-out {h}")
        series.append(TimeSeries(s.series_id, s.timestamps[:-h]))
        keep.append(rows[:-h])
    return ds.take(series, np.concatenate(keep))


class ReferenceView(PanelDataset):
    """A panel as the reference loops read it: they take a ``mask`` that
    flags the observed rows, and every row of a panel is observed."""

    @property
    def mask(self):
        return np.ones(self.n_rows, dtype=bool)


def reference_view(ds: PanelDataset) -> ReferenceView:
    return ReferenceView(**{f.name: getattr(ds, f.name) for f in fields(ds)})


def guard_step(exc: NumericError) -> int:
    """The step a positivity-guard error names."""
    return int(str(exc).split("at step ")[1].split()[0])


def smoothing_end_states(spec, ds, values):
    """Every series' end ``EtsState`` from the single-series reference loops,
    each series filtered alone on its own rows under the (N, P) linked
    ``values``.  A failure is the one the panel kernels report: a start
    state's at the lowest series, else the guard's at the earliest step,
    then the lowest series."""
    inits = series_inits(reference_view(ds), spec.m, spec.target.seasonal)
    ends, faults = [], []
    for i, (s, init) in enumerate(zip(ds.series, inits)):
        rows = ds.rows_of(i)
        try:
            ends.append(reference_filter(ds.y[rows], values[rows], spec, init,
                                         series_id=s.series_id)[1])
        except NumericError as exc:
            faults.append((guard_step(exc), i, exc))
    if faults:
        raise min(faults, key=lambda f: f[:2])[2]
    return ends


def one_series_grid(y, mask, init):
    """(y, mask) of one series as a (T, 1) grid, and its start ``EtsState``
    as the kernels' (level, trend, ring) triple."""
    y = np.asarray(y, dtype=np.float64)[:, None]
    mask = np.ones(y.shape, dtype=bool) if mask is None else np.asarray(mask, dtype=bool)[:, None]
    start = (np.array([init.level]), np.array([init.trend]),
             np.asarray(init.ring, dtype=np.float64)[None])
    return y, mask, start


def ets_one_series(y, raw, spec, init):
    """The smoothing kernel on one series: (loss, g, h, fitted) shaped like
    ``y`` and ``raw``, from the forward and adjoint passes on a one-series
    grid."""
    target = spec.target
    y, mask, start = one_series_grid(y, None, init)
    values, slope = target.link_slope(np.asarray(raw, dtype=np.float64)[:, None, :])
    level, trend, _, v, s = _ets_forward(target, y, values, mask, start, [""])
    loss, g, h, fitted = _ets_adjoint(target, y, mask, values, slope, level, trend, v, s)
    return loss, g[:, 0], h[:, 0], fitted[:, 0]


def ets_filter_one(y, values, spec, init, mask=None, series_id=""):
    """The smoothing target's panel filter and end-state gather on one
    series: (fitted, end EtsState).  Padded steps (mask False) freeze the
    state and fit 0."""
    y, mask, start = one_series_grid(y, mask, init)
    values = np.asarray(values, dtype=np.float64)[:, None, :]
    level, trend, ring, v, s = _ets_forward(spec.target, y, values, mask, start, [series_id])
    end_level, end_trend, end_ring = _ets_end_states(spec.target, mask, level, trend, ring)
    return np.where(mask, v * s, 0.0)[:, 0], EtsState(end_level[0], end_trend[0], end_ring[0])


def ets_sse(y, raw, spec, init):
    """Squared error of the smoothing filter on one series: the loss of
    ``ets_one_series``, bit for bit, from the forward pass alone."""
    fitted, _ = ets_filter_one(y, spec.target.link(raw), spec, init)
    return float(np.sum((fitted - y) ** 2))


def stl_loss_grad(raw, t, y, spec):
    """The trend + Fourier loss of one series: the one-series call of the
    panel loss the STL target runs (see ``targets._stl_loss``).
    Returns (loss, g, h, fitted).
    """
    y = np.asarray(y, dtype=np.float64)
    return _stl_loss(np.asarray(raw, dtype=np.float64), t, y, spec,
                     np.zeros(len(y), dtype=np.int64))


def ar_forecast_one(theta, history, h, intercept=0.0):
    """The reference AR recursion of one series, checked bit for bit against
    the panel kernel with S = 1."""
    want = ar_forecast_recursive(theta, history, h, intercept)
    got = ar_forecast(np.asarray(theta)[None], np.asarray(history, dtype=np.float64)[None],
                      np.array([intercept]))
    assert np.array_equal(got, want[None])
    return want


def ar2_sim(n=300, phi1=0.55, phi2=-0.25, seed=2024, burn=50):
    rng = np.random.default_rng(seed)
    e = rng.normal(0.0, 1.0, n + burn)
    y = np.zeros(n + burn)
    for t in range(2, n + burn):
        y[t] = phi1 * y[t - 1] + phi2 * y[t - 2] + e[t]
    return y[burn:]


@pytest.fixture(scope="session")
def air_full():
    return ingest_csv(bundled_path("air_passengers.csv"))


@pytest.fixture(scope="session")
def air_train(air_full):
    """First 132 months; last year held out."""
    return drop_last(air_full, 12)


@pytest.fixture(scope="session")
def air_holdout(air_full):
    return air_full.y[air_full.rows_of(0)][-12:]


@pytest.fixture(scope="session")
def air_recipe():
    return FeatureRecipe(calendar=("month", "quarter"))


@pytest.fixture(scope="session")
def air_ar_model(air_train, air_recipe):
    model, log = train_hypertree(
        air_train, TargetSpec(kind="ar", p=12), BoostConfig(rounds=100), air_recipe
    )
    return model, log
