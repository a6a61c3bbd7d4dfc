from datetime import date

import numpy as np
import pytest

from treecast.data import PanelDataset, TimeSeries, build_lags, extend_timestamps, ingest_csv
from treecast.datasets import air_passengers_path
from treecast.errors import DataError
from treecast.hypertree import BoostConfig, FeatureRecipe
from treecast.hypertree import train as train_hypertree
from treecast.targets import TargetSpec, ets_filter, ets_loss_grad


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

    Only valid before padding or lag construction; calendar features are
    re-derived for the shortened panel.  h = 0 returns the panel unchanged.
    """
    if h < 0:
        raise ValueError(f"drop_last needs h >= 0, got {h}")
    if not ds.mask.all() or ds.lags is not None:
        raise ValueError("drop_last expects a raw (unpadded, lag-free) panel")
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


def ets_one_series(y, raw, spec, init):
    """The smoothing kernel on one series: (loss, g, h, fitted) shaped like
    ``y`` and ``raw``."""
    loss, g, h, fitted = ets_loss_grad(np.asarray(y)[None], np.asarray(raw)[None], spec, [init])
    return loss, g[0], h[0], fitted[0]


def ets_sse(y, raw, spec, init):
    """Squared error of the smoothing filter on one series: the loss of
    ``ets_one_series``, bit for bit, from the forward pass alone."""
    fitted, _ = ets_filter(y, spec.target.link(raw), spec, init)
    return float(np.sum((fitted - y) ** 2))


def ar2_sim(n=300, phi1=0.55, phi2=-0.25, seed=2024, burn=50):
    rng = np.random.default_rng(seed)
    e = rng.normal(0.0, 1.0, n + burn)
    y = np.zeros(n + burn)
    for t in range(2, n + burn):
        y[t] = phi1 * y[t - 1] + phi2 * y[t - 2] + e[t]
    return y[burn:]


@pytest.fixture(scope="session")
def air_full():
    return ingest_csv(air_passengers_path())


@pytest.fixture(scope="session")
def air_train(air_full):
    """First 132 months with AR(12) lags; last year held out."""
    return build_lags(drop_last(air_full, 12), 12)


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
