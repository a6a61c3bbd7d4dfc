"""The baseline family and other deterministic reference models.

A baseline is per-series OLS AR(p) or fixed-parameter exponential
smoothing (the generator of reference forecasts for the scaled error);
``TARGETS`` names the kinds it supports.  A smoothing baseline is the
smoothing target with constant parameters and forecasts through it, also
inside the grid search; the OLS AR fit and its intercept are the only
baseline-specific model code.  Also here: the classical moving-average
decomposition behind the series strength features.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import hypertree
from .data import PanelDataset, TimeSeries, future_panel
from .errors import DataError, NumericError
from .metrics import wape
from .targets import TargetSpec, ar_design, ar_forecast, ar_histories

TARGETS = ("ar", "ets", "ets_linear")


@dataclass(frozen=True)
class OlsArModel:
    coefficients: np.ndarray
    intercept: float | None

    @property
    def p(self):
        return len(self.coefficients)


def fit_ols_ar(series, p: int, intercept: bool = False) -> OlsArModel:
    """Least-squares AR(p) fit via SVD-based lstsq.

    Raises on a rank-deficient lag design (e.g. constant series with an
    intercept), naming the collinear columns.
    """
    y = np.asarray(series, dtype=np.float64)
    n = len(y)
    if n < 2 * p + 1:
        raise DataError(f"{n} observations are too short for an AR({p}) fit (needs {2 * p + 1})")
    _, X = ar_design(y, np.zeros(n, dtype=np.int64), p)
    X, t = X[p:], y[p:]  # one series: rows p.. have their p lags
    design = np.column_stack([np.ones(n - p), X]) if intercept else X
    sol, _, rank, _ = np.linalg.lstsq(design, t, rcond=None)
    if rank < design.shape[1]:
        labels = (["intercept"] if intercept else []) + [f"lag_{j}" for j in range(1, p + 1)]
        raise DataError(f"rank-deficient AR design (rank {rank} < {design.shape[1]}): "
                        f"collinear columns among {labels}")
    if intercept:
        return OlsArModel(sol[1:], float(sol[0]))
    return OlsArModel(sol, None)


def classical_decompose(series, m: int):
    """Additive decomposition with a centered 2xm moving-average trend.

    Seasonal = period-m means of the detrended values, normalized to zero
    mean; remainder closes the identity on interior points.  Trend (and the
    other components) are NaN on the m/2 edge points.
    """
    y = np.asarray(series, dtype=np.float64)
    n = len(y)
    if n < 2 * m:
        raise DataError(f"series of length {n} too short for period {m} decomposition")
    if m % 2 == 0:
        filt = np.concatenate([[0.5], np.ones(m - 1), [0.5]]) / m
        half = m // 2
    else:
        filt = np.ones(m) / m
        half = (m - 1) // 2
    trend = np.full(n, np.nan)
    conv = np.convolve(y, filt, mode="valid")
    trend[half : half + len(conv)] = conv

    detrended = y - trend
    seasonal_means = np.empty(m)
    for k in range(m):
        vals = detrended[k::m]
        seasonal_means[k] = np.nanmean(vals)
    seasonal_means -= seasonal_means.mean()
    seasonal = np.where(np.isnan(trend), np.nan, seasonal_means[np.arange(n) % m])
    remainder = y - trend - seasonal
    return trend, seasonal, remainder


def grid_search_ets(ds: PanelDataset, spec: TargetSpec, horizon: int, grid=None) -> float:
    """Pick the constant smoothing value minimizing mean hold-out WAPE.

    Each series of the padded panel ``ds`` holds out its last
    min(horizon, n // 4) observed values, and a series with nothing to hold
    out is skipped.  The start states of the shortened panel are built
    first, and a series that has none fails the search, named.  All
    parameters share one constant, swept over {0.1, ..., 0.9}; a candidate
    is scored by one forecast of the held-out panel, and one that trips a
    numeric guard on any series is not scored.
    Ties go to the first value.  Returns the best value.
    """
    series, keep, held = [], [], []
    for i, s in enumerate(ds.series):
        rows = ds.rows_of(i)
        on = np.flatnonzero(ds.mask[rows])
        h = min(horizon, len(on) // 4)
        if h >= 1:
            series.append(TimeSeries(s.series_id, tuple(s.timestamps[j] for j in on[:-h])))
            keep.append(rows[on[:-h]])
            held.append(ds.y[rows[on[-h:]]])
    if not series:
        raise DataError("smoothing grid search: no series has the 4 observations a hold-out needs")
    train = spec.target.prepare(ds.take(series, np.concatenate(keep)))
    spec.target.bind(train)  # start states: a series without one fails here, named
    if grid is None:
        grid = [round(0.1 * k, 1) for k in range(1, 10)]
    best_val, best = None, None
    for c in grid:
        model = BaselineModel.smoothing(spec, c)
        try:
            fc, _ = hypertree.forecast(model, train, max(len(y) for y in held))
            score = float(np.mean([wape(y, f[:len(y)]) for f, y in zip(fc, held)]))
        except NumericError:
            continue
        if best_val is None or score < best_val:
            best_val, best = score, c
    if best is None:
        raise DataError("smoothing grid search: every candidate value failed a numeric guard")
    return best


class BaselineModel:
    """Per-series OLS AR coefficients, or one global smoothing constant;
    ``parameters(ds)`` spreads them over a panel's rows as the tree models'
    predictions are."""

    def __init__(self, spec: TargetSpec, intercept: bool, per_series: dict,
                 params: dict | None):
        self.spec = spec
        self.intercept = intercept
        self.per_series = per_series    # ar: {sid: {"coefficients": [...], "intercept": x}}
        self.params = params            # smoothing: {"alpha": c, ...}

    @classmethod
    def smoothing(cls, spec: TargetSpec, value: float) -> "BaselineModel":
        """Every parameter of the smoothing target ``spec`` held at ``value``."""
        return cls(spec, False, {}, {n: value for n in spec.param_names})

    def parameters(self, ds: PanelDataset) -> np.ndarray:
        """(N, P) parameters of the panel's rows: the smoothing constants,
        or the AR coefficients of each row's series."""
        if self.spec.kind != "ar":
            row = np.array([self.params[n] for n in self.spec.param_names], dtype=np.float64)
            return np.tile(row, (ds.n_rows, 1))
        coef = []
        for s in ds.series:
            entry = self.per_series.get(s.series_id)
            if entry is None:
                raise DataError(f"baseline has no coefficients for series {s.series_id!r}")
            coef.append(entry["coefficients"])
        return np.asarray(coef, dtype=np.float64)[ds.series_idx]

    def to_dict(self):
        return {
            "family": "baseline",
            "spec": self.spec.to_dict(),
            "intercept": self.intercept,
            "per_series": self.per_series,
            "params": self.params,
        }

    @classmethod
    def from_dict(cls, d):
        return cls(TargetSpec.from_dict(d["spec"]), d["intercept"], d["per_series"],
                   d["params"])


def train_baseline(ds: PanelDataset, cfg) -> BaselineModel:
    """Fit the configured baseline on a prepared panel."""
    spec = cfg.target_spec(ds.frequency)
    if spec.kind != "ar":
        if cfg.model.grid_search:
            return BaselineModel.smoothing(spec, grid_search_ets(ds, spec, cfg.eval.horizon))
        spec.target.bind(ds)  # start states, as every family fails on them at training
        return BaselineModel.smoothing(spec, cfg.model.fixed_value)
    per_series = {}
    for i, s in enumerate(ds.series):
        rows = ds.rows_of(i)
        try:
            ols = fit_ols_ar(ds.y[rows][ds.mask[rows]], spec.p, cfg.model.intercept)
        except DataError as exc:
            raise DataError(f"series {s.series_id!r}: {exc}") from None
        per_series[s.series_id] = {
            "coefficients": [float(c) for c in ols.coefficients],
            "intercept": ols.intercept,
        }
    return BaselineModel(spec, cfg.model.intercept, per_series, None)


def forecast_baseline(model: BaselineModel, ds: PanelDataset, h: int):
    """(S, h) forecasts and the future ``TimeSeries``, as
    ``hypertree.forecast``.  A smoothing baseline forecasts through its
    target like any parameter-producing model; the AR baseline runs the AR
    recursion with each series' OLS intercept."""
    if model.spec.kind != "ar":
        return hypertree.forecast(model, ds, h)
    fut = future_panel(ds, h)
    theta = model.parameters(fut).reshape(ds.n_series, h, -1)
    intercept = np.array([model.per_series[s.series_id]["intercept"] or 0.0 for s in ds.series])
    return ar_forecast(theta, ar_histories(ds, model.spec.p), intercept), fut.series
