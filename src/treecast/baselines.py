"""Deterministic reference models: OLS AR(p), moving-average decomposition,
and fixed-parameter exponential smoothing (the MASE reference generator)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericError
from .targets import TargetSpec, ets_filter, ets_forecast, ets_init


@dataclass(frozen=True)
class OlsArModel:
    coefficients: np.ndarray
    intercept: float | None
    residual_variance: float

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
        raise DataError(f"series of length {n} too short for AR({p}) fit")
    rows = n - p
    X = np.empty((rows, p))
    for j in range(1, p + 1):
        X[:, j - 1] = y[p - j : n - j]
    t = y[p:]
    design = np.column_stack([np.ones(rows), X]) if intercept else X
    sol, residuals, rank, _ = np.linalg.lstsq(design, t, rcond=None)
    if rank < design.shape[1]:
        labels = (["intercept"] if intercept else []) + [f"lag_{j}" for j in range(1, p + 1)]
        raise DataError(f"rank-deficient AR design (rank {rank} < {design.shape[1]}): "
                        f"collinear columns among {labels}")
    resid = t - design @ sol
    var = float(resid @ resid / max(rows - design.shape[1], 1))
    if intercept:
        return OlsArModel(sol[1:], float(sol[0]), var)
    return OlsArModel(sol, None, var)


def ols_ar_forecast(model: OlsArModel, history, h: int) -> np.ndarray:
    """Recursive multi-step forecast with constant coefficients."""
    buf = list(np.asarray(history, dtype=np.float64)[-model.p :])
    out = np.empty(h)
    c = model.intercept or 0.0
    for k in range(h):
        out[k] = c + sum(model.coefficients[j] * buf[-1 - j] for j in range(model.p))
        buf.append(out[k])
    return out


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


def fixed_ets_forecast(series, params: dict, m: int, h: int, kind: str = "ets") -> np.ndarray:
    """Filter with constant smoothing parameters, then forecast h steps.

    Shares the exact code path of the parameter-driven smoothing target, so
    it doubles as the MASE reference generator.
    """
    y = np.asarray(series, dtype=np.float64)
    spec = TargetSpec(kind=kind, m=m)
    names = spec.param_names
    values = np.tile([params[name] for name in names], (len(y), 1)).astype(np.float64)
    init = ets_init(y, m, kind == "ets")
    _, state = ets_filter(y, values, spec, init)
    phi_future = np.full(h, params.get("phi", 1.0))
    return ets_forecast(state, phi_future, h, spec)


def grid_search_ets(series, m: int, horizon: int, kind: str = "ets",
                    grid=None) -> tuple[float, dict]:
    """Pick the constant smoothing value minimizing mean hold-out WAPE.

    ``series`` holds each series' observed values; each holds out its last
    min(horizon, len // 4) values, and a series with nothing to hold out is
    skipped.  All parameters share one constant, swept over {0.1, ..., 0.9};
    a value that trips a numeric guard on any series is not scored, and ties
    go to the first value.  Returns (best_value, best_params).
    """
    from .metrics import wape

    splits = []
    for values in series:
        y = np.asarray(values, dtype=np.float64)
        h = min(horizon, len(y) // 4)
        if h >= 1:
            splits.append((y[:-h], y[-h:]))
    if not splits:
        raise DataError("smoothing grid search: no series has the 4 observations a hold-out needs")
    if grid is None:
        grid = [round(0.1 * k, 1) for k in range(1, 10)]
    names = TargetSpec(kind=kind, m=m).param_names
    best_val, best = None, None
    for c in grid:
        params = {name: c for name in names}
        try:
            scores = [wape(test, fixed_ets_forecast(train, params, m, len(test), kind))
                      for train, test in splits]
        except NumericError:
            continue
        score = float(np.mean(scores))
        if best_val is None or score < best_val:
            best_val, best = score, c
    if best is None:
        raise DataError("smoothing grid search: every candidate value failed a numeric guard")
    return best, {name: best for name in names}
