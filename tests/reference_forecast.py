"""Reference forecasts: the per-series loops, one series at a time.

``forecast`` is the old per-series driver: it calls each kind's one-series
``forecast(values, ds, i, t_future, state)`` (``SERIES_FORECASTS``) once per
series, from that series' (h, P) horizon parameters.  ``forecast_baseline``
is the same loop for the AR baseline with its per-series intercept.  Tests
compare the panel-wide forecasts of ``treecast`` against them, bit for bit.
"""

import numpy as np

from treecast.data import future_panel
from treecast.errors import DataError
from treecast.targets import PHI, EtsState, TargetSpec, _ets_forward, stl_components


def ar_history(ds, i: int, p: int) -> np.ndarray:
    """The observed values of series i, at least the p that seed an AR(p)
    forecast; a shorter series is a data error naming it."""
    rows = ds.rows_of(i)
    history = ds.y[rows][ds.mask[rows]]
    if len(history) < p:
        raise DataError(f"series {ds.series[i].series_id!r}: an AR({p}) forecast needs "
                        f"{p} observed values, got {len(history)}")
    return history


def ar_forecast_recursive(theta_future: np.ndarray, history, h: int,
                          intercept: float = 0.0) -> np.ndarray:
    """Iterate y_t = intercept + sum_j theta_{t,j} y_{t-j} h steps, feeding
    forecasts back as lags."""
    p = theta_future.shape[1]
    buf = list(np.asarray(history, dtype=np.float64)[-p:])
    if len(buf) < p:
        raise ValueError(f"need at least {p} history values, got {len(buf)}")
    out = np.empty(h)
    for k in range(h):
        out[k] = intercept + sum(theta_future[k, j] * buf[-1 - j] for j in range(p))
        buf.append(out[k])
    return out


def ets_end_states(target, mask, level, trend, ring):
    """Each series' end state; its ring oldest-first relative to the
    series' last unmasked step."""
    T, S = mask.shape
    m = target.m
    ends = []
    for i in range(S):
        on = np.nonzero(mask[:, i])[0]
        t_last = int(on[-1]) + 1 if len(on) else 0
        if target.seasonal:
            # slot q ends in ring row T + (q - T) % m
            out = ring[T + (t_last + np.arange(m) - T) % m, i].copy()
        else:
            out = np.ones(1)
        ends.append(EtsState(float(level[T, i]), float(trend[T, i]), out))
    return ends


def ets_forecast(state: EtsState, phi_future, h: int, spec: TargetSpec) -> np.ndarray:
    """h-step forecast (l + damping_sum * b) * seasonal, wrapping the ring.

    The "power" convention uses (phi_{t+j})^j for step j as displayed in the
    damped-trend formula; "cumprod" uses the running product instead.
    """
    phi_future = np.asarray(phi_future, dtype=np.float64)
    seasonal, m = spec.target.seasonal, spec.target.m
    out = np.empty(h)
    damp_sum = 0.0
    cumprod = 1.0
    for j in range(1, h + 1):
        phi_j = phi_future[j - 1] if seasonal else 1.0
        if spec.damping == "power":
            damp_sum += phi_j ** j
        else:
            cumprod *= phi_j
            damp_sum += cumprod
        s = state.ring[(j - 1) % m] if seasonal else 1.0
        out[j - 1] = (state.level + damp_sum * state.trend) * s
    return out


def ets_forecast_state(target, model, ds):
    # one forward pass over the training rows reaches every series' end state
    values = model.parameters(ds)
    inits, ids = target.bind(ds)[1]
    S = ds.n_series
    grid = lambda x: x.reshape(S, -1, *x.shape[1:]).swapaxes(0, 1)
    mask = grid(ds.mask)
    level, trend, ring, _, _ = _ets_forward(target, grid(ds.y), grid(values), mask, inits, ids)
    return ets_end_states(target, mask, level, trend, ring)


def _ar(target, values, ds, i, t_future, state):
    return ar_forecast_recursive(values, ar_history(ds, i, target.spec.p), len(values))


def _ets(target, values, ds, i, t_future, ends):
    h = len(values)
    phi = values[:, PHI] if target.seasonal else np.ones(h)
    return ets_forecast(ends[i], phi, h, target.spec)


def _stl(target, values, ds, i, t_future, state):
    return stl_components(values, t_future, target.spec)[2]


def _direct(target, values, ds, i, t_future, state):
    return values[:, 0]


# kind -> (forecast_state(target, model, ds), forecast(target, values, ds, i, t_future, state))
SERIES_FORECASTS = {
    "ar": (lambda target, model, ds: None, _ar),
    "ets": (ets_forecast_state, _ets),
    "ets_linear": (ets_forecast_state, _ets),
    "stl": (lambda target, model, ds: None, _stl),
    "direct": (lambda target, model, ds: None, _direct),
}


def average_parameters(values: np.ndarray) -> np.ndarray:
    """Replace per-step parameters with their horizon mean (held constant)."""
    mean = values.mean(axis=0)
    return np.tile(mean, (values.shape[0], 1))


def forecast(model, ds, h: int, average: bool = False) -> dict:
    """{series_id: (h forecasts, h future timestamps)}, one series at a time."""
    if h == 0:
        return {s.series_id: (np.empty(0), []) for s in ds.series}
    target = model.spec.target
    forecast_state, series_forecast = SERIES_FORECASTS[model.spec.kind]
    fut = future_panel(ds, h)
    values_f = model.parameters(fut)
    state = forecast_state(target, model, ds)
    out = {}
    for i, s in enumerate(ds.series):
        frows = fut.rows_of(i)
        vals_f = values_f[frows]
        if average:
            vals_f = average_parameters(vals_f)
        fc = series_forecast(target, vals_f, ds, i, fut.time_index[frows], state)
        out[s.series_id] = (fc, list(fut.series[i].timestamps))
    return out


def forecast_baseline(model, ds, h: int) -> dict:
    """The AR baseline's forecasts: the AR recursion of each series with its
    OLS intercept."""
    fut = future_panel(ds, h)
    theta = model.parameters(fut)
    out = {}
    for i, s in enumerate(ds.series):
        fc = ar_forecast_recursive(theta[fut.rows_of(i)], ar_history(ds, i, model.spec.p), h,
                                   model.per_series[s.series_id]["intercept"] or 0.0)
        out[s.series_id] = (fc, list(fut.series[i].timestamps))
    return out
