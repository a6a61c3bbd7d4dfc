"""Target time-series models driven by per-observation parameter vectors.

Each target kind is one ``Target`` class, and ``KINDS`` maps the kind
named in a ``TargetSpec`` to it; training, forecasting and data
preparation reach a kind only through its class.  A kind supplies

- ``param_names``, one per raw parameter column; ``link(raw)`` into the
  parameter domain, its elementwise ``slope``, and ``base(ds)``, the raw
  start every ensemble boosts from;
- ``prepare(ds)``, its own data preparation, and ``time_feature``, whether
  the trees also see the raw time index;
- ``bind(ds)`` -> (training weight, ``state`` reused by every loss);
- ``loss(raw, ds, state)``, masked and floored, or with ``per_series``
  ``series_loss(raw, ds, i, rows, state)`` of series i: both return
  (loss, g, h, fitted);
- ``fitted_jacobian(ds, weight, state)`` when the fit is row-local, else
  None;
- ``forecast_state(model, ds)`` once, then ``forecast(values, ds, i,
  t_future, state)`` from series i's (h, P) horizon parameters.

The numeric kernels the classes call are plain functions.  Smoothing
parameters pass through scaled sigmoids so alpha/beta/gamma stay inside
(0, 1) and the damping factor inside (0, 1]; autoregressive and
trend/Fourier coefficients use the identity link.

Second derivatives use the Gauss-Newton form 2*(d fitted / d param)^2,
which is exact for the autoregressive target under squared error and
positive by construction everywhere else.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

from .boosting import HESS_FLOOR
from .data import build_lags, pad_for_ets
from .errors import NumericError

SIG_EPS = 1e-6     # keeps smoothing parameters strictly inside their domain
GUARD_EPS = 1e-8   # multiplicative recursion positivity guard

ALPHA, BETA, GAMMA, PHI = 0, 1, 2, 3


@dataclass(frozen=True)
class TargetSpec:
    """Declaration of the parameterized forecasting model.

    kind: "ar" | "ets" | "ets_linear" | "stl" | "direct".
    ``damping`` selects the h-step trend damping term: "power" uses
    (phi_{t+j})^j per step, "cumprod" the running product of the per-step
    factors.
    """

    kind: str
    p: int = 0
    m: int = 12
    n_season: int = 1
    period: int = 12
    penalty: float = 1.0
    damping: str = "power"

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown target kind {self.kind!r}")
        if self.kind == "ar" and self.p < 1:
            raise ValueError("ar target needs p >= 1")
        if self.damping not in ("power", "cumprod"):
            raise ValueError(f"unknown damping convention {self.damping!r}")

    @cached_property
    def target(self) -> "Target":
        return KINDS[self.kind](self)

    @property
    def param_count(self) -> int:
        return len(self.target.param_names)

    @property
    def param_names(self) -> tuple:
        return self.target.param_names

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "TargetSpec":
        return cls(**d)


def _sigmoid(x):
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    return out


# --------------------------------------------------------------------------
# autoregressive kernel
# --------------------------------------------------------------------------

def ar_forecast_recursive(theta_future: np.ndarray, history, h: int) -> np.ndarray:
    """Iterate the AR recursion h steps, feeding forecasts back as lags."""
    p = theta_future.shape[1]
    buf = list(np.asarray(history, dtype=np.float64)[-p:])
    if len(buf) < p:
        raise ValueError(f"need at least {p} history values, got {len(buf)}")
    out = np.empty(h)
    for k in range(h):
        out[k] = sum(theta_future[k, j] * buf[-1 - j] for j in range(p))
        buf.append(out[k])
    return out


# --------------------------------------------------------------------------
# exponential smoothing kernels (damped trend, multiplicative seasonality;
# the linear-trend variant drops the seasonal ring and the damping factor)
# --------------------------------------------------------------------------

@dataclass
class EtsState:
    level: float
    trend: float
    ring: np.ndarray  # last m seasonal values, oldest first


def ets_init(y: np.ndarray, m: int, seasonal: bool) -> EtsState:
    """Holt-Winters style start values from the first observations.

    level = mean of the first m points; trend = (mean of the second m -
    mean of the first m) / m when available, else 0; seasonal ring = first
    m points over the level, normalized to mean 1.
    """
    n = len(y)
    if n == 0:
        raise NumericError("cannot initialize smoothing state from empty series")
    take = min(m, n)
    l0 = float(np.mean(y[:take]))
    b0 = 0.0
    if n >= 2 * m:
        b0 = (float(np.mean(y[m : 2 * m])) - l0) / m
    if not seasonal:
        return EtsState(l0, b0, np.ones(m))
    if l0 <= GUARD_EPS:
        raise NumericError("multiplicative smoothing needs a positive starting level")
    if n >= m:
        ring = y[:m] / l0
        total = float(ring.sum())
        if total <= GUARD_EPS:
            raise NumericError("degenerate seasonal initialization")
        ring = ring * (m / total)
    else:
        ring = np.ones(m)
    return EtsState(l0, b0, ring.astype(np.float64))


def ets_filter(y, values, spec: TargetSpec, init: EtsState, mask=None, series_id=""):
    """One-step-ahead filter.

    fitted_t = (l_{t-1} + phi_t b_{t-1}) * s_{t-m}, then level/trend/seasonal
    update.  Padded steps (mask False) freeze the state and produce fitted 0.
    Returns (fitted, final EtsState).
    """
    y = np.asarray(y, dtype=np.float64)
    T = len(y)
    values = np.asarray(values, dtype=np.float64)
    target = spec.target
    target.check_domain(values)
    if mask is None:
        mask = np.ones(T, dtype=bool)
    seasonal, m = target.seasonal, target.m
    a, b_, gmm, phi = target.columns(values)

    level, trend = init.level, init.trend
    ring = init.ring.astype(np.float64).copy()
    fitted = np.zeros(T)
    for t in range(T):
        if not mask[t]:
            continue
        slot = t % m
        s_m = ring[slot] if seasonal else 1.0
        v = level + phi[t] * trend
        if seasonal:
            if v <= GUARD_EPS or s_m <= GUARD_EPS:
                raise NumericError(
                    f"series {series_id!r}: non-positive smoothing state at step {t} "
                    f"(level+phi*trend={v:.3g}, seasonal={s_m:.3g})"
                )
            fitted[t] = v * s_m
            new_level = a[t] * (y[t] / s_m) + (1.0 - a[t]) * v
            new_trend = b_[t] * (new_level - level) + (1.0 - b_[t]) * phi[t] * trend
            ring[slot] = gmm[t] * y[t] / v + (1.0 - gmm[t]) * s_m
        else:
            fitted[t] = v
            new_level = a[t] * y[t] + (1.0 - a[t]) * v
            new_trend = b_[t] * (new_level - level) + (1.0 - b_[t]) * trend
        level, trend = new_level, new_trend
    # ring re-ordered oldest-first relative to the last unmasked step
    t_last = int(np.nonzero(mask)[0][-1]) + 1 if mask.any() else 0
    order = (t_last + np.arange(m)) % m
    return fitted, EtsState(level, trend, ring[order])


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


def ets_derivatives(y, raw, spec: TargetSpec, init: EtsState, mask=None, series_id=""):
    """Loss, gradient and Gauss-Newton Hessian w.r.t. the raw parameters.

    Forward sensitivity recursion: alongside (level, trend, ring) we carry
    their Jacobians against every (time step, parameter) pair, then chain
    through the sigmoid links.  Cost is O(T^2 P) per series.
    Returns (loss, g, h, fitted) with g/h shaped like ``raw``.
    """
    y = np.asarray(y, dtype=np.float64)
    T = len(y)
    raw = np.asarray(raw, dtype=np.float64)
    P = raw.shape[1]
    if mask is None:
        mask = np.ones(T, dtype=bool)
    target = spec.target
    values = target.link(raw)
    slopes = target.slope(raw)
    target.check_domain(values)
    seasonal, m = target.seasonal, target.m
    a, b_, gmm, phi = target.columns(values)

    level, trend = init.level, init.trend
    ring = init.ring.astype(np.float64).copy()
    Jl = np.zeros((T, P))
    Jb = np.zeros((T, P))
    Jring = np.zeros((m, T, P))
    fitted = np.zeros(T)
    g = np.zeros((T, P))
    h = np.zeros((T, P))
    loss = 0.0

    for t in range(T):
        if not mask[t]:
            continue
        slot = t % m
        v = level + phi[t] * trend
        dv = Jl + phi[t] * Jb
        if seasonal:
            dv[t, PHI] += trend * slopes[t, PHI]
            s_m = ring[slot]
            if v <= GUARD_EPS or s_m <= GUARD_EPS:
                raise NumericError(
                    f"series {series_id!r}: non-positive smoothing state at step {t}"
                )
            ds_m = Jring[slot]
            f = v * s_m
            df = s_m * dv + v * ds_m
            u = y[t] / s_m
            du = -(u / s_m) * ds_m
            new_Jl = a[t] * du + (1.0 - a[t]) * dv
            new_Jl[t, ALPHA] += (u - v) * slopes[t, ALPHA]
            new_level = a[t] * u + (1.0 - a[t]) * v
            new_Jb = b_[t] * (new_Jl - Jl) + (1.0 - b_[t]) * phi[t] * Jb
            new_Jb[t, BETA] += (new_level - level - phi[t] * trend) * slopes[t, BETA]
            new_Jb[t, PHI] += (1.0 - b_[t]) * trend * slopes[t, PHI]
            new_trend = b_[t] * (new_level - level) + (1.0 - b_[t]) * phi[t] * trend
            new_Js = (-gmm[t] * y[t] / (v * v)) * dv + (1.0 - gmm[t]) * ds_m
            new_Js[t, GAMMA] += (y[t] / v - s_m) * slopes[t, GAMMA]
            ring[slot] = gmm[t] * y[t] / v + (1.0 - gmm[t]) * s_m
            Jring[slot] = new_Js
        else:
            f = v
            df = dv
            new_Jl = (1.0 - a[t]) * dv
            new_Jl[t, ALPHA] += (y[t] - v) * slopes[t, ALPHA]
            new_level = a[t] * y[t] + (1.0 - a[t]) * v
            new_Jb = b_[t] * (new_Jl - Jl) + (1.0 - b_[t]) * Jb
            new_Jb[t, BETA] += (new_level - level - trend) * slopes[t, BETA]
            new_trend = b_[t] * (new_level - level) + (1.0 - b_[t]) * trend
        fitted[t] = f
        r = f - y[t]
        loss += r * r
        g += 2.0 * r * df
        h += 2.0 * df * df
        level, trend = new_level, new_trend
        Jl, Jb = new_Jl, new_Jb
    return loss, g, h, fitted


# --------------------------------------------------------------------------
# trend + Fourier seasonality kernels
# --------------------------------------------------------------------------

def stl_basis(spec: TargetSpec, t: np.ndarray) -> np.ndarray:
    """Columns [1, t, sin(2 pi i t / p)..., cos(2 pi i t / p)...]."""
    t = np.asarray(t, dtype=np.float64)
    cols = [np.ones_like(t), t]
    w = 2.0 * np.pi / spec.period
    for i in range(1, spec.n_season + 1):
        cols.append(np.sin(w * i * t))
    for i in range(1, spec.n_season + 1):
        cols.append(np.cos(w * i * t))
    return np.column_stack(cols)


def stl_components(values: np.ndarray, t: np.ndarray, spec: TargetSpec):
    """(trend, seasonality, fitted = trend + seasonality) per row."""
    B = stl_basis(spec, t)
    trend = values[:, 0] + values[:, 1] * np.asarray(t, dtype=np.float64)
    seas = np.einsum("np,np->n", values[:, 2:], B[:, 2:])
    return trend, seas, trend + seas


def _diff_penalty(x):
    """(value, gradient, hessian diagonal) of sum (dx)^2 + sum (d2x)^2."""
    n = len(x)
    val = 0.0
    grad = np.zeros(n)
    hess = np.zeros(n)
    if n >= 2:
        d1 = np.diff(x)
        val += float(np.dot(d1, d1))
        grad[:-1] -= 2.0 * d1
        grad[1:] += 2.0 * d1
        hess[:-1] += 2.0
        hess[1:] += 2.0
    if n >= 3:
        d2 = np.diff(x, 2)
        val += float(np.dot(d2, d2))
        grad[:-2] += 2.0 * d2
        grad[1:-1] -= 4.0 * d2
        grad[2:] += 2.0 * d2
        hess[:-2] += 2.0
        hess[1:-1] += 8.0
        hess[2:] += 2.0
    return val, grad, hess


def stl_loss_grad(raw, t, y, spec: TargetSpec, mask=None):
    """Squared error plus smoothness penalty on the two trend coefficients.

    The penalty weighs squared first and second differences of the
    intercept and slope sequences along time, over the unmasked rows.
    Returns (loss, g, h, fitted).
    """
    raw = np.asarray(raw, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    T = len(y)
    if mask is None:
        mask = np.ones(T, dtype=bool)
    w = mask.astype(np.float64)
    B = stl_basis(spec, t)
    fitted = np.einsum("np,np->n", raw, B)
    loss = float(np.sum(w * (fitted - y) ** 2))
    g = 2.0 * (w * (fitted - y))[:, None] * B
    h = 2.0 * w[:, None] * B * B
    if spec.penalty > 0:
        sel = np.nonzero(mask)[0]
        for col in (0, 1):
            pv, pg, ph = _diff_penalty(raw[sel, col])
            loss += spec.penalty * pv
            g[sel, col] += spec.penalty * pg
            h[sel, col] += spec.penalty * ph
    fitted = np.where(mask, fitted, 0.0)
    return loss, g, h, fitted


# --------------------------------------------------------------------------
# one class per target kind
# --------------------------------------------------------------------------

class Target:
    """The protocol (see the module docstring), with the identity-link
    defaults of the kinds that need nothing else."""

    per_series = False
    time_feature = False

    def __init__(self, spec: TargetSpec):
        self.spec = spec

    def link(self, raw: np.ndarray) -> np.ndarray:
        return np.asarray(raw, dtype=np.float64).copy()

    def slope(self, raw: np.ndarray) -> np.ndarray:
        return np.ones_like(np.asarray(raw, dtype=np.float64))

    def base(self, ds) -> np.ndarray:
        return np.zeros(len(self.param_names))

    def prepare(self, ds):
        return ds

    def bind(self, ds):
        return ds.mask.copy(), None

    def fitted_jacobian(self, ds, weight, state):
        return None

    def forecast_state(self, model, ds):
        return None


class ArTarget(Target):
    """fitted_t = sum_j theta_{j,t} * x_{t,j} over a fixed design, here the
    lags y_{t-j}; rows without lags fit 0."""

    @property
    def param_names(self) -> tuple:
        return tuple(f"ar_{j}" for j in range(1, self.spec.p + 1))

    def prepare(self, ds):
        return build_lags(ds, self.spec.p)

    def design(self, ds):
        """(training weight, (N, P) regressors)."""
        if ds.lags is None or ds.p != self.spec.p:
            raise ValueError("dataset lags not built for this AR order")
        return ds.lag_valid & ds.mask, ds.lags

    def bind(self, ds):
        weight, X = self.design(ds)
        # constants of the quadratic objective, shared across rounds
        X = np.where(weight[:, None], X, 0.0)
        h = np.where(weight[:, None], np.maximum(2.0 * X * X, HESS_FLOOR), 0.0)
        return weight, (X, h, np.where(weight, ds.y, 0.0))

    def loss(self, raw, ds, state):
        # identity link; regressors pre-zeroed outside the training weight,
        # so fitted and r vanish there and h is the cached constant
        X, h, y = state
        fitted = np.einsum("np,np->n", raw, X)
        r = fitted - y
        g = (2.0 * r)[:, None] * X
        return float(np.dot(r, r)), g, h, fitted

    def fitted_jacobian(self, ds, weight, state):
        return state[0]

    def forecast(self, values, ds, i, t_future, state):
        rows = ds.rows_of(i)
        return ar_forecast_recursive(values, ds.y[rows][ds.mask[rows]], len(values))


class SmoothingTarget(Target):
    """Damped-trend smoothing with multiplicative seasonality; its state
    couples the rows of a series, so there is no row-local Jacobian."""

    per_series = True
    seasonal = True

    def __init__(self, spec: TargetSpec):
        super().__init__(spec)
        self.m = spec.m if self.seasonal else 1
        self._scale = np.full(len(self.param_names), 1.0 - 2.0 * SIG_EPS)
        if self.seasonal:
            self._scale[PHI] = 1.0 - SIG_EPS  # damping may reach 1

    @property
    def param_names(self) -> tuple:
        return ("alpha", "beta", "gamma", "phi") if self.seasonal else ("alpha", "beta")

    def link(self, raw):
        return SIG_EPS + self._scale * _sigmoid(np.asarray(raw, dtype=np.float64))

    def slope(self, raw):
        s = _sigmoid(np.asarray(raw, dtype=np.float64))
        return self._scale * s * (1.0 - s)

    def base(self, ds):
        # every parameter starts at 0.3 through the link
        s = (0.3 - SIG_EPS) / self._scale
        return np.array([math.log(x / (1.0 - x)) for x in s])

    def prepare(self, ds):
        return pad_for_ets(ds)

    def columns(self, values):
        """(alpha, beta, gamma, phi) columns; the linear variant fixes gamma=0, phi=1."""
        if self.seasonal:
            return values[:, ALPHA], values[:, BETA], values[:, GAMMA], values[:, PHI]
        n = values.shape[0]
        return values[:, 0], values[:, 1], np.zeros(n), np.ones(n)

    def check_domain(self, values):
        a, b, gmm, phi = self.columns(values)
        if np.any((a < 0) | (a > 1)) or np.any((b < 0) | (b > 1)) or np.any((gmm < 0) | (gmm > 1)):
            raise NumericError("smoothing parameters must lie in [0, 1]")
        if np.any((phi <= 0) | (phi > 1)):
            raise NumericError("damping factor must lie in (0, 1]")

    def bind(self, ds):
        inits = []  # each series' start state, from its unmasked observations
        for i in range(ds.n_series):
            rows = ds.rows_of(i)
            inits.append(ets_init(ds.y[rows][ds.mask[rows]], self.spec.m, self.seasonal))
        return ds.mask.copy(), inits

    def series_loss(self, raw, ds, i, rows, inits):
        return ets_derivatives(ds.y[rows], raw, self.spec, inits[i],
                               ds.mask[rows], ds.series[i].series_id)

    def forecast_state(self, model, ds):
        # the filter replays the training rows to reach each series' end state
        _, values = model.predict_parameters(model.recipe.build(ds).X)
        return values, self.bind(ds)[1]

    def forecast(self, values, ds, i, t_future, state):
        values_t, inits = state
        rows = ds.rows_of(i)
        _, end = ets_filter(ds.y[rows], values_t[rows], self.spec, inits[i],
                            ds.mask[rows], ds.series[i].series_id)
        h = len(values)
        phi = values[:, PHI] if self.seasonal else np.ones(h)
        return ets_forecast(end, phi, h, self.spec)


class LinearSmoothingTarget(SmoothingTarget):
    """Linear-trend smoothing: no seasonal ring and no damping factor."""

    seasonal = False


class StlTarget(Target):
    """Trend (intercept + slope * t) plus Fourier seasonality, with a
    smoothness penalty on the trend coefficients along each series."""

    per_series = True
    time_feature = True

    @property
    def param_names(self) -> tuple:
        n = self.spec.n_season
        return (
            ("trend_intercept", "trend_slope")
            + tuple(f"sin_{i}" for i in range(1, n + 1))
            + tuple(f"cos_{i}" for i in range(1, n + 1))
        )

    def base(self, ds):
        base = np.zeros(len(self.param_names))
        base[0] = float(np.mean(ds.y[ds.mask]))
        return base

    def series_loss(self, raw, ds, i, rows, state):
        return stl_loss_grad(raw, ds.time_index[rows], ds.y[rows], self.spec, ds.mask[rows])

    def fitted_jacobian(self, ds, weight, state):
        return stl_basis(self.spec, ds.time_index) * weight[:, None]

    def forecast(self, values, ds, i, t_future, state):
        return stl_components(values, t_future, self.spec)[2]


class DirectTarget(ArTarget):
    """No target model: the single parameter, times a constant regressor
    of 1, is the fitted value."""

    param_names = ("output",)

    def prepare(self, ds):
        return ds

    def design(self, ds):
        return ds.mask.copy(), np.ones((ds.n_rows, 1))

    def base(self, ds):
        return np.array([float(np.mean(ds.y[ds.mask]))])

    def forecast(self, values, ds, i, t_future, state):
        return values[:, 0]


KINDS = {
    "ar": ArTarget,
    "ets": SmoothingTarget,
    "ets_linear": LinearSmoothingTarget,
    "stl": StlTarget,
    "direct": DirectTarget,
}


# --------------------------------------------------------------------------
# objective adapter: binds a prepared dataset to a target spec
# --------------------------------------------------------------------------

class Objective:
    """Loss/gradient/Hessian of a target model over a panel dataset.

    ``evaluate`` maps an (N, P) raw parameter matrix to (loss_sum, g, h,
    fitted); h is Gauss-Newton, floored at HESS_FLOOR on contributing rows
    and exactly zero elsewhere.  Returned arrays may be cached and shared
    across calls; treat them as read-only.  Per-series recursions are
    independent.
    """

    def __init__(self, ds, spec: TargetSpec):
        self.ds = ds
        self.target = spec.target
        self.weight, self._state = self.target.bind(ds)
        self._series_rows = [ds.rows_of(i) for i in range(ds.n_series)]
        self.n_weight = int(self.weight.sum())
        if self.n_weight == 0:
            raise NumericError("no unmasked training rows: loss is empty")

    def _final(self, loss, g, h, fitted):
        w = self.weight
        g = np.where(w[:, None], g, 0.0)
        h = np.where(w[:, None], np.maximum(h, HESS_FLOOR), 0.0)
        return loss, g, h, fitted

    def evaluate(self, raw: np.ndarray):
        target, ds = self.target, self.ds
        if not target.per_series:
            return target.loss(raw, ds, self._state)
        g = np.zeros_like(raw)
        h = np.zeros_like(raw)
        fitted = np.zeros(ds.n_rows)
        loss = 0.0
        for i, rows in enumerate(self._series_rows):
            li, gi, hi, fi = target.series_loss(raw[rows], ds, i, rows, self._state)
            loss += li
            g[rows] = gi
            h[rows] = hi
            fitted[rows] = fi
        return self._final(loss, g, h, fitted)

    def local_fitted_jacobian(self, raw: np.ndarray):
        """d fitted_row / d raw_row for targets whose fit is row-local.

        Used for Gauss-Newton transport of curvature onto embeddings.
        Returns None for the smoothing recursions (state couples rows).
        """
        return self.target.fitted_jacobian(self.ds, self.weight, self._state)
