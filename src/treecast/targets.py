"""Target time-series models driven by per-observation parameter vectors.

Each target kind is one ``Target`` class, and ``KINDS`` maps the kind
named in a ``TargetSpec`` to it; training, forecasting and data
preparation reach a kind only through its class.  A kind supplies

- ``param_names``, one per raw parameter column; ``link(raw)`` into the
  parameter domain, its elementwise ``slope``, and ``base(ds)``, the raw
  start every ensemble boosts from;
- ``time_feature``, whether the trees also see the raw time index;
- ``bind(ds)`` -> (training weight, ``state`` reused by every loss); the
  autoregressive kind builds its lag design here, from the panel's rows,
  and the smoothing kinds lay the rows on their (T, S) grid;
- ``loss(raw, ds, state)`` -> (loss, g, h, fitted) over the whole panel,
  g and h zero off the training weight and h floored on it;
- ``fitted_jacobian(ds, state)`` when the fit is row-local, else None;
- ``forecast_state(model, ds)`` once per panel, from the model's
  ``parameters(ds)`` where the kind needs them, then ``forecast(values, ds,
  t_future, state)`` -> (S, h) forecasts of every series from the (S, h, P)
  horizon parameters and (S, h) time indices.

The numeric kernels the classes call are plain functions.  Smoothing
parameters pass through scaled sigmoids so alpha/beta/gamma stay inside
(0, 1) and the damping factor inside (0, 1]; autoregressive and
trend/Fourier coefficients use the identity link.

Second derivatives use the Gauss-Newton form 2*(d fitted / d param)^2,
which is exact for the autoregressive target under squared error and
positive by construction everywhere else.

The smoothing targets differentiate the innovations state-space form of
exponential smoothing (Hyndman et al., *Forecasting with Exponential
Smoothing*, 2008) in reverse mode (Griewank & Walther, *Evaluating
Derivatives*, 2008): one forward pass over t records the states, and one
backward pass carries the adjoint lambda and the d x d Gauss-Newton
matrix W (d = 2 + m) from which every step's gradient and Hessian
diagonal follow.  Both passes run over every series of the panel at once,
on one (T, S) grid whose cells past a series' end are masked, so a series
costs O(T m) rather than the O(T^2 P) of forward sensitivities; see
``_ets_adjoint``.  A smoothing state has one form, start and end alike:
the array triple level (S,), trend (S,) and ring (S, m), which
``ets_init`` builds for every series at once and ``_ets_end_states``
gathers after the forward pass.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass
from functools import cached_property
from typing import Literal, get_args

import numpy as np

from .boosting import floor_hessian
from .errors import DataError, NumericError

SIG_EPS = 1e-6     # keeps smoothing parameters strictly inside their domain
GUARD_EPS = 1e-8   # multiplicative recursion positivity guard

ALPHA, BETA, GAMMA, PHI = 0, 1, 2, 3

Damping = Literal["power", "cumprod"]


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
    damping: Damping = "power"

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown target kind {self.kind!r}")
        if self.kind == "ar" and self.p < 1:
            raise ValueError("ar target needs p >= 1")
        if self.damping not in get_args(Damping):
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
    e = np.exp(-np.abs(x))  # never overflows
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


# --------------------------------------------------------------------------
# autoregressive kernel
# --------------------------------------------------------------------------

def ar_design(y: np.ndarray, series_idx: np.ndarray, p: int):
    """(rows with p lags, (N, p) regressors): row t of a series holds
    y_{t-1}, ..., y_{t-p} of that series, and 0 when it has fewer than p
    rows before t.

    Rows of one series are contiguous, so row r has p lags of its own
    series exactly when row r - p belongs to that series.
    """
    n = len(y)
    valid = np.zeros(n, dtype=bool)
    X = np.zeros((n, p))
    if n > p:
        valid[p:] = series_idx[p:] == series_idx[:-p]
        for j in range(1, p + 1):
            X[p:, j - 1] = y[p - j:n - j]
        X[~valid] = 0.0
    return valid, X


def ar_histories(ds, p: int) -> np.ndarray:
    """(S, p): the last p observed values of every series, the seeds of an
    AR(p) forecast; a shorter series is a data error naming the first."""
    counts = np.bincount(ds.series_idx, minlength=ds.n_series)
    short = np.flatnonzero(counts < p)
    if short.size:
        i = short[0]
        raise DataError(f"series {ds.series[i].series_id!r}: an AR({p}) forecast needs "
                        f"{p} observed values, got {counts[i]}")
    return ds.y[np.cumsum(counts)[:, None] - p + np.arange(p)]


def ar_forecast(theta: np.ndarray, history: np.ndarray, intercept=0.0) -> np.ndarray:
    """(S, h) forecasts: iterate y_t = intercept + sum_j theta_{t,j} y_{t-j}
    over the horizon of every series at once, feeding forecasts back as lags.

    ``theta`` is (S, h, p), ``history`` (S, >= p) the observed values ahead
    of the horizon and ``intercept`` a scalar or one value per series.  The
    sum runs j = 1..p left to right, then the intercept is added.
    """
    S, h, p = theta.shape
    buf = np.empty((S, p + h))
    buf[:, :p] = history[:, -p:]
    for k in range(h):
        # theta_{t,j} y_{t-j} for j = 1..p; cumsum adds them strictly left to
        # right, where np.sum would add them pairwise
        terms = theta[:, k] * buf[:, k:k + p][:, ::-1]
        buf[:, p + k] = intercept + np.cumsum(terms, axis=1)[:, -1]
    return buf[:, p:]


# --------------------------------------------------------------------------
# exponential smoothing kernels (damped trend, multiplicative seasonality;
# the linear-trend variant drops the seasonal ring and the damping factor)
# --------------------------------------------------------------------------

def ets_init(y, mask, m: int, seasonal: bool, series_ids):
    """Every series' start state (level (S,), trend (S,), ring (S, m)) from
    the first unmasked values of a (T, S) grid, Holt-Winters style.

    level = mean of a series' first min(m, n) values; trend = (mean of the
    second m - mean of the first m) / m when n >= 2m, else 0; seasonal ring
    = first m values over the level, normalized to mean 1 (ones when n < m,
    and ones (S, 1) for the linear variant).  Each mean is one row-wise mean
    per distinct count, so it adds one series' values as ``np.mean`` of
    them does.  A series with no unmasked value, or, when seasonal, a level
    <= GUARD_EPS or a ring summing to <= GUARD_EPS raises ``NumericError``
    naming the lowest failing series.
    """
    T, S = y.shape
    n = mask.sum(axis=0)
    # row i: series i's first min(2m, T) unmasked values, then masked ones
    first = np.take_along_axis(y.T, np.argsort(~mask.T, axis=1, kind="stable")[:, :2 * m], axis=1)
    level, trend = np.zeros(S), np.zeros(S)
    take = np.minimum(n, m)
    for k in set(take.tolist()) - {0}:
        level[take == k] = np.mean(first[take == k, :k], axis=1)
    full = n >= 2 * m
    if full.any():
        with np.errstate(invalid="ignore"):  # inf - inf after an overflowing mean, as on floats
            trend[full] = (np.mean(first[full, m:2 * m], axis=1) - level[full]) / m
    ring = np.ones((S, m if seasonal else 1))
    checks = {"cannot initialize smoothing state from empty series": n == 0}
    if seasonal:
        low = level <= GUARD_EPS
        on = (n >= m) & ~low
        if on.any():
            ring[on] = first[on, :m] / level[on, None]
        total = ring.sum(axis=1)
        flat = on & (total <= GUARD_EPS)
        ring[on & ~flat] *= (m / total[on & ~flat])[:, None]
        checks["multiplicative smoothing needs a positive starting level"] = low
        checks["degenerate seasonal initialization"] = flat
    failed = np.any(list(checks.values()), axis=0)
    if failed.any():
        i = np.argmax(failed)
        raise NumericError(f"series {series_ids[i]!r}: "
                           + next(msg for msg, hit in checks.items() if hit[i]))
    return level, trend, ring


def _ets_forward(target, y, values, mask, start, series_ids):
    """Filter every series of a (T, S) grid at once, one step per t.

    ``y`` and ``mask`` are (T, S), ``values`` (T, S, P) and ``start`` the
    (level, trend, ring) triple that ``ets_init`` and ``_ets_end_states``
    return.  Each step is the one-step-ahead filter

        fitted_t = (l_{t-1} + phi_t b_{t-1}) * s_{t-m},

    then the level/trend/seasonal update, in the order of the single-series
    recursion so every state is bit-identical to it.  Masked steps freeze
    the state.  Returns (level, trend, ring, v, s): ``level``/``trend``
    (T+1, S) hold the state before each step and the end state in row T;
    row t of ``ring`` (T+m, S) is the seasonal value step t reads (slot
    t % m) and row t+m the value it leaves there, so rows T..T+m-1 are the
    end ring; the linear variant keeps no ring.  ``v`` = level + phi *
    trend and ``s`` (1 for the linear variant) are each step's factors of
    fitted = v * s.

    The parameters' domain is checked first, the positivity guard on the
    recorded states after the loop: it raises ``NumericError`` at the
    earliest failing step, naming the lowest failing series.  Steps after a
    failure run on garbage, hence the silenced floating-point warnings.
    """
    target.check_domain(values)
    T, S = y.shape
    seasonal, m = target.seasonal, target.m
    a, b, gmm, phi = target.columns(values)
    oma, ombphi = 1.0 - a, (1.0 - b) * phi
    level, trend = np.empty((T + 1, S)), np.empty((T + 1, S))
    level[0], trend[0] = start[0], start[1]
    if seasonal:
        ring = np.empty((T + m, S))
        ring[:m] = start[2].T
        gy, omg = gmm * y, 1.0 - gmm
    else:
        ring, ay = None, a * y
    active, full, off = mask.any(axis=1), mask.all(axis=1), ~mask
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for t in range(T):
            lv, tr = level[t], trend[t]
            if not active[t]:
                level[t + 1], trend[t + 1] = lv, tr
                if seasonal:
                    ring[t + m] = ring[t]
                continue
            v = lv + phi[t] * tr
            if seasonal:
                s = ring[t]
                nl = np.add(a[t] * (y[t] / s), oma[t] * v, out=level[t + 1])
                np.add(gy[t] / v, omg[t] * s, out=ring[t + m])
            else:
                nl = np.add(ay[t], oma[t] * v, out=level[t + 1])
            np.add(b[t] * (nl - lv), ombphi[t] * tr, out=trend[t + 1])
            if not full[t]:
                np.copyto(level[t + 1], lv, where=off[t])
                np.copyto(trend[t + 1], tr, where=off[t])
                if seasonal:
                    np.copyto(ring[t + m], s, where=off[t])
    v = level[:T] + phi * trend[:T]
    s = ring[:T] if seasonal else np.ones_like(v)
    if seasonal:
        bad = mask & ((v <= GUARD_EPS) | (s <= GUARD_EPS))
        if bad.any():
            t, i = np.argwhere(bad)[0]
            raise NumericError(
                f"series {series_ids[i]!r}: non-positive smoothing state at step {t} "
                f"(level+phi*trend={v[t, i]:.3g}, seasonal={s[t, i]:.3g})"
            )
    return level, trend, ring, v, s


# C pow() element by element, as (phi_{t+j})^j was always taken: np.power
# over an array may differ from it in the last bit
_scalar_pow = np.frompyfunc(math.pow, 2, 1)


def _ets_end_states(target, mask, level, trend, ring):
    """Every series' end state: level (S,), trend (S,) and ring (S, m), the
    ring oldest-first relative to the series' last unmasked step (ones for
    the linear variant)."""
    T, S = mask.shape
    m = target.m
    if not target.seasonal:
        return level[T], trend[T], np.ones((S, m))
    t_last = np.where(mask.any(axis=0), T - np.argmax(mask[::-1], axis=0), 0)
    # slot q ends in ring row T + (q - T) % m
    return level[T], trend[T], ring[T + (t_last[:, None] + np.arange(m) - T) % m,
                                    np.arange(S)[:, None]]


def _ets_adjoint(target, y, mask, values, slope, level, trend, v, s):
    """Loss, gradient and Gauss-Newton Hessian over a (T, S) grid from the
    states ``_ets_forward`` recorded.

    The state x = (level, trend, ring) has d = 2 + m entries and step t maps
    it by x' = A_t x (linearized), where A_t is the identity except a block
    on I_t = (level, trend, slot t % m).  That block, its derivative B_t
    against the step's raw parameters and c_t = d fitted_t / d x_I =
    (s, phi s, v) are built at once for every (t, series).  One backward
    pass then accumulates, per series,

        lambda <- 2 r_t c_t + A_t^T lambda          (reverse mode)
        W      <- c_t c_t^T + A_t^T W A_t           (d x d)

    so that, with lambda and W taken after step t,

        g_t = 2 r_t df_t/dtheta_t + B_t^T lambda_I
        h_t = 2 [(df_t/dtheta_t)^2 + diag(B_t^T W_II B_t)]

    where h is the exact Gauss-Newton diagonal 2 sum_tau (df_tau /
    dtheta_t)^2.  A step touches only the rows and columns I_t of W, so a
    series costs O(T m), not the O(T^2 P) of carrying every state's
    Jacobian forward.  Masked steps use A = I and c = 0.  lambda rides as
    the last column of W's row block so one product updates both.
    Returns (loss, g, h, fitted) with g/h (T, S, P), zero on masked cells.
    """
    T, S = y.shape
    P = values.shape[-1]
    seasonal, m = target.seasonal, target.m
    n = 3 if seasonal else 2          # the block I_t
    d = 2 + m if seasonal else 2      # the state
    a, b, gmm, phi = target.columns(values)
    lv, tr = level[:T], trend[:T]
    fitted = np.where(mask, v * s, 0.0)
    r = np.where(mask, fitted - y, 0.0)
    off = ~mask

    oma, omb = 1.0 - a, 1.0 - b
    A = np.zeros((T, S, n, n))        # rows: new (level, trend, slot); columns: old
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        u = y / s
        dtrend = b * oma + omb        # d trend' / d (phi * trend)
        A[..., 0, 0], A[..., 0, 1] = oma, oma * phi
        A[..., 1, 0], A[..., 1, 1] = -b * a, dtrend * phi
        if seasonal:
            q = -gmm * y / (v * v)    # d slot' / d v
            A[..., 0, 2] = -a * u / s
            A[..., 1, 2] = b * A[..., 0, 2]
            A[..., 2, 0], A[..., 2, 1], A[..., 2, 2] = q, q * phi, 1.0 - gmm
    A[off] = np.eye(n)
    c = np.stack([s, phi * s, v][:n], axis=-1)
    c[off] = 0.0
    At = A.swapaxes(-1, -2)
    cc = c[..., :, None] * c[..., None, :]
    rc2 = 2.0 * r[..., None] * c

    # W (S, d, d) with lambda appended as column d; rec[t] keeps W_II and
    # lambda_I as they stand after step t, the ones g_t and h_t read
    Z = np.zeros((S, d, d + 1))
    rec = np.zeros((T, S, n, n + 1))
    slots = [np.array([0, 1, 2 + k][:n]) for k in range(m)]
    with_lam = [np.append(I, d) for I in slots]
    active = mask.any(axis=1)
    for t in range(T - 1, -1, -1):
        if not active[t]:
            continue
        I = slots[t % m]
        rows = Z.take(I, axis=1)
        rec[t] = rows.take(with_lam[t % m], axis=2)
        rows = At[t] @ rows
        rows[:, :, d] += rc2[t]
        blk = rows.take(I, axis=2) @ A[t]
        blk += cc[t]
        rows[:, :, I] = blk
        Z[:, I] = rows
        Z[:, :, I] = rows[:, :, :d].transpose(0, 2, 1)
    del A, At, cc, rc2  # B is built only now, to keep the peak memory down

    B = np.zeros((T, S, n, P))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        B[..., 0, ALPHA] = u - v
        B[..., 1, ALPHA] = b * (u - v)
        B[..., 1, BETA] = level[1:] - lv - phi * tr
        if seasonal:
            B[..., 0, PHI] = oma * tr
            B[..., 1, PHI] = dtrend * tr
            B[..., 2, GAMMA] = y / v - s
            B[..., 2, PHI] = q * tr
            df_phi = np.where(mask, s * tr * slope[..., PHI], 0.0)
        B *= slope[..., None, :]
    B[off] = 0.0

    W, lam = rec[..., :n], rec[..., n]
    g = np.einsum("tsnp,tsn->tsp", B, lam)
    h = np.zeros((T, S, P))  # diag(B^T W B) term by term: W is symmetric
    for i in range(n):
        h += W[..., i, i, None] * B[..., i, :] ** 2
        for j in range(i):
            h += 2.0 * W[..., i, j, None] * B[..., i, :] * B[..., j, :]
    if seasonal:
        g[..., PHI] += 2.0 * r * df_phi
        h[..., PHI] += df_phi * df_phi
    h *= 2.0
    return float(np.sum(r * r)), g, h, fitted


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


def _diff_penalty(x, same1, same2):
    """(value, gradient, hessian diagonal) of sum (dx)^2 + sum (d2x)^2,
    counting only the differences whose rows lie in one series: ``same1``
    flags the first differences, ``same2`` the second."""
    grad = np.zeros(len(x))
    hess = np.zeros(len(x))
    d1 = np.where(same1, np.diff(x), 0.0)
    val = float(np.dot(d1, d1))
    grad[:-1] -= 2.0 * d1
    grad[1:] += 2.0 * d1
    hess[:-1] += 2.0 * same1
    hess[1:] += 2.0 * same1
    d2 = np.where(same2, np.diff(x, 2), 0.0)
    val += float(np.dot(d2, d2))
    grad[:-2] += 2.0 * d2
    grad[1:-1] -= 4.0 * d2
    grad[2:] += 2.0 * d2
    hess[:-2] += 2.0 * same2
    hess[1:-1] += 8.0 * same2
    hess[2:] += 2.0 * same2
    return val, grad, hess


def _stl_loss(raw, t, y, spec: TargetSpec, series_idx):
    """Squared error plus smoothness penalty over a panel whose row r belongs
    to series ``series_idx[r]``.

    The penalty weighs squared first and second differences of the
    intercept and slope sequences along time, within each series; a
    difference that would cross a series boundary counts zero.
    Returns (loss, g, h, fitted).
    """
    B = stl_basis(spec, t)
    fitted = np.einsum("np,np->n", raw, B)
    r = fitted - y
    loss = float(np.sum(r ** 2))
    g = 2.0 * r[:, None] * B
    h = 2.0 * B * B
    if spec.penalty > 0:
        same1 = series_idx[1:] == series_idx[:-1]
        same2 = same1[1:] & same1[:-1]
        for col in (0, 1):
            pv, pg, ph = _diff_penalty(raw[:, col], same1, same2)
            loss += spec.penalty * pv
            g[:, col] += spec.penalty * pg
            h[:, col] += spec.penalty * ph
    return loss, g, h, fitted


# --------------------------------------------------------------------------
# one class per target kind
# --------------------------------------------------------------------------

class Target:
    """The protocol (see the module docstring), with the identity-link
    defaults of the kinds that need nothing else."""

    time_feature = False

    def __init__(self, spec: TargetSpec):
        self.spec = spec

    def link(self, raw: np.ndarray) -> np.ndarray:
        return np.asarray(raw, dtype=np.float64).copy()

    def slope(self, raw: np.ndarray) -> np.ndarray:
        return np.ones_like(np.asarray(raw, dtype=np.float64))

    def base(self, ds) -> np.ndarray:
        return np.zeros(len(self.param_names))

    def bind(self, ds):
        return np.ones(ds.n_rows, dtype=bool), None

    def fitted_jacobian(self, ds, state):
        return None

    def forecast_state(self, model, ds):
        return None


class ArTarget(Target):
    """fitted_t = sum_j theta_{j,t} * x_{t,j} over a fixed design, here the
    lags y_{t-j}; rows without lags fit 0."""

    @property
    def param_names(self) -> tuple:
        return tuple(f"ar_{j}" for j in range(1, self.spec.p + 1))

    def design(self, ds):
        """(training weight, (N, P) regressors): the rows with p lags of
        their own series, and those lags (see ``ar_design``).  A series of
        at most p rows has no such row, and is warned about."""
        p = self.spec.p
        for s in ds.series:
            if len(s) < p + 1:
                warnings.warn(f"series {s.series_id!r} has {len(s)} rows, fewer than "
                              f"p+1={p + 1}; excluded from lag training")
        return ar_design(ds.y, ds.series_idx, p)

    def bind(self, ds):
        weight, X = self.design(ds)
        # constants of the quadratic objective, shared across rounds
        X[~weight] = 0.0
        return weight, (X, floor_hessian(2.0 * X * X, weight), np.where(weight, ds.y, 0.0))

    def loss(self, raw, ds, state):
        # identity link; regressors pre-zeroed outside the training weight,
        # so fitted and r vanish there and h is the cached constant
        X, h, y = state
        fitted = np.einsum("np,np->n", raw, X)
        r = fitted - y
        g = (2.0 * r)[:, None] * X
        return float(np.dot(r, r)), g, h, fitted

    def fitted_jacobian(self, ds, state):
        return state[0]

    def forecast_state(self, model, ds):
        return ar_histories(ds, self.spec.p)

    def forecast(self, values, ds, t_future, history):
        return ar_forecast(values, history)


class SmoothingTarget(Target):
    """Damped-trend smoothing with multiplicative seasonality; its state
    couples the rows of a series, so there is no row-local Jacobian.  The
    whole panel is filtered and differentiated at once, on a (T, S) grid
    that ``bind`` lays out: T is the longest series, and the cells past a
    shorter series' end are masked."""

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
        return self.link_slope(raw)[0]

    def slope(self, raw):
        return self.link_slope(raw)[1]

    def link_slope(self, raw):
        """(link, slope) from one sigmoid."""
        s = _sigmoid(np.asarray(raw, dtype=np.float64))
        return SIG_EPS + self._scale * s, self._scale * s * (1.0 - s)

    def base(self, ds):
        # every parameter starts at 0.3 through the link
        s = (0.3 - SIG_EPS) / self._scale
        return np.array([math.log(x / (1.0 - x)) for x in s])

    def columns(self, values):
        """(alpha, beta, gamma, phi) columns; the linear variant fixes gamma=0, phi=1."""
        if self.seasonal:
            return values[..., ALPHA], values[..., BETA], values[..., GAMMA], values[..., PHI]
        shape = values.shape[:-1]
        return values[..., 0], values[..., 1], np.zeros(shape), np.ones(shape)

    def check_domain(self, values):
        a, b, gmm, phi = self.columns(values)
        if np.any((a < 0) | (a > 1)) or np.any((b < 0) | (b > 1)) or np.any((gmm < 0) | (gmm > 1)):
            raise NumericError("smoothing parameters must lie in [0, 1]")
        if np.any((phi <= 0) | (phi > 1)):
            raise NumericError("damping factor must lie in (0, 1]")

    def bind(self, ds):
        """Every row's weight, and the grid: its layout, y and mask, and
        every series' start state.

        The layout is two index arrays for ``np.take``: ``cells`` (T, S)
        holds each cell's row (a cell past a series' end takes the series'
        last row, and is masked) and ``rows`` (N,) each row's flat cell.
        """
        lengths = np.bincount(ds.series_idx, minlength=ds.n_series)
        starts = np.cumsum(lengths) - lengths
        step = np.arange(lengths.max())[:, None]
        cells = starts + np.minimum(step, lengths - 1)
        rows = (np.arange(ds.n_rows) - starts[ds.series_idx]) * ds.n_series + ds.series_idx
        y, mask = np.take(ds.y, cells), step < lengths
        ids = [s.series_id for s in ds.series]
        start = ets_init(y, mask, self.spec.m, self.seasonal, ids)
        return np.ones(ds.n_rows, dtype=bool), (cells, rows, y, mask, start, ids)

    def loss(self, raw, ds, state):
        cells, rows, y, mask, start, ids = state
        values, slope = self.link_slope(np.take(raw, cells, axis=0))
        level, trend, _, v, s = _ets_forward(self, y, values, mask, start, ids)
        loss, g, h, fitted = _ets_adjoint(self, y, mask, values, slope, level, trend, v, s)
        P = raw.shape[1]
        g, h = np.take(g.reshape(-1, P), rows, axis=0), np.take(h.reshape(-1, P), rows, axis=0)
        return loss, g, floor_hessian(h), np.take(fitted, rows)

    def forecast_state(self, model, ds):
        # one forward pass over the training rows reaches every series' end state
        cells, _, y, mask, start, ids = self.bind(ds)[1]
        values = np.take(model.parameters(ds), cells, axis=0)
        level, trend, ring, _, _ = _ets_forward(self, y, values, mask, start, ids)
        return _ets_end_states(self, mask, level, trend, ring)

    def forecast(self, values, ds, t_future, ends):
        """(l + damping_sum * b) * seasonal, wrapping the ring.

        The "power" convention sums (phi_{t+j})^j over steps j as displayed
        in the damped-trend formula; "cumprod" the running product instead.
        """
        level, trend, ring = ends
        phi = self.columns(values)[PHI]
        steps = np.arange(1, phi.shape[1] + 1)
        if self.spec.damping == "power":
            terms = _scalar_pow(phi, steps).astype(np.float64)
        else:
            terms = np.cumprod(phi, axis=1)
        damp = np.cumsum(terms, axis=1)
        return (level[:, None] + damp * trend[:, None]) * ring[:, (steps - 1) % self.m]


class LinearSmoothingTarget(SmoothingTarget):
    """Linear-trend smoothing: no seasonal ring and no damping factor."""

    seasonal = False


class StlTarget(Target):
    """Trend (intercept + slope * t) plus Fourier seasonality, with a
    smoothness penalty on the trend coefficients along each series."""

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
        base[0] = float(np.mean(ds.y))
        return base

    def loss(self, raw, ds, state):
        loss, g, h, fitted = _stl_loss(raw, ds.time_index, ds.y, self.spec, ds.series_idx)
        return loss, g, floor_hessian(h), fitted

    def fitted_jacobian(self, ds, state):
        return stl_basis(self.spec, ds.time_index)

    def forecast(self, values, ds, t_future, state):
        S, h, P = values.shape
        return stl_components(values.reshape(-1, P), t_future.ravel(), self.spec)[2].reshape(S, h)


class DirectTarget(ArTarget):
    """No target model: the single parameter, times a constant regressor
    of 1, is the fitted value."""

    param_names = ("output",)

    def design(self, ds):
        return np.ones(ds.n_rows, dtype=bool), np.ones((ds.n_rows, 1))

    def base(self, ds):
        return np.array([float(np.mean(ds.y))])

    def forecast_state(self, model, ds):
        return None

    def forecast(self, values, ds, t_future, state):
        return values[..., 0]


KINDS = {
    "ar": ArTarget,
    "ets": SmoothingTarget,
    "ets_linear": LinearSmoothingTarget,
    "stl": StlTarget,
    "direct": DirectTarget,
}


# --------------------------------------------------------------------------
# objective adapter: binds a panel to a target spec
# --------------------------------------------------------------------------

class Objective:
    """Loss/gradient/Hessian of a target model over a panel dataset.

    ``evaluate`` maps an (N, P) raw parameter matrix to (loss_sum, g, h,
    fitted); h is Gauss-Newton, floored at HESS_FLOOR on contributing rows
    and exactly zero elsewhere.  Returned arrays may be cached and shared
    across calls; treat them as read-only.  Every kind evaluates the whole
    panel at once.
    """

    def __init__(self, ds, spec: TargetSpec):
        self.ds = ds
        self.target = spec.target
        self.weight, self._state = self.target.bind(ds)
        self.n_weight = int(self.weight.sum())
        if self.n_weight == 0:
            raise NumericError("no training rows: loss is empty")

    def evaluate(self, raw: np.ndarray):
        return self.target.loss(raw, self.ds, self._state)

    def local_fitted_jacobian(self, raw: np.ndarray):
        """d fitted_row / d raw_row for targets whose fit is row-local.

        Used for Gauss-Newton transport of curvature onto embeddings.
        Returns None for the smoothing recursions (state couples rows).
        """
        return self.target.fitted_jacobian(self.ds, self._state)
