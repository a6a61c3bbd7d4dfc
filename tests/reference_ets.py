"""Reference smoothing kernels: the single-series loops, one Python step
per time step.

``ets_init`` builds one series' start state from its observations, as an
``EtsState`` record; tests compare the panel-wide ``targets.ets_init``
against it.  ``reference_filter`` is the scalar one-step-ahead filter and
``reference_derivatives`` the forward sensitivity recursion, which carries
the Jacobian of every state against every (step, parameter) pair.  Tests
compare the batched forward and adjoint passes of ``treecast.targets``
against them.
"""

from dataclasses import dataclass

import numpy as np

from treecast.errors import NumericError
from treecast.targets import ALPHA, BETA, GAMMA, GUARD_EPS, PHI, TargetSpec


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


def series_inits(ds, m: int, seasonal: bool) -> list:
    """One ``EtsState`` per series of a panel, from its values; the first
    series whose start state cannot be built raises, named."""
    inits = []
    for i, s in enumerate(ds.series):
        try:
            inits.append(ets_init(ds.y[ds.rows_of(i)], m, seasonal))
        except NumericError as exc:
            raise NumericError(f"series {s.series_id!r}: {exc}") from None
    return inits


def reference_filter(y, values, spec: TargetSpec, init: EtsState, mask=None, series_id=""):
    """One-step-ahead filter, one Python step per t.

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



def reference_derivatives(y, raw, spec: TargetSpec, init: EtsState, mask=None, series_id=""):
    """Loss, gradient and Gauss-Newton Hessian w.r.t. the raw parameters.

    Forward sensitivity recursion: alongside (level, trend, ring) it carries
    their Jacobians against every (time step, parameter) pair, then chains
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
