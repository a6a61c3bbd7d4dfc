"""Reference smoothing kernels: the single-series loops, one Python step
per time step.

``reference_filter`` is the scalar one-step-ahead filter and
``reference_derivatives`` the forward sensitivity recursion, which carries
the Jacobian of every state against every (step, parameter) pair.  Tests
compare the batched forward and adjoint passes of ``treecast.targets``
against them.
"""

import numpy as np

from treecast.errors import NumericError
from treecast.targets import ALPHA, BETA, GAMMA, GUARD_EPS, PHI, EtsState, TargetSpec


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
