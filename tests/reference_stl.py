"""Reference trend + Fourier loss: one series at a time.

``reference_loss_grad`` is the single-series loss the STL target evaluated
before it covered the whole panel; ``reference_panel_loss`` runs it series
by series and floors the result as ``Objective.evaluate`` did.
Tests compare the panel-wide loss of ``treecast.targets`` against them.
"""

import numpy as np

from treecast.boosting import HESS_FLOOR
from treecast.targets import TargetSpec, stl_basis


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


def reference_loss_grad(raw, t, y, spec: TargetSpec, mask=None):
    """Squared error plus smoothness penalty on the two trend coefficients
    of one series, over its unmasked rows.  Returns (loss, g, h, fitted)."""
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


def reference_panel_loss(raw, ds, spec: TargetSpec):
    """The per-series loop over a panel, h floored."""
    g = np.zeros_like(raw)
    h = np.zeros_like(raw)
    fitted = np.zeros(ds.n_rows)
    loss = 0.0
    for i in range(ds.n_series):
        rows = ds.rows_of(i)
        li, g[rows], h[rows], fitted[rows] = reference_loss_grad(
            raw[rows], ds.time_index[rows], ds.y[rows], spec)
        loss += li
    return loss, g, np.maximum(h, HESS_FLOOR), fitted
