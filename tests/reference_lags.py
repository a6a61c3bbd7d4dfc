"""Reference lag designs: the loops that built them before the AR target did.

``build_lags`` is the old panel-wide lag builder, one series at a time; it
returns the lag columns and their validity instead of a panel carrying them.
``ols_ar_design`` is the old design loop of ``baselines.fit_ols_ar`` on one
series.  Tests compare ``targets.ar_design``, the AR target's ``design`` and
``bind``, and ``fit_ols_ar`` against them, bit for bit.
"""

import warnings

import numpy as np


def build_lags(ds, p: int):
    """Lag columns: row t of a series holds [y_{t-1}, ..., y_{t-p}].

    The first p rows of each series get NaN lags and lag_valid=False, which
    excludes them from training.  Series shorter than p+1 rows contribute no
    usable rows at all and trigger a warning.  Returns (lags, lag_valid).
    """
    if p < 1:
        raise ValueError("lag order p must be >= 1")
    n = ds.n_rows
    lags = np.full((n, p), np.nan)
    valid = np.zeros(n, dtype=bool)
    for i, s in enumerate(ds.series):
        rows = ds.rows_of(i)
        vals = ds.y[rows]
        if len(rows) < p + 1:
            warnings.warn(
                f"series {s.series_id!r} has {len(rows)} rows, fewer than p+1={p + 1}; "
                "excluded from lag training"
            )
            continue
        for j in range(1, p + 1):
            lags[rows[p:], j - 1] = vals[p - j : len(vals) - j]
        valid[rows[p:]] = True
    return lags, valid


def ols_ar_design(series, p: int):
    """(n - p, p) lag regressors and the n - p targets of one series."""
    y = np.asarray(series, dtype=np.float64)
    n = len(y)
    rows = n - p
    X = np.empty((rows, p))
    for j in range(1, p + 1):
        X[:, j - 1] = y[p - j : n - j]
    t = y[p:]
    return X, t
