"""MSE loss and the finite-difference oracle certifying analytic gradients."""

from __future__ import annotations

import numpy as np

from treecast.errors import NumericError

REL_FLOOR = 1e-8


def mse(fitted: np.ndarray, y: np.ndarray, mask: np.ndarray | None = None) -> float:
    """Mean squared error over unmasked rows."""
    fitted = np.asarray(fitted, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if fitted.shape != y.shape:
        raise ValueError(f"shape mismatch: {fitted.shape} vs {y.shape}")
    if mask is None:
        mask = np.ones(len(y), dtype=bool)
    n = int(mask.sum())
    if n == 0:
        raise NumericError("MSE over zero unmasked rows")
    d = (fitted - y)[mask]
    return float(np.dot(d, d) / n)


def fd_gradient(f, theta0: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function of a flat vector."""
    theta0 = np.asarray(theta0, dtype=np.float64)
    grad = np.empty(theta0.size)
    flat = theta0.ravel()
    for j in range(flat.size):
        step = np.zeros_like(flat)
        step[j] = eps
        lo = f((flat - step).reshape(theta0.shape))
        hi = f((flat + step).reshape(theta0.shape))
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise NumericError(f"non-finite loss while probing coordinate {j}")
        grad[j] = (hi - lo) / (2.0 * eps)
    return grad


def finite_diff_check(f, analytic_grad: np.ndarray, theta0: np.ndarray, eps: float = 1e-5) -> float:
    """Worst relative error between an analytic gradient and central differences.

    Denominators are floored at 1e-8 so exact zeros compare cleanly.
    """
    if not 1e-7 <= eps <= 1e-3:
        raise ValueError("eps out of supported range [1e-7, 1e-3]")
    fd = fd_gradient(f, theta0, eps)
    ana = np.asarray(analytic_grad, dtype=np.float64).ravel()
    if ana.shape != fd.shape:
        raise ValueError(f"gradient shape mismatch: {ana.shape} vs {fd.shape}")
    denom = np.maximum(np.maximum(np.abs(ana), np.abs(fd)), REL_FLOOR)
    return float(np.max(np.abs(ana - fd) / denom))


def fd_hessian_diag(f, theta0: np.ndarray, eps: float = 1e-4) -> np.ndarray:
    """Central second differences (f(x+e) - 2f(x) + f(x-e)) / e^2, per coordinate."""
    theta0 = np.asarray(theta0, dtype=np.float64)
    flat = theta0.ravel()
    mid = f(theta0)
    out = np.empty(flat.size)
    for j in range(flat.size):
        step = np.zeros_like(flat)
        step[j] = eps
        hi = f((flat + step).reshape(theta0.shape))
        lo = f((flat - step).reshape(theta0.shape))
        out[j] = (hi - 2.0 * mid + lo) / (eps * eps)
    return out
