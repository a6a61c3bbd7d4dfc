"""Every target kind honours the Target protocol on one small masked panel:
link/slope, loss gradient, row-local Jacobian, base and masking."""

from dataclasses import replace

import numpy as np
import pytest

from treecast.targets import KINDS, Objective, TargetSpec

from conftest import make_panel
from losses import finite_diff_check

SPECS = {
    "ar": TargetSpec("ar", p=3),
    "ets": TargetSpec("ets", m=4),
    "ets_linear": TargetSpec("ets_linear", m=4),
    "stl": TargetSpec("stl", n_season=2, period=6, penalty=1.5),
    "direct": TargetSpec("direct"),
}
# open lower / closed upper bound of the linked values, where the link bounds them
LINK_RANGE = {"ets": (0.0, 1.0), "ets_linear": (0.0, 1.0)}
ROW_LOCAL = ("ar", "stl", "direct")
# the bounds of acceptance criterion 1: central differences of a loss near
# 1e4 lose digits to round-off, the smoothing recursion's more so
GRAD_TOL = {"ets": 1e-3, "ets_linear": 1e-3}


def masked_panel(spec):
    """Two series of unequal length through the kind's own preparation, with
    the last two rows of the longer series masked as well."""
    rng = np.random.default_rng(11)
    t = np.arange(30)
    panel = make_panel({
        "a": 20 + 0.2 * t + 3 * np.sin(t) + rng.normal(0, 0.5, 30),
        "b": 15 + 2 * np.cos(t[:26]) + rng.normal(0, 0.5, 26),
    })
    ds = spec.target.prepare(panel)
    extra = np.zeros(ds.n_rows, dtype=bool)
    extra[ds.rows_of(0)[-2:]] = True
    return replace(ds, mask=ds.mask & ~extra)


@pytest.fixture(params=sorted(SPECS))
def case(request):
    spec = SPECS[request.param]
    ds = masked_panel(spec)
    raw = np.random.default_rng(5).normal(0, 0.5, (ds.n_rows, spec.param_count))
    return request.param, spec, Objective(ds, spec), raw


def test_every_kind_covered():
    assert set(SPECS) == set(KINDS)


def test_slope_is_derivative_of_link(case):
    _, spec, _, raw = case
    target, eps = spec.target, 1e-6
    fd = (target.link(raw + eps) - target.link(raw - eps)) / (2 * eps)
    assert np.allclose(target.slope(raw), fd, rtol=1e-6, atol=1e-9)


def test_gradient_is_derivative_of_loss(case):
    kind, _, obj, raw = case
    _, g, _, _ = obj.evaluate(raw)
    err = finite_diff_check(lambda r: obj.evaluate(r)[0], g, raw)
    assert err < GRAD_TOL.get(kind, 1e-4)


def test_local_jacobian_is_derivative_of_fitted(case):
    kind, spec, obj, raw = case
    jac = obj.local_fitted_jacobian(raw)
    if kind not in ROW_LOCAL:
        assert jac is None
        return
    w, eps = obj.weight, 1e-5
    dfit = jac * spec.target.slope(raw)
    # the fit is row-local: moving column j of every row at once moves each
    # row's fitted value by that row's own derivative only
    for j in range(raw.shape[1]):
        up, down = raw.copy(), raw.copy()
        up[:, j] += eps
        down[:, j] -= eps
        fd = (obj.evaluate(up)[3] - obj.evaluate(down)[3]) / (2 * eps)
        assert np.allclose(dfit[w, j], fd[w], rtol=1e-6, atol=1e-6)
    assert not jac[~w].any()


def test_base_inside_link_range(case):
    kind, spec, obj, _ = case
    base = spec.target.base(obj.ds)
    assert base.shape == (spec.param_count,) and np.all(np.isfinite(base))
    values = spec.target.link(base[None, :])
    lo, hi = LINK_RANGE.get(kind, (-np.inf, np.inf))
    assert np.all((values > lo) & (values <= hi)), values


def test_masked_rows_carry_no_derivatives(case):
    _, _, obj, raw = case
    w = obj.weight
    assert (~w).sum() >= 2 and w.sum() > 0
    _, g, h, _ = obj.evaluate(raw)
    assert not g[~w].any() and not h[~w].any()
    assert np.all(h[w] > 0)
