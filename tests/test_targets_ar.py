import numpy as np
import pytest

from treecast.baselines import fit_ols_ar
from treecast.targets import Objective, TargetSpec

from conftest import ar_forecast_one, make_panel
from reference_forecast import ar_forecast_recursive
from losses import finite_diff_check
from treecast.data import build_lags


def ar_evaluate(series, theta):
    """(fitted, g, h) of every row of one series, all rows sharing the AR
    coefficients ``theta``; rows without p lags carry zero weight."""
    theta = np.asarray(theta, dtype=np.float64)
    p = theta.shape[-1]
    ds = build_lags(make_panel({"a": series}), p)
    raw = np.broadcast_to(theta, (ds.n_rows, p)).copy()
    _, g, h, fitted = Objective(ds, TargetSpec("ar", p=p)).evaluate(raw)
    return fitted, g, h


class TestFitValues:
    def test_weighted_sum(self):
        fitted, _, _ = ar_evaluate([20.0, 10.0, 0.0], [0.5, 0.5])
        assert fitted[2] == 15.0

    def test_naive_identity(self):
        fitted, _, _ = ar_evaluate([3.0, 5.0, 7.0, 0.0], [1.0, 0.0, 0.0])
        assert fitted[3] == 7.0

    def test_zero_coefficients(self):
        fitted, _, _ = ar_evaluate(np.ones(5), np.zeros(2))
        assert np.array_equal(fitted, np.zeros(5))

    def test_invalid_rows_produce_zero(self):
        fitted, g, h = ar_evaluate([2.0, 1.0, 5.0], np.ones(2))
        assert fitted[0] == 0.0 and fitted[1] == 0.0 and fitted[2] == 3.0
        assert not g[:2].any() and not h[:2].any()


class TestDerivatives:
    def test_hand_example(self):
        fitted, g, h = ar_evaluate([3.0, 2.0, 10.0], [1.0, 1.0])
        assert fitted[2] == 5.0
        assert list(g[2]) == [-20.0, -30.0]
        assert list(h[2]) == [8.0, 18.0]

    def test_zero_residual_zero_gradient(self):
        _, g, h = ar_evaluate([3.0, 2.0, 10.0], [2.0, 2.0])
        assert np.array_equal(g[2], np.zeros(2))
        assert list(h[2]) == [8.0, 18.0]

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        ds = build_lags(make_panel({"a": rng.uniform(1, 10, 25)}), 3)
        spec = TargetSpec(kind="ar", p=3)
        obj = Objective(ds, spec)
        raw = rng.normal(0, 0.5, (ds.n_rows, 3))
        _, g, _, _ = obj.evaluate(raw)
        err = finite_diff_check(lambda r: obj.evaluate(r.reshape(raw.shape))[0], g, raw)
        assert err < 1e-6


class TestRecursiveForecast:
    def test_naive_theta_flat(self):
        theta = np.tile([1.0, 0.0], (5, 1))
        out = ar_forecast_one(theta, [3.0, 8.0], 5)
        assert np.array_equal(out, np.full(5, 8.0))

    def test_order_one_constant(self):
        theta = np.ones((4, 1))
        out = ar_forecast_one(theta, [5.0], 4)
        assert np.array_equal(out, np.full(4, 5.0))

    def test_matches_ols_oracle(self):
        rng = np.random.default_rng(12)
        y = np.cumsum(rng.normal(0.2, 1.0, 120)) + 50
        for intercept in (False, True):
            model = fit_ols_ar(y, 3, intercept=intercept)
            c = model.intercept or 0.0
            hist = list(y)
            for _ in range(8):
                hist.append(c + sum(a * hist[-1 - j] for j, a in enumerate(model.coefficients)))
            theta = np.tile(model.coefficients, (8, 1))
            got = ar_forecast_one(theta, y, 8, c)
            assert np.allclose(got, hist[-8:], atol=1e-10)

    def test_h1_equals_fit_on_appended_row(self):
        rng = np.random.default_rng(3)
        hist = rng.uniform(1, 5, 6)
        theta = rng.normal(0, 0.4, (1, 4))
        fc = ar_forecast_one(theta, hist, 1)
        fitted, _, _ = ar_evaluate(np.append(hist, 0.0), theta[0])
        assert fc[0] == pytest.approx(fitted[-1], abs=1e-12)

    def test_history_too_short(self):
        with pytest.raises(ValueError, match="history"):
            ar_forecast_recursive(np.ones((2, 3)), [1.0], 2)
