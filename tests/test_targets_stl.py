import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treecast.targets import Objective, TargetSpec, stl_components

from conftest import make_panel, reference_view, stl_loss_grad
from losses import finite_diff_check
from reference_stl import reference_loss_grad, reference_panel_loss


def spec_stl(n_season=1, period=12, penalty=1.0):
    return TargetSpec(kind="stl", n_season=n_season, period=period, penalty=penalty)


class TestComponents:
    def test_single_harmonic_value(self):
        spec = spec_stl()
        values = np.array([[0.0, 0.0, 1.0, 0.0]])
        _, seas, _ = stl_components(values, np.array([3]), spec)
        assert seas[0] == pytest.approx(np.sin(np.pi / 2))
        assert seas[0] == pytest.approx(1.0)

    def test_constant_trend(self):
        spec = spec_stl()
        values = np.tile([5.0, 0.0, 0.0, 0.0], (6, 1))
        trend, _, _ = stl_components(values, np.arange(6), spec)
        assert np.array_equal(trend, np.full(6, 5.0))

    def test_all_zero(self):
        spec = spec_stl(n_season=2)
        values = np.zeros((4, 6))
        trend, seas, fitted = stl_components(values, np.arange(4), spec)
        assert not fitted.any() and not trend.any() and not seas.any()

    def test_fitted_is_sum(self):
        rng = np.random.default_rng(0)
        spec = spec_stl(n_season=2)
        values = rng.normal(size=(10, 6))
        trend, seas, fitted = stl_components(values, np.arange(10), spec)
        assert np.allclose(fitted, trend + seas)


class TestLossGrad:
    def test_zero_penalty_reduces_to_mse_gradient(self):
        rng = np.random.default_rng(1)
        t = np.arange(16)
        y = rng.normal(size=16)
        raw = rng.normal(size=(16, 4))
        spec0 = spec_stl(penalty=0.0)
        loss0, g0, h0, fitted = stl_loss_grad(raw, t, y, spec0)
        from treecast.targets import stl_basis

        B = stl_basis(spec0, t)
        r = fitted - y
        assert loss0 == pytest.approx(float(np.sum(r * r)))
        assert np.allclose(g0, 2.0 * r[:, None] * B)
        assert np.allclose(h0, 2.0 * B * B)

    def test_constant_trend_coefficients_zero_penalty(self):
        rng = np.random.default_rng(2)
        t = np.arange(20)
        y = rng.normal(size=20)
        raw = rng.normal(size=(20, 4))
        raw[:, 0] = 3.0
        raw[:, 1] = 0.5
        l1 = stl_loss_grad(raw, t, y, spec_stl(penalty=0.0))[0]
        l2 = stl_loss_grad(raw, t, y, spec_stl(penalty=50.0))[0]
        assert l1 == pytest.approx(l2)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        t = np.arange(24)
        y = rng.normal(10, 3, 24)
        raw = rng.normal(size=(24, 6))
        spec = spec_stl(n_season=2, penalty=1.5)
        _, g, _, _ = stl_loss_grad(raw, t, y, spec)
        err = finite_diff_check(
            lambda r: stl_loss_grad(r.reshape(24, 6), t, y, spec)[0], g, raw
        )
        assert err < 1e-4


@st.composite
def ragged_panels(draw):
    """1-4 series of random length, a random spec and raw parameters."""
    lengths = draw(st.lists(st.integers(1, 20), min_size=1, max_size=4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ds = make_panel({f"s{i}": rng.normal(10, 3, n) for i, n in enumerate(lengths)})
    penalty = draw(st.sampled_from([0.0, draw(st.floats(1e-3, 50.0))]))
    spec = spec_stl(n_season=draw(st.integers(1, 3)), period=draw(st.sampled_from([4, 12])),
                    penalty=penalty)
    raw = rng.normal(0, 2, (ds.n_rows, spec.param_count))
    return spec, ds, raw


@given(ragged_panels())
@settings(max_examples=150, deadline=None)
def test_panel_loss_matches_per_series_reference(case):
    """One pass over the panel, with the penalty's differences cut at series
    boundaries, gives the per-series loop's g, h and fitted bit for bit."""
    spec, ds, raw = case
    loss, g, h, fitted = Objective(ds, spec).evaluate(raw)
    loss_ref, g_ref, h_ref, fitted_ref = reference_panel_loss(raw, reference_view(ds), spec)
    assert np.array_equal(g, g_ref)
    assert np.array_equal(h, h_ref)
    assert np.array_equal(fitted, fitted_ref)
    assert abs(loss - loss_ref) <= 1e-12 * abs(loss_ref)


def test_one_series_call_matches_reference():
    rng = np.random.default_rng(6)
    t = np.arange(30)
    y = rng.normal(10, 3, 30)
    raw = rng.normal(size=(30, 6))
    spec = spec_stl(n_season=2, penalty=3.0)
    got = stl_loss_grad(raw, t, y, spec)
    ref = reference_loss_grad(raw, t, y, spec)
    assert got[0] == ref[0]
    for a, b in zip(got[1:], ref[1:]):
        assert np.array_equal(a, b)
