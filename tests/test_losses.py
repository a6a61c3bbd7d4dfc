import numpy as np
import pytest

from treecast.errors import NumericError

from losses import fd_hessian_diag, finite_diff_check, mse


class TestMse:
    def test_perfect_fit(self):
        assert mse(np.array([1.0, 2.0]), np.array([1.0, 2.0])) == 0.0

    def test_values(self):
        assert mse(np.array([0.0, 0.0]), np.array([3.0, 4.0])) == 12.5

    def test_mask_drops_rows(self):
        fitted = np.array([0.0, 0.0])
        y = np.array([3.0, 4.0])
        assert mse(fitted, y, np.array([True, False])) == 9.0

    def test_empty_loss_error(self):
        with pytest.raises(NumericError, match="zero unmasked"):
            mse(np.array([1.0]), np.array([1.0]), np.array([False]))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            mse(np.zeros(2), np.zeros(3))


class TestFiniteDiff:
    def test_quadratic(self):
        f = lambda th: float(th[0] ** 2)
        err = finite_diff_check(f, np.array([6.0]), np.array([3.0]))
        assert err < 1e-10

    def test_linear_function_zero_hessian(self):
        f = lambda th: float(3.0 * th[0] - th[1])
        hd = fd_hessian_diag(f, np.array([1.0, 2.0]))
        assert np.allclose(hd, 0.0, atol=1e-6)

    def test_detects_wrong_gradient(self):
        f = lambda th: float(th[0] ** 2)
        err = finite_diff_check(f, np.array([5.0]), np.array([3.0]))
        assert err > 0.1

    def test_eps_validated(self):
        f = lambda th: float(th[0])
        with pytest.raises(ValueError):
            finite_diff_check(f, np.array([1.0]), np.array([0.0]), eps=1e-2)

    def test_nonfinite_probe_reported(self):
        def f(th):
            return float("nan") if th[0] > 1.0 else float(th[0])

        with pytest.raises(NumericError, match="coordinate"):
            finite_diff_check(f, np.array([1.0]), np.array([1.0]))

    def test_permutation_symmetry(self):
        rng = np.random.default_rng(0)
        A = rng.normal(size=(4, 4))
        A = A @ A.T + np.eye(4)
        b = rng.normal(size=4)

        def f(th):
            return float(0.5 * th @ A @ th + b @ th)

        th0 = rng.normal(size=4)
        grad = A @ th0 + b
        err = finite_diff_check(f, grad, th0)

        perm = np.array([2, 0, 3, 1])
        inv = np.argsort(perm)

        def f_perm(th):
            return f(th[inv])

        err_perm = finite_diff_check(f_perm, grad[perm], th0[perm])
        assert err == pytest.approx(err_perm, rel=1e-6, abs=1e-12)

    def test_eps_robustness_smooth_loss(self):
        # a genuine 1% gradient discrepancy is reported stably across eps
        rng = np.random.default_rng(1)
        w = rng.normal(size=3)

        def f(th):
            return float(np.sum(np.cos(th)) + 0.5 * float(th @ th) + float(w @ th))

        th0 = rng.normal(size=3)
        grad = (-np.sin(th0) + th0 + w) * 1.01
        errs = [finite_diff_check(f, grad, th0, eps=e) for e in (1e-4, 1e-5, 1e-6)]
        assert max(errs) < 10 * min(errs)
        for e in errs:
            assert 0.001 < e < 0.1
