import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from bilarx import (
    ArxOrders,
    change_points,
    fit_piecewise_constant,
    least_squares_arx,
    naive_identify,
    scenario,
    simulate_arx,
)

from _instances import NON_INTEGER_IDS, NON_INTEGERS, non_integer_message
from _oracles import arx_constraint_matrix, exhaustive_segmentation_cost

SRC = str(Path(__file__).resolve().parent.parent / "src")


def segmentation_cost(y, u_hat):
    return float(np.sum((np.asarray(y) - np.asarray(u_hat)) ** 2))


def oracle_regressors(ys, us, orders):
    """ARX regressors ``[u taps, lagged y]`` and targets of the stacked
    sequences, read off the dense oracle constraint matrix: the b column of
    tap ``k1`` is the X part applied to ``X_j = outer(u_j, e_k1)``."""
    A, target = arx_constraint_matrix(ys, orders.n_a, orders.n_b, orders.n_k)
    n_x = A.shape[1] - orders.n_a
    lifted_u = np.kron(np.concatenate(us)[:, None], np.eye(orders.n_b))
    return np.hstack([A[:, :n_x] @ lifted_u, A[:, n_x:]]), target


class TestFitPiecewiseConstant:
    def test_constant_signal(self):
        y = np.full(7, 3.25)
        u_hat, cps = fit_piecewise_constant(y, 4)
        assert np.array_equal(u_hat, y)
        assert cps == []

    def test_exact_step(self):
        u_hat, cps = fit_piecewise_constant(np.array([0.0, 0.0, 4.0, 4.0]), 2)
        assert np.array_equal(u_hat, [0, 0, 4, 4])
        assert cps == [2]
        assert segmentation_cost([0, 0, 4, 4], u_hat) == 0.0

    def test_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(21)
        y = rng.normal(size=12)
        u_hat, _ = fit_piecewise_constant(y, 3)
        oracle = exhaustive_segmentation_cost(y, 3)
        assert segmentation_cost(y, u_hat) == pytest.approx(oracle, abs=1e-10)

    def test_exhaustive_across_sizes_and_budgets(self):
        rng = np.random.default_rng(22)
        for N in range(4, 13):
            for budget in (1, 2, 3):
                y = rng.normal(size=N)
                u_hat, _ = fit_piecewise_constant(y, budget)
                oracle = exhaustive_segmentation_cost(y, budget)
                assert segmentation_cost(y, u_hat) == pytest.approx(oracle, abs=1e-10)

    def test_cost_non_increasing_in_budget(self):
        rng = np.random.default_rng(23)
        y = rng.normal(size=15)
        costs = [segmentation_cost(y, fit_piecewise_constant(y, k)[0])
                 for k in range(1, 7)]
        assert all(b <= a + 1e-12 for a, b in zip(costs, costs[1:]))

    def test_segment_levels_are_means(self):
        y = np.array([1.0, 3.0, 10.0, 14.0])
        u_hat, cps = fit_piecewise_constant(y, 2)
        assert cps == [2]
        assert np.allclose(u_hat, [2.0, 2.0, 12.0, 12.0])

    def test_rejects_bad_budget(self):
        with pytest.raises(ValueError, match="max_segments"):
            fit_piecewise_constant(np.ones(5), 0)

    @pytest.mark.parametrize("y", [[1.0, np.inf, 2.0, 3.0], [1.0, np.nan, 2.0],
                                   np.ones((3, 2)), []],
                             ids=["inf", "nan", "2d", "empty"])
    def test_rejects_series_it_cannot_fit(self, y):
        with pytest.raises(ValueError, match="non-empty, finite 1-d"):
            fit_piecewise_constant(y, 2)

    def test_budget_above_length_is_clamped(self):
        y = np.random.default_rng(24).normal(size=7)
        u_big, cps_big = fit_piecewise_constant(y, len(y) + 5)
        u_len, cps_len = fit_piecewise_constant(y, len(y))
        assert np.array_equal(u_big, u_len)
        assert cps_big == cps_len


class TestLeastSquaresArx:
    def test_plant_and_recover(self):
        rng = np.random.default_rng(30)
        orders = ArxOrders(n_a=2, n_b=3, n_k=1)
        a_true = np.array([0.4, -0.2])
        b_true = np.array([1.5, -2.0, 0.7])
        u = rng.normal(size=60)
        z = simulate_arx(a_true, b_true, orders, u)
        a_est, b_est = least_squares_arx(z, u, orders)
        assert np.max(np.abs(a_est - a_true)) <= 1e-8
        assert np.max(np.abs(b_est - b_true)) <= 1e-8

    def test_identity_system(self):
        rng = np.random.default_rng(31)
        u = rng.normal(size=20)
        orders = ArxOrders(n_a=0, n_b=1, n_k=0)
        y = simulate_arx((), (1.0,), orders, u)
        _, b_est = least_squares_arx(y, u, orders)
        assert b_est[0] == pytest.approx(1.0)

    def test_zero_input_rejected(self):
        orders = ArxOrders(n_a=0, n_b=2, n_k=0)
        with pytest.raises(ValueError, match="rank deficient"):
            least_squares_arx(np.random.default_rng(0).normal(size=15),
                              np.zeros(15), orders)

    def test_nan_input_rejected(self):
        u = np.cos(np.arange(10.0))
        u[5] = np.nan
        with pytest.raises(ValueError, match="u must be finite"):
            least_squares_arx(np.arange(10.0), u, ArxOrders(n_a=1, n_b=2))

    @pytest.mark.parametrize("bad", ["inf", "-inf"])
    def test_infinite_input_rejected(self, bad):
        # LAPACK's least squares never returned on an infinite input (killed
        # after minutes), so the call runs in a child process with a timeout.
        script = ("import numpy as np\n"
                  "from bilarx import ArxOrders, least_squares_arx\n"
                  f"u = np.cos(np.arange(10.0)); u[5] = float('{bad}')\n"
                  "least_squares_arx(np.arange(10.0), u, ArxOrders(n_a=1, n_b=2))\n")
        res = subprocess.run([sys.executable, "-c", script],
                             env=dict(os.environ, PYTHONPATH=SRC),
                             capture_output=True, text=True, timeout=60)
        assert res.returncode == 1
        assert res.stderr.splitlines()[-1] == "ValueError: the input u must be finite"

    def test_residual_orthogonal_to_regressors(self):
        rng = np.random.default_rng(32)
        orders = ArxOrders(n_a=1, n_b=2, n_k=0)
        u = rng.normal(size=40)
        y = simulate_arx((0.3,), (1.0, -0.5), orders, u) + rng.normal(size=40) * 0.1
        a_est, b_est = least_squares_arx(y, u, orders)
        phi, target = oracle_regressors([y], [u], orders)
        resid = target - phi @ np.concatenate([b_est, a_est])
        assert np.max(np.abs(phi.T @ resid)) <= 1e-9 * max(np.max(np.abs(phi)), 1.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="equal length"):
            least_squares_arx(np.ones(10), np.ones(9), ArxOrders(n_a=0, n_b=1))

    def test_exact_fit_far_from_the_input_scale(self):
        # The u columns sit 2**-600 below the y columns; a rank cutoff
        # relative to the largest singular value of the unscaled regressors
        # called that rank deficient.
        orders = ArxOrders(n_a=1, n_b=2)
        u = np.repeat([1.0, -2.0, 3.0], 4)
        z = simulate_arx([0.5], [1.0, -0.5], orders, u)
        a_est, b_est = least_squares_arx(z * 2.0**600, u, orders)
        assert a_est == pytest.approx([0.5], rel=1e-12)
        assert np.ldexp(b_est, -600) == pytest.approx([1.0, -0.5], rel=1e-12)

    @pytest.mark.parametrize("y_scale,u_scale", [(1e300, 1e-300), (1e-300, 1e300)],
                             ids=["overflow", "underflow"])
    def test_b_outside_float_range_rejected(self, y_scale, u_scale):
        # The exact b is about 1e600 (or 1e-600) times [1, -0.5].
        orders = ArxOrders(n_a=1, n_b=2)
        u = np.repeat([1.0, -2.0, 3.0], 4)
        z = simulate_arx([0.5], [1.0, -0.5], orders, u)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="outside the floating-point range"):
                least_squares_arx(z * y_scale, u * u_scale, orders)

    @pytest.mark.parametrize("k", [-900, -600, -1, 1, 600, 900])
    def test_output_scale_covariance(self, k):
        # y -> 2**k y leaves a and scales b by 2**k, bit for bit.
        rng = np.random.default_rng(33)
        orders = ArxOrders(n_a=2, n_b=2, n_k=1)
        u = rng.normal(size=30)
        y = simulate_arx((0.4, -0.2), (1.0, -0.5), orders, u) + 0.1 * rng.normal(size=30)
        a_ref, b_ref = least_squares_arx(y, u, orders)
        a_est, b_est = least_squares_arx(np.ldexp(y, k), u, orders)
        assert np.array_equal(a_est, a_ref)
        assert np.array_equal(np.ldexp(b_est, -k), b_ref)


class TestNaiveIdentify:
    def test_fir_noisefree_recovers_b_direction(self):
        # The square-error segmentation places boundaries inside the 3-tap
        # transition of the output, which caps the agreement below exact.
        sc = scenario("scenario_fir_noisefree")
        a_est, b_est, u_hats = naive_identify(sc.spec, 4)
        b_true = sc.truth.b / np.linalg.norm(sc.truth.b)
        b_unit = b_est / np.linalg.norm(b_est)
        assert abs(float(b_unit @ b_true)) >= 0.9
        assert a_est.shape == (0,)

    def test_noisy_arx_change_points_differ_from_truth(self):
        sc = scenario("scenario_arx_noisy")
        _, _, u_hats = naive_identify(sc.spec, 4)
        cps = change_points(u_hats[0], 0.5)
        assert cps != list(sc.truth.change_points[0])

    def test_single_segment_budget_degenerates(self):
        sc = scenario("scenario_fir_noisefree")
        with pytest.raises(ValueError, match="rank deficient"):
            naive_identify(sc.spec, 1)

    def test_two_sequences_shared_fit(self):
        sc = scenario("scenario_two_sequences")
        a_est, b_est, u_hats = naive_identify(sc.spec, 4)
        assert len(u_hats) == 2
        assert b_est.shape == (3,)
        assert a_est.shape == (1,)

    def test_two_sequences_match_stacked_oracle_least_squares(self):
        sc = scenario("scenario_two_sequences")
        a_est, b_est, u_hats = naive_identify(sc.spec, 4)
        ys = [s.samples for s in sc.spec.sequences]
        phi, target = oracle_regressors(ys, u_hats, sc.spec.orders)
        coef = np.linalg.lstsq(phi, target, rcond=None)[0]
        assert np.max(np.abs(b_est - coef[:3])) <= 1e-12
        assert np.max(np.abs(a_est - coef[3:])) <= 1e-12


@pytest.mark.parametrize("value", NON_INTEGERS, ids=NON_INTEGER_IDS)
@pytest.mark.parametrize("call", [
    lambda v: fit_piecewise_constant(np.arange(6.0), v),
    lambda v: naive_identify(scenario("scenario_arx_noisy").spec, v),
], ids=["fit_piecewise_constant", "naive_identify"])
def test_non_integer_segment_budget_rejected(call, value):
    with pytest.raises(ValueError, match=non_integer_message("max_segments", value)):
        call(value)
