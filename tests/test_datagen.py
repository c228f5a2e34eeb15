import numpy as np
import pytest

from bilarx import (
    ArxOrders,
    add_uniform_noise,
    change_points,
    gen_piecewise_input,
    scenario,
    simulate_arx,
)
from bilarx.datagen import SCENARIO_NAMES, _uniform_units, arx_poles

from _oracles import max_constraint_residual


class TestGenPiecewiseInput:
    def test_single_change(self):
        u = gen_piecewise_input(6, (3,), (0.0, 2.0))
        assert np.array_equal(u, [0, 0, 0, 2, 2, 2])

    def test_constant(self):
        assert np.array_equal(gen_piecewise_input(4, (), (1.5,)), [1.5] * 4)

    def test_round_trip_with_change_points(self):
        u = gen_piecewise_input(6, (2, 4), (1.0, -1.0, 1.0))
        assert np.array_equal(u, [1, 1, -1, -1, 1, 1])
        assert change_points(u, 0.0) == [2, 4]

    def test_rejects_equal_adjacent_levels(self):
        with pytest.raises(ValueError, match="differ"):
            gen_piecewise_input(6, (3,), (2.0, 2.0))

    def test_rejects_unsorted_or_out_of_range(self):
        with pytest.raises(ValueError, match="ascending"):
            gen_piecewise_input(8, (5, 3), (1.0, 2.0, 3.0))
        with pytest.raises(ValueError, match=r"\[1, 7\]"):
            gen_piecewise_input(8, (8,), (1.0, 2.0))

    def test_rejects_level_count_mismatch(self):
        with pytest.raises(ValueError, match="levels"):
            gen_piecewise_input(6, (3,), (1.0, 2.0, 3.0))


class TestSimulateArx:
    def test_fir_convolution_hand_check(self):
        orders = ArxOrders(n_a=0, n_b=2, n_k=0)
        u = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        b = (10.0, 1.0)
        z = simulate_arx((), b, orders, u)
        # t = 4: 10*u(3) + 1*u(2) = 32
        assert z[3] == pytest.approx(32.0)
        assert np.all(z[: orders.n - 1] == 0.0)

    def test_zero_input_zero_output(self):
        orders = ArxOrders(n_a=2, n_b=2, n_k=0)
        z = simulate_arx((0.5, -0.2), (1.0, 2.0), orders, np.zeros(10))
        assert np.all(z == 0.0)

    def test_first_order_recursion_hand_values(self):
        # step input through z(t) = 0.2 z(t-1) - 4.9594 u(t-1)
        #                            + 6.1774 u(t-2) + 3.3930 u(t-3)
        orders = ArxOrders(n_a=1, n_b=3, n_k=0)
        a, b = (0.2,), (-4.9594, 6.1774, 3.3930)
        z = simulate_arx(a, b, orders, np.ones(6))
        s = sum(b)
        assert z[3] == pytest.approx(s)
        assert z[4] == pytest.approx(0.2 * s + s)
        assert z[5] == pytest.approx(0.2 * (0.2 * s + s) + s)

    def test_unstable_pole_warns(self):
        orders = ArxOrders(n_a=1, n_b=1, n_k=0)
        with pytest.warns(UserWarning, match="pole"):
            simulate_arx((1.1,), (1.0,), orders, np.ones(6))
        assert np.max(np.abs(arx_poles((1.1,)))) == pytest.approx(1.1)

    def test_input_too_short(self):
        with pytest.raises(ValueError, match="shorter"):
            simulate_arx((), (1.0, 1.0, 1.0), ArxOrders(n_a=0, n_b=3), np.ones(2))


class TestUniformNoise:
    def test_zero_bound_identity(self):
        z = np.arange(5.0)
        assert np.array_equal(add_uniform_noise(z, 0.0, 3), z)

    def test_bound_respected(self):
        y = add_uniform_noise(np.zeros(500), 2.0, 7)
        assert np.max(np.abs(y)) <= 2.0

    def test_same_seed_identical(self):
        z = np.linspace(0, 1, 40)
        assert np.array_equal(add_uniform_noise(z, 1.0, 9), add_uniform_noise(z, 1.0, 9))

    def test_different_seeds_differ(self):
        z = np.zeros(40)
        assert not np.array_equal(add_uniform_noise(z, 1.0, 1),
                                  add_uniform_noise(z, 1.0, 2))

    def test_generator_bit_exact_regression(self):
        # Pinned outputs of the shift-register generator; any platform or
        # refactor must reproduce these exactly.
        assert _uniform_units(1, 3) == [0.29404672187536496, 0.8432913574055981,
                                        0.37141301636381596]

    def test_zero_state_seed_falls_back(self):
        # splitmix64 maps this seed to 0, a fixed point of xorshift; the
        # generator starts from the golden-ratio constant instead (pinned
        # outputs of that start)
        seed = (1 << 64) - 0x9E3779B97F4A7C15
        first = _uniform_units(seed, 50)
        assert first[:3] == [0.052790873358508184, 0.33112028100185353,
                             0.6573173557412489]
        assert first == _uniform_units(seed, 50)
        assert all(0.0 <= v < 1.0 for v in first)
        assert len(set(first)) == 50

    def test_rejects_negative_bound(self):
        with pytest.raises(ValueError, match="non-negative"):
            add_uniform_noise(np.zeros(3), -1.0, 0)


class TestScenarios:
    def test_fir_preset(self):
        sc = scenario("scenario_fir_noisefree")
        assert sc.spec.epsilon == 0.0
        assert np.allclose(sc.truth.b, [-7.4111, -5.0782, -3.2058])
        assert sc.spec.orders.n_a == 0
        assert len(sc.spec.sequences[0]) == 30
        assert sc.truth.change_points[0] == (8, 15, 23)

    def test_arx_noisy_preset(self):
        sc = scenario("scenario_arx_noisy")
        assert sc.spec.epsilon == 2.0
        assert np.allclose(sc.truth.a, [0.2])
        assert np.allclose(sc.truth.b, [-4.9594, 6.1774, 3.3930])
        deviation = sc.spec.sequences[0].samples - sc.truth.z_blocks[0]
        assert np.max(np.abs(deviation)) <= 2.0

    def test_two_sequence_preset(self):
        sc = scenario("scenario_two_sequences")
        assert len(sc.spec.sequences) == 2
        assert sc.truth.b.shape == (3,)
        assert len(sc.truth.u_blocks) == 2
        assert not np.array_equal(sc.truth.u_blocks[0][:35], sc.truth.u_blocks[1])

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            scenario("scenario_missing")
        assert len(SCENARIO_NAMES) == 3

    def test_seeded_regeneration_identical(self):
        a = scenario("scenario_arx_noisy", seed=3)
        b = scenario("scenario_arx_noisy", seed=3)
        assert np.array_equal(a.spec.sequences[0].samples, b.spec.sequences[0].samples)

    def test_round_trip_residuals(self):
        def planted_residual(sc):
            X_blocks = [np.outer(u, sc.truth.b) for u in sc.truth.u_blocks]
            return max_constraint_residual(sc.spec, X_blocks, sc.truth.a)

        assert planted_residual(scenario("scenario_fir_noisefree")) <= 1e-10
        noisy = scenario("scenario_arx_noisy")
        # equation error: e(t) - a e(t-1), within the bound for this preset
        assert planted_residual(noisy) <= noisy.spec.epsilon
