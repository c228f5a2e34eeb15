import numpy as np
import pytest

from bilarx import (
    ArxOrders,
    MatrixOperator,
    OutputSeries,
    SolverOptions,
    add_uniform_noise,
    build_lifted_operator,
    build_problem,
    change_points,
    prox,
    scenario,
    simulate_arx,
    solve_bil,
    thin_svd,
)
from bilarx.solver import check_sweep_grid

from _oracles import arx_constraint_matrix, max_constraint_residual


def planted_lifted(sc):
    """The planted ``X_j = outer(u_j, b)`` blocks of a scenario."""
    return [np.outer(u, sc.truth.b) for u in sc.truth.u_blocks]


class TestBuildProblem:
    def test_fir_example(self):
        spec = build_problem([np.zeros(30)], ArxOrders(n_a=0, n_b=3, n_k=0), 0.0)
        assert spec.n == 4
        assert spec.lengths == (30,)

    def test_two_sequence_example(self):
        spec = build_problem(
            [np.ones(20), np.ones(25)], ArxOrders(n_a=8, n_b=8, n_k=0), 0.04
        )
        assert spec.n == 9
        assert len(spec.sequences) == 2

    def test_too_short_sequence_names_offender(self):
        with pytest.raises(ValueError, match=r"y1.*n = 4"):
            build_problem([np.ones(3)], ArxOrders(n_a=1, n_b=3, n_k=0), 0.0)

    def test_negative_epsilon(self):
        with pytest.raises(ValueError, match="epsilon"):
            build_problem([np.ones(10)], ArxOrders(n_a=0, n_b=1), -0.1)

    def test_empty_sequence_list(self):
        with pytest.raises(ValueError, match="at least one"):
            build_problem([], ArxOrders(n_a=0, n_b=1), 0.0)

    def test_non_finite_samples(self):
        with pytest.raises(ValueError, match="finite"):
            build_problem([np.array([1.0, np.inf, 0.0, 1.0])],
                          ArxOrders(n_a=0, n_b=1), 0.0)

    def test_order_validation(self):
        with pytest.raises(ValueError, match="n_b"):
            ArxOrders(n_a=0, n_b=0)
        with pytest.raises(ValueError, match="n_a"):
            ArxOrders(n_a=-1, n_b=1)
        with pytest.raises(ValueError, match="n_k"):
            ArxOrders(n_a=0, n_b=1, n_k=-2)


NAN = float("nan")
INF = float("inf")


def _ones_spec():
    return build_problem([np.ones(10)], ArxOrders(n_a=0, n_b=1), 0.0)


@pytest.mark.parametrize("call,match", [
    (lambda: build_problem([np.ones(10)], ArxOrders(n_a=0, n_b=1), NAN), "epsilon"),
    (lambda: change_points(np.arange(5.0), NAN), "gamma"),
    (lambda: prox.svt(np.eye(2), NAN), "tau"),
    (lambda: prox.row_group_shrink(np.eye(2), NAN), "kappa"),
    (lambda: prox.box_clip(np.ones(3), NAN), "bound"),
    (lambda: add_uniform_noise(np.zeros(4), NAN, 1), "noise bound"),
    (lambda: SolverOptions(max_iters=NAN), "max_iters"),
    (lambda: check_sweep_grid([NAN], 0.5), "positive"),
    (lambda: solve_bil(build_problem([np.ones(10)], ArxOrders(n_a=0, n_b=1), 0.0),
                       INF), "lambda"),
    (lambda: check_sweep_grid([1.0, INF], 0.5), "finite"),
    (lambda: solve_bil(_ones_spec(), 1e300), "floating-point range"),
    (lambda: solve_bil(_ones_spec(), 1e200), "floating-point range"),
    (lambda: SolverOptions(max_iters=2.5), "max_iters"),
    (lambda: build_problem([np.ones(10)], ArxOrders(n_a=0, n_b=1), INF), "epsilon"),
    (lambda: ArxOrders(n_a=1, n_b=NAN), "n_b must be an integer"),
    (lambda: ArxOrders(n_a=0, n_b=2.5), "n_b must be an integer"),
    (lambda: ArxOrders(n_a=0.5, n_b=2), "n_a must be an integer"),
    (lambda: ArxOrders(n_a=1, n_b=2, n_k=1.0), "n_k must be an integer"),
], ids=["build_problem", "change_points", "svt", "row_group_shrink", "box_clip",
        "add_uniform_noise", "max_iters", "sweep_grid",
        "solve_bil_inf", "sweep_grid_inf", "lambda_huge",
        "lambda_square_overflow", "max_iters_fraction", "build_problem_inf",
        "n_b_nan", "n_b_fraction", "n_a_fraction", "n_k_float"])
def test_nan_setting_is_rejected(call, match):
    # NaN fails every comparison, so a guard written as ``x < 0`` lets it by;
    # an infinite weight passes a sign check but breaks the factorization,
    # and so does a finite one whose square overflows. An infinite noise
    # bound is no bound. A fractional model order passes a sign check and
    # fails inside the solve as an array index.
    with pytest.raises(ValueError, match=match):
        call()


@pytest.mark.parametrize("call,match", [
    (lambda: OutputSeries(np.ones((3, 2))), "1-d"),
    (lambda: thin_svd(np.ones(4)), "2-d"),
    (lambda: simulate_arx((0.5, 0.1), (1.0,), ArxOrders(n_a=1, n_b=1), np.ones(6)),
     "a must have length 1"),
    (lambda: simulate_arx((0.5,), (1.0,), ArxOrders(n_a=1, n_b=2), np.ones(6)),
     "b must have length 2"),
    (lambda: MatrixOperator(np.eye(6), 3, 2).apply(np.ones((2, 3))), "3 x 2"),
], ids=["series_2d", "thin_svd_1d", "simulate_a", "simulate_b", "operator_apply"])
def test_malformed_array_is_rejected(call, match):
    with pytest.raises(ValueError, match=match):
        call()


class TestLiftedOperator:
    def test_single_tap_fir(self):
        spec = build_problem([np.array([1.0, 2.0, 3.0])],
                             ArxOrders(n_a=0, n_b=1, n_k=0), 0.0)
        op = build_lifted_operator(spec)
        assert op.matrix.shape == (2, 3)
        # n = 2: row 0 is t = 2 and reads X(1, 1), column 0; row 1 is t = 3
        # and reads X(2, 1), column 1.
        row_t2 = op.matrix[0]
        assert row_t2[0] == 1.0
        assert np.sum(row_t2 != 0) == 1
        row_t3 = op.matrix[1]
        assert row_t3[1] == 1.0
        assert np.sum(row_t3 != 0) == 1

    def test_a_coefficient_is_lagged_output(self):
        y = np.array([5.0, 2.0, -1.0])
        spec = build_problem([y], ArxOrders(n_a=1, n_b=1, n_k=0), 0.0)
        op = build_lifted_operator(spec)
        # Row 0 is t = n = 2; a_1 follows the 3 x 1 X entries, in column 3.
        row_t2 = op.matrix[0]
        assert row_t2[3] == y[0]

    def test_planted_fir_scenario_exact(self):
        sc = scenario("scenario_fir_noisefree")
        op = build_lifted_operator(sc.spec)
        packed = np.concatenate([x.ravel() for x in planted_lifted(sc)] + [sc.truth.a])
        assert np.max(np.abs(op.matrix @ packed - op.rhs)) <= 1e-12 * max(
            1.0, np.max(np.abs(op.rhs))
        )

    def test_row_counts_per_constraint(self):
        spec = build_problem([np.arange(1.0, 13.0)], ArxOrders(n_a=2, n_b=3, n_k=1), 0.0)
        op = build_lifted_operator(spec)
        for row in op.matrix:
            assert np.sum(row != 0) == spec.orders.n_b + spec.orders.n_a

    def test_regularizer_only_rows_untouched(self):
        orders = ArxOrders(n_a=0, n_b=3, n_k=1)
        spec = build_problem([np.arange(1.0, 16.0)], orders, 0.0)
        op = build_lifted_operator(spec)
        n, N = spec.n, 15
        lo, hi = n - orders.n_k - orders.n_b, N - orders.n_k - 1
        for i in range(1, N + 1):
            # X entry (i, k), 1-based, is packed column (i - 1) * n_b + (k - 1).
            cols = [(i - 1) * orders.n_b + (k - 1) for k in range(1, orders.n_b + 1)]
            touched = np.any(op.matrix[:, cols] != 0)
            assert touched == (lo <= i <= hi)


@pytest.mark.parametrize("n_seq", [1, 2])
@pytest.mark.parametrize("n_k", [0, 1])
@pytest.mark.parametrize("n_a", [0, 1, 2])
@pytest.mark.parametrize("n_b", [1, 2, 3, 4])
def test_operator_matches_model_equation(n_b, n_a, n_k, n_seq):
    rng = np.random.default_rng(1000 * n_b + 100 * n_a + 10 * n_k + n_seq)
    ys = [rng.uniform(0.5, 2.0, size=length) * rng.choice([-1.0, 1.0], size=length)
          for length in (11, 8)[:n_seq]]
    spec = build_problem(ys, ArxOrders(n_a=n_a, n_b=n_b, n_k=n_k), 0.1)
    op = build_lifted_operator(spec)
    A, targets = arx_constraint_matrix(ys, n_a, n_b, n_k)

    assert np.array_equal(op.matrix, A)
    assert np.array_equal(op.rhs, targets)
    assert op.n_x == sum(len(y) for y in ys) * n_b


class TestResidual:
    def test_planted_exact_zero(self):
        sc = scenario("scenario_fir_noisefree")
        assert max_constraint_residual(sc.spec, planted_lifted(sc), sc.truth.a) <= 1e-10

    def test_perturbation_linearity(self):
        # One output sample is its own row's target and a lagged output in the
        # next n_a rows of the operator, so the residual y - A(X, a) moves there.
        base = scenario("scenario_arx_noisy")
        spec, a = base.spec, base.truth.a
        packed = np.concatenate([x.ravel() for x in planted_lifted(base)] + [a])

        def residual(spec):
            op = build_lifted_operator(spec)
            return op.rhs - op.matrix @ packed

        delta = 0.37
        t_star = 10
        y = spec.sequences[0].samples.copy()
        y[t_star - 1] += delta
        diff = residual(build_problem([y], spec.orders, spec.epsilon)) - residual(spec)
        n = spec.n
        expected = np.zeros_like(diff)
        expected[t_star - n] = delta
        for k2 in range(1, spec.orders.n_a + 1):
            t_later = t_star + k2
            if n <= t_later <= len(y):
                expected[t_later - n] = -a[k2 - 1] * delta
        assert np.allclose(diff, expected, atol=1e-12)

    def test_noisy_scenario_planted_within_bound(self):
        sc = scenario("scenario_arx_noisy")
        assert max_constraint_residual(sc.spec, planted_lifted(sc), sc.truth.a) <= 2.0


class TestImmutability:
    def test_series_samples_frozen(self):
        s = OutputSeries(np.arange(5.0), label="a")
        with pytest.raises(ValueError):
            s.samples[0] = 9.0

    def test_operator_matrix_frozen(self):
        spec = build_problem([np.ones(6)], ArxOrders(n_a=0, n_b=1), 0.0)
        op = build_lifted_operator(spec)
        with pytest.raises(ValueError):
            op.matrix[0, 0] = 5.0
