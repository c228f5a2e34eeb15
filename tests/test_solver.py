import itertools
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg.lapack import dpbtrs

from bilarx import (
    ArxOrders,
    OutputSeries,
    SolverOptions,
    add_uniform_noise,
    build_problem,
    change_points,
    extract,
    gen_piecewise_input,
    prox,
    refine_pipeline,
    scenario,
    simulate_arx,
    solve_bil,
    solve_refined,
    sweep_lambda,
)

from bilarx import solver
from bilarx.solver import _Workspace, freeze_small_differences

from _instances import random_tiny_instance
from _oracles import arx_constraint_matrix, max_constraint_residual, segment_basis
from _slowref import SegmentReference, SlowReference


def feasibility_slack(spec):
    peak = max(np.max(np.abs(s.samples)) for s in spec.sequences)
    return 1e-6 * (1.0 + peak)


class TestSolveBil:
    def test_slack_covers_data(self):
        y = np.array([1.0, -2.0, 3.0, 0.5, 1.5, -1.0, 2.0, 0.1])
        spec = build_problem([y], ArxOrders(n_a=1, n_b=2, n_k=0), epsilon=4.0)
        sol = solve_bil(spec, 3.0)
        assert sol.diagnostics.converged
        assert np.max(np.abs(sol.vars.X_blocks[0])) <= 1e-5
        assert sol.objective <= 1e-4
        # the autoregressive coefficient is not unique here (any feasible
        # value is optimal); only feasibility is contractual
        assert (max_constraint_residual(spec, sol.vars.X_blocks, sol.vars.a)
                <= spec.epsilon + feasibility_slack(spec))

    def test_all_zero_data_has_no_input_direction(self):
        # X = 0, a = 0 is feasible and optimal, and the first iterate is
        # already exactly there: with a zero spectrum there is no b to report
        spec = build_problem([np.zeros(12)], ArxOrders(n_a=1, n_b=2), epsilon=0.0)
        sol = solve_bil(spec, 10.0)
        assert sol.b_est is None
        assert sol.rank_gap == 0.0
        assert np.array_equal(sol.u_est[0], np.zeros(12))
        assert sol.objective == 0.0
        assert sol.diagnostics.converged
        assert sol.diagnostics.iterations == 1

    def test_fir_noisefree_rank_one_recovery(self):
        sc = scenario("scenario_fir_noisefree")
        sol = solve_bil(sc.spec, 1e4, SolverOptions(max_iters=20000))
        assert sol.diagnostics.converged
        assert sol.rank_gap <= 1e-4
        b_true = sc.truth.b / np.linalg.norm(sc.truth.b)
        assert abs(float(sol.b_est @ b_true)) >= 0.999999
        assert (max_constraint_residual(sc.spec, sol.vars.X_blocks, sol.vars.a)
                <= feasibility_slack(sc.spec))

    def test_tiny_instance_matches_slow_reference(self):
        rng = np.random.default_rng(77)
        orders = ArxOrders(n_a=1, n_b=2, n_k=0)
        u = gen_piecewise_input(12, (6,), (1.0, -2.0))
        z = simulate_arx((0.3,), (1.2, -0.7), orders, u)
        y = z + rng.uniform(-0.1, 0.1, size=12)
        spec = build_problem([y], orders, epsilon=0.1)
        lam = 10.0
        sol = solve_bil(spec, lam, SolverOptions(max_iters=40000))
        ref = SlowReference(spec, lam)
        obj_ref, _ = ref.solve()
        vec = np.concatenate([np.vstack(sol.vars.X_blocks).ravel(), sol.a_est])
        obj_admm = ref.objective(ref.project_to_tube(vec))
        assert abs(obj_admm - obj_ref) <= 1e-3 * max(abs(obj_ref), 1e-9)

    def test_rejects_negative_lambda(self):
        spec = scenario("scenario_fir_noisefree").spec
        with pytest.raises(ValueError, match="lambda"):
            solve_bil(spec, -1.0)

    def test_feasibility_on_noisy_scenario(self):
        sc = scenario("scenario_arx_noisy")
        sol = solve_bil(sc.spec, 1e7, SolverOptions(max_iters=20000))
        assert sol.diagnostics.converged
        assert (max_constraint_residual(sc.spec, sol.vars.X_blocks, sol.vars.a)
                <= sc.spec.epsilon + feasibility_slack(sc.spec))
        for w in sol.vars.w_blocks:
            assert np.max(np.abs(w)) <= sc.spec.epsilon + 1e-12

    def test_scale_covariance(self):
        sc = scenario("scenario_arx_noisy")
        lam = 1e5
        opts = SolverOptions(max_iters=20000)
        sol1 = solve_bil(sc.spec, lam, opts)
        c = 7.0
        scaled = build_problem(
            [c * sc.spec.sequences[0].samples], sc.spec.orders, c * sc.spec.epsilon
        )
        sol2 = solve_bil(scaled, lam, opts)
        assert sol2.objective == pytest.approx(c * sol1.objective, rel=1e-4)
        assert np.allclose(sol2.a_est, sol1.a_est, atol=1e-4)
        assert abs(float(sol2.b_est @ sol1.b_est)) >= 1.0 - 1e-8
        assert np.allclose(sol2.u_est[0], c * np.asarray(sol1.u_est[0]),
                           atol=1e-3 * c * np.max(np.abs(sol1.u_est[0])))

    def test_deterministic_rerun(self):
        sc = scenario("scenario_arx_noisy")
        s1 = solve_bil(sc.spec, 1e4, SolverOptions(max_iters=500))
        s2 = solve_bil(sc.spec, 1e4, SolverOptions(max_iters=500))
        assert np.array_equal(np.vstack(s1.vars.X_blocks), np.vstack(s2.vars.X_blocks))
        assert s1.objective == s2.objective

    def test_non_convergence_reported_not_raised(self):
        sc = scenario("scenario_arx_noisy")
        sol = solve_bil(sc.spec, 1e7, SolverOptions(max_iters=5))
        assert not sol.diagnostics.converged
        assert sol.diagnostics.iterations == 5
        assert np.isfinite(sol.diagnostics.primal_residual)
        assert np.isfinite(sol.diagnostics.dual_residual)


    def test_long_series_memory_is_linear(self):
        # A dense x-update matrix at N = 10^4 alone would take 7.2 GB.
        ref = scenario("scenario_arx_noisy")
        N = 10_000
        u = gen_piecewise_input(N, (2500, 5000, 7500), (4.0, -3.0, 6.0, -1.0))
        y = simulate_arx(ref.truth.a, ref.truth.b, ref.spec.orders, u)
        spec = build_problem([y], ref.spec.orders, epsilon=0.5)
        tracemalloc.start()
        try:
            sol = solve_bil(spec, 1e4, SolverOptions(max_iters=5))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sol.diagnostics.iterations == 5
        assert peak < 64e6


def dense_x_update_matrix(spec, rho2):
    """``rho2 (AᵀA + L ⊗ I) + I_x`` in the solver's normalized units.

    ``A`` comes from the model-equation oracle with its ``a`` columns divided
    by ``max |y|``; ``L = DᵀD`` for the row-difference matrix ``D`` of each
    sequence.
    """
    orders = spec.orders
    ys = [s.samples for s in spec.sequences]
    A, _ = arx_constraint_matrix(ys, orders.n_a, orders.n_b, orders.n_k)
    y_scale = max(float(np.max(np.abs(y))) for y in ys) or 1.0
    n_x = A.shape[1] - orders.n_a
    A[:, n_x:] /= y_scale
    laplacians = []
    for length in spec.lengths:
        D = np.diff(np.eye(length), axis=0)
        laplacians.append(np.kron(D.T @ D, np.eye(orders.n_b)))
    K = rho2 * (A.T @ A)
    K[:n_x, :n_x] += np.eye(n_x) + rho2 * scipy.linalg.block_diag(*laplacians)
    return K


class TestXUpdateSolve:
    @pytest.mark.parametrize("n_seq", [1, 2])
    @pytest.mark.parametrize("n_k", [0, 1])
    @pytest.mark.parametrize("n_a", [0, 1, 2])
    @pytest.mark.parametrize("n_b", [1, 2, 3, 4])
    def test_matches_dense_solve(self, n_b, n_a, n_k, n_seq):
        rng = np.random.default_rng(1000 * n_b + 100 * n_a + 10 * n_k + n_seq)
        ys = [rng.normal(size=length) for length in (11, 8)[:n_seq]]
        spec = build_problem(ys, ArxOrders(n_a=n_a, n_b=n_b, n_k=n_k), 0.1)
        work = _Workspace(spec, 7.0)
        K = dense_x_update_matrix(spec, 7.0)
        rhs = rng.normal(size=K.shape[0])
        expected = np.linalg.solve(K, rhs)
        assert np.allclose(work.solve_K(rhs), expected, rtol=0,
                           atol=1e-10 * np.max(np.abs(expected)))

    @pytest.mark.parametrize("n_b", [1, 3])
    @pytest.mark.parametrize("levels,n_a", [
        ((0.0,), 1), ((0.0, 0.0), 2),     # all-zero output: the a block of K is zero
        ((3.0,), 2), ((3.0, -1.5), 2),    # constant output: collinear lag columns
    ])
    def test_singular_a_block_gets_minimum_norm(self, levels, n_a, n_b):
        rng = np.random.default_rng(5)
        ys = [np.full(length, level) for length, level in zip((10, 7), levels)]
        spec = build_problem(ys, ArxOrders(n_a=n_a, n_b=n_b), 0.1)
        work = _Workspace(spec, 4.0)
        K = dense_x_update_matrix(spec, 4.0)
        assert np.linalg.matrix_rank(K) < K.shape[0]
        # x-update right-hand sides lie in range(K): their a part is A_aᵀ r
        rhs = K @ rng.normal(size=K.shape[0])
        expected = np.linalg.pinv(K) @ rhs
        assert np.allclose(work.solve_K(rhs), expected, rtol=0,
                           atol=1e-10 * np.max(np.abs(expected)))


class TestBandSolveLapack:
    """Every solve with the X block of ``K`` is one ``dpbtrs`` call: the
    per-iteration one overwrites its right-hand side, and a non-zero
    ``info`` from either call site raises."""

    @staticmethod
    def failing(ab, b, **kwargs):
        return b, 2

    def test_iteration_solve_failure_raises(self, monkeypatch):
        spec = build_problem([np.arange(9.0)], ArxOrders(n_a=0, n_b=2), 0.1)
        work = _Workspace(spec, 7.0)
        monkeypatch.setattr(solver, "dpbtrs", self.failing)
        with pytest.raises(np.linalg.LinAlgError, match="info = 2"):
            work.solve_K(np.ones(work.p))

    def test_schur_setup_failure_raises(self, monkeypatch):
        spec = build_problem([np.arange(9.0)], ArxOrders(n_a=1, n_b=2), 0.1)
        monkeypatch.setattr(solver, "dpbtrs", self.failing)
        with pytest.raises(np.linalg.LinAlgError, match="info = 2"):
            _Workspace(spec, 7.0)

    def test_iteration_solve_is_in_place(self, monkeypatch):
        spec = build_problem([np.arange(9.0)], ArxOrders(n_a=1, n_b=2), 0.1)
        work = _Workspace(spec, 7.0)
        rhs = np.linspace(-1.0, 1.0, work.p)
        expected = np.linalg.solve(dense_x_update_matrix(spec, 7.0), rhs)
        calls = []

        def recording(ab, b, **kwargs):
            calls.append((np.shares_memory(b, rhs), kwargs.get("overwrite_b")))
            return dpbtrs(ab, b, **kwargs)

        monkeypatch.setattr(solver, "dpbtrs", recording)
        out = work.solve_K(rhs)
        assert out is rhs
        assert calls == [(True, 1)]
        assert np.allclose(out, expected, rtol=0, atol=1e-10 * np.max(np.abs(expected)))


class TestSegmentSubspace:
    """With a freeze set the workspace's X unknowns are segment coefficients
    ``C``, ``X = P C`` for the orthonormal segment basis ``P``: ``M`` is
    ``(C, A(P C, a))`` with no D X block, and ``K = I + (A P)ᵀ(A P)``."""

    @pytest.mark.parametrize("n_b", [1, 2, 3, 4])
    @pytest.mark.parametrize("n_a", [0, 2])
    def test_matches_dense_restriction(self, n_b, n_a):
        rng = np.random.default_rng(10 * n_b + n_a)
        lengths = (13, 9)
        ys = [rng.normal(size=length) for length in lengths]
        spec = build_problem(ys, ArxOrders(n_a=n_a, n_b=n_b, n_k=1), 0.1)
        freeze = ((1, 2, 5, 6, 7, 11, 12), (3, 4, 8))     # as solve_refined passes it
        work = _Workspace(spec, 0.0, freeze)
        A, _ = arx_constraint_matrix(ys, n_a, n_b, 1)
        A[:, A.shape[1] - n_a:] /= max(float(np.max(np.abs(y))) for y in ys)
        P = scipy.linalg.block_diag(
            *(segment_basis(n, n_b, sorted(set(range(1, n)) - set(f)))
              for n, f in zip(lengths, freeze)), np.eye(n_a))
        AP = A @ P
        n_c = P.shape[1] - n_a
        assert work.n_x == n_c == (6 + 6) * n_b
        assert work.cuts == (n_c, n_c)
        M = np.vstack([np.eye(n_c, P.shape[1]), AP])
        assert np.allclose(work.M.toarray(), M, rtol=0, atol=1e-14)
        assert np.allclose(work.MT.toarray(), M.T, rtol=0, atol=1e-14)
        K = AP.T @ AP
        K[:n_c, :n_c] += np.eye(n_c)
        rhs = K @ rng.normal(size=K.shape[0])    # in range(K), as every x-update is
        expected = np.linalg.pinv(K) @ rhs
        assert np.allclose(work.solve_K(rhs), expected, rtol=0,
                           atol=1e-10 * np.max(np.abs(expected)))


class TestStackedMap:
    """``M x = (X, D X, A(X, a))`` on the packed ``x``, held as the CSR
    matrix ``work.M`` with its CSR transpose ``work.MT``: ``D`` is the row
    difference inside each sequence (a row pair that straddles two sequences
    is an empty row) and ``A`` is the normalized constraint operator."""

    @staticmethod
    def dense_oracle(ys, n_a, n_b, n_k):
        A, _ = arx_constraint_matrix(ys, n_a, n_b, n_k)
        n_x = A.shape[1] - n_a
        A[:, n_x:] /= max(float(np.max(np.abs(y))) for y in ys)
        lengths = [len(y) for y in ys]
        D = -np.diff(np.eye(sum(lengths)), axis=0)
        D[np.cumsum(lengths)[:-1] - 1] = 0.0
        lift = np.hstack([np.eye(n_x), np.zeros((n_x, n_a))])
        return np.vstack([lift, np.kron(D, np.eye(n_b)) @ lift, A])

    # Every order combination runs inside one test per length set, so each
    # failure message names its orders.
    @pytest.mark.parametrize("lengths", [(7,), (5, 9), (4, 11, 6)])
    def test_matches_dense_oracle(self, lengths):
        rng = np.random.default_rng(sum(lengths))
        ys = [rng.normal(size=length) for length in lengths]
        checked = 0
        for n_a, n_b, n_k in itertools.product((0, 1, 2), (1, 3), (0, 1)):
            orders = ArxOrders(n_a=n_a, n_b=n_b, n_k=n_k)
            if min(lengths) < orders.n:
                continue            # build_problem rejects so short a sequence
            case = f"n_a={n_a} n_b={n_b} n_k={n_k}"
            spec = build_problem(ys, orders, 0.1)
            work = _Workspace(spec, 3.0)
            M = self.dense_oracle(ys, n_a, n_b, n_k)
            assert work.M.format == work.MT.format == "csr", case

            columns = np.eye(M.shape[1])
            assert np.allclose(np.column_stack([work.M @ e for e in columns]), M,
                               rtol=0, atol=1e-14), case
            assert np.allclose(work.MT.toarray(), M.T, rtol=0, atol=1e-14), case
            x = rng.normal(size=M.shape[1])
            q = rng.normal(size=M.shape[0])
            assert np.allclose(work.MT @ q, M.T @ q, rtol=0, atol=1e-13), case
            lhs, rhs = float((work.M @ x) @ q), float(x @ (work.MT @ q))
            assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(lhs)), case
            # K's two block weights: 1 on the n_x rows of the X copy, rho2 on
            # every row after them.
            weights = np.repeat([1.0, work.rho2], [work.n_x, M.shape[0] - work.n_x])
            K = work.MT @ (weights[:, None] * work.M.toarray())
            assert np.allclose(K, dense_x_update_matrix(spec, 3.0),
                               rtol=0, atol=1e-13), case
            checked += 1
        assert checked >= 9      # n_b = 3, n_k = 1 needs 5 samples


class TestKernelCallCounts:
    """perfbench's per-layer split relies on one ``svt`` and one ``box_clip``
    per iteration, and on one more thin SVD for the objective and one for
    the rank-one factorization. A penalty change rescales ``K`` without
    refactoring it, so each solve factors once. With ``n_a >= 1`` the Schur
    complement takes one ``scipy.linalg.eigh`` per solve, which perfbench's
    traced run counts through that name: a pseudo-inverse that reaches LAPACK
    another way would leave its x-solve invariant unchecked."""

    @pytest.mark.parametrize("refine", [False, True], ids=["solve_bil", "solve_refined"])
    def test_prox_calls_per_iteration(self, monkeypatch, refine):
        counts = dict.fromkeys(("svt", "box_clip", "thin_svd", "cholesky_banded", "eigh"), 0)

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        # arx_noisy changes the penalty 2 times at lambda 1e7 and 9 times in
        # its gamma = 0.5 refine; the freeze set is found before counting
        spec = scenario("scenario_arx_noisy").spec
        freeze = freeze_small_differences(solve_bil(spec, 1e7).u_est, 0.5) if refine else None
        for module, name in ((prox, "svt"), (prox, "box_clip"),
                             (prox, "thin_svd"), (extract, "thin_svd"),
                             (scipy.linalg, "cholesky_banded"), (scipy.linalg, "eigh")):
            monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        sol = solve_refined(spec, freeze) if refine else solve_bil(spec, 1e7)
        assert sol.diagnostics.rho_changes >= 1
        iters = sol.diagnostics.iterations
        assert counts == {"svt": iters, "box_clip": iters, "thin_svd": iters + 2,
                          "cholesky_banded": 1, "eigh": 1}


class TestReferenceWorkPins:
    """The solve and gamma = 0.5 refine that perfbench's ``arx_refine`` times
    as fixed work (noise seed 12, max_iters 6000), and the default seed at
    default options: their iteration counts are pinned, so a change to the
    loop that alters them shows here, not only as a timing shift. The
    stopping test runs at iteration 1, every fifth iteration and at the cap,
    so each count is the first such iteration whose iterate passes; the
    iterates themselves are those of a test at every iteration, which
    stopped the default seed at 629 and 461 and seed 12's refine at 294."""

    @pytest.mark.parametrize("seed,max_iters,pins", [
        (12, 6000, (700, 1925885563.5976167, 295, 211.92739700095106)),
        (None, 5000, (650, 1953755871.5107348, 465, 289.69154086372816)),
    ], ids=["seed12", "default_seed"])
    def test_iterations_and_objectives(self, seed, max_iters, pins):
        spec = scenario("scenario_arx_noisy", seed=seed).spec
        opts = SolverOptions(max_iters=max_iters)
        sol = solve_bil(spec, 1e7, opts)
        refined = refine_pipeline(spec, sol, 0.5, opts)
        iters, objective, refine_iters, refine_objective = pins
        assert sol.diagnostics.converged and refined.diagnostics.converged
        assert sol.diagnostics.iterations == iters
        assert refined.diagnostics.iterations == refine_iters
        assert abs(sol.objective - objective) <= 1e-12 * objective
        assert abs(refined.objective - refine_objective) <= 1e-12 * refine_objective


class TestLongSeriesPin:
    """A 20-iteration solve on an N = 600 series, longer than any preset: at
    that length the row-group prox and the Schur step run on tall arrays, so
    a kernel change that moves a bit there shows here. The pins are the
    objective and both residuals at the cap."""

    def test_objective_and_residuals(self):
        ref = scenario("scenario_arx_noisy")
        u = gen_piecewise_input(600, [57, 131, 204, 290, 368, 455, 521],
                                [4.0, -3.0, 2.5, -6.0, 1.0, 7.5, -2.0, 3.0])
        y = add_uniform_noise(simulate_arx(ref.truth.a, ref.truth.b, ref.spec.orders, u),
                              0.5, 7)
        spec = build_problem([OutputSeries(y)], ref.spec.orders, 0.5)
        sol = solve_bil(spec, 1e4, SolverOptions(max_iters=20))
        diag = sol.diagnostics
        assert diag.iterations == 20 and not diag.converged
        for got, pin in [(sol.objective, 4533467.6571673965),
                         (diag.primal_residual, 0.5441342033886843),
                         (diag.dual_residual, 1158.1158669584509)]:
            assert abs(got - pin) <= 1e-12 * pin


class TestResidualBalancing:
    """The penalty starts at 1 and is doubled or halved until the relative
    primal and dual residuals balance."""

    def test_no_change_before_first_check(self):
        spec = scenario("scenario_arx_noisy").spec
        diag = solve_bil(spec, 1e7, SolverOptions(max_iters=20)).diagnostics
        assert diag.iterations == 20
        assert diag.rho == 1.0
        assert diag.rho_changes == 0

    def test_changes_are_bounded_powers_of_two(self):
        spec, lam = random_tiny_instance(4)
        diag = solve_bil(spec, lam, SolverOptions(max_iters=40000)).diagnostics
        assert diag.converged
        k = round(np.log2(diag.rho))
        assert diag.rho == 2.0 ** k
        assert 1 <= diag.rho_changes <= 50
        assert abs(k) <= diag.rho_changes

    def test_grows_while_dual_residual_is_zero(self):
        # the largest sample lies before the first target, so the targets are
        # tiny in normalized units: the nuclear prox zeroes every iterate, z
        # stops moving and the dual residual is exactly zero; rho must still grow
        y = 1e-6 * np.array([1.0, -2.0, 3.0, 0.5, 1.5, -1.0, 2.0, 0.1])
        y[0] = 1.0
        spec = build_problem([y], ArxOrders(n_a=0, n_b=2), epsilon=0.0)
        diag = solve_bil(spec, 1e6, SolverOptions(max_iters=200)).diagnostics
        assert diag.dual_residual == 0.0
        assert diag.rho_changes == 8
        assert diag.rho == 2.0 ** 8

    @pytest.mark.parametrize("lam", [1e12, 1e15, 1e16], ids=["1e12", "1e15", "1e16"])
    def test_huge_lambda_converges_feasibly(self, lam):
        # past the block-ratio cap K keeps its conditioning, so the solve
        # neither fails to factor nor reports a blown-up iterate as converged
        spec = scenario("scenario_arx_noisy").spec
        sol = solve_bil(spec, lam)
        assert sol.diagnostics.converged
        peak = np.max(np.abs(spec.sequences[0].samples))
        assert (max_constraint_residual(spec, sol.vars.X_blocks, sol.vars.a)
                <= spec.epsilon + 1e-4 * peak)


class TestStoppingCadence:
    """The stopping test runs at iteration 1, every fifth iteration and at
    ``max_iters``; the iterates between checks are the same either way."""

    CASES = [("scenario_fir_noisefree", 1e2), ("scenario_arx_noisy", 1e7),
             ("scenario_two_sequences", 1e4)] + [seed for seed in range(1, 11)]

    @pytest.mark.parametrize("case", CASES, ids=lambda c: c[0] if isinstance(c, tuple)
                             else f"tiny{c}")
    def test_stops_at_first_passing_check(self, case):
        spec, lam = (random_tiny_instance(case) if isinstance(case, int)
                     else (scenario(case[0]).spec, case[1]))
        diag = solve_bil(spec, lam, SolverOptions(max_iters=40000)).diagnostics
        assert diag.converged
        assert diag.iterations % 5 == 0 and diag.iterations > 23
        # the same iterates, capped at the check before: that check failed
        earlier = SolverOptions(max_iters=diag.iterations - 5)
        assert not solve_bil(spec, lam, earlier).diagnostics.converged
        # a cap off the cadence is checked too: its residuals are not those
        # of the check at 20
        capped = solve_bil(spec, lam, SolverOptions(max_iters=23)).diagnostics
        at_20 = solve_bil(spec, lam, SolverOptions(max_iters=20)).diagnostics
        assert capped.iterations == 23
        assert np.isfinite(capped.primal_residual)
        assert np.isfinite(capped.dual_residual)
        assert capped.primal_residual != at_20.primal_residual


class TestSolverOptions:
    def test_defaults(self):
        assert vars(SolverOptions()) == {"max_iters": 5000}

    @pytest.mark.parametrize("kwargs", [
        {"max_iters": 0}, {"max_iters": -1}, {"max_iters": 5000.0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SolverOptions(**kwargs)


class TestSolveRefined:
    @staticmethod
    def constant_input_spec():
        # data a constant input can explain, so full freezing stays feasible
        orders = ArxOrders(n_a=1, n_b=3, n_k=0)
        rng = np.random.default_rng(55)
        u = np.full(24, 5.0)
        z = simulate_arx((0.2,), (-4.9594, 6.1774, 3.3930), orders, u)
        y = z + rng.uniform(-0.5, 0.5, size=24)
        return build_problem([y], orders, epsilon=0.7), u

    def test_fully_frozen_constant_input(self):
        spec, _ = self.constant_input_spec()
        N = len(spec.sequences[0])
        sol = solve_refined(spec, [set(range(1, N))],
                            SolverOptions(max_iters=20000))
        assert sol.diagnostics.converged
        X = sol.vars.X_blocks[0]
        assert np.max(np.abs(X - X[0])) <= 1e-5 * (1 + np.max(np.abs(X)))
        u = np.asarray(sol.u_est[0])
        assert np.max(np.abs(u - u[0])) <= 1e-4 * (1 + np.max(np.abs(u)))

    def test_fully_frozen_two_sequences_keep_their_levels(self):
        # every difference inside each sequence is frozen; the row pair that
        # straddles the two sequences is neither frozen nor penalized, so
        # the blocks settle at two different constant levels
        orders = ArxOrders(n_a=1, n_b=3, n_k=0)
        rng = np.random.default_rng(56)
        ys = []
        for length, level in ((24, 5.0), (17, -2.0)):
            z = simulate_arx((0.2,), (-4.9594, 6.1774, 3.3930), orders,
                             np.full(length, level))
            ys.append(z + rng.uniform(-0.5, 0.5, size=length))
        spec = build_problem(ys, orders, epsilon=0.7)
        sol = solve_refined(spec, [set(range(1, n)) for n in spec.lengths],
                            SolverOptions(max_iters=20000))
        assert sol.diagnostics.converged
        for X in sol.vars.X_blocks:
            assert np.max(np.abs(X - X[0])) <= 1e-5 * (1 + np.max(np.abs(X)))
        u1, u2 = (float(u[0]) for u in sol.u_est)
        assert abs(u1 - u2) >= 0.5 * max(abs(u1), abs(u2))

    def test_infeasible_freeze_reported_unconverged(self):
        # freezing every difference of stepped noise-free data leaves no
        # feasible point; the solver must flag that instead of raising
        sc = scenario("scenario_fir_noisefree")
        N = len(sc.spec.sequences[0])
        sol = solve_refined(sc.spec, [set(range(1, N))],
                            SolverOptions(max_iters=300))
        assert not sol.diagnostics.converged

    def test_no_freeze_slack_covers_data(self):
        y = np.array([0.5, -1.0, 0.75, 0.25, -0.5, 1.0, 0.0, 0.3])
        spec = build_problem([y], ArxOrders(n_a=0, n_b=2, n_k=0), epsilon=2.0)
        sol = solve_refined(spec, [set()])
        assert np.max(np.abs(sol.vars.X_blocks[0])) <= 1e-6
        assert sol.objective <= 1e-5

    def test_freeze_validation(self):
        spec = scenario("scenario_fir_noisefree").spec
        with pytest.raises(ValueError, match="one index set per sequence"):
            solve_refined(spec, [])
        with pytest.raises(ValueError, match=r"\[1, 29\]"):
            solve_refined(spec, [{30}])

    @pytest.mark.parametrize("index", [2.5, 7.9, "3", math.inf, math.nan])
    def test_non_integral_freeze_index_rejected(self, index):
        spec = scenario("scenario_fir_noisefree").spec
        with pytest.raises(ValueError, match="must be integers"):
            solve_refined(spec, [{index}])

    def test_integral_freeze_indices_of_any_type(self):
        sc = scenario("scenario_fir_noisefree")
        opts = SolverOptions(max_iters=50)
        plain = solve_refined(sc.spec, [{2, 7}], opts)
        for freeze in ({2.0, 7.0}, {np.int64(2), np.float32(7.0)}):
            sol = solve_refined(sc.spec, [freeze], opts)
            assert sol.frozen_rows == ((2, 7),)
            assert all(type(i) is int for i in sol.frozen_rows[0])
            assert np.array_equal(sol.vars.X_blocks[0], plain.vars.X_blocks[0])

    def test_freeze_sets_are_canonical(self):
        # a repeated or unordered index names the same frozen pair once
        sc = scenario("scenario_fir_noisefree")
        opts = SolverOptions(max_iters=50)
        plain = solve_refined(sc.spec, [(1, 2)], opts)
        for freeze in ((1, 1, 2), (2, 1), [2, 2, 1, 1]):
            sol = solve_refined(sc.spec, [freeze], opts)
            assert sol.frozen_rows == ((1, 2),)
            assert np.array_equal(sol.vars.X_blocks[0], plain.vars.X_blocks[0])

    @pytest.mark.parametrize("name", ["scenario_arx_noisy", "scenario_two_sequences"])
    def test_nothing_frozen_matches_unpenalized_solve(self, name):
        # every row is its own unit-weight segment: the program of solve_bil at 0
        spec = scenario(name).spec
        opts = SolverOptions(max_iters=20000)
        free = solve_refined(spec, [set() for _ in spec.lengths], opts)
        ref = solve_bil(spec, 0.0, opts)
        assert free.diagnostics.converged and ref.diagnostics.converged
        assert abs(free.objective - ref.objective) <= 1e-6 * abs(ref.objective)

    def test_frozen_pairs_hold_identical_rows(self):
        sc = scenario("scenario_arx_noisy")
        opts = SolverOptions(max_iters=30000)
        refined = refine_pipeline(sc.spec, solve_bil(sc.spec, 1e7, opts), 0.5, opts)
        X = refined.vars.X_blocks[0]
        assert refined.frozen_rows[0]
        for i in refined.frozen_rows[0]:
            assert np.array_equal(X[i - 1], X[i]), i

    # Objectives of the same program solved over every X entry with a masked
    # D X prox (lambda 1e7, FIR 1e2; gamma 0.5; max_iters 30000), converged.
    @pytest.mark.parametrize("name,seed,lam,objective", [
        ("scenario_arx_noisy", None, 1e7, 289.69150041156695),
        ("scenario_arx_noisy", 12, 1e7, 211.92755035181898),
        ("scenario_fir_noisefree", None, 1e2, 408.72607539735975),
    ], ids=["arx_noisy", "arx_noisy_seed12", "fir"])
    def test_refine_parity_pins(self, name, seed, lam, objective):
        sc = scenario(name, seed=seed)
        opts = SolverOptions(max_iters=30000)
        refined = refine_pipeline(sc.spec, solve_bil(sc.spec, lam, opts), 0.5, opts)
        assert refined.diagnostics.converged
        assert abs(refined.objective - objective) <= 1e-6 * objective

    # Seeds fixed before any run; the refine shares no kernel with the
    # reference, which solves the restricted program by smoothed gradients.
    @pytest.mark.parametrize("seed", [2, 5, 8])
    def test_matches_segment_reference(self, seed):
        spec, lam = random_tiny_instance(seed)
        u = solve_bil(spec, lam).u_est[0]
        freeze = freeze_small_differences([u], 0.1 * np.max(np.abs(np.diff(u))))
        refined = solve_refined(spec, freeze, SolverOptions(max_iters=40000))
        assert refined.diagnostics.converged
        ref = SegmentReference(spec, freeze[0])
        obj_ref, v_ref = ref.solve(total_iters=50_000)
        v = ref.project_to_tube(ref.restrict(refined.vars.X_blocks[0], refined.a_est))
        assert abs(ref.objective(v) - obj_ref) <= 1e-3 * max(abs(obj_ref), 1e-9)
        peak = np.max(np.abs(spec.sequences[0].samples))
        assert ref.tube_violation(v) <= 1e-6 * (1.0 + peak)
        # the reference's objective is read at a point of the tube too
        assert ref.tube_violation(v_ref) <= 1e-6 * (1.0 + peak)

    def test_frozen_rows_recorded(self):
        sc = scenario("scenario_fir_noisefree")
        sol = solve_refined(sc.spec, [{1, 2, 3}], SolverOptions(max_iters=200))
        assert sol.frozen_rows == ((1, 2, 3),)
        assert sol.lam == 0.0


class TestRefinePipeline:
    def test_noisy_scenario_recovers_change_points(self):
        sc = scenario("scenario_arx_noisy")
        opts = SolverOptions(max_iters=20000)
        sol = solve_bil(sc.spec, 1e7, opts)
        refined = refine_pipeline(sc.spec, sol, 0.5, opts)
        assert change_points(refined.u_est[0], 0.5) == list(sc.truth.change_points[0])
        assert refined.rank_gap < sol.rank_gap

    def test_gamma_zero_freezes_exact_zero_diffs(self):
        sc = scenario("scenario_fir_noisefree")
        sol = solve_bil(sc.spec, 1e4, SolverOptions(max_iters=2000))
        # plant an estimate with exact zero differences at known places
        u = gen_piecewise_input(30, (8, 15, 23), (0.0, 10.0, 4.0, 12.0))
        import dataclasses

        fake = dataclasses.replace(sol, u_est=(u,))
        refined = refine_pipeline(sc.spec, fake, 0.0, SolverOptions(max_iters=100))
        expected = tuple(sorted(set(range(1, 30)) - {8, 15, 23}))
        assert refined.frozen_rows == (expected,)

    def test_gamma_dominating_freezes_everything(self):
        spec, _ = TestSolveRefined.constant_input_spec()
        opts = SolverOptions(max_iters=20000)
        sol = solve_bil(spec, 100.0, opts)
        big_gamma = float(np.max(np.abs(np.diff(sol.u_est[0])))) + 1.0
        refined = refine_pipeline(spec, sol, big_gamma, opts)
        N = len(spec.sequences[0])
        assert refined.frozen_rows == (tuple(range(1, N)),)
        u = np.asarray(refined.u_est[0])
        assert np.max(np.abs(u - u[0])) <= 1e-4 * (1 + np.max(np.abs(u)))

    def test_rejects_negative_gamma(self):
        sc = scenario("scenario_fir_noisefree")
        sol = solve_bil(sc.spec, 1e4, SolverOptions(max_iters=200))
        with pytest.raises(ValueError, match="gamma"):
            refine_pipeline(sc.spec, sol, -0.5)

    def test_rejects_non_finite_estimate(self):
        # a NaN difference must not read as small: it is an error, not a
        # freeze of both pairs around the unknown value
        with pytest.raises(ValueError, match="finite"):
            freeze_small_differences([[0.0, np.nan, 1.0, 1.0]], 0.5)
        assert freeze_small_differences([[0.0, 5.0, 1.0, 1.0]], 0.5) == [{3}]


class TestSweepLambda:
    def test_fir_grid_qualifies(self):
        sc = scenario("scenario_fir_noisefree")
        res = sweep_lambda(sc.spec, [1e2, 1e4, 1e6], 1e-3,
                           SolverOptions(max_iters=20000))
        assert res.qualified
        assert res.solution.rank_gap <= 1e-3
        b_true = sc.truth.b / np.linalg.norm(sc.truth.b)
        assert abs(float(res.solution.b_est @ b_true)) >= 0.999

    def test_singleton_grid(self):
        sc = scenario("scenario_fir_noisefree")
        res = sweep_lambda(sc.spec, [1e4], 1e-3, SolverOptions(max_iters=20000))
        direct = solve_bil(sc.spec, 1e4, SolverOptions(max_iters=20000))
        assert res.lambda_chosen == 1e4
        assert res.solution.rank_gap == direct.rank_gap

    def test_loose_target_returns_first_qualifier(self):
        sc = scenario("scenario_fir_noisefree")
        res = sweep_lambda(sc.spec, [1e2, 1e4], 0.99, SolverOptions(max_iters=20000))
        assert res.lambda_chosen == 1e2
        assert len(res.trace) == 1  # scan stopped at the first qualifier

    def test_no_qualifier_flagged(self):
        sc = scenario("scenario_arx_noisy")
        res = sweep_lambda(sc.spec, [1e5, 1e7], 1e-9, SolverOptions(max_iters=300))
        assert not res.qualified
        assert len(res.trace) == 2
        assert res.solution.rank_gap == min(g for _, g in res.trace)

    def test_grid_validation(self):
        spec = scenario("scenario_fir_noisefree").spec
        with pytest.raises(ValueError, match="non-empty"):
            sweep_lambda(spec, [], 0.5)
        with pytest.raises(ValueError, match="ascending"):
            sweep_lambda(spec, [10.0, 1.0], 0.5)
        with pytest.raises(ValueError, match="positive"):
            sweep_lambda(spec, [-1.0, 2.0], 0.5)
        with pytest.raises(ValueError, match="gap_target"):
            sweep_lambda(spec, [1.0], 1.5)

    def test_grid_point_whose_square_overflows_fails_before_any_solve(self, monkeypatch):
        # solve_bil's own lambda rule, applied to the whole grid up front.
        spec = scenario("scenario_fir_noisefree").spec
        assert solver.check_sweep_grid([1e2, 1e154], 0.5) == [1e2, 1e154]
        monkeypatch.setattr(solver, "solve_bil", lambda *args: pytest.fail("solved"))
        with pytest.raises(ValueError, match="finite squares"):
            sweep_lambda(spec, [1e2, 1e155], 0.5)
