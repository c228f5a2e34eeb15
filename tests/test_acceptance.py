"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Budgets and tolerances are fixed here, not tuned at runtime.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from bilarx import (
    SolverOptions,
    change_points,
    fit_piecewise_constant,
    naive_identify,
    prox,
    refine_pipeline,
    scenario,
    simulate_arx,
    solve_bil,
    sweep_lambda,
)
from bilarx.analysis import MatrixOperator, brute_force_solve, certify_uniqueness

from _oracles import (
    exhaustive_segmentation_cost,
    gram_eigen_singular_values,
    max_constraint_residual,
    no_descent_direction,
    nuclear_norm_2x2,
    prox_objective_min,
    row_21_norm,
)
from _instances import random_tiny_instance
from _slowref import SlowReference


@contextmanager
def criterion(number, title):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {title}")
        raise
    elapsed = time.monotonic() - start
    print(f"[PASS] criterion {number}: {title} ({elapsed:.1f}s)")


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def recovery_errors(sol, u_ref, b_ref):
    """|cos| between the estimated and reference ``b``, and the largest error
    of the least-squares rescaled input relative to ``max |u_ref|``."""
    cos = abs(float(np.dot(sol.b_est, unit(b_ref))))
    u_est = np.asarray(sol.u_est[0])
    scale = float(np.dot(u_est, u_ref) / np.dot(u_est, u_est))
    return cos, np.max(np.abs(scale * u_est - u_ref)) / np.max(np.abs(u_ref))


def test_criterion_1_noise_free_fir_recovery():
    with criterion(1, "noise-free FIR recovery via penalty sweep"):
        start = time.monotonic()
        sc = scenario("scenario_fir_noisefree")
        res = sweep_lambda(sc.spec, [1e2, 1e3, 1e4, 1e5], gap_target=1e-4,
                           options=SolverOptions(max_iters=20000))
        sol = res.solution
        assert res.qualified
        assert sol.rank_gap <= 1e-4
        cos, rel_err = recovery_errors(sol, sc.truth.u_blocks[0], sc.truth.b)
        assert cos >= 0.999
        assert rel_err <= 1e-3
        # the exact-data oracle finds one rank-one solution with at most
        # three changes; the sweep's answer is that one, not just the truth
        oracle = brute_force_solve(sc.spec, 3)
        assert oracle.num_solutions == 1
        X = oracle.solutions[0].X
        b_oracle = np.linalg.svd(X)[2][0]
        cos, rel_err = recovery_errors(sol, X @ b_oracle, b_oracle)
        assert cos >= 0.999
        assert rel_err <= 1e-3
        assert time.monotonic() - start <= 60.0


def test_criterion_2_noisy_arx_with_refinement():
    with criterion(2, "noisy ARX identification with bias-removing refinement"):
        start = time.monotonic()
        sc = scenario("scenario_arx_noisy")
        opts = SolverOptions(max_iters=30000)
        sol = solve_bil(sc.spec, 1e7, opts)
        refined = refine_pipeline(sc.spec, sol, 0.5, opts)
        recovered = change_points(refined.u_est[0], 0.5)
        assert recovered == list(sc.truth.change_points[0])
        cos = abs(float(np.dot(refined.b_est, unit(sc.truth.b))))
        assert cos >= 0.97
        assert abs(float(refined.a_est[0]) - 0.2) <= 0.1
        assert refined.rank_gap < sol.rank_gap
        assert time.monotonic() - start <= 120.0


def test_criterion_3_solver_matches_slow_reference():
    with criterion(3, "convex solver matches the slow smoothed reference"):
        start = time.monotonic()
        for seed in range(1, 11):
            spec, lam = random_tiny_instance(seed)
            sol = solve_bil(spec, lam, SolverOptions(max_iters=40000))
            ref = SlowReference(spec, lam)
            obj_ref, _ = ref.solve(total_iters=50_000)
            vec = np.concatenate([np.vstack(sol.vars.X_blocks).ravel(), sol.a_est])
            obj_admm = ref.objective(ref.project_to_tube(vec))
            assert abs(obj_admm - obj_ref) <= 1e-3 * max(abs(obj_ref), 1e-9)
            peak = np.max(np.abs(spec.sequences[0].samples))
            assert (max_constraint_residual(spec, sol.vars.X_blocks, sol.vars.a)
                    <= spec.epsilon + 1e-6 * (1 + peak))
        assert time.monotonic() - start <= 120.0


def test_criterion_4_uniqueness_theorem_validation():
    with criterion(4, "certified operators admit exactly one sparse solution"):
        n1, n3 = 8, 60
        validated = 0
        attempts = 0
        rng_master = np.random.default_rng(2024)
        while validated < 20:
            attempts += 1
            assert attempts <= 200, "could not collect 20 certified operators"
            rng = np.random.default_rng(int(rng_master.integers(1 << 60)))
            n2 = int(rng.integers(1, 3))
            op = MatrixOperator(rng.normal(size=(n3, n1 * n2)) / np.sqrt(n3),
                                n1, n2)
            if not certify_uniqueness(op, 1):
                continue
            change_at = int(rng.integers(2, n1 - 1))
            row = rng.normal(size=n2)
            u = np.ones(n1)
            u[change_at:] = float(rng.uniform(1.5, 3.0))
            Z = np.outer(u, row)
            res = brute_force_solve(op, 1, rhs=op.apply(Z))
            assert res.num_solutions == 1, "counterexample to uniqueness"
            assert np.allclose(res.solutions[0].X, Z, atol=1e-7)
            validated += 1
        assert validated == 20


def test_criterion_5_prox_kernels_against_oracles():
    with criterion(5, "proximal kernels match their defining minimizations"):
        rng = np.random.default_rng(501)

        # svt and row-group shrinkage against dense 2x2 minimization
        for _ in range(3):
            M = rng.uniform(-3, 3, size=(2, 2))
            tau = float(rng.uniform(0.2, 2.0))

            def nuc_obj(Z):
                Z = np.asarray(Z, dtype=float).reshape(2, 2)
                return 0.5 * np.sum((Z - M) ** 2) + tau * nuclear_norm_2x2(Z)

            cand = prox.svt(M, tau)
            best, _ = prox_objective_min(nuc_obj, cand, rng)
            assert nuc_obj(cand) <= best + 1e-6
            assert no_descent_direction(nuc_obj, cand, rng, n_dirs=200) <= 1e-6

            kappa = float(rng.uniform(0.2, 2.0))

            def grp_obj(Z):
                Z = np.asarray(Z, dtype=float).reshape(2, 2)
                return 0.5 * np.sum((Z - M) ** 2) + kappa * row_21_norm(Z)

            cand = prox.row_group_shrink(M, kappa)
            best, _ = prox_objective_min(grp_obj, cand, rng)
            assert grp_obj(cand) <= best + 1e-6
            assert no_descent_direction(grp_obj, cand, rng, n_dirs=200) <= 1e-6

        # thin SVD against the Gram eigenvalue oracle on 100 random shapes
        for _ in range(100):
            m = int(rng.integers(1, 13))
            n = int(rng.integers(1, 13))
            M = rng.uniform(-5, 5, size=(m, n))
            _, sigma, _ = prox.thin_svd(M)
            oracle = gram_eigen_singular_values(M)
            top = max(oracle[0], 1e-12)
            assert np.max(np.abs(sigma - oracle)) <= 1e-8 * top

        # segmentation DP against exhaustive enumeration
        for N in range(4, 13):
            for budget in (1, 2, 3):
                y = rng.normal(size=N)
                u_hat, _ = fit_piecewise_constant(y, budget)
                cost = float(np.sum((y - u_hat) ** 2))
                assert cost == pytest.approx(
                    exhaustive_segmentation_cost(y, budget), abs=1e-10
                )


def _hamming(est, truth):
    return len(set(est) ^ set(truth))


def test_criterion_6_refined_beats_naive_baseline():
    with criterion(6, "lifted+refined change points beat the naive baseline"):
        opts = SolverOptions(max_iters=6000)
        wins = 0
        for seed in range(1, 11):
            sc = scenario("scenario_arx_noisy", seed=seed)
            truth = list(sc.truth.change_points[0])
            sol = solve_bil(sc.spec, 1e7, opts)
            refined = refine_pipeline(sc.spec, sol, 0.5, opts)
            ham_bil = _hamming(change_points(refined.u_est[0], 0.5), truth)
            _, _, u_hats = naive_identify(sc.spec, 4)
            ham_naive = _hamming(change_points(u_hats[0], 0.5), truth)
            assert ham_bil <= ham_naive, f"seed {seed}: {ham_bil} > {ham_naive}"
            wins += ham_bil < ham_naive
        assert wins >= 8


def test_criterion_7_two_sequences_shared_parameters():
    with criterion(7, "two sequences identified with shared coefficients"):
        sc = scenario("scenario_two_sequences")
        sol = solve_bil(sc.spec, 1e4, SolverOptions(max_iters=10000))
        assert sol.rank_gap <= 5e-2
        for j in range(2):
            y_model = simulate_arx(sol.a_est, sol.b_est, sc.spec.orders,
                                   np.asarray(sol.u_est[j]))
            z = sc.truth.z_blocks[j]
            rel = np.linalg.norm(y_model - z) / np.linalg.norm(z)
            assert rel <= 0.05
