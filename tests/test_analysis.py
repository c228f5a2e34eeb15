import itertools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bilarx import (
    ArxOrders,
    SolverOptions,
    analysis,
    build_problem,
    gen_piecewise_input,
    scenario,
    simulate_arx,
    solve_bil,
)
from bilarx.analysis import (
    MatrixOperator,
    brute_force_solve,
    certify_uniqueness,
    operator_from_problem,
    rip_constant,
    rip_patterns_checked,
    rip_report,
)

from _oracles import (
    arx_constraint_matrix,
    gram_eigen_singular_values,
    max_constraint_residual,
    rip_constant_by_basis,
    segment_basis,
)


def fir_operator():
    return operator_from_problem(scenario("scenario_fir_noisefree").spec)


def gaussian_operator(rng, n1, n2, n3):
    return MatrixOperator(rng.normal(size=(n3, n1 * n2)) / np.sqrt(n3), n1, n2)


@pytest.fixture
def linalg_calls(monkeypatch):
    """Counts of the ``np.linalg`` decompositions the isometry walk makes."""
    counts = dict.fromkeys(("svd", "eigvalsh"), 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in counts:
        monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
    return counts


def planted_rank1(rng, n1, n2, change_at, ratio=2.5):
    row = rng.normal(size=n2)
    u = np.ones(n1)
    u[change_at:] = ratio
    return np.outer(u, row)


def fir_output(X):
    """Exact data of an n_b = 2, n_k = 0 FIR model with lifted matrix ``X``:
    two free samples, then y(t) = X(t-1, 1) + X(t-2, 2) for t = 3..N
    (1-based)."""
    return np.concatenate([[0.3, 0.7], X[1:-1, 0] + X[:-2, 1]])


@pytest.fixture
def members(monkeypatch):
    """What each call of the rank-one closed form returned: its candidate
    count, or None for a pattern it leaves ambiguous."""
    seen = []
    original = analysis._rank_one_member

    def recording(levels):
        out = original(levels)
        seen.append(None if out is None else len(out))
        return out

    monkeypatch.setattr(analysis, "_rank_one_member", recording)
    return seen


def planted_spec(N, n_a, n_b, n_k, change_points, levels, a, b):
    orders = ArxOrders(n_a=n_a, n_b=n_b, n_k=n_k)
    u = gen_piecewise_input(N, change_points, levels)
    return build_problem([simulate_arx(a, b, orders, u)], orders, 0.0)


class TestRipConstant:
    def test_exact_vectorization_is_isometry(self):
        op = MatrixOperator(np.eye(12), 6, 2)
        for k in (1, 2, 3):
            assert rip_constant(op, k) <= 1e-12

    def test_scaled_vectorization(self):
        op = MatrixOperator(2.0 * np.eye(12), 6, 2)
        assert rip_constant(op, 1) == pytest.approx(3.0)

    def test_sampling_oracle_lower_bounds(self):
        rng = np.random.default_rng(3)
        A = rng.normal(size=(12, 6)) / np.sqrt(12)
        op = MatrixOperator(A, 6, 1)
        exact = rip_constant(op, 1)
        worst = 0.0
        for _ in range(100_000):
            i = rng.integers(2, 5)
            z = np.empty(6)
            c = rng.normal(size=2)
            z[:i], z[i:] = c[0], c[1]
            z /= np.linalg.norm(z)
            v = A @ z
            worst = max(worst, abs(float(v @ v) - 1.0))
        assert exact >= worst - 1e-12
        assert exact <= worst * (1.0 + 5e-2) + 1e-6

    @pytest.mark.parametrize("n1,n2,n3", [(8, 2, 40), (10, 3, 25), (7, 1, 12),
                                          (9, 2, 10), (6, 4, 30)])
    def test_matches_explicit_basis_oracle(self, n1, n2, n3):
        rng = np.random.default_rng(100 * n1 + 10 * n2 + n3)
        op = gaussian_operator(rng, n1, n2, n3)
        for k in (1, 2, 3):
            expected = rip_constant_by_basis(op.matrix, n1, n2, k)
            assert abs(rip_constant(op, k) - expected) <= 1e-12

    def test_fewer_interior_indices_than_2k(self):
        # n1 = 6 has three interior indices, so level 2k = 4 walks the
        # single pattern that allows a change at every one of them
        rng = np.random.default_rng(61)
        op = gaussian_operator(rng, 6, 2, 30)
        expected = rip_constant_by_basis(op.matrix, 6, 2, 4)
        assert abs(rip_constant(op, 4) - expected) <= 1e-12
        assert rip_report(op, 2).certified_unique == (expected < 1.0)

    def test_monotone_in_k(self):
        rng = np.random.default_rng(4)
        op = gaussian_operator(rng, 8, 2, 40)
        eps = [rip_constant(op, k) for k in (1, 2, 3)]
        assert eps[0] <= eps[1] <= eps[2]

    def test_pattern_count(self):
        rng = np.random.default_rng(5)
        op = gaussian_operator(rng, 9, 1, 20)
        # interior indices {2..7}: 6 of them
        assert rip_patterns_checked(op, 2) == 6 + 15

    def test_budget_enforced(self):
        # 96 interior indices at k = 3: 147 536 patterns, refused before any SVD
        op = MatrixOperator(np.ones((1, 100)), 100, 1)
        with pytest.raises(ValueError, match="budget"):
            rip_constant(op, 3)

    def test_rejects_bad_k_and_small_n1(self):
        rng = np.random.default_rng(7)
        op = gaussian_operator(rng, 8, 1, 20)
        with pytest.raises(ValueError, match="positive"):
            rip_constant(op, 0)
        small = gaussian_operator(rng, 3, 1, 10)
        with pytest.raises(ValueError, match="n1 >= 4"):
            rip_constant(small, 1)


    def test_huge_entries_overflow_to_infinity(self):
        # the squared singular values overflow to inf, which is the answer
        op = MatrixOperator(1e200 * np.eye(12), 6, 2)
        assert rip_constant(op, 1) == np.inf
        assert not certify_uniqueness(op, 1)


class TestRipWalk:
    """The walk factors chunks of patterns with one stacked SVD per chunk."""

    @pytest.mark.parametrize("k,epsilon,patterns", [
        (1, 1.8613321007542312, 27),
        (2, 1.954200567447971, 378),
    ])
    def test_fir_report_is_pinned(self, k, epsilon, patterns):
        report = rip_report(fir_operator(), k)
        assert report.rip_epsilon == epsilon
        assert report.patterns_checked == patterns
        assert report.certified_unique is False

    @settings(max_examples=40, deadline=None)
    @given(
        n1=st.integers(4, 8),
        n2=st.integers(1, 3),
        rows=st.integers(1, 30),
        k=st.integers(1, 5),
        scale=st.one_of(st.none(), st.floats(0.1, 3.0)),
        seed=st.integers(0, 2**32 - 1),
        one_per_chunk=st.booleans(),
    )
    def test_matches_basis_oracle(self, n1, n2, rows, k, scale, seed,
                                  one_per_chunk):
        # rows from 1 to 30 give wide and tall restrictions; a scale gives a
        # scaled identity operator, which certifies exactly when
        # |scale^2 - 1| < 1; n1 < k + 3 leaves fewer interior indices than k.
        # These walks fit in one chunk unless each pattern is made a chunk of
        # its own, which lets the verdict's early exit show
        if scale is None:
            op = gaussian_operator(np.random.default_rng(seed), n1, n2, rows)
        else:
            op = MatrixOperator(scale * np.eye(n1 * n2), n1, n2)
        expected = rip_constant_by_basis(op.matrix, n1, n2, k)
        certified = rip_constant_by_basis(op.matrix, n1, n2, 2 * k) < 1.0
        with mock.patch.object(analysis, "_CHUNK_ELEMENTS",
                               1 if one_per_chunk else analysis._CHUNK_ELEMENTS):
            assert abs(rip_constant(op, k) - expected) <= 1e-12
            assert certify_uniqueness(op, k) == certified

    @staticmethod
    def stretch_last_pattern(monkeypatch, n1, n2, k, c):
        """I + (c - 1) v v^T stretches only v, whose difference support is the
        last combination of ``k`` changes, so that pattern alone reaches
        c^2 - 1; chunks of 8 patterns leave it last in a partial chunk.
        Returns the matrix and the worst deviation of every other pattern."""
        last = tuple(range(n1 - 1 - k, n1 - 1))
        rng = np.random.default_rng(12)
        v = segment_basis(n1, n2, last) @ rng.normal(size=(k + 1) * n2)
        v /= np.linalg.norm(v)
        A = np.eye(n1 * n2) + (c - 1.0) * np.outer(v, v)

        per_pattern = n1 * n2 * (k + 1) * n2
        monkeypatch.setattr(analysis, "_CHUNK_ELEMENTS", 8 * per_pattern)
        patterns = list(itertools.combinations(range(2, n1 - 1), k))
        assert patterns[-1] == last and len(patterns) % 8 != 0

        runner_up = 0.0
        for pattern in patterns[:-1]:
            sigma = np.linalg.svd(A @ segment_basis(n1, n2, pattern),
                                  compute_uv=False)
            runner_up = max(runner_up, sigma[0] ** 2 - 1.0)
        return A, runner_up

    def test_worst_pattern_last_in_a_partial_chunk(self, monkeypatch):
        n1, n2, k, c = 10, 2, 3, 1.5
        A, runner_up = self.stretch_last_pattern(monkeypatch, n1, n2, k, c)
        op = MatrixOperator(A, n1, n2)
        assert runner_up < c * c - 1.0 - 1e-3
        assert abs(rip_constant(op, k) - (c * c - 1.0)) <= 1e-12
        assert abs(rip_constant(op, k)
                   - rip_constant_by_basis(A, n1, n2, k)) <= 1e-12

    def test_verdict_walks_past_chunks_below_one(self, monkeypatch):
        # only the last pattern at level 2k = 4 reaches one (c^2 - 1 = 1.0164,
        # the runner-up 0.98), so the verdict walk may not stop before it
        n1, n2, c = 10, 2, 1.42
        A, runner_up = self.stretch_last_pattern(monkeypatch, n1, n2, 4, c)
        assert runner_up < 1.0 <= c * c - 1.0
        assert not certify_uniqueness(MatrixOperator(A, n1, n2), 2)

    def test_one_decomposition_per_chunk_not_per_pattern(self, linalg_calls):
        # rip_report(fir, 2) walks all 351 patterns at k = 2 and the first
        # chunk of the 17 550 at 4, where the verdict is decided: six chunks
        # and one, each taking one SVD and no eigvalsh.
        rip_report(fir_operator(), 2)
        assert linalg_calls == {"svd": 7, "eigvalsh": 0}

    def test_verdict_stops_at_the_first_chunk_that_decides_it(self, linalg_calls):
        # 1 v^T with sum(v) = 0 lies in every pattern's subspace and the FIR
        # operator maps it to zero, so the first chunk already reaches one
        assert not certify_uniqueness(fir_operator(), 2)
        assert linalg_calls == {"svd": 1, "eigvalsh": 0}

    def test_certified_verdict_walks_every_chunk(self, linalg_calls):
        op = MatrixOperator(np.eye(40), 20, 2)
        assert certify_uniqueness(op, 3)
        verdict = dict(linalg_calls)
        linalg_calls.update(svd=0, eigvalsh=0)
        rip_constant(op, 6)
        assert verdict == linalg_calls == {"svd": 427, "eigvalsh": 0}

    def test_chunked_walk_memory_is_bounded(self):
        # level 4 walks 17 550 patterns; chunks of 4 096 of them peak near
        # 51 MB, the chunks that _CHUNK_ELEMENTS sets below 1 MB
        op = fir_operator()
        tracemalloc.start()
        try:
            rip_constant(op, 4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5e6


class TestMatrixOperator:
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_rejects_non_finite_entries(self, bad):
        matrix = np.ones((10, 12))
        matrix[3, 5] = bad
        with pytest.raises(ValueError, match="non-finite"):
            MatrixOperator(matrix, 6, 2)

    def test_rejects_zero_rows(self):
        with pytest.raises(ValueError, match="at least one row"):
            MatrixOperator(np.zeros((0, 12)), 6, 2)

    def test_rejects_wrong_column_count(self):
        with pytest.raises(ValueError, match="12 columns"):
            MatrixOperator(np.ones((10, 10)), 6, 2)


class TestCertifyUniqueness:
    def test_exact_vectorization_certifies(self):
        op = MatrixOperator(np.eye(12), 6, 2)
        assert certify_uniqueness(op, 1)

    def test_zero_operator_fails(self):
        op = MatrixOperator(np.zeros((12, 12)), 6, 2)
        assert not certify_uniqueness(op, 1)

    def test_report_bundles_level_and_verdict(self):
        op = MatrixOperator(np.eye(12), 6, 2)
        report = rip_report(op, 2)
        assert report.k == 2
        assert report.rip_epsilon <= 1e-12
        assert report.certified_unique
        assert report.patterns_checked == rip_patterns_checked(op, 2)

    def test_arx_operator_has_structural_null_direction(self):
        # constant-row matrices with zero row sum are invisible to the
        # banded measurement map, so these operators never certify
        orders = ArxOrders(n_a=0, n_b=2, n_k=0)
        spec = build_problem([np.arange(1.0, 13.0)], orders, 0.0)
        op = operator_from_problem(spec)
        assert rip_constant(op, 1) >= 1.0
        assert not certify_uniqueness(op, 1)

    def test_operator_from_problem_preconditions(self):
        with pytest.raises(ValueError, match="n_a = 0"):
            operator_from_problem(
                build_problem([np.ones(10)], ArxOrders(n_a=1, n_b=2), 0.0)
            )
        with pytest.raises(ValueError, match="single sequence"):
            operator_from_problem(
                build_problem([np.ones(10), np.ones(10)],
                              ArxOrders(n_a=0, n_b=2), 0.0)
            )


class TestTheoremValidation:
    def test_certified_instances_recover_uniquely(self):
        n1, n2, n3 = 8, 2, 60
        validated = 0
        seed = 0
        while validated < 6 and seed < 40:
            rng = np.random.default_rng(200 + seed)
            seed += 1
            op = gaussian_operator(rng, n1, n2, n3)
            if not certify_uniqueness(op, 1):
                continue
            change_at = int(rng.integers(2, n1 - 1))
            Z = planted_rank1(rng, n1, n2, change_at)
            res = brute_force_solve(op, 1, rhs=op.apply(Z))
            assert res.num_solutions == 1
            assert np.allclose(res.solutions[0].X, Z, atol=1e-8)
            validated += 1
        assert validated == 6

    def test_uncertified_operator_can_be_ambiguous(self):
        # few measurement rows: pattern systems go rank deficient
        rng = np.random.default_rng(9)
        op = gaussian_operator(rng, 8, 2, 3)
        assert not certify_uniqueness(op, 1)
        Z = planted_rank1(rng, 8, 2, 4)
        res = brute_force_solve(op, 1, rhs=op.apply(Z))
        assert res.num_solutions + len(res.ambiguous_patterns) > 1


class TestBruteForce:
    def test_planted_fir_single_change(self):
        orders = ArxOrders(n_a=0, n_b=2, n_k=0)
        u = gen_piecewise_input(10, (5,), (1.0, 3.0))
        b = (2.0, -1.0)
        z = simulate_arx((), b, orders, u)
        spec = build_problem([z], orders, 0.0)
        res = brute_force_solve(spec, 2)
        assert res.num_solutions == 1
        sol = res.solutions[0]
        assert sol.change_count == 1
        assert np.allclose(sol.X, np.outer(u, b), atol=1e-7)

    def test_planted_arx_recovers_coefficients(self):
        orders = ArxOrders(n_a=1, n_b=2, n_k=0)
        u = gen_piecewise_input(10, (5,), (1.0, 3.0))
        z = simulate_arx((0.5,), (2.0, -1.0), orders, u)
        spec = build_problem([z], orders, 0.0)
        res = brute_force_solve(spec, 2)
        assert res.num_solutions == 1
        assert res.solutions[0].a == pytest.approx([0.5], abs=1e-8)

    def test_slack_data_rejected(self):
        orders = ArxOrders(n_a=0, n_b=2, n_k=0)
        u = gen_piecewise_input(10, (5,), (1.0, 3.0))
        z = simulate_arx((), (2.0, -1.0), orders, u)
        spec = build_problem([z], orders, epsilon=float(np.max(np.abs(z))) + 1.0)
        with pytest.raises(ValueError, match=r"exact data \(epsilon = 0\)"):
            brute_force_solve(spec, 2)

    def test_budget_enforced(self):
        # 59 difference indices at k_max = 4: 489 406 patterns, refused up front
        spec = build_problem([np.ones(60) + np.arange(60)],
                             ArxOrders(n_a=0, n_b=1), 0.0)
        with pytest.raises(ValueError, match="budget"):
            brute_force_solve(spec, 4)

    def test_operator_requires_rhs(self):
        rng = np.random.default_rng(10)
        op = gaussian_operator(rng, 6, 1, 12)
        with pytest.raises(ValueError, match="rhs"):
            brute_force_solve(op, 1)

    @pytest.mark.parametrize("rhs, message", [
        (np.ones(7), r"rhs must have length 12, got shape \(7,\)"),
        (np.full(12, np.nan), "rhs has non-finite entries"),
    ], ids=["wrong_length", "nan"])
    def test_operator_rhs_checked(self, rhs, message):
        op = gaussian_operator(np.random.default_rng(10), 6, 2, 12)
        with pytest.raises(ValueError, match=message):
            brute_force_solve(op, 1, rhs=rhs)

    def test_unsupported_problem_type_rejected(self):
        with pytest.raises(TypeError, match="unsupported problem type"):
            brute_force_solve(np.eye(3), 1)

    def test_spec_rejects_rhs(self):
        spec = build_problem([np.arange(8.0)], ArxOrders(n_a=0, n_b=1), 0.0)
        with pytest.raises(ValueError, match="rhs is given only with a MatrixOperator"):
            brute_force_solve(spec, 1, rhs=np.zeros(7))

    def test_constant_output_is_ambiguous(self):
        # a constant y is matched by 1 v^T for every v with v_1 + v_2 = y, and
        # every such matrix is rank one: the empty pattern has no level
        # differences, and on (2,)..(5,) the data tie both segments to the
        # same levels, so no difference gives the rank-one member a direction;
        # a change at 1, 6 or 7 makes a segment of entries the data do not
        # all reach, which widens the null space past the family
        spec = build_problem([np.full(8, 2.0)], ArxOrders(n_a=0, n_b=2), 0.0)
        res = brute_force_solve(spec, 1)
        assert res.num_solutions == 0
        assert res.ambiguous_patterns == ((), (1,), (2,), (3,), (4,), (5,), (6,), (7,))

    def test_nearly_rank_one_candidate_rejected(self, members):
        # X = u b^T plus 1e-5 (1, 2) on the last segment is not rank one; its
        # level differences still give the family one candidate, and the
        # singular value test turns that candidate away
        def data(delta):
            X = np.outer(np.repeat([1.0, 3.0, 2.0], 4), [2.0, -1.0])
            X[8:] += delta * np.array([1.0, 2.0])
            return fir_output(X)

        orders = ArxOrders(n_a=0, n_b=2)
        exact = brute_force_solve(build_problem([data(0.0)], orders, 0.0), 2)
        assert [s.pattern for s in exact.solutions] == [(4, 8)]

        members.clear()
        res = brute_force_solve(build_problem([data(1e-5)], orders, 0.0), 2)
        assert 1 in members and res.num_solutions == 0

    def test_fir_preset_is_unique(self):
        # the paper's instance (n_b = 3): the null space of every pattern
        # holds a two-dimensional family, and its rank-one member is unique
        sc = scenario("scenario_fir_noisefree")
        res = brute_force_solve(sc.spec, 3)
        assert res.patterns_checked == 4090
        assert res.ambiguous_patterns == ()
        assert [s.pattern for s in res.solutions] == [(8, 15, 23)]
        X = np.outer(sc.truth.u_blocks[0], sc.truth.b)
        assert res.solutions[0].change_count == 3
        assert np.max(np.abs(res.solutions[0].X - X)) <= 1e-9 * np.max(np.abs(X))

    def test_unseen_change_leaves_zero_change_family_ambiguous(self):
        # the data never see the planted change at 8, so the zero-change
        # answers are the whole line c_1 + c_2 = -20; on (2, 4) the level
        # differences are rounding noise (1.6e-7, a tenth of the change
        # tolerance), which gives the rank-one member no direction
        spec = planted_spec(10, 1, 2, 1, [8], [4.0, 2.0], (0.01,), (-2.0, -3.0))
        res = brute_force_solve(spec, 2)
        assert res.num_solutions == 0
        assert {(), (2, 4)} <= set(res.ambiguous_patterns)

    def test_zero_sum_b_on_rank_one_data_is_ambiguous(self, members):
        # b = (1, -1): every member (u + c) b^T of the planted pattern's family
        # is rank one
        spec = planted_spec(8, 0, 2, 0, [4], [1.0, 3.0], (), (1.0, -1.0))
        res = brute_force_solve(spec, 1)
        assert res.num_solutions == 0
        assert (4,) in res.ambiguous_patterns
        assert None in members

    def test_zero_sum_differences_without_rank_one_member(self, members):
        # rows (1, 2) then (3, 0): the difference (2, -2) fixes b along
        # (1, -1), but every member's first row sums to 3, never a multiple
        # of b; no one-change pattern reproduces the data with rank one
        X = np.repeat([[1.0, 2.0], [3.0, 0.0]], 4, axis=0)
        spec = build_problem([fir_output(X)], ArxOrders(n_a=0, n_b=2), 0.0)
        res = brute_force_solve(spec, 1)
        assert res.num_solutions == 0
        assert (4,) not in res.ambiguous_patterns
        assert 0 in members

    def test_null_space_wider_than_the_family_is_ambiguous(self):
        # a change at 1 leaves row 1's second entry unseen by the data: on
        # the explicit basis the null space of pattern (1, 4) has one more
        # dimension than the family 1 v^T with sum(v) = 0
        spec = planted_spec(8, 0, 2, 0, [4], [1.0, 3.0], (), (2.0, -1.0))
        A, _ = arx_constraint_matrix([spec.sequences[0].samples], 0, 2, 0)
        restricted = A @ segment_basis(8, 2, (1, 4))
        assert restricted.shape[1] - np.linalg.matrix_rank(restricted) == 2
        res = brute_force_solve(spec, 2)
        assert (1, 4) in res.ambiguous_patterns
        assert [s.pattern for s in res.solutions] == [(4,)]

    @settings(max_examples=60, deadline=None)
    @given(
        N=st.integers(7, 10),
        n_a=st.integers(0, 1),
        n_b=st.integers(1, 3),
        n_k=st.integers(0, 1),
        cuts=st.sets(st.integers(1, 6), max_size=2),
        levels=st.lists(st.integers(-30, 30).map(lambda v: v / 10),
                        min_size=3, max_size=3, unique=True),
        a=st.integers(-50, 50).map(lambda v: v / 100),
        b=st.lists(st.integers(-30, 30).map(lambda v: v / 10),
                   min_size=3, max_size=3),
    )
    def test_solutions_reproduce_the_data_with_rank_one(self, N, n_a, n_b, n_k,
                                                         cuts, levels, a, b):
        # both checks use the model equation written entry by entry and the
        # Gram-matrix singular values, not the package's kernels
        cps = sorted(cuts)
        spec = planted_spec(N, n_a, n_b, n_k, cps, levels[:len(cps) + 1],
                               (a,)[:n_a], b[:n_b])
        y = spec.sequences[0].samples
        for sol in brute_force_solve(spec, 2).solutions:
            residual = max_constraint_residual(spec, [sol.X], sol.a)
            assert residual <= 1e-9 * (1.0 + np.max(np.abs(y)))
            sigma = gram_eigen_singular_values(sol.X)
            assert sigma.size == 1 or sigma[1] <= 1e-6 * sigma[0]

    def test_multi_sequence_rejected(self):
        spec = build_problem([np.ones(8) + np.arange(8), np.ones(8)],
                             ArxOrders(n_a=0, n_b=1), 0.0)
        with pytest.raises(ValueError, match="single-sequence"):
            brute_force_solve(spec, 1)

    def test_negative_k_rejected(self):
        spec = build_problem([np.arange(8.0)], ArxOrders(n_a=0, n_b=1), 0.0)
        with pytest.raises(ValueError, match="k_max"):
            brute_force_solve(spec, -1)


# Random tiny exact n_b = 2 instances at k_max = 2 and the answers the
# earlier oracle gave on them; it took the parameters where the line
# coef0 + t * null crossed the rank-one matrices from the roots of the 2x2
# minors, each a quadratic in t. Per case: (n_a, n_k), N, planted change
# points and levels, a, b, then that oracle's solution patterns and
# ambiguous patterns. Where it differed from the closed form it was wrong
# (test_unseen_change_leaves_zero_change_family_ambiguous).
QUADRATIC_SEARCH_ANSWERS = [
    ((0, 0), 9, (4,), (2.8, -2.0), (), (2.1, -2.0),
     [(4,)], [(1, 4), (3, 4), (4, 5), (4, 7), (4, 8)]),
    ((1, 1), 10, (2,), (-0.7, -1.9), (-0.34,), (-3.0, 2.8),
     [(2,)], [(1, 2), (1, 3), (2, 3), (2, 7), (2, 8), (2, 9)]),
    ((0, 1), 10, (3, 5), (-2.4, 1.0, 1.9), (), (1.1, 3.0), [(3, 5)], []),
    ((1, 0), 8, (3, 5), (2.9, 0.8, 1.0), (-0.17,), (1.1, -2.3), [(3, 5)], []),
    ((0, 0), 10, (6,), (0.8, 0.9), (), (0.0, -2.6),
     [(6,), (7,)], [(1, 6), (1, 7), (5, 6), (6, 7), (6, 8), (6, 9), (7, 8), (7, 9)]),
    ((1, 1), 7, (3, 5), (-0.1, 1.9, 0.3), (-0.06,), (-2.9, 1.1),
     [(2,), (3,)], [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (2, 5), (2, 6),
                    (3, 4), (3, 5), (3, 6)]),
    ((0, 0), 8, (1, 4), (0.4, 2.2, -2.5), (), (1.5, 1.9), [], [(1, 4)]),
    ((1, 1), 9, (1, 4), (-0.7, 2.7, -0.7), (0.08,), (2.5, -3.0), [], [(1, 4)]),
    ((0, 0), 7, (4,), (-2.8, -2.1), (), (2.6, -2.6),
     [], [(4,), (1, 4), (2, 4), (3, 4), (3, 5), (4, 5), (4, 6)]),
]


class TestQuadraticSearchAnswers:
    @pytest.mark.parametrize("case", QUADRATIC_SEARCH_ANSWERS,
                             ids=[f"case{i}" for i in range(len(QUADRATIC_SEARCH_ANSWERS))])
    def test_closed_form_gives_the_recorded_answers(self, case):
        (n_a, n_k), N, cps, levels, a, b, solutions, ambiguous = case
        spec = planted_spec(N, n_a, 2, n_k, cps, levels, a, b)
        res = brute_force_solve(spec, 2)
        assert sorted(s.pattern for s in res.solutions) == solutions
        assert list(res.ambiguous_patterns) == ambiguous


class TestCorollaryAgreement:
    def test_bil_matches_brute_force_when_certified(self):
        # single-column instances have no structural null direction, so the
        # measurement operator can certify; the convex solve and the
        # enumeration must then land on the same lifted matrix up to scale
        # (here: exactly, since the data pin the scale).
        orders = ArxOrders(n_a=0, n_b=1, n_k=0)
        u = gen_piecewise_input(12, (6,), (2.0, 5.0))
        z = simulate_arx((), (3.0,), orders, u)
        spec = build_problem([z], orders, 0.0)
        op = operator_from_problem(spec)
        assert certify_uniqueness(op, 1)

        res = brute_force_solve(spec, 1)
        assert res.num_solutions == 1
        Z_bf = res.solutions[0].X

        sol = solve_bil(spec, 10.0, SolverOptions(max_iters=20000))
        assert sol.rank_gap <= 1e-6
        Z_bil = sol.vars.X_blocks[0]
        cos = float(
            (Z_bil.ravel() @ Z_bf.ravel())
            / (np.linalg.norm(Z_bil) * np.linalg.norm(Z_bf))
        )
        assert cos >= 1.0 - 1e-6
        assert np.allclose(Z_bil, Z_bf, atol=1e-4 * np.max(np.abs(Z_bf)))
