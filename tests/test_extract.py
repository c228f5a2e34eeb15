import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bilarx import change_points, factor_rank1, gen_piecewise_input


class TestFactorRank1:
    def test_exact_rank_one(self):
        rng = np.random.default_rng(0)
        u = rng.normal(size=12)
        b = rng.normal(size=3)
        model = factor_rank1([np.outer(u, b)])
        b_unit = b / np.linalg.norm(b)
        assert abs(abs(float(model.b @ b_unit)) - 1.0) <= 1e-10
        # 1e-7 is far below any gap threshold used downstream;
        # test_exact_rank_one_gap_at_roundoff pins the tighter bound.
        assert model.rank_gap <= 1e-7

    def test_exact_rank_one_gap_at_roundoff(self):
        # A direct SVD resolves sigma2 of an exact rank-1 matrix down to
        # roundoff, with no sqrt(eps) floor from forming the Gram matrix.
        rng = np.random.default_rng(10)
        for _ in range(50):
            u = rng.normal(size=int(rng.integers(5, 40)))
            b = rng.normal(size=int(rng.integers(2, 6)))
            assert factor_rank1([np.outer(u, b)]).rank_gap <= 1e-12

    def test_diag_two_one(self):
        model = factor_rank1([np.diag([2.0, 1.0])])
        assert model.rank_gap == pytest.approx(0.5)
        assert np.allclose(np.abs(model.b), [1.0, 0.0], atol=1e-12)

    def test_two_blocks_share_b(self):
        rng = np.random.default_rng(1)
        b = rng.normal(size=3)
        u1 = rng.normal(size=10)
        u2 = rng.normal(size=7)
        model = factor_rank1([np.outer(u1, b), np.outer(u2, b)])
        assert model.rank_gap <= 1e-7
        # per-block inputs recovered up to one shared scale
        c1 = model.u_blocks[0][0] / u1[0]
        assert np.allclose(model.u_blocks[0], c1 * u1, atol=1e-9 * abs(c1))
        assert np.allclose(model.u_blocks[1], c1 * u2, atol=1e-9 * abs(c1))

    def test_unit_norm_and_sign_convention(self):
        rng = np.random.default_rng(2)
        model = factor_rank1([rng.normal(size=(9, 4))])
        assert np.linalg.norm(model.b) == pytest.approx(1.0)
        assert model.b[np.argmax(np.abs(model.b))] > 0

    def test_sign_convention(self):
        rng = np.random.default_rng(7)
        M = rng.uniform(-3.0, 3.0, size=(6, 3))
        b = factor_rank1([M]).b
        assert b[np.argmax(np.abs(b))] > 0
        v = np.linalg.svd(M)[2][0]
        assert np.array_equal(np.abs(b), np.abs(v))

    def test_sign_convention_wide(self):
        # Wide inputs sign b like tall ones.
        rng = np.random.default_rng(8)
        for _ in range(200):
            b = factor_rank1([rng.uniform(-3.0, 3.0, size=(3, 6))]).b
            assert b[np.argmax(np.abs(b))] > 0

    def test_sign_convention_ties(self):
        # On an exact tie in magnitude the first of the tied entries is the
        # positive one: b = (0, 1, -1)/sqrt(2) from either sign of the row.
        for row in ([0.0, 1.0, -1.0], [0.0, -1.0, 1.0]):
            b = factor_rank1([np.array([row])]).b
            assert b[1] == -b[2] > 0
        # Rows of rounded random matrices tie often; count the ties of
        # opposite sign, where "first" decides.
        rng = np.random.default_rng(5)
        ties = 0
        for _ in range(300):
            shape = (int(rng.integers(1, 4)), int(rng.integers(2, 5)))
            M = np.round(rng.uniform(-2.0, 2.0, size=shape))
            if not M.any():
                continue
            b = factor_rank1([M]).b
            top = np.flatnonzero(np.abs(b) == np.max(np.abs(b)))
            assert b[top[0]] > 0
            ties += bool(np.any(b[top] < 0))
        assert ties >= 10

    def test_outer_product_reconstruction_bound(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(10, 3))
        model = factor_rank1([X])
        sigma = model.singular_values
        approx = np.outer(model.u_blocks[0], model.b)
        assert np.linalg.norm(X - approx) <= sigma[1] * np.sqrt(len(sigma)) + 1e-12

    def test_scale_invariance(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(8, 3))
        m1 = factor_rank1([X])
        m2 = factor_rank1([5.0 * X])
        assert np.allclose(m1.b, m2.b, atol=1e-12)
        assert m1.rank_gap == pytest.approx(m2.rank_gap)
        assert np.allclose(5.0 * m1.u_blocks[0], m2.u_blocks[0], atol=1e-9)

    def test_row_permutation_covariance(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(8, 3))
        perm = rng.permutation(8)
        m1 = factor_rank1([X])
        m2 = factor_rank1([X[perm]])
        assert np.allclose(m2.u_blocks[0], m1.u_blocks[0][perm], atol=1e-9)

    def test_zero_matrix_rejected(self):
        with pytest.raises(ValueError, match="identifiable"):
            factor_rank1([np.zeros((5, 2))])

    def test_empty_and_mismatched_blocks(self):
        with pytest.raises(ValueError, match="at least one"):
            factor_rank1([])
        with pytest.raises(ValueError, match="common column"):
            factor_rank1([np.ones((3, 2)), np.ones((3, 3))])

    @pytest.mark.parametrize("blocks", [
        [np.ones(3)], [np.ones((3, 2)), np.ones(2)],
        [np.zeros((0, 3))], [np.zeros((3, 0))],
    ], ids=["1d", "1d_second", "no_rows", "no_columns"])
    def test_rejects_malformed_blocks(self, blocks):
        with pytest.raises(ValueError, match="non-empty 2-d"):
            factor_rank1(blocks)


class TestChangePoints:
    def test_constant_empty(self):
        assert change_points(np.ones(6), 0.0) == []
        assert change_points(np.ones(6), 3.0) == []

    def test_single_step(self):
        assert change_points(np.array([0.0, 0.0, 5.0, 5.0]), 1.0) == [2]

    def test_planted_four_segments(self):
        u = gen_piecewise_input(20, (5, 11, 16), (0.0, 3.0, 1.0, 4.0))
        smallest_gap = 2.0
        assert change_points(u, smallest_gap / 2) == [5, 11, 16]

    def test_rejects_short_or_negative(self):
        with pytest.raises(ValueError, match="length"):
            change_points(np.array([1.0]), 0.0)
        with pytest.raises(ValueError, match="gamma"):
            change_points(np.ones(4), -0.1)

    @pytest.mark.parametrize("u", [[0.0, np.nan, 1.0], [np.inf, 0.0],
                                   [1.0, 1.0, -np.inf], [np.nan, np.nan]])
    def test_rejects_non_finite(self, u):
        # a NaN difference compares False against any gamma, which used to
        # read as "no change" and freeze both pairs around the unknown value
        with pytest.raises(ValueError, match="finite"):
            change_points(u, 0.5)

    @given(st.lists(st.floats(-100, 100, allow_nan=False), min_size=2, max_size=20),
           st.floats(0.0, 10.0))
    @settings(max_examples=80, deadline=None)
    def test_threshold_monotonicity(self, values, gamma):
        u = np.array(values)
        assert set(change_points(u, gamma)) <= set(change_points(u, 0.0))
