import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import dgeqrf, dgesdd

from bilarx import factor_rank1, prox

from _oracles import (
    gram_eigen_singular_values,
    no_descent_direction,
    nuclear_norm_2x2,
    prox_objective_min,
    row_21_norm,
)


SRC = str(Path(__file__).resolve().parent.parent / "src")
# Tall shapes on both sides of the limit at which svt goes through the R factor.
QR_LIMIT = prox._SVT_QR_MIN_ROWS_PER_COLUMN
TALL_SHAPES = [(QR_LIMIT * 3 - 1, 3), (QR_LIMIT * 3, 3), (QR_LIMIT - 1, 1), (QR_LIMIT, 1)]
TALL_IDS = ["3col_dgesdd", "3col_qr", "1col_dgesdd", "1col_qr"]


def random_matrix(rng, shape, scale=3.0):
    return rng.uniform(-scale, scale, size=shape)


class TestThinSvd:
    def test_identity(self):
        _, s, _ = prox.thin_svd(np.eye(2))
        assert np.allclose(s, [1.0, 1.0])

    def test_diagonal(self):
        _, s, _ = prox.thin_svd(np.diag([3.0, 0.0]))
        assert np.allclose(s, [3.0, 0.0])

    def test_matches_gram_eigen_oracle(self):
        rng = np.random.default_rng(42)
        M = random_matrix(rng, (6, 3))
        _, s, _ = prox.thin_svd(M)
        oracle = gram_eigen_singular_values(M)
        assert np.max(np.abs(s - oracle)) <= 1e-8 * oracle[0]

    @pytest.mark.parametrize("shape", [(5, 3), (3, 5), (7, 1), (1, 4), (4, 4)])
    def test_reconstruction_and_orthonormality(self, shape):
        rng = np.random.default_rng(sum(shape))
        M = random_matrix(rng, shape)
        u, s, vt = prox.thin_svd(M)
        rebuilt = (u * s) @ vt
        assert np.linalg.norm(rebuilt - M) <= 1e-9 * max(s[0], 1.0)
        r = s.shape[0]
        assert np.allclose(u.T @ u, np.eye(r), atol=1e-9)
        assert np.allclose(vt @ vt.T, np.eye(r), atol=1e-9)
        assert np.all(np.diff(s) <= 1e-12)
        assert np.all(s >= 0)

    def test_rank_deficient_left_completion(self):
        M = np.outer([1.0, 2.0, -1.0, 0.5], [2.0, -1.0, 0.0])
        u, s, _ = prox.thin_svd(M)
        assert s[1] <= 1e-12 * s[0]
        assert np.allclose(u.T @ u, np.eye(3), atol=1e-9)

    def test_zero_matrix(self):
        u, s, _ = prox.thin_svd(np.zeros((4, 2)))
        assert np.all(s == 0)
        assert np.allclose(u.T @ u, np.eye(2))

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(3)
        M = random_matrix(rng, (8, 3))
        perm = rng.permutation(8)
        _, s1, _ = prox.thin_svd(M)
        _, s2, _ = prox.thin_svd(M[perm])
        assert np.allclose(s1, s2, atol=1e-10 * max(s1[0], 1.0))

    def test_rejects_non_finite(self):
        # dgesdd returns on this 2 x 2 infinite entry (on a 30 x 3 one it may
        # not), so a missing check fails here rather than hanging.
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="finite"):
                prox.thin_svd(np.array([[bad, 0.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("shape", [(5, 3), (3, 5), (30, 3), (1, 4), (4, 4)])
    def test_same_bits_as_numpy_svd(self, shape):
        # numpy.linalg.svd reaches the same LAPACK routine (gesdd, thin), so its
        # factors agree bit for bit, signs included; factor_rank1's b is its
        # first right vector with the largest-magnitude entry made positive
        rng = np.random.default_rng(10 * shape[0] + shape[1])
        M = random_matrix(rng, shape)
        u, sigma, vt = np.linalg.svd(M, full_matrices=False)
        got_u, got_sigma, got_vt = prox.thin_svd(M)
        assert np.array_equal(got_u, u)
        assert np.array_equal(got_sigma, sigma)
        assert np.array_equal(got_vt, vt)
        v = vt[0]
        assert np.array_equal(factor_rank1([M]).b,
                              -v if v[np.argmax(np.abs(v))] < 0 else v)

    @pytest.mark.parametrize("shape", [(5, 0), (0, 3)])
    def test_empty_input(self, capfd, shape):
        # LAPACK rejects an empty matrix with a message on stderr; the thin
        # factors are empty without calling it
        u, s, vt = prox.thin_svd(np.zeros(shape))
        r = min(shape)
        assert u.shape == (shape[0], r)
        assert s.shape == (r,)
        assert vt.shape == (r, shape[1])
        assert prox.svt(np.zeros(shape), 1.0).shape == shape
        assert capfd.readouterr() == ("", "")

    def test_lapack_failure_raises(self, monkeypatch):
        def failing(m, full_matrices):
            return np.eye(2), np.ones(2), np.eye(2), 1
        monkeypatch.setattr(prox, "dgesdd", failing)
        with pytest.raises(np.linalg.LinAlgError, match="info = 1"):
            prox.thin_svd(np.eye(2))


class TestSvt:
    def test_full_shrinkage(self):
        rng = np.random.default_rng(0)
        M = random_matrix(rng, (5, 2))
        tau = prox.thin_svd(M)[1][0] + 0.1
        assert np.allclose(prox.svt(M, tau), 0.0)

    def test_diagonal_shrinkage(self):
        out = prox.svt(np.diag([5.0, 1.0]), 2.0)
        assert np.allclose(out, np.diag([3.0, 0.0]), atol=1e-12)

    def test_zero_tau_identity(self):
        rng = np.random.default_rng(1)
        M = random_matrix(rng, (6, 3))
        assert np.allclose(prox.svt(M, 0.0), M, atol=1e-12)

    def test_rank_drop_at_sigma2(self):
        rng = np.random.default_rng(2)
        M = random_matrix(rng, (8, 3))
        _, sigma, _ = prox.thin_svd(M)
        out = prox.svt(M, sigma[1])
        assert np.linalg.svd(out, compute_uv=False)[1] <= 1e-10 * sigma[0]

    def test_nuclear_norm_identity(self):
        rng = np.random.default_rng(5)
        M = random_matrix(rng, (7, 3))
        tau = 1.3
        _, sigma, _ = prox.thin_svd(M)
        expected = np.sum(np.maximum(sigma - tau, 0.0))
        nuclear = np.sum(gram_eigen_singular_values(prox.svt(M, tau)))
        assert abs(nuclear - expected) <= 1e-9

    def test_prox_definition_oracle_2x2(self):
        # svt must solve min 0.5||Z - M||_F^2 + tau ||Z||_* on dense 2x2
        # instances; verified against direct search plus a no-descent probe.
        rng = np.random.default_rng(11)
        for trial in range(3):
            M = random_matrix(rng, (2, 2))
            tau = float(rng.uniform(0.2, 2.0))

            def objective(Z):
                Z = np.asarray(Z, dtype=float).reshape(2, 2)
                return 0.5 * np.sum((Z - M) ** 2) + tau * nuclear_norm_2x2(Z)

            cand = prox.svt(M, tau)
            best_val, _ = prox_objective_min(objective, cand, rng)
            assert objective(cand) <= best_val + 1e-6
            assert no_descent_direction(objective, cand, rng) <= 1e-6

    def test_rejects_negative_tau(self):
        with pytest.raises(ValueError, match="non-negative"):
            prox.svt(np.eye(2), -0.5)

    @pytest.mark.parametrize("shape, rank", [((7, 3), 3), ((3, 7), 3), ((4, 4), 4),
                                             ((8, 4), 2), ((4, 8), 1), ((5, 5), 3)])
    def test_same_bits_as_lapack_shrinkage(self, shape, rank):
        # U diag(max(s - tau, 0)) V^T straight from dgesdd's thin factors,
        # whatever signs LAPACK gave the singular pairs
        rng = np.random.default_rng(100 * shape[0] + 10 * shape[1] + rank)
        M = random_matrix(rng, (shape[0], rank)) @ random_matrix(rng, (rank, shape[1]))
        u, s, vt, info = dgesdd(M, full_matrices=0)
        assert info == 0
        for tau in (0.0, float(np.median(s)), float(s[0]) + 1.0):
            expected = (u * np.maximum(s - tau, 0.0)) @ vt
            assert np.array_equal(prox.svt(M, tau), expected)


class TestSvtTallRoute:
    """On either side of ``prox._SVT_QR_MIN_ROWS_PER_COLUMN`` rows per
    column (through ``dgesdd`` below it, through the R factor at and above
    it) ``svt`` is the shrinkage of ``numpy.linalg.svd``'s factors of the
    input to roundoff in the largest singular value, and it rejects the
    inputs it rejected before."""

    @staticmethod
    def with_singular_values(rng, rows, sigma):
        u, _ = np.linalg.qr(rng.normal(size=(rows, len(sigma))))
        v, _ = np.linalg.qr(rng.normal(size=(len(sigma),) * 2))
        return (u * sigma) @ v.T

    @staticmethod
    def check(m, tau, sigma1):
        u, s, vt = np.linalg.svd(m, full_matrices=False)
        expected = (u * np.maximum(s - tau, 0.0)) @ vt
        assert np.max(np.abs(prox.svt(m, tau) - expected), initial=0.0) <= 1e-13 * sigma1

    def test_routes_split_at_the_limit(self, monkeypatch):
        calls = []
        monkeypatch.setattr(prox, "dgeqrf", lambda m: calls.append(m.shape) or dgeqrf(m))
        for shape in TALL_SHAPES:
            prox.svt(np.ones(shape), 0.5)
        assert calls == TALL_SHAPES[1::2]

    @pytest.mark.parametrize("shape", TALL_SHAPES, ids=TALL_IDS)
    @pytest.mark.parametrize("sigma", [(5.0, 2.0, 0.5), (4.0, 0.0, 0.0), (0.0, 0.0, 0.0)],
                             ids=["rank3", "rank1", "zero"])
    def test_matches_numpy_svd(self, shape, sigma):
        rows, cols = shape
        rng = np.random.default_rng(rows + cols)
        m = self.with_singular_values(rng, rows, sigma[:cols])
        for tau in (0.3, 1.0, 3.0):
            self.check(m, tau, max(sigma[0], 1.0))

    @pytest.mark.parametrize("shape", TALL_SHAPES[:2], ids=TALL_IDS[:2])
    def test_near_rank_one(self, shape):
        # sigma2 / sigma1 = 1e-9 with tau between them: the Gram matrix's
        # eigenvalues would bury sigma2 under roundoff at sqrt(eps) sigma1 and
        # miss this result by about 1e-10 sigma1
        m = self.with_singular_values(np.random.default_rng(shape[0]), shape[0],
                                      (7.0, 7e-9, 0.0))
        self.check(m, 2.1e-8, 7.0)

    @pytest.mark.parametrize("shape", TALL_SHAPES, ids=TALL_IDS)
    def test_out_gets_the_returned_bits(self, shape):
        # the solver writes each step's result into a block of its next iterate
        m = random_matrix(np.random.default_rng(shape[0] + 1), shape)
        out = np.full(shape, np.nan)
        for tau in (0.0, 0.7, 1e300):
            assert prox.svt(m, tau, out=out) is out
            assert np.array_equal(out, prox.svt(m, tau)), tau

    @pytest.mark.parametrize("shape", TALL_SHAPES, ids=TALL_IDS)
    def test_zero_tau_and_tau_past_sigma1(self, shape):
        m = random_matrix(np.random.default_rng(shape[0]), shape)
        assert np.max(np.abs(prox.svt(m, 0.0) - m)) <= 1e-13 * np.max(np.abs(m))
        sigma1 = np.linalg.svd(m, compute_uv=False)[0]
        for tau in (sigma1, 2.0 * sigma1, np.inf):
            assert np.all(prox.svt(m, tau) == 0.0)

    @pytest.mark.parametrize("shape", TALL_SHAPES[:2], ids=TALL_IDS[:2])
    def test_rejects_non_2d_and_nan(self, shape):
        for bad in (np.ones(shape[0] * shape[1]), np.ones((*shape, 2))):
            with pytest.raises(ValueError, match="2-d"):
                prox.svt(bad, 0.5)
        m = np.ones(shape)
        m[shape[0] // 2, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            prox.svt(m, 0.5)

    @pytest.mark.parametrize("bad", ["inf", "-inf"])
    @pytest.mark.parametrize("shape", TALL_SHAPES[:2], ids=TALL_IDS[:2])
    def test_infinite_input_rejected(self, shape, bad):
        # dgesdd may never return on an infinite entry, so the call runs in a
        # child process with a timeout
        script = ("import numpy as np\n"
                  "from bilarx import prox\n"
                  f"m = np.ones({shape}); m[{shape[0] // 2}, 1] = float('{bad}')\n"
                  "prox.svt(m, 0.5)\n")
        res = subprocess.run([sys.executable, "-c", script],
                             env=dict(os.environ, PYTHONPATH=SRC),
                             capture_output=True, text=True, timeout=60)
        assert res.returncode == 1
        assert res.stderr.splitlines()[-1].endswith("input has non-finite entries")

    def test_lapack_failure_raises(self, monkeypatch):
        monkeypatch.setattr(prox, "dgeqrf", lambda m: (m, None, None, -1))
        with pytest.raises(np.linalg.LinAlgError, match="dgeqrf failed with info = -1"):
            prox.svt(np.ones(TALL_SHAPES[1]), 0.5)


class TestRowGroupShrink:
    def test_norm5_row(self):
        out = prox.row_group_shrink(np.array([[3.0, 4.0]]), 1.0)
        assert np.allclose(out, [[2.4, 3.2]])

    def test_below_threshold_zeroed(self):
        out = prox.row_group_shrink(np.array([[0.3, 0.4], [3.0, 4.0]]), 1.0)
        assert np.allclose(out[0], 0.0)
        assert not np.allclose(out[1], 0.0)

    def test_zero_kappa_identity(self):
        rng = np.random.default_rng(4)
        M = random_matrix(rng, (5, 3))
        assert np.array_equal(prox.row_group_shrink(M, 0.0), M)

    def test_zero_rows_stay_zero(self):
        M = np.zeros((3, 2))
        M[1] = [1.0, 1.0]
        out = prox.row_group_shrink(M, 0.5)
        assert np.all(out[0] == 0.0) and np.all(out[2] == 0.0)

    def test_overflowing_row_norm_unchanged(self):
        # ||m||^2 overflows to inf, while 1 - kappa/||m|| rounds to exactly 1
        M = np.array([[1e200, 1e200], [3.0, 4.0]])
        with np.errstate(over="ignore"):
            out = prox.row_group_shrink(M, 1.0)
        assert np.array_equal(out[0], M[0])
        assert np.allclose(out[1], [2.4, 3.2])

    def test_infinite_kappa_zeroes_every_row(self):
        M = np.array([[3.0, 4.0], [0.0, 0.0], [1e-310, 0.0]])
        assert np.all(prox.row_group_shrink(M, np.inf) == 0.0)

    def test_right_orthogonal_equivariance(self):
        rng = np.random.default_rng(6)
        M = random_matrix(rng, (6, 3))
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        lhs = prox.row_group_shrink(M @ q, 0.7)
        rhs = prox.row_group_shrink(M, 0.7) @ q
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_prox_definition_oracle_2x2(self):
        rng = np.random.default_rng(12)
        for trial in range(3):
            M = random_matrix(rng, (2, 2))
            kappa = float(rng.uniform(0.2, 2.0))

            def objective(Z):
                Z = np.asarray(Z, dtype=float).reshape(2, 2)
                return 0.5 * np.sum((Z - M) ** 2) + kappa * row_21_norm(Z)

            cand = prox.row_group_shrink(M, kappa)
            best_val, _ = prox_objective_min(objective, cand, rng)
            assert objective(cand) <= best_val + 1e-6
            assert no_descent_direction(objective, cand, rng) <= 1e-6

    def test_rejects_negative_kappa(self):
        with pytest.raises(ValueError, match="non-negative"):
            prox.row_group_shrink(np.eye(2), -1.0)

    @pytest.mark.parametrize("shape", [(1, 1), (7, 3), (600, 3), (40, 9)])
    def test_out_gets_the_returned_bits(self, shape):
        M = random_matrix(np.random.default_rng(shape[0]), shape)
        M[0] = 0.0
        out = np.full(shape, np.nan)
        for kappa in (0.0, 1.5, 1e300):
            assert prox.row_group_shrink(M, kappa, out=out) is out
            assert np.array_equal(out, prox.row_group_shrink(M, kappa)), kappa

    @pytest.mark.parametrize("shape", [(), (3,), (2, 2, 2)])
    def test_rejects_non_2d(self, shape):
        with pytest.raises(ValueError, match="row_group_shrink expects a 2-d array"):
            prox.row_group_shrink(np.ones(shape), 1.0)
        with pytest.raises(ValueError, match="row_group_norm expects a 2-d array"):
            prox.row_group_norm(np.ones(shape))


class TestRowNormBits:
    """``row_group_shrink`` and ``row_group_norm`` use the bits of
    ``np.sqrt(np.add.reduce(m * m, axis=1))`` as row norms on tall matrices,
    with zero rows, rows whose squares overflow and empty shapes."""

    @staticmethod
    @np.errstate(over="ignore")
    def check(m):
        norms = np.sqrt(np.add.reduce(m * m, axis=1))
        finite = norms[np.isfinite(norms) & (norms > 0)]
        kappa = float(np.median(finite)) if finite.size else 1.0
        expected = m * (1.0 - kappa / np.maximum(norms, kappa))[:, None]
        assert np.array_equal(prox.row_group_shrink(m, kappa), expected)
        assert prox.row_group_norm(m) == float(np.sum(norms))

    @pytest.mark.parametrize("n_b", [1, 2, 3, 4, 8])
    def test_seeded_tall_matrices(self, n_b):
        rng = np.random.default_rng(n_b)
        for rows in (1, 12, 301, 3000):
            m = rng.standard_normal((rows, n_b)) * 10.0 ** rng.uniform(-150, 150, (rows, 1))
            m[::5] = 0.0
            m[3::11] = rng.uniform(-1.0, 1.0, m[3::11].shape) * 1e200
            self.check(m)

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0)])
    def test_empty_shapes(self, shape):
        self.check(np.zeros(shape))
        assert prox.row_group_shrink(np.zeros(shape), 1.0).shape == shape


class TestBoxClip:
    def test_basic(self):
        assert np.allclose(prox.box_clip(np.array([3.0, -0.5]), 1.0), [1.0, -0.5])

    def test_zero_bound(self):
        assert np.all(prox.box_clip(np.array([2.0, -3.0]), 0.0) == 0.0)

    def test_idempotent_on_feasible(self):
        v = np.array([0.2, -0.9, 0.0])
        assert np.array_equal(prox.box_clip(v, 1.0), v)

    def test_rejects_negative_bound(self):
        with pytest.raises(ValueError, match="non-negative"):
            prox.box_clip(np.zeros(2), -1.0)

    @pytest.mark.parametrize("bound", [0.0, 0.5, 2.0, np.inf])
    def test_same_bits_as_clip(self, bound):
        # signed zeros and the sign of NaN included: a zero bound keeps the
        # sign of every zero and of every clipped entry's side
        v = np.array([0.0, -0.0, 0.5, -0.5, 3.0, -3.0, np.nan, -np.nan,
                      np.inf, -np.inf, 1e-300, -1e-300])
        expected = np.clip(v, -bound, bound)
        assert np.array_equal(prox.box_clip(v, bound).view(np.int64),
                              expected.view(np.int64))


finite_rows = st.lists(
    st.lists(st.floats(-50, 50, allow_nan=False), min_size=2, max_size=2),
    min_size=1, max_size=6,
)


class TestNonExpansiveness:
    @given(finite_rows, finite_rows, st.floats(0.0, 5.0))
    @settings(max_examples=60, deadline=None)
    def test_row_group_shrink(self, rows_a, rows_b, kappa):
        n = min(len(rows_a), len(rows_b))
        A = np.array(rows_a[:n])
        B = np.array(rows_b[:n])
        d_out = np.linalg.norm(prox.row_group_shrink(A, kappa)
                               - prox.row_group_shrink(B, kappa))
        assert d_out <= np.linalg.norm(A - B) + 1e-9

    @given(finite_rows, finite_rows, st.floats(0.0, 5.0))
    @settings(max_examples=60, deadline=None)
    def test_svt(self, rows_a, rows_b, tau):
        n = min(len(rows_a), len(rows_b))
        A = np.array(rows_a[:n])
        B = np.array(rows_b[:n])
        d_out = np.linalg.norm(prox.svt(A, tau) - prox.svt(B, tau))
        assert d_out <= np.linalg.norm(A - B) + 1e-7 * (1 + np.linalg.norm(A - B))

    @given(st.lists(st.floats(-50, 50, allow_nan=False), min_size=1, max_size=8),
           st.lists(st.floats(-50, 50, allow_nan=False), min_size=1, max_size=8),
           st.floats(0.0, 5.0))
    @settings(max_examples=60, deadline=None)
    def test_box_clip(self, xs, ys, bound):
        n = min(len(xs), len(ys))
        x, y = np.array(xs[:n]), np.array(ys[:n])
        assert (np.linalg.norm(prox.box_clip(x, bound) - prox.box_clip(y, bound))
                <= np.linalg.norm(x - y) + 1e-12)
