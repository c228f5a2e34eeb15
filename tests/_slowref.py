"""Slow reference solver for cross-checking the ADMM path.

Independent route on purpose: the constraint matrix is the one written
from the model equation in ``_oracles``, not the package's operator; the two
nonsmooth penalties are replaced by their Moreau envelopes (gradients via
numpy's SVD, not the package kernels), the slack is eliminated so the data
constraint becomes an infinity-norm tube around ``y``, handled as a smooth
squared-distance penalty, and the whole thing is minimized by accelerated
gradient descent with continuation on the smoothing widths. The momentum
restarts whenever the new step ``v_next - v`` has a positive inner product
with the gradient at the extrapolated point (the gradient scheme of
O'Donoghue and Candès), so no iteration evaluates the objective. A final
correction lands the iterate on the tube so the true objective can be
evaluated there: least squares where the constraint rows are independent,
an infinity-norm nearest-point LP (HiGHS) on the segment subspace.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import linprog

from bilarx.problem import ProblemSpec

from _oracles import arx_constraint_matrix, segment_basis


_TINY = np.finfo(float).tiny


def _svt_np(M, tau):
    u, s, vt = np.linalg.svd(M, full_matrices=False)
    return (u * np.maximum(s - tau, 0.0)) @ vt


def _row_norms(M):
    return np.sqrt(np.add.reduce(M * M, axis=1))


def _row_shrink_np(M, kappa):
    norms = _row_norms(M)[:, None]
    return M * (np.maximum(norms - kappa, 0.0) / np.maximum(norms, _TINY))


def _nuclear_np(M):
    return float(np.add.reduce(np.linalg.svd(M, compute_uv=False)))


def _group_np(M):
    return float(np.add.reduce(_row_norms(M)))


class SlowReference:
    """Smoothed accelerated-gradient reference for one problem instance."""

    def __init__(self, spec: ProblemSpec, lam: float):
        self.spec = spec
        self.lam = lam
        orders = spec.orders
        self.A, self.rhs = arx_constraint_matrix(
            [s.samples for s in spec.sequences], orders.n_a, orders.n_b, orders.n_k)
        self.n_b = orders.n_b
        self.n_a = orders.n_a
        self.lengths = spec.lengths
        self.total_rows = sum(self.lengths)
        self.eps = spec.epsilon
        # Row differences of the stacked X; a pair that straddles two
        # sequences is masked to zero.
        self.pair_mask = np.ones((self.total_rows - 1, 1))
        self.pair_mask[np.cumsum(self.lengths)[:-1] - 1] = 0.0
        self.A_norm2 = float(np.linalg.norm(self.A, 2)) ** 2

    def _split(self, v):
        X = v[: self.total_rows * self.n_b].reshape(self.total_rows, self.n_b)
        return X, v[self.total_rows * self.n_b :]

    def _diff(self, X):
        return (X[:-1] - X[1:]) * self.pair_mask

    def _diff_adjoint(self, d):
        d = d * self.pair_mask
        out = np.zeros((self.total_rows, self.n_b))
        out[:-1] += d
        out[1:] -= d
        return out

    def objective(self, v) -> float:
        X, _ = self._split(v)
        return _nuclear_np(X) + self.lam * _group_np(self._diff(X))

    def tube_violation(self, v) -> float:
        r = self.A @ v - self.rhs
        return float(np.max(np.maximum(np.abs(r) - self.eps, 0.0))) if r.size else 0.0

    def _excess(self, v):
        """``r - clip(r, -eps, eps)`` for the residual ``r = A v - y``."""
        r = self.A @ v - self.rhs
        return np.maximum(r - self.eps, 0.0) + np.minimum(r + self.eps, 0.0)

    def _grad(self, v, mu, delta):
        X, _ = self._split(v)
        g_x = (X - _svt_np(X, mu)) / mu
        d = self._diff(X)
        g_x += self._diff_adjoint((d - _row_shrink_np(d, self.lam * mu)) / mu)
        grad = self.A.T @ (self._excess(v) / delta)
        grad[: g_x.size] += g_x.ravel()
        return grad

    def solve(self, total_iters: int = 50_000, stages: int = 8,
              mu_start: float = 1e-1, mu_end: float = 1e-6):
        """Continuation over smoothing widths; returns (objective, v).

        The reported objective is the exact penalty value at the iterate
        after projecting back onto the data tube.
        """
        p = self.total_rows * self.n_b + self.n_a
        v = np.zeros(p)
        mus = np.geomspace(mu_start, mu_end, stages)
        iters = total_iters // stages
        for mu in mus:
            delta = mu
            L = 5.0 / mu + self.A_norm2 / delta
            step = 1.0 / L
            z = v.copy()
            t_acc = 1.0
            for _ in range(iters):
                grad = self._grad(z, mu, delta)
                v_next = z - step * grad
                # gradient restart: drop the momentum once the step goes uphill
                if grad @ (v_next - v) > 0.0:
                    z, v, t_acc = v_next, v_next, 1.0
                    continue
                t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_acc * t_acc))
                z = v_next + ((t_acc - 1.0) / t_next) * (v_next - v)
                v, t_acc = v_next, t_next
        v = self.project_to_tube(v)
        return self.objective(v), v

    def project_to_tube(self, v):
        """Least-squares correction onto the |Av - y| <= eps tube.

        The constraint rows are linearly independent (each touches a lifted
        entry no other row touches), so the correction is exact.
        """
        excess = self._excess(v)
        if np.max(np.abs(excess)) == 0.0:
            return v
        delta, *_ = np.linalg.lstsq(self.A, excess, rcond=None)
        return v - delta


class SegmentReference(SlowReference):
    """The refinement's program for one sequence, on the same smoothed route:
    minimize ``||X||_*`` (lambda = 0) over the tube with ``X = P C``, where
    ``P`` is the orthonormal segment basis of the rows that the unfrozen
    differences leave free. The unknowns are ``(C, a)``, so the constraint
    matrix is ``A @ blockdiag(P, I)`` and ``total_rows`` counts segments;
    ``||C||_* = ||X||_*`` because ``P`` has orthonormal columns. The rows of
    ``A P`` need not be independent, so a least-squares correction can leave
    a violation behind; :meth:`project_to_tube` solves an LP instead."""

    def __init__(self, spec: ProblemSpec, frozen):
        super().__init__(spec, 0.0)
        (N,) = self.lengths
        pattern = sorted(set(range(1, N)) - {int(i) for i in frozen})
        self.P = segment_basis(N, self.n_b, pattern)
        n_x = N * self.n_b
        self.A = np.hstack([self.A[:, :n_x] @ self.P, self.A[:, n_x:]])
        self.total_rows = len(pattern) + 1
        self.lengths = (self.total_rows,)
        self.pair_mask = np.ones((self.total_rows - 1, 1))
        self.A_norm2 = float(np.linalg.norm(self.A, 2)) ** 2

    def project_to_tube(self, v):
        """The point of the tube ``|A v - y| <= eps`` nearest to ``v`` in the
        infinity norm: the correction ``d`` minimizes ``t`` subject to
        ``|d| <= t`` entrywise and ``|r + A d| <= eps`` for the residual ``r``."""
        if not np.any(self._excess(v)):
            return v
        p, r = v.size, self.A @ v - self.rhs
        eye, ones, zeros = np.eye(p), np.ones((p, 1)), np.zeros((r.size, 1))
        lp = linprog(np.eye(p + 1)[-1],
                     A_ub=np.block([[eye, -ones], [-eye, -ones],
                                    [self.A, zeros], [-self.A, zeros]]),
                     b_ub=np.concatenate([np.zeros(2 * p), self.eps - r, self.eps + r]),
                     bounds=[(None, None)] * p + [(0.0, None)], method="highs")
        if lp.status != 0:
            raise RuntimeError(f"tube projection LP failed: {lp.message}")
        return v + lp.x[:p]

    def restrict(self, X, a):
        """The packed ``(C, a)`` of a full ``X`` that is constant on segments."""
        return np.concatenate([self.P.T @ np.ravel(X), np.ravel(a)])
