"""Independent oracles backing the test expectations.

Everything here deliberately avoids the package's own kernels: singular
values come from numpy's LAPACK eigensolver on the Gram matrix, proximal
minimizers from direct search over the small dense parameter space,
segmentations from explicit enumeration, the lifted constraint matrix
from the model equation entry by entry (and feasibility residuals from that
matrix), isometry constants from an explicit basis of each pattern's
subspace, and the first ADMM iterations from the textbook (z, s) recurrence
with a sparse LU x-update and numpy's SVD.
"""

from __future__ import annotations

import itertools

import numpy as np
import scipy.sparse
import scipy.sparse.linalg


def gram_eigen_singular_values(M) -> np.ndarray:
    """Singular values via the eigenvalues of the (small) Gram matrix."""
    M = np.asarray(M, dtype=float)
    if M.shape[0] < M.shape[1]:
        M = M.T
    vals = np.linalg.eigvalsh(M.T @ M)
    return np.sqrt(np.clip(vals, 0.0, None))[::-1]


def nuclear_norm_2x2(Z) -> float:
    """Closed-form nuclear norm of a 2x2 matrix."""
    Z = np.asarray(Z, dtype=float)
    frob2 = float(np.sum(Z * Z))
    det = float(Z[0, 0] * Z[1, 1] - Z[0, 1] * Z[1, 0])
    inner = max(frob2 * frob2 - 4.0 * det * det, 0.0)
    s1 = np.sqrt(max((frob2 + np.sqrt(inner)) / 2.0, 0.0))
    s2 = np.sqrt(max((frob2 - np.sqrt(inner)) / 2.0, 0.0))
    return s1 + s2


def row_21_norm(Z) -> float:
    Z = np.asarray(Z, dtype=float)
    return float(np.sum(np.sqrt(np.sum(Z * Z, axis=1))))


def prox_objective_min(make_objective, start, rng, restarts=8, radius=2.0):
    """Best value of a 4-parameter objective by multi-start direct search."""
    from scipy.optimize import minimize

    best_val = make_objective(start)
    best_x = np.asarray(start, dtype=float).ravel()
    starts = [best_x]
    for _ in range(restarts):
        starts.append(best_x + rng.uniform(-radius, radius, size=best_x.size))
    for x0 in starts:
        res = minimize(
            lambda x: make_objective(x.reshape(2, 2)),
            x0.ravel(),
            method="Nelder-Mead",
            options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 20000},
        )
        if res.fun < best_val:
            best_val = float(res.fun)
            best_x = res.x
    return best_val, best_x.reshape(2, 2)


def no_descent_direction(objective, candidate, rng, n_dirs=400,
                         radii=(1e-4, 1e-3, 1e-2)) -> float:
    """Largest descent found around a candidate minimizer (0 if none)."""
    candidate = np.asarray(candidate, dtype=float)
    f0 = objective(candidate)
    worst = 0.0
    for _ in range(n_dirs):
        d = rng.normal(size=candidate.shape)
        d /= np.linalg.norm(d)
        for r in radii:
            worst = max(worst, f0 - objective(candidate + r * d))
    return worst


def exhaustive_segmentation_cost(y, max_segments: int) -> float:
    """Minimal SSE over all piecewise-constant fits with <= max_segments."""
    y = np.asarray(y, dtype=float)
    N = y.shape[0]

    def sse(lo, hi):
        seg = y[lo:hi]
        return float(np.sum((seg - np.mean(seg)) ** 2))

    best = np.inf
    for k in range(1, min(max_segments, N) + 1):
        for splits in itertools.combinations(range(1, N), k - 1):
            bounds = (0,) + splits + (N,)
            cost = sum(sse(lo, hi) for lo, hi in zip(bounds, bounds[1:]))
            best = min(best, cost)
    return best


def arx_constraint_matrix(sequences, n_a: int, n_b: int, n_k: int):
    """Dense constraint matrix and targets, written from the model equation.

    One row per sequence ``j`` and time ``t = n..N_j`` (``n = max(n_a,
    n_k + n_b) + 1``), in sequence order, encoding
    ``y_j(t) = sum_k1 X_j(t - n_k - k1, k1) + sum_k2 a_k2 y_j(t - k2)``.
    Columns are the row-major entries of every ``X_j`` (``N_j x n_b``),
    blocks in sequence order, then ``a_1..a_{n_a}``. Times and indices in
    the equation are 1-based.
    """
    n = max(n_a, n_k + n_b) + 1
    n_x = sum(len(y) for y in sequences) * n_b
    rows, targets = [], []
    offset = 0
    for y in sequences:
        for t in range(n, len(y) + 1):
            row = np.zeros(n_x + n_a)
            for k1 in range(1, n_b + 1):
                i = t - n_k - k1
                row[offset + (i - 1) * n_b + (k1 - 1)] = 1.0
            for k2 in range(1, n_a + 1):
                row[n_x + k2 - 1] = y[t - k2 - 1]
            rows.append(row)
            targets.append(y[t - 1])
        offset += len(y) * n_b
    return np.array(rows), np.array(targets)


def max_constraint_residual(spec, X_blocks, a) -> float:
    """Largest ``|y_j(t) - A_j(X, a)|`` over every constraint row of ``spec``,
    with ``A`` and ``y`` from :func:`arx_constraint_matrix`. The variables are
    feasible at noise bound ``eps`` iff the result is at most ``eps``."""
    orders = spec.orders
    A, targets = arx_constraint_matrix([s.samples for s in spec.sequences],
                                       orders.n_a, orders.n_b, orders.n_k)
    packed = np.concatenate([np.ravel(x) for x in X_blocks] + [np.ravel(a)])
    return float(np.max(np.abs(targets - A @ packed)))


def segment_basis(n1: int, n2: int, pattern) -> np.ndarray:
    """Orthonormal basis of the ``n1 x n2`` matrices whose rows change only
    at the 1-based difference indices in ``pattern``, one column at a time.

    Rows between consecutive allowed change indices are equal, so the
    subspace is spanned by (segment indicator / sqrt(length)) x (unit
    column), segment-major, each vectorized row-major.
    """
    bounds = [0] + [int(i) for i in pattern] + [n1]
    cols = []
    for lo, hi in zip(bounds, bounds[1:]):
        seg = np.zeros(n1)
        seg[lo:hi] = 1.0 / np.sqrt(hi - lo)
        for c in range(n2):
            E = np.zeros((n1, n2))
            E[:, c] = seg
            cols.append(E.ravel())
    return np.column_stack(cols)


def rip_constant_by_basis(matrix, n1: int, n2: int, k: int) -> float:
    """Isometry constant over every pattern of 1..k interior change indices
    (``2..n1-2``, boundary differences pinned), from the SVD of
    ``matrix @ basis`` with an explicit basis per pattern."""
    matrix = np.asarray(matrix, dtype=float)
    indices = range(2, n1 - 1)
    worst = 0.0
    for size in range(1, min(k, len(indices)) + 1):
        for pattern in itertools.combinations(indices, size):
            restricted = matrix @ segment_basis(n1, n2, pattern)
            sigma = np.linalg.svd(restricted, compute_uv=False)
            smin = sigma[-1] if restricted.shape[0] >= restricted.shape[1] else 0.0
            worst = max(worst, sigma[0] ** 2 - 1.0, 1.0 - smin**2)
    return float(worst)


def relaxed_admm(y, orders, epsilon: float, lam: float, iters: int, alpha: float) -> tuple:
    """``iters`` steps of over-relaxed scaled ADMM (Boyd et al. 2011, sections
    3.1.1 and 3.4.3) on the lifted program of one series, in the (z, s) form::

        x = argmin_x ||diag(w)^1/2 (M x - z + s)||^2
        q = alpha M x + (1 - alpha) z + s,   z+ = prox(q),   s+ = q - z+

    ``M x = (X, D X, A(X, a))`` with ``A`` from :func:`arx_constraint_matrix`
    and ``D`` the row difference; outputs are divided by ``max |y|``, and the
    block weights ``w`` are 1 on the X copy and ``rho2 = min(max(1, lam),
    1e8)`` after it, as before any penalty change. ``z`` starts at ``(0, 0,
    y)`` and ``s`` at zero. The prox takes singular values from numpy's SVD
    down by 1, the rows of ``D X`` by ``lam / rho2`` in norm, and clips the
    slack ``y - v`` to ``[-epsilon, epsilon]``.

    Returns the last ``x`` (X entries row-major, then ``a``), the primal
    residual ``||M x - z+||`` and the dual residual ``||diag(w) (z+ - z)||`` of
    the last step, and ``K = Mᵀ diag(w) M``.
    """
    y = np.asarray(y, dtype=float)
    scale = float(np.max(np.abs(y)))
    A, rhs = arx_constraint_matrix([y], orders.n_a, orders.n_b, orders.n_k)
    n_x = A.shape[1] - orders.n_a
    A[:, n_x:] /= scale
    rhs, eps = rhs / scale, epsilon / scale
    diff = scipy.sparse.diags([1.0, -1.0], [0, 1], shape=(len(y) - 1, len(y)))
    lift = scipy.sparse.eye(n_x, A.shape[1])
    M = scipy.sparse.vstack([lift, scipy.sparse.kron(diff, np.eye(orders.n_b)) @ lift,
                             scipy.sparse.csr_array(A)]).tocsr()
    cuts = (n_x, n_x + diff.shape[0] * orders.n_b)
    rho2 = min(max(1.0, lam), 1e8)
    w = np.repeat([1.0, rho2], [n_x, M.shape[0] - n_x])
    K = (M.T @ scipy.sparse.diags(w) @ M).tocsc()
    lu = scipy.sparse.linalg.splu(K)
    z = np.concatenate([np.zeros(cuts[1]), rhs])
    s = np.zeros_like(z)
    for _ in range(iters):
        x = lu.solve(M.T @ (w * (z - s)))
        Mx = M @ x
        q = alpha * Mx + (1.0 - alpha) * z + s
        U, sigma, Vt = np.linalg.svd(q[:n_x].reshape(-1, orders.n_b), full_matrices=False)
        rows = q[n_x:cuts[1]].reshape(-1, orders.n_b)
        kappa, norms = lam / rho2, np.linalg.norm(rows, axis=1)
        shrink = np.where(norms > kappa, 1.0 - kappa / np.where(norms > 0, norms, 1.0), 0.0)
        z_new = np.concatenate([((U * np.maximum(sigma - 1.0, 0.0)) @ Vt).ravel(),
                                (rows * shrink[:, None]).ravel(),
                                rhs - np.clip(rhs - q[cuts[1]:], -eps, eps)])
        primal, dual = np.linalg.norm(Mx - z_new), np.linalg.norm(w * (z_new - z))
        z, s = z_new, q - z_new
    return x, primal, dual, K
