"""Naive two-step identification: segment the output, then least squares.

This is the comparison method: fit a piecewise-constant signal directly to
the measured output (exact dynamic-programming segmentation under a segment
budget), reuse that signal as the input estimate, and solve ordinary least
squares for the ARX coefficients. It ignores the system dynamics when
placing change points, which is exactly why it degrades on non-FIR systems.
"""

from __future__ import annotations

import numpy as np

from .problem import ArxOrders, ProblemSpec, build_lifted_operator, build_problem


def fit_piecewise_constant(y, max_segments: int):
    """Best piecewise-constant fit to ``y`` with at most ``max_segments`` pieces.

    Exact squared-error segmentation by dynamic programming; each segment
    takes the mean of its samples. Returns ``(u_hat, change_points)`` with
    1-based change points (last index of each segment but the final one).
    The fit runs on ``y`` divided by the power of two just above ``max |y|``,
    which is exact and keeps the squares in floating-point range.
    """
    y = np.asarray(y, dtype=float)
    N = y.shape[0]
    if max_segments < 1:
        raise ValueError(f"max_segments must be >= 1, got {max_segments}")
    if max_segments > N:
        max_segments = N
    exponent = int(np.frexp(np.max(np.abs(y)))[1])
    y = np.ldexp(y, -exponent)

    # cost[i][j] = SSE of fitting one mean to y[i:j] (half-open, 0-based).
    csum = np.concatenate(([0.0], np.cumsum(y)))
    csum2 = np.concatenate(([0.0], np.cumsum(y * y)))

    def seg_cost(i, j):
        s = csum[j] - csum[i]
        q = csum2[j] - csum2[i]
        return q - s * s / (j - i)

    # best[k][j]: optimal SSE for y[0:j] with exactly k+1 segments; the
    # last segment of cell (k, j) starts at split[k, j], the first minimizer.
    best = np.full((max_segments, N + 1), np.inf)
    split = np.zeros((max_segments, N + 1), dtype=int)
    best[0, 1:] = seg_cost(0, np.arange(1, N + 1))
    for k in range(1, max_segments):
        for j in range(k + 1, N + 1):
            costs = best[k - 1, k:j] + seg_cost(np.arange(k, j), j)
            m_best = int(np.argmin(costs))
            best[k, j] = costs[m_best]
            split[k, j] = m_best + k

    # Smallest segment count achieving the optimal cost (ties go to fewer).
    totals = best[:, N]
    k_opt = int(np.argmin(totals + 1e-12 * np.arange(max_segments)))
    boundaries = [N]
    for k in range(k_opt, 0, -1):
        boundaries.append(split[k, boundaries[-1]])
    boundaries = [0, *boundaries[::-1]]

    u_hat = np.repeat([np.mean(y[lo:hi]) for lo, hi in zip(boundaries, boundaries[1:])],
                      np.diff(boundaries))
    return np.ldexp(u_hat, exponent), boundaries[1:-1]


def least_squares_arx(y, u, orders: ArxOrders):
    """Least-squares ARX fit given both signals.

    Minimizes the summed equation errors over ``t = n..N``; rejects
    rank-deficient regressor matrices (a constant-zero input is the usual
    culprit).
    """
    y = np.asarray(y, dtype=float)
    u = np.asarray(u, dtype=float)
    if y.shape != u.shape:
        raise ValueError(f"y and u must have equal length, got {y.shape} vs {u.shape}")
    return _fit_arx(build_problem([y], orders, 0.0), [u])


def _fit_arx(spec: ProblemSpec, u_blocks):
    """Least-squares ``(a, b)`` on the rows of the lifted operator: tap ``k1``
    of a row is X entry ``(t - n_k - k1, k1)``, so ``x_index // n_b`` is the
    stacked input row each tap reads, beside the row's lagged outputs. The
    system is divided by the power of two just above its largest entry,
    which is exact and leaves ``(a, b)`` as they are."""
    op = build_lifted_operator(spec)
    n_b = spec.orders.n_b
    phi = np.hstack([np.concatenate(u_blocks)[op.x_index // n_b], op.lagged])
    exponent = int(np.frexp(max(np.max(np.abs(phi)), np.max(np.abs(op.rhs))))[1])
    coef, _, rank, _ = np.linalg.lstsq(np.ldexp(phi, -exponent), np.ldexp(op.rhs, -exponent),
                                       rcond=None)
    if rank < phi.shape[1]:
        raise ValueError(
            f"regressor matrix is rank deficient ({rank} < {phi.shape[1]}); "
            "the input does not excite all coefficients"
        )
    return coef[n_b:], coef[:n_b]


def naive_identify(spec: ProblemSpec, max_segments: int):
    """Two-step baseline on a full problem instance.

    Segments each output sequence, shifts the fitted signal onto the input
    time axis by the pure delay ``n_k + 1`` (the first lag at which the
    input can reach the output; the tail is padded with the last level), and
    fits one shared ``(a, b)`` by stacking the least-squares rows of every
    sequence. No deconvolution is attempted, so change points inherit
    whatever smearing the system response left in the output. Returns
    ``(a_est, b_est, u_hats)``.
    """
    shift = spec.orders.n_k + 1
    u_hats = []
    for seq in spec.sequences:
        u_fit, _ = fit_piecewise_constant(seq.samples, max_segments)
        u_hats.append(np.concatenate([u_fit[shift:], np.full(shift, u_fit[-1])]))
    return (*_fit_arx(spec, u_hats), tuple(u_hats))
