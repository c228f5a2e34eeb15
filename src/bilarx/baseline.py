"""Naive two-step identification: segment the output, then least squares.

This is the comparison method: fit a piecewise-constant signal directly to
the measured output (exact dynamic-programming segmentation under a segment
budget), reuse that signal as the input estimate, and solve ordinary least
squares for the ARX coefficients. It ignores the system dynamics when
placing change points, which is exactly why it degrades on non-FIR systems.
"""

from __future__ import annotations

import numpy as np

from .problem import ArxOrders, ProblemSpec, _check_integer, build_lifted_operator, build_problem


def fit_piecewise_constant(y, max_segments: int):
    """Best piecewise-constant fit to ``y`` with at most ``max_segments`` pieces.

    Exact squared-error segmentation by dynamic programming; each segment
    takes the mean of its samples. Returns ``(u_hat, change_points)`` with
    1-based change points (last index of each segment but the final one).
    The fit runs on ``y`` divided by the power of two just above ``max |y|``,
    which is exact and keeps the squares in floating-point range. Raises
    ValueError unless ``y`` is a non-empty, finite 1-d series.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim != 1 or not y.size or not np.isfinite(y).all():
        raise ValueError("fit_piecewise_constant needs a non-empty, finite 1-d series")
    N = y.shape[0]
    max_segments = min(_check_integer("max_segments", max_segments, 1), N)
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
    # One pass per end j fills every count k at once: a last segment starting
    # at m < k never wins, as best[k-1, m] is inf there (too few samples for
    # k segments), so the minimizer is the one over m = k..j-1.
    best = np.full((max_segments, N + 1), np.inf)
    split = np.zeros((max_segments, N + 1), dtype=int)
    best[0, 1:] = seg_cost(0, np.arange(1, N + 1))
    counts = np.arange(max_segments - 1)
    for j in range(2, N + 1):
        costs = best[:-1, :j] + seg_cost(np.arange(j), j)
        split[1:, j] = np.argmin(costs, axis=1)
        best[1:, j] = costs[counts, split[1:, j]]

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

    Minimizes the summed equation errors over ``t = n..N``; rejects a
    non-finite input and rank-deficient regressor matrices (a constant-zero
    input is the usual culprit).
    """
    y = np.asarray(y, dtype=float)
    u = np.asarray(u, dtype=float)
    if y.shape != u.shape:
        raise ValueError(f"y and u must have equal length, got {y.shape} vs {u.shape}")
    # LAPACK's least squares may never return on an infinite entry.
    if not np.isfinite(u).all():
        raise ValueError("the input u must be finite")
    return _fit_arx(build_problem([y], orders, 0.0), [u])


def _fit_arx(spec: ProblemSpec, u_blocks):
    """Least-squares ``(a, b)`` on the rows of the lifted operator: tap ``k1``
    of a row is X entry ``(t - n_k - k1, k1)``, so ``x_index // n_b`` is the
    stacked input row each tap reads, beside the row's lagged outputs. The
    input taps are divided by the power of two just above their largest
    entry, and the lagged outputs and targets by the one just above theirs,
    so the rank test sees the input and the output on one scale however far
    apart their units are; both divisions, and scaling ``b`` back, are exact.
    Raises ValueError when that scaling would overflow or flush a nonzero
    entry of ``b`` to zero."""
    op = build_lifted_operator(spec)
    n_b = spec.orders.n_b
    taps = np.concatenate(u_blocks)[op.x_index // n_b]
    e_u, e_y = (int(np.frexp(np.max(np.abs(m), initial=0.0))[1])
                for m in (taps, np.column_stack([op.lagged, op.rhs])))
    phi = np.hstack([np.ldexp(taps, -e_u), np.ldexp(op.lagged, -e_y)])
    coef, _, rank, _ = np.linalg.lstsq(phi, np.ldexp(op.rhs, -e_y), rcond=None)
    if rank < phi.shape[1]:
        raise ValueError(
            f"regressor matrix is rank deficient ({rank} < {phi.shape[1]}); "
            "the input does not excite all coefficients"
        )
    with np.errstate(over="ignore", under="ignore"):
        b = np.ldexp(coef[:n_b], e_y - e_u)
    if not np.all(np.isfinite(b)) or np.any((b == 0.0) & (coef[:n_b] != 0.0)):
        info = np.finfo(float)
        raise ValueError(
            f"the least-squares b lies outside the floating-point range: a nonzero "
            f"entry needs magnitude in [{info.smallest_subnormal:.4g}, {info.max:.4g}]"
        )
    return coef[n_b:], b


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
