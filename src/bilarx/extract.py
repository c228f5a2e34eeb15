"""Rank-1 factorization of a solved lifted matrix into (input, coefficients).

The factorization is only determined up to a multiplicative scalar, so the
coefficient vector is pinned to unit 2-norm with its first largest-magnitude
entry positive; all magnitude information lands in the input estimates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .problem import _check_real
from .prox import _tall_r, thin_svd


@dataclass(frozen=True)
class FactoredModel:
    """Best rank-1 reading of the lifted matrix blocks.

    ``u_blocks[j] @ b.T`` is the best rank-1 approximation of block ``j``.
    ``rank_gap`` is ``sigma2 / sigma1`` of the stacked matrix; values near
    zero mean the solution is essentially rank one. ``(u, b)`` carry an
    unresolvable common scale, pinned by the unit norm and sign rule of ``b``.
    """

    u_blocks: tuple
    b: np.ndarray
    singular_values: np.ndarray
    rank_gap: float


def factor_rank1(X_blocks) -> FactoredModel:
    """Factor stacked blocks sharing one right factor.

    Blocks are stacked row-wise before the SVD, which is exact when they all
    share the right factor ``b``; the per-block inputs are then
    ``X_block @ b``.

    Raises
    ------
    ValueError
        If there is no block, a block is not a 2-d array with at least one
        row and one column, the blocks' column counts differ, or every block
        is zero (no identifiable component; the penalties or the noise bound
        drove the solution to zero).
    """
    blocks = [np.asarray(x, dtype=float) for x in X_blocks]
    if not blocks:
        raise ValueError("factor_rank1 needs at least one block")
    if any(b.ndim != 2 or not b.size for b in blocks) or len({b.shape[1] for b in blocks}) > 1:
        raise ValueError("all blocks must be non-empty 2-d arrays with a common column count")
    _, sigma, vt = thin_svd(_tall_r(np.vstack(blocks), "factor_rank1"))
    if sigma[0] == 0.0:
        raise ValueError(
            "lifted matrix is identically zero: no identifiable component"
        )
    b = vt[0].copy()
    if b[np.argmax(np.abs(b))] < 0:
        b *= -1.0
    u_blocks = tuple(block @ b for block in blocks)
    gap = float(sigma[1] / sigma[0]) if sigma.size > 1 else 0.0
    for u in u_blocks:
        u.setflags(write=False)
    b.setflags(write=False)
    return FactoredModel(
        u_blocks=u_blocks, b=b,
        singular_values=sigma, rank_gap=gap,
    )


def change_points(u, gamma: float = 0.0):
    """Indices ``i`` (1-based) where ``|u(i) - u(i+1)| > gamma``; ValueError
    unless ``u`` is a finite real 1-d signal of length >= 2 and ``gamma >= 0``."""
    u = np.asarray(u)
    if u.ndim != 1 or u.shape[0] < 2 or u.dtype.kind not in "biuf" or not np.isfinite(u).all():
        raise ValueError("change_points needs u to be a finite real 1-d signal of length >= 2")
    gamma = _check_real("gamma", gamma, 0)
    deltas = np.abs(np.diff(u.astype(float)))
    return [int(i) + 1 for i in np.nonzero(deltas > gamma)[0]]
