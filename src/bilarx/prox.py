"""Dense linear-algebra kernels and proximal operators.

The singular value decomposition is LAPACK's divide-and-conquer driver
``dgesdd``, called through ``scipy.linalg.lapack``, thin, with LAPACK's signs:
a product of left and right vectors does not depend on them, and the one
vector read on its own, ``extract.factor_rank1``'s ``b``, is signed there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgesdd

_TINY, _HUGE = np.finfo(float).tiny, np.finfo(float).max


@dataclass(frozen=True)
class ThinSvd:
    """Thin SVD ``M = U @ diag(s) @ V.T`` with ``r = min(M.shape)`` factors.

    Attributes
    ----------
    left_vectors : (N, r) ndarray
        Column-orthonormal left singular vectors.
    singular_values : (r,) ndarray
        Non-negative, sorted non-increasing.
    right_vectors : (n, r) ndarray
        Column-orthonormal right singular vectors. The sign of each pair
        ``(left_vectors[:, i], right_vectors[:, i])`` is LAPACK's.
    """

    left_vectors: np.ndarray
    singular_values: np.ndarray
    right_vectors: np.ndarray


def thin_svd(matrix: np.ndarray) -> ThinSvd:
    """Thin SVD of a dense real matrix: ``dgesdd``'s factors, bit for bit, read-only.

    Raises
    ------
    ValueError
        If the input is not 2-d or contains NaN or infinity.
    numpy.linalg.LinAlgError
        If LAPACK reports a failure.
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"thin_svd expects a 2-d array, got shape {m.shape}")
    # dgesdd reports a NaN entry (info = -4) but may never return on an
    # infinite one (on a 30 x 3 matrix with one inf entry it had not returned
    # after 15 s), so this scan keeps a diverging iterate from hanging.
    if not np.isfinite(m).all():
        raise ValueError("thin_svd: input has non-finite entries")

    if m.size == 0:
        # LAPACK rejects an empty matrix (and reports it on stderr); its thin
        # factors are empty.
        r = min(m.shape)
        u, sigma, vt = np.empty((m.shape[0], r)), np.empty(r), np.empty((r, m.shape[1]))
    else:
        u, sigma, vt, info = dgesdd(m, full_matrices=0)
        if info:
            raise np.linalg.LinAlgError(f"dgesdd failed with info = {info}")
    v = vt.T

    for arr in (u, sigma, v):
        arr.setflags(write=False)
    return ThinSvd(left_vectors=u, singular_values=sigma, right_vectors=v)


def svt(matrix: np.ndarray, tau: float) -> np.ndarray:
    """Singular value thresholding: prox of ``tau * ||.||_*``.

    Shrinks every singular value by ``tau``, clipping at zero.
    """
    if not tau >= 0:
        raise ValueError(f"svt: tau must be non-negative, got {tau}")
    dec = thin_svd(matrix)
    shrunk = np.maximum(dec.singular_values - tau, 0.0)
    return (dec.left_vectors * shrunk) @ dec.right_vectors.T


def row_group_shrink(matrix: np.ndarray, kappa: float) -> np.ndarray:
    """Row-wise group soft threshold: prox of ``kappa * ||.||_{2,1}``.

    Each row ``m`` maps to ``m * max(1 - kappa/||m||_2, 0)``; zero rows stay
    zero.
    """
    if not kappa >= 0:
        raise ValueError(f"row_group_shrink: kappa must be non-negative, got {kappa}")
    m = np.asarray(matrix, dtype=float)
    # kappa / max(||m||, kappa) is in [0, 1]: rows at or below kappa get 0, a row whose
    # squared norm overflows gets 1; the floor (kappa = 0) and clamp avoid 0/0 and inf/inf.
    kappa = min(kappa, _HUGE)
    factor = 1.0 - kappa / np.maximum(_row_norms(m), kappa or _TINY)
    return m * factor[:, None]


def row_group_norm(matrix: np.ndarray) -> float:
    """The (2,1) norm: sum of row 2-norms."""
    return float(np.sum(_row_norms(np.asarray(matrix, dtype=float))))


def _row_norms(m: np.ndarray) -> np.ndarray:
    """``np.sqrt(np.add.reduce(m * m, axis=1))`` bit for bit: numpy adds a row of
    2-7 entries in order, as these column sums do without its per-row loop."""
    sq = m * m
    if not 2 <= sq.shape[1] < 8:    # numpy sums longer rows pairwise
        return np.sqrt(np.add.reduce(sq, axis=1))
    total = sq[:, 0] + sq[:, 1]
    for k in range(2, sq.shape[1]):
        total += sq[:, k]
    return np.sqrt(total)


def box_clip(vector: np.ndarray, bound: float) -> np.ndarray:
    """Componentwise projection onto ``[-bound, bound]``; NaN stays NaN."""
    if not bound >= 0:
        raise ValueError(f"box_clip: bound must be non-negative, got {bound}")
    # The same bits as np.clip at a fraction of its call overhead: numpy's
    # maximum and minimum return their second argument on a tie, so an entry
    # equal to a bound (a signed zero against bound 0) keeps its own sign.
    return np.minimum(bound, np.maximum(-bound, np.asarray(vector, dtype=float)))
