"""Dense linear-algebra kernels and proximal operators.

The singular value decomposition is LAPACK's divide-and-conquer driver
``dgesdd``, called through ``scipy.linalg.lapack``: ``thin_svd`` returns its
thin factors ``(u, s, vt)`` as they come, LAPACK's signs included. A product
of left and right vectors does not depend on those signs, and the one vector
read on its own, ``extract.factor_rank1``'s ``b``, is signed there.

``svt`` of a tall block, one with at least ``_SVT_QR_MIN_ROWS_PER_COLUMN``
rows per column (the solver's X block of a long series), never forms the
left factor. LAPACK's ``dgeqrf`` gives the block's n x n triangular factor
``R`` (Q is not formed), ``thin_svd(R) = (., s, vt)`` gives the singular
values and right vectors, and the result is ``matrix @ (V diag(max(1 -
tau/s, 0)) Vᵀ)``, which is ``U diag(max(s - tau, 0)) Vᵀ``. The QR step is
backward stable, so ``R`` carries the block's singular values to roundoff
in the largest; the Gram matrix ``matrixᵀ matrix`` would square the
condition number, and a singular value near 1e-9 of the largest would come
back at about 1e-8 of it, at the ``sqrt(eps)`` floor. Below the limit
``dgesdd`` on the block is faster, its thin U being short; at N = 2000 rows
and 3 columns the R route takes about 29 us against 54 us (2-core x86_64,
one BLAS thread). The solver's objective and ``extract.factor_rank1`` take
``s`` and ``vt`` of a tall X the same way, with ``dgesdd``'s own bits.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dgeqrf, dgesdd

_TINY, _HUGE = np.finfo(float).tiny, np.finfo(float).max

# Fewest rows per column at which ``svt`` goes through the R factor. Per
# iteration of a 200-iteration solve at lambda 1e4 on one series (n_a = 1,
# n_b = 3; 2-core x86_64, one BLAS thread; median of 9 runs), the dgesdd
# route against the R route took 88 against 91 us at 100 rows per column
# (N = 300), 110 against 107 at 150, 131 against 126 at 200, 194 against
# 182 at 333 and 356 against 348 at 667 (N = 2000).
_SVT_QR_MIN_ROWS_PER_COLUMN = 150


def thin_svd(matrix: np.ndarray) -> tuple:
    """Thin SVD ``matrix = (u * s) @ vt`` of a dense real matrix: ``dgesdd``'s
    ``(u, s, vt)``, bit for bit, as ``numpy.linalg.svd(matrix,
    full_matrices=False)`` returns them. With ``r = min(matrix.shape)``,
    ``u`` is (N, r), ``s`` holds the r singular values, non-increasing, and
    ``vt`` is (r, n); the sign of each pair ``(u[:, i], vt[i])`` is LAPACK's.

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
        return np.empty((m.shape[0], r)), np.empty(r), np.empty((r, m.shape[1]))
    u, s, vt, info = dgesdd(m, full_matrices=0)
    if info:
        raise np.linalg.LinAlgError(f"dgesdd failed with info = {info}")
    return u, s, vt


def svt(matrix: np.ndarray, tau: float, out=None) -> np.ndarray:
    """Singular value thresholding: prox of ``tau * ||.||_*``, into ``out``
    when given, with the bits of the returned form.

    Shrinks every singular value by ``tau``, clipping at zero. A block with
    at least ``_SVT_QR_MIN_ROWS_PER_COLUMN`` rows per column goes through
    its R factor (see the module docstring); either route makes one
    ``thin_svd`` call and raises ValueError on an input that is not 2-d or
    not finite.
    """
    if not tau >= 0:
        raise ValueError(f"svt: tau must be non-negative, got {tau}")
    m = np.asarray(matrix, dtype=float)
    r = _tall_r(m, "svt")
    u, s, vt = thin_svd(r)
    if r is not m:
        # 1 - tau / max(s, tau) is max(1 - tau/s, 0); the floor (tau = 0) avoids 0/0.
        tau = min(tau, _HUGE)
        return np.matmul(m, (vt.T * (1.0 - tau / np.maximum(s, tau or _TINY))) @ vt, out=out)
    return np.matmul(u * np.maximum(s - tau, 0.0), vt, out=out)


def _tall_r(m: np.ndarray, caller: str) -> np.ndarray:
    """``dgeqrf``'s n x n factor ``R`` of a tall ``m`` (see ``svt``), else ``m``:
    either has ``m``'s singular values and right vectors. A non-finite tall
    ``m`` raises ValueError naming ``caller`` before any LAPACK call."""
    if not (m.ndim == 2 and m.shape[0] >= _SVT_QR_MIN_ROWS_PER_COLUMN * m.shape[1] > 0):
        return m
    if not np.isfinite(m).all():
        raise ValueError(f"{caller}: input has non-finite entries")
    qr, _, _, info = dgeqrf(m)
    if info:
        raise np.linalg.LinAlgError(f"dgeqrf failed with info = {info}")
    r = qr[: m.shape[1]]
    for i in range(1, r.shape[0]):      # Householder vectors lie below R's diagonal
        r[i, :i] = 0.0
    return r


def row_group_shrink(matrix: np.ndarray, kappa: float, out=None) -> np.ndarray:
    """Row-wise group soft threshold: prox of ``kappa * ||.||_{2,1}``.

    Each row ``m`` maps to ``m * max(1 - kappa/||m||_2, 0)`` (into ``out`` when
    given); zero rows stay zero. Raises ValueError unless ``matrix`` is 2-d.
    """
    if not kappa >= 0:
        raise ValueError(f"row_group_shrink: kappa must be non-negative, got {kappa}")
    m = np.asarray(matrix, dtype=float)
    # kappa / max(||m||, kappa) is in [0, 1]: rows at or below kappa get 0, a row whose
    # squared norm overflows gets 1; the floor (kappa = 0) and clamp avoid 0/0 and inf/inf.
    kappa = min(kappa, _HUGE)
    factor = 1.0 - kappa / np.maximum(_row_norms(m, "row_group_shrink"), kappa or _TINY)
    return np.multiply(m, factor[:, None], out=out)


def row_group_norm(matrix: np.ndarray) -> float:
    """The (2,1) norm: sum of row 2-norms. Raises ValueError unless
    ``matrix`` is 2-d."""
    return float(np.sum(_row_norms(np.asarray(matrix, dtype=float), "row_group_norm")))


def _row_norms(m: np.ndarray, caller: str) -> np.ndarray:
    """``np.sqrt(np.add.reduce(m * m, axis=1))`` bit for bit: numpy adds a row of
    2-7 entries in order, as these column sums do without its per-row loop.
    Raises ValueError, naming ``caller``, unless ``m`` is 2-d."""
    if m.ndim != 2:
        raise ValueError(f"{caller} expects a 2-d array, got shape {m.shape}")
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
