"""ADMM solver for the lifted convex identification program.

The program is

    minimize    ||X||_* + lambda * sum_j ||D X_j||_{2,1}
    subject to  y_j(t) = A_j(X, a) + w_j(t),   |w_j(t)| <= epsilon,

where ``D`` takes consecutive row differences inside each sequence block and
the nuclear norm acts on the row-wise stack of all blocks (which is what
ties multiple sequences to one shared coefficient vector).

Splitting: the first block holds ``(X, a)``; the second is one copy
``z = (Z1, Z2, v)`` of ``M(X, a) = (X, D X, A(X, a))`` with one scaled
multiplier. ``Z1`` takes the nuclear prox, ``Z2`` the row-group prox, and the
model output ``v`` is projected onto the tube ``|v - y| <= epsilon``, the
slack being ``w = y - v``. The ``(X, a)`` update solves with
``K = Mᵀ diag(1, rho2) M`` at the two starting block weights, factored once.

The refinement solve has no D X block: its unknowns are the coefficients
``C`` of X in the orthonormal basis (segment indicator / sqrt(length)) of the
rows that the frozen pairs join, so ``||X||_* = ||C||_*`` and the iteration
is the same; X is expanded once at the end.

Two deterministic normalizations keep behavior uniform across data scales
and penalty weights spanning many orders of magnitude: outputs are divided
by ``max |y|``, and the two constraint blocks whose multipliers grow with
``lambda`` carry an extra penalty factor ``min(max(1, lambda), 1e8)``.

The penalty is residual-balanced (Boyd et al. 2011, section 3.4.1, on
relative residuals as in Wohlberg 2017): every few iterations both blocks'
weights are doubled or halved together when the primal and dual residuals,
each over its own tolerance, are far apart, and the adaptation stops after a
fixed number of changes. The X block's weight starts at 1, so every weight
in force is a power of two times its starting value. Scaling every weight by
``c`` scales ``K`` and the x-update's right-hand side alike, so the
factorization made at the starting penalty serves the whole solve.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse
from scipy.linalg.lapack import dpbtrs

from . import prox
from .extract import change_points, factor_rank1
from .problem import LiftedVariables, ProblemSpec, build_lifted_operator


# Over-relaxation factor of the ADMM iteration. Values in [1.5, 1.8] are the
# usual speed-up over plain ADMM (Eckstein & Bertsekas 1992; Boyd et al. 2011,
# section 3.4.3); 1.6 is fixed because no answer should hinge on tuning it.
_OVER_RELAXATION = 1.6

# The residuals, their thresholds and the stopping test are evaluated only at
# iteration 1, every _CHECK_EVERY iterations and at max_iters; the iterates
# are the same at every index either way. At the paper's sizes that
# bookkeeping (two residual vectors, five norms) is a sixth to a fifth of an
# iteration, which is why OSQP (Stellato et al. 2020) also checks its
# termination criteria only every few iterations.
_CHECK_EVERY = 5

# Relative tolerance of both stopping tests; the residuals and their scales are
# in units of max |y|, so one value serves every data scale.
_TOL = 1e-7

# Residual balancing: every _RHO_CHECK_EVERY iterations (a multiple of
# _CHECK_EVERY, so the residuals are fresh), when one of the
# relative residuals pri/eps_pri and dual/eps_dual exceeds the other by
# _RHO_IMBALANCE, the penalty is multiplied (pri ahead) or divided (dual
# ahead) by _RHO_STEP. After _RHO_MAX_CHANGES changes it stays fixed, as the
# ADMM convergence proof requires.
_RHO_CHECK_EVERY = 25
_RHO_IMBALANCE = 5.0
_RHO_STEP = 2.0
_RHO_MAX_CHANGES = 50

# Cap on rho2 = max(1, lambda), the ratio of the two blocks' weights (the X
# block's starts at 1). K's conditioning follows that ratio; past ~1e15 the X
# block drowns in the rounding of K, and well before that the balanced penalty
# can walk into a blown-up iterate that the relative stopping test accepts.
_MAX_BLOCK_RATIO = 1e8


@dataclass(frozen=True)
class SolverOptions:
    """Iteration budget of the ADMM, a positive integer; the penalty and the
    stopping tolerance are the solver's own."""

    max_iters: int = 5000

    def __post_init__(self):
        if not (isinstance(self.max_iters, numbers.Integral) and self.max_iters >= 1):
            raise ValueError(f"max_iters must be a positive integer, got {self.max_iters}")


@dataclass(frozen=True)
class SolverDiagnostics:
    """How a solve ended. The stopping test runs at iteration 1, every fifth
    iteration and at ``max_iters``, so ``iterations`` is 1, a multiple of 5
    or the cap; ``converged`` is that test's verdict on the returned iterate,
    which the residuals describe. ``rho`` is the X block's penalty weight in
    force at exit, ``2**k`` after a start at 1, and ``rho_changes`` the
    number of times residual balancing doubled or halved it."""

    iterations: int
    primal_residual: float
    dual_residual: float
    converged: bool
    rho: float
    rho_changes: int


@dataclass(frozen=True)
class BilSolution:
    """Solved lifted program plus its rank-1 reading.

    ``u_est``/``b_est`` carry the usual scale ambiguity: ``b_est`` has unit
    2-norm (largest-magnitude entry positive) and ``u_est`` absorbs all
    magnitude. ``b_est`` is None when the solution matrix is exactly zero.
    """

    vars: LiftedVariables
    lam: float
    objective: float
    singular_values: np.ndarray
    u_est: tuple
    b_est: np.ndarray | None
    a_est: np.ndarray
    rank_gap: float
    diagnostics: SolverDiagnostics
    frozen_rows: tuple | None = None


@dataclass(frozen=True)
class SweepResult:
    lambda_chosen: float
    solution: BilSolution
    qualified: bool
    trace: tuple  # (lambda, rank_gap) per evaluated grid point


class _XSolve:
    """Solve with the x-update matrix ``K = Mᵀ diag(1, rho2) M``, which is
    ``rho2 (AᵀA + L ⊗ I) + I_x`` at the workspace's two block weights.

    Tap ``k`` of constraint row ``r`` is ``tap_weights[r, k]`` times X unknown
    ``x_index[r, k]``. ``I_x`` and the row-difference Laplacian ``L = DᵀD``
    act on the X unknowns only; ``link[i]`` is 1 when ``D`` joins row ``i``
    to row ``i + 1`` (``link`` is empty without a D block). Taps ``k < k'``
    of one constraint row lie in rows at most ``k' - k`` apart, so the X
    block of ``K`` is banded with bandwidth ``max(n_b, (n_b - 1)^2)`` and
    positive definite through ``I_x``; it is factored once by a banded
    Cholesky. The ``a`` unknowns are eliminated through the Schur complement
    ``S = Kaa - Kax Kxx^-1 Kxa``, pseudo-inverted by eigendecomposition.
    Every solve with ``Kxx`` is one LAPACK ``dpbtrs`` on the factor.
    ``null(K) = {(0, v) : A_a v = 0}`` matches ``null(S)``, so a
    rank-deficient ``a`` block gets the minimum-norm solution.
    """

    def __init__(self, work: _Workspace):
        x_index, weights, lagged = work.x_index, work.tap_weights, work.lagged
        n_b, rho2, self.n_x = work.n_b, work.rho2, work.n_x

        # LAPACK lower band form: ab[d, c] = Kxx[c + d, c].
        bandwidth = max(n_b, (n_b - 1) ** 2)
        ab = np.zeros((bandwidth + 1, self.n_x))
        link = np.pad(work.link, (0, self.n_x // n_b - work.link.size))   # one entry per row
        lap_diag = link + np.concatenate([[0.0], link[:-1]])
        ab[0] = 1.0 + rho2 * np.repeat(lap_diag, n_b)
        ab[n_b] = -rho2 * np.repeat(link, n_b)
        # AᵀA, accumulated: taps of many constraint rows share a column pair.
        taps = x_index.ravel()
        np.add.at(ab[0], taps, rho2 * (weights * weights).ravel())
        for hi in range(n_b):
            for lo in range(hi + 1, n_b):
                diff = np.abs(x_index[:, hi] - x_index[:, lo])
                cols = np.minimum(x_index[:, hi], x_index[:, lo])
                np.add.at(ab.reshape(-1), diff * self.n_x + cols,
                          rho2 * weights[:, hi] * weights[:, lo])
        self._factor = scipy.linalg.cholesky_banded(ab, lower=True)

        self._Kxa = self._W = self._S_pinv = None
        if lagged.shape[1]:
            self._Kxa = Kxa = np.column_stack([
                np.bincount(taps, rho2 * weights.ravel() * lag, minlength=self.n_x)
                for lag in np.repeat(lagged, n_b, axis=0).T])
            self._W = self._solve_xx(Kxa)
            S = rho2 * (lagged.T @ lagged) - Kxa.T @ self._W
            vals, vecs = scipy.linalg.eigh(S)
            cutoff = np.max(np.abs(vals)) * S.shape[0] * np.finfo(float).eps
            inv = np.where(vals > cutoff, 1.0 / np.where(vals > cutoff, vals, 1.0), 0.0)
            self._S_pinv = (vecs * inv) @ vecs.T

    def _solve_xx(self, b: np.ndarray, overwrite: int = 0) -> np.ndarray:
        """``Kxx^-1 b`` on the held factor, for a vector or a matrix ``b``;
        with ``overwrite=1`` a contiguous ``b`` is solved in place."""
        x, info = dpbtrs(self._factor, b, lower=1, overwrite_b=overwrite)
        if info:
            raise np.linalg.LinAlgError(f"dpbtrs failed with info = {info}")
        return x

    def __call__(self, rhs: np.ndarray) -> np.ndarray:
        """``K^-1 rhs``, written over ``rhs`` and returned: ``dpbtrs`` solves
        in place on the contiguous view ``rhs[:n_x]``, with no copy."""
        x = self._solve_xx(rhs[: self.n_x], overwrite=1)
        if self._W is not None:
            a = np.dot(self._S_pinv, rhs[self.n_x :] - np.dot(self._Kxa.T, x))
            x -= np.dot(self._W, a)     # matmul skips BLAS for a one-column W
            rhs[self.n_x :] = a
        return rhs


def _segments(lengths, freeze) -> tuple:
    """Segment of every stacked X row and ``1 / sqrt(segment length)``: only
    frozen difference ``i`` of a sequence joins its rows ``i`` and ``i + 1``."""
    joined = np.zeros(sum(lengths), dtype=bool)    # row continues the one above
    for start, idx in zip(np.cumsum(lengths) - lengths, freeze or ()):
        joined[start + np.asarray(idx, dtype=np.intp)] = True
    segment = np.cumsum(~joined) - 1
    return segment, (1.0 / np.sqrt(np.bincount(segment)))[segment]


class _Workspace:
    """Shared geometry for one ProblemSpec: operator, factorization, and the
    map ``M x = (X, D X, A(X, a))`` of the packed ``x`` (X unknowns, then ``a``)
    with two starting block weights: 1 on the X copy, ``rho2`` after it.
    ``M`` and ``MT = Mᵀ`` are CSR; a pair straddling two sequences is an empty row.
    With ``freeze``, row ``i`` of X is ``weight[i]`` times unknown row
    ``segment[i]``, and there is no D X block."""

    def __init__(self, spec: ProblemSpec, lam: float, freeze=None):
        self.spec = spec
        self.n_b = spec.orders.n_b
        self.lengths = spec.lengths
        # First stacked row of every sequence block after the first.
        self.block_starts = np.cumsum(self.lengths)[:-1]
        self.segment, self.weight = _segments(self.lengths, freeze)
        self.n_x = (int(self.segment[-1]) + 1) * self.n_b
        self.p = self.n_x + spec.orders.n_a

        # D X pair i joins stacked row i to i + 1 unless a block ends there.
        link = np.ones(self.segment.size - 1)
        link[self.block_starts - 1] = 0.0
        self.link = link if freeze is None else link[:0]

        self.y_scale = max(float(np.max(np.abs(s.samples))) for s in spec.sequences) or 1.0
        # The constraint operator the iteration solves with. Normalized units
        # divide every output by y_scale, so the targets and the lagged outputs
        # multiplying ``a`` shrink by the same factor; the X columns are ones
        # either way, times the segment weights.
        op = build_lifted_operator(spec)
        rows = op.x_index // self.n_b
        self.x_index = self.segment[rows] * self.n_b + op.x_index % self.n_b
        self.tap_weights = self.weight[rows]
        self.lagged, self.rhs = op.lagged / self.y_scale, op.rhs / self.y_scale
        self.eps = spec.epsilon / self.y_scale

        # Ends of the X and D X blocks in a stacked vector.
        self.cuts = (self.n_x, self.n_x + self.link.size * self.n_b)
        self.M = self._stacked_map()
        self.MT = self.M.T.tocsr()
        # Starting weights; _admm scales both together and keeps K's factor.
        self.rho2 = min(max(1.0, lam), _MAX_BLOCK_RATIO)
        self.solve_K = _XSolve(self)

    def _stacked_map(self):
        """``M`` in CSR form: the identity on X, D X row ``(i, k)`` = X entry
        ``(i, k)`` - X entry ``(i + 1, k)`` on linked pairs, then A's rows."""
        n_x, n_b, lagged = self.n_x, self.n_b, self.lagged
        linked = np.repeat(self.link.astype(np.intp), n_b)   # 1 on linked D X rows
        pairs = np.flatnonzero(linked)
        taps = np.hstack([self.x_index[:, ::-1],
                          np.broadcast_to(n_x + np.arange(lagged.shape[1]), lagged.shape)])
        indptr = np.cumsum(np.concatenate([[0], np.ones(n_x, np.intp), 2 * linked,
                                           np.full(len(taps), taps.shape[1])]))
        cols = np.concatenate([np.arange(n_x), np.add.outer(pairs, [0, n_b]).ravel(), taps.ravel()])
        vals = np.concatenate([np.ones(n_x), np.tile([1.0, -1.0], pairs.size),
                               np.hstack([self.tap_weights[:, ::-1], lagged]).ravel()])
        return scipy.sparse.csr_array((vals, cols, indptr), shape=(len(indptr) - 1, self.p))

    def blocks(self, q):
        """Views of a stacked vector's X, D X and constraint blocks."""
        i, j = self.cuts
        return q[:i].reshape(-1, self.n_b), q[i:j].reshape(-1, self.n_b), q[j:]


def _admm(work: _Workspace, lam: float, options: SolverOptions):
    """Run the iteration at D X penalty ``lam``; returns (x, w, diagnostics)
    in normalized units, with ``x`` packed as X entries, then ``a``.

    The block weights in force are ``scale`` on the X copy and ``scale *
    work.rho2`` after it; the x-update uses them at ``scale = 1``, since
    scaling ``K`` and its right-hand side alike leaves the solution
    unchanged. Every iteration makes the same updates; only at iteration 1,
    every ``_CHECK_EVERY`` iterations and at ``max_iters`` are the residuals
    formed and the stopping test applied, and the first iterate that passes
    is returned.
    """
    alpha = _OVER_RELAXATION
    rhs, cut, n_x = work.rhs, work.cuts[1], work.n_x
    scale, rho_changes = 1.0, 0
    # The X and D X copies start at zero and the model output at the data,
    # so the slack w = rhs - v starts at zero. The stacked iterates and one
    # scratch vector are allocated once per solve; z and z_new swap each step.
    z = np.concatenate([np.zeros(cut), rhs])
    s, q, z_new, tmp = (np.zeros_like(z) for _ in range(4))
    Q1, Q2, q3 = work.blocks(q)
    new_blocks, old_blocks = work.blocks(z_new), work.blocks(z)
    floor_pri, floor_dual = 1e-14 * math.sqrt(z.size), 1e-14 * math.sqrt(work.p)
    c_norm = math.sqrt(rhs @ rhs)

    def rho_norm(v):    # ||diag(1, rho2) v||, from one dot product per block
        h, t = v[:n_x], v[n_x:]
        return math.hypot(math.sqrt(h @ h), work.rho2 * math.sqrt(t @ t))

    for iters in range(1, options.max_iters + 1):
        np.subtract(z, s, out=tmp)
        tmp[n_x:] *= work.rho2      # the X block's starting weight is 1
        x = work.solve_K(work.MT @ tmp)
        Mx = work.M @ x
        # The relaxed point plus the multiplier: q = z + alpha (Mx - z) + s.
        np.subtract(Mx, z, out=q)
        q *= alpha
        q += z
        q += s
        w = prox.box_clip(np.subtract(rhs, q3, out=tmp[cut:]), work.eps)
        Z1, Z2, z3 = new_blocks
        Z1[...] = prox.svt(Q1, 1.0 / scale)
        if Q2.size:                 # the refine has no D X block
            Z2[...] = prox.row_group_shrink(Q2, lam / (scale * work.rho2))
        np.subtract(rhs, w, out=z3)
        np.subtract(q, z_new, out=s)
        z, z_new = z_new, z
        new_blocks, old_blocks = old_blocks, new_blocks
        if iters % _CHECK_EVERY and iters != 1 and iters != options.max_iters:
            continue
        r = np.subtract(Mx, z, out=tmp)
        pri_norm = math.sqrt(r @ r)
        # Dual progress measured in copy space: the smooth part of the first
        # block is zero, so the textbook x-space reference is identically
        # tiny after every exact (X, a) solve and cannot anchor a relative
        # test. The block weights make this scale-covariant.
        dual_norm = scale * rho_norm(np.subtract(z, z_new, out=tmp))
        bz_norm = math.sqrt(z[:cut] @ z[:cut] + w @ w)
        eps_pri = _TOL * max(math.sqrt(Mx @ Mx), bz_norm, c_norm) + floor_pri
        eps_dual = _TOL * (1.0 + scale * rho_norm(s)) + floor_dual
        converged = pri_norm <= eps_pri and dual_norm <= eps_dual
        if converged:
            break
        if iters % _RHO_CHECK_EVERY == 0 and rho_changes < _RHO_MAX_CHANGES:
            # pri/eps_pri against dual/eps_dual, cross-multiplied because the
            # dual residual can be exactly zero.
            pri_rel, dual_rel = pri_norm * eps_dual, dual_norm * eps_pri
            step = (_RHO_STEP if pri_rel > _RHO_IMBALANCE * dual_rel
                    else 1.0 / _RHO_STEP if dual_rel > _RHO_IMBALANCE * pri_rel
                    else 1.0)
            if step != 1.0:
                # The scaled multiplier s follows 1/rho, so y = rho * s stays.
                scale *= step
                s /= step
                rho_changes += 1
    return x, w, SolverDiagnostics(iters, pri_norm, dual_norm, converged,
                                   scale, rho_changes)


def _package_solution(work: _Workspace, x, w, lam, diag, frozen_rows=None):
    stacked = work.y_scale * (work.weight[:, None]
                              * x[: work.n_x].reshape(-1, work.n_b)[work.segment])
    X_blocks = tuple(np.split(stacked, work.block_starts))
    w_rows = np.subtract(work.lengths, work.spec.n - 1)    # one per time n..N_j
    w_blocks = tuple(np.split(work.y_scale * w, np.cumsum(w_rows)[:-1]))
    vars = LiftedVariables(X_blocks=X_blocks, a=x[work.n_x :], w_blocks=w_blocks)

    dec = prox.thin_svd(stacked)
    sigma = dec.singular_values
    _, DX, _ = work.blocks(work.M @ x)
    # A zero D X term is exactly 0, also where lam * y_scale overflows.
    dx_norm = prox.row_group_norm(DX)
    objective = float(np.sum(sigma)) + (lam * work.y_scale * dx_norm if dx_norm else 0.0)
    if sigma[0] == 0.0:
        u_est = tuple(np.zeros(length) for length in work.lengths)
        b_est = None
        rank_gap = 0.0
    else:
        model = factor_rank1(X_blocks)
        u_est, b_est, rank_gap = model.u_blocks, model.b, model.rank_gap
    return BilSolution(
        vars=vars, lam=lam, objective=objective,
        singular_values=sigma, u_est=u_est, b_est=b_est,
        a_est=vars.a, rank_gap=rank_gap, diagnostics=diag,
        frozen_rows=frozen_rows,
    )


def solve_bil(spec: ProblemSpec, lam: float,
              options: SolverOptions | None = None) -> BilSolution:
    """Solve the convex lifted program at one penalty weight ``lam``.

    Non-convergence inside ``max_iters`` is not an exception: the best
    iterate comes back with ``diagnostics.converged`` False and the final
    residual norms filled in. Raises ValueError unless ``lam`` is
    non-negative with ``lam**2`` finite, the range in which the block
    weights and ``K`` are formed without overflow.
    """
    if not (lam >= 0 and lam * lam < math.inf):
        raise ValueError(f"lambda must be non-negative with its square in "
                         f"floating-point range, got {lam}")
    options = options or SolverOptions()
    work = _Workspace(spec, lam)
    x, w, diag = _admm(work, lam, options)
    return _package_solution(work, x, w, lam, diag)


def _normalize_freeze(spec: ProblemSpec, freeze) -> tuple:
    if len(freeze) != len(spec.sequences):
        raise ValueError(
            f"freeze needs one index set per sequence "
            f"({len(spec.sequences)}), got {len(freeze)}"
        )
    out = []
    for j, (idx_set, length) in enumerate(zip(freeze, spec.lengths)):
        if not all(isinstance(i, numbers.Integral) or
                   isinstance(i, numbers.Real) and float(i).is_integer() for i in idx_set):
            raise ValueError(f"freeze indices for sequence {j} must be integers")
        idx = sorted({int(i) for i in idx_set})
        if any(i < 1 or i > length - 1 for i in idx):
            raise ValueError(
                f"freeze indices for sequence {j} must lie in [1, {length - 1}]"
            )
        out.append(tuple(idx))
    return tuple(out)


def solve_refined(spec: ProblemSpec, freeze,
                  options: SolverOptions | None = None) -> BilSolution:
    """Minimize the nuclear norm alone with hard row equalities.

    ``freeze`` gives, per sequence, the 1-based difference indices ``i``
    where ``X(i,:) = X(i+1,:)`` holds bit for bit (ints, or floats of
    integer value). This is the bias-removal re-solve: the sparsity pattern
    comes from a previous estimate, the penalty weight drops to zero.
    """
    options = options or SolverOptions()
    freeze = _normalize_freeze(spec, freeze)
    work = _Workspace(spec, 0.0, freeze)
    x, w, diag = _admm(work, 0.0, options)
    return _package_solution(work, x, w, 0.0, diag, frozen_rows=freeze)


def freeze_small_differences(u_blocks, gamma: float) -> list:
    """Per input estimate, the 1-based indices ``i`` with ``|u(i) - u(i+1)| <= gamma``
    (those :func:`change_points` leaves out), which the refinement re-solve
    freezes; ValueError unless every estimate is finite and ``gamma >= 0``."""
    return [set(range(1, len(u))) - set(change_points(u, gamma)) for u in u_blocks]


def refine_pipeline(spec: ProblemSpec, bil_solution: BilSolution, gamma: float,
                    options: SolverOptions | None = None) -> BilSolution:
    """Freeze the small input differences of a solution and re-solve.

    Differences of each estimated input with ``|delta u(i)| <= gamma`` become
    hard row equalities; the re-solve then removes the shrinkage bias from
    the surviving changes.
    """
    return solve_refined(spec, freeze_small_differences(bil_solution.u_est, gamma),
                         options)


def check_sweep_grid(grid, gap_target: float) -> list:
    """The penalty grid as floats; raises ValueError unless ``0 < gap_target <
    1`` and the grid is non-empty, strictly ascending and positive with every
    square finite, the range in which :func:`solve_bil` accepts ``lam``."""
    if not 0.0 < gap_target < 1.0:
        raise ValueError(f"gap_target must lie in (0, 1), got {gap_target}")
    grid = [float(g) for g in grid]
    if not grid:
        raise ValueError("lambda grid must be non-empty")
    if any(not (g > 0 and g * g < math.inf) for g in grid):
        raise ValueError("lambda grid entries must be positive and finite, "
                         "with finite squares")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("lambda grid must be strictly ascending")
    return grid


def sweep_lambda(spec: ProblemSpec, grid, gap_target: float,
                 options: SolverOptions | None = None) -> SweepResult:
    """Scan a penalty grid in ascending order for a rank-1 solution.

    Returns the smallest grid value whose solution reaches
    ``rank_gap <= gap_target``; if none qualifies, the value with the
    smallest gap is returned with ``qualified`` False. The scan stops at the
    first qualifying point.
    """
    grid = check_sweep_grid(grid, gap_target)
    trace = []
    best = None
    for lam in grid:
        sol = solve_bil(spec, lam, options)
        trace.append((lam, sol.rank_gap))
        if best is None or sol.rank_gap < best.rank_gap:
            best = sol
        if sol.rank_gap <= gap_target:
            return SweepResult(lambda_chosen=lam, solution=sol,
                               qualified=True, trace=tuple(trace))
    return SweepResult(lambda_chosen=best.lam, solution=best,
                       qualified=False, trace=tuple(trace))
