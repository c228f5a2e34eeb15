"""Uniqueness analysis: restricted-isometry constants and a brute-force oracle.

The restricted isometry here is taken over matrices whose consecutive
row-difference support is small, with the first and last differences pinned
to zero. On each admissible support pattern the matrices with that
difference structure form a linear subspace, so the isometry constant is
computed exactly: restrict the operator to an orthonormal basis of the
subspace and read off the extreme singular values. No sampling is involved,
and no basis matrix is formed: in that basis the restriction is a column sum
per segment, a difference of two prefix sums over the rows. Subspaces grow
with their patterns, so only the patterns with the most changes are walked,
in chunks of stacked restrictions, and one stacked SVD per chunk gives
their extreme singular values. The uniqueness verdict's walk stops at the
first chunk whose worst deviation reaches one.

The brute-force solver enumerates the same difference-support patterns and
solves the data constraints exactly on each one, which makes it an
independent ground-truth oracle for small instances: it certifies whether a
piecewise-constant, rank-one solution is unique, and finds all of them when
it is not. The data fix a lifted matrix only up to ``1 v^T`` with
``sum(v) = 0``; that family leaves the differences between segment levels
alone, so their common direction is ``b``, and ``sum(v) = 0`` fixes the
scale of the one rank-one member, for every ``n_b``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .problem import ProblemSpec, _check_integer, build_lifted_operator


@dataclass(frozen=True)
class MatrixOperator:
    """Linear map from ``n1 x n2`` matrices to vectors, stored densely.

    ``matrix`` has shape ``(n3, n1 * n2)`` and acts on the row-major
    vectorization of its argument; ``n1`` and ``n2`` are integers >= 1.
    """

    matrix: np.ndarray
    n1: int
    n2: int

    def __post_init__(self):
        for name in ("n1", "n2"):
            object.__setattr__(self, name, _check_integer(name, getattr(self, name), 1))
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[1] != self.n1 * self.n2:
            raise ValueError(
                f"operator matrix must have {self.n1 * self.n2} columns, "
                f"got shape {m.shape}"
            )
        if m.shape[0] == 0:
            raise ValueError("operator matrix must have at least one row")
        if not np.isfinite(m).all():
            raise ValueError("operator matrix has non-finite entries")
        object.__setattr__(self, "matrix", m)

    def apply(self, Z: np.ndarray) -> np.ndarray:
        Z = np.asarray(Z, dtype=float)
        if Z.shape != (self.n1, self.n2):
            raise ValueError(f"expected {self.n1} x {self.n2} matrix, got {Z.shape}")
        if not np.isfinite(Z).all():
            raise ValueError("Z has non-finite entries")
        return self.matrix @ Z.ravel()


@dataclass(frozen=True)
class RipReport:
    """Isometry constant at one sparsity level plus the uniqueness verdict.

    ``patterns_checked`` counts every pattern of 1..k changes, the set the
    constant is a maximum over. ``certified_unique`` is evaluated at level
    ``2k``: it is True exactly when the constant at ``2k`` is below one.
    """

    k: int
    rip_epsilon: float
    patterns_checked: int
    certified_unique: bool


def operator_from_problem(spec: ProblemSpec) -> MatrixOperator:
    """The measurement map of a single-sequence FIR instance.

    Only instances with ``n_a = 0`` define a pure matrix-space operator (the
    autoregressive coefficients would add non-matrix unknowns), and the
    row-difference structure is only meaningful inside one sequence.
    """
    if len(spec.sequences) != 1:
        raise ValueError("matrix-space operator requires a single sequence")
    if spec.orders.n_a != 0:
        raise ValueError("matrix-space operator requires n_a = 0")
    op = build_lifted_operator(spec)
    return MatrixOperator(
        matrix=op.matrix, n1=len(spec.sequences[0]), n2=spec.orders.n_b
    )


# Most patterns one walk may count, checked before any work: about 9 s of the
# brute-force oracle's pace on the FIR preset.
_PATTERN_BUDGET = 100_000


def _patterns(n1: int, k: int, interior_only: bool, budget=_PATTERN_BUDGET) -> tuple:
    """Change indices, pattern sizes and pattern count of a walk up to ``k``.

    With ``interior_only`` the boundary differences are pinned, so indices
    run over ``2..n1-2`` and sizes over ``1..k``; otherwise every difference
    index ``1..n1-1`` is free and the empty pattern (a constant matrix) is
    included. Raises ValueError when the count exceeds ``budget``.
    """
    indices = range(2, n1 - 1) if interior_only else range(1, n1)
    sizes = range(1 if interior_only else 0, min(k, len(indices)) + 1)
    total = sum(math.comb(len(indices), s) for s in sizes)
    if total > budget:
        raise ValueError(
            f"pattern enumeration needs {total} patterns, over the budget {budget}"
        )
    return indices, sizes, total


# Entries of one chunk's stacked restrictions: this bounds the memory of the
# walk whatever the pattern size, and keeps chunks large enough that the
# per-chunk numpy calls cost little next to the work they batch.
_CHUNK_ELEMENTS = 1 << 14


def _prefix_sums(matrix: np.ndarray, n1: int, n2: int) -> np.ndarray:
    """Running sums of ``matrix``'s columns over the rows of its argument.

    Entry ``[i]`` of the ``(n1 + 1, rows, n2)`` result sums the columns that
    act on rows ``0..i-1`` of the ``n1 x n2`` argument, so the column sum of
    the rows ``start..end-1`` is ``[end] - [start]``.
    """
    rows = matrix.shape[0]
    prefix = np.zeros((n1 + 1, rows, n2))
    prefix[1:] = np.cumsum(matrix.reshape(rows, n1, n2), axis=1).transpose(1, 0, 2)
    return prefix


def _restrict(prefix: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """The operator restricted to {Z : rows equal within each segment}.

    ``bounds`` holds the segment boundaries ``0 < ... < n1`` of one pattern,
    or of a stack of patterns along leading axes. The subspace has the
    orthonormal basis (segment indicator / sqrt(length)) x (unit column),
    segment-major, of dimension ``nseg * n2``; in it the restriction is each
    segment's column sum, a difference of two prefix sums, scaled by
    ``1 / sqrt(length)``. Returns shape ``(..., rows, nseg * n2)``.
    """
    sums = np.diff(prefix[bounds], axis=-3)
    sums *= (1.0 / np.sqrt(np.diff(bounds, axis=-1)))[..., None, None]
    return np.moveaxis(sums, -3, -2).reshape(*bounds.shape[:-1], prefix.shape[1], -1)


def _pattern_chunks(n1: int, indices, size: int, chunk: int):
    """Segment boundaries of every ``size``-change pattern, in lexicographic
    order, as ``(patterns, size + 2)`` arrays of at most ``chunk`` patterns."""
    combos = itertools.combinations(indices, size)
    while True:
        flat = itertools.chain.from_iterable(itertools.islice(combos, chunk))
        patterns = np.fromiter(flat, dtype=np.intp).reshape(-1, size)
        if not patterns.size:
            return
        yield np.pad(patterns, ((0, 0), (1, 1)), constant_values=((0, 0), (0, n1)))


def _walk(operator: MatrixOperator, k: int, stop: float) -> float:
    """The constant at ``k``, or the worst deviation so far once it reaches ``stop``."""
    n1 = operator.n1
    if n1 < 4:
        raise ValueError(f"need n1 >= 4 to pin the boundary differences, got {n1}")
    indices, sizes, _ = _patterns(n1, k, True)
    size = sizes[-1]
    prefix = _prefix_sums(operator.matrix, n1, operator.n2)
    rows, dim = prefix.shape[1], (size + 1) * operator.n2
    chunk = max(1, _CHUNK_ELEMENTS // (rows * dim))

    worst = 0.0
    # entries near the float range overflow the squares to inf, the answer
    with np.errstate(over="ignore"):
        for bounds in _pattern_chunks(n1, indices, size, chunk):
            sigma = np.linalg.svd(_restrict(prefix, bounds), compute_uv=False)
            smax = sigma[:, 0]
            smin = sigma[:, -1] if rows >= dim else 0.0
            worst = max(worst, float(np.max(np.maximum(smax * smax - 1.0,
                                                       1.0 - smin * smin))))
            if worst >= stop:
                break
    return worst


def rip_constant(operator: MatrixOperator, k: int) -> float:
    """Smallest constant for the restricted isometry at sparsity ``k``.

    The constant is the worst deviation ``max(sigma_max^2 - 1,
    1 - sigma_min^2)`` of the operator restricted to the subspace of each
    difference-support pattern of 1..k interior indices. Only the patterns
    with exactly ``min(k, #interior indices)`` changes are walked: every
    smaller pattern lies inside one of them, whose subspace contains its
    subspace, so there ``sigma_max`` is no smaller and ``sigma_min`` no
    larger. ValueError when all 1..k patterns number over ``_PATTERN_BUDGET``.

    The walk takes the patterns in chunks of one shape, each factored by one
    stacked SVD. A wide restriction has ``sigma_min = 0``.
    """
    return _walk(operator, _check_integer("k", k, 1), math.inf)


def rip_patterns_checked(operator: MatrixOperator, k: int) -> int:
    """How many patterns the constant at level ``k`` is a maximum over: every
    pattern of 1..k interior indices, the count checked against the budget."""
    return _patterns(operator.n1, _check_integer("k", k, 1), True, math.inf)[2]


def certify_uniqueness(operator: MatrixOperator, k: int) -> bool:
    """True when the isometry constant at level ``2k`` is below one.

    In that regime a solution with at most ``k`` difference changes (and
    pinned boundary differences) is the only one: two distinct solutions
    would differ by a matrix the operator annihilates, yet that difference
    has at most ``2k`` changes and the isometry bound keeps its image away
    from zero. The walk stops at the first chunk whose worst deviation reaches
    one. With ``n2 >= 2`` an identification operator stops there: it maps the
    null direction ``1 v^T`` with ``sum(v) = 0``, in every subspace, to zero.
    """
    return _walk(operator, 2 * _check_integer("k", k, 1), 1.0) < 1.0


def rip_report(operator: MatrixOperator, k: int) -> RipReport:
    """Bundle the constant at ``k`` (every pattern) with the verdict at ``2k`` (early exit)."""
    eps = rip_constant(operator, k)
    certified = certify_uniqueness(operator, k)
    return RipReport(
        k=_check_integer("k", k, 1), rip_epsilon=eps,
        patterns_checked=rip_patterns_checked(operator, k),
        certified_unique=certified,
    )


@dataclass(frozen=True)
class BruteForceSolution:
    """One exact solution found by pattern enumeration.

    ``X`` is the lifted matrix, ``a`` the autoregressive coefficients (empty
    for pure operator problems), ``change_count`` the number of nonzero
    difference rows actually present, ``pattern`` the support that produced
    it.
    """

    X: np.ndarray
    a: np.ndarray
    change_count: int
    pattern: tuple


@dataclass(frozen=True)
class BruteForceResult:
    solutions: tuple
    patterns_checked: int
    ambiguous_patterns: tuple

    @property
    def num_solutions(self) -> int:
        return len(self.solutions)


def _rank_one_member(levels):
    """The rank-one members of ``levels + 1 v^T`` with ``sum(v) = 0``.

    Adding ``1 v^T`` leaves the differences ``D_i = levels_i - levels_0``
    alone, so a rank-one member ``u b^T`` has ``b`` along every difference and
    ``u_0 = sum(levels_0) / sum(b)``. Returns the segment levels of that one
    candidate, an empty list when no member exists, or None when the members
    form a family (all differences zero, or ``sum(b) = 0`` with
    ``sum(levels_0) = 0``). Differences, level sums and ``sum(b)`` (``b`` of
    unit norm) within the change tolerance count as zero. The caller tests
    the candidate for rank one.
    """
    scale = 1.0 + float(np.max(np.abs(levels)))
    diffs = levels[1:] - levels[0]
    if not diffs.size or np.max(np.abs(diffs)) <= 1e-7 * scale:
        return None
    b = np.linalg.svd(diffs)[2][0]
    lead, total = float(np.sum(levels[0])), float(np.sum(b))
    if abs(total) <= 1e-7:
        return None if abs(lead) <= 1e-7 * scale else []
    return [levels + (lead / total * b - levels[0])]


def _actual_changes(X, tol):
    diffs = X[:-1] - X[1:]
    norms = np.sqrt(np.sum(diffs * diffs, axis=1))
    return [int(i) + 1 for i in np.nonzero(norms > tol)[0]]


def brute_force_solve(problem, k_max: int, rhs=None) -> BruteForceResult:
    """Every piecewise-row-constant solution of exact data with few changes.

    ``problem`` is either a :class:`ProblemSpec` (single sequence, exact
    data: ``epsilon = 0``; the autoregressive coefficients are solved
    jointly) or a :class:`MatrixOperator` together with exact data ``rhs``.

    For a spec, patterns range over all difference indices including the
    empty pattern (a constant input is admissible), and only rank-one
    solutions, the ones an ARX model can produce, are kept. For an operator
    the boundary differences are pinned and at least one change is
    required, matching the uniqueness analysis, and solutions of every rank
    are kept. Every pattern of up to ``k_max`` changes is walked; more than
    ``_PATTERN_BUDGET`` of them is a ValueError.

    Each pattern system is solved exactly. For a spec, the null space
    always holds the ``n_b - 1`` dimensional family ``1 v^T`` with
    ``sum(v) = 0`` (the operator cannot see it); when it holds nothing else,
    the family's rank-one member has a closed form: its row direction ``b``
    is that of the segment-level differences, which the family leaves
    alone, and ``sum(v) = 0`` fixes its scale. Patterns whose null space is
    wider, or whose rank-one members form a family of their own (no level
    differences, or ``sum(b) = 0`` with a zero-sum first level), are
    reported in ``ambiguous_patterns`` instead of enumerated.

    Returns every distinct solution with the minimal change count found.
    """
    k_max = _check_integer("k_max", k_max, 0)
    if isinstance(problem, ProblemSpec):
        if len(problem.sequences) != 1:
            raise ValueError("brute force handles single-sequence instances")
        if problem.epsilon != 0.0:
            raise ValueError("brute force needs exact data (epsilon = 0)")
        if rhs is not None:
            raise ValueError("rhs is given only with a MatrixOperator; a spec has its data")
        op = build_lifted_operator(problem)
        n1 = len(problem.sequences[0])
        n2 = problem.orders.n_b
        a_cols = op.matrix[:, n1 * n2 :]
        x_matrix = op.matrix[:, : n1 * n2]
        rhs_vec = op.rhs
    elif isinstance(problem, MatrixOperator):
        if rhs is None:
            raise ValueError("rhs is required with a MatrixOperator")
        n1, n2 = problem.n1, problem.n2
        x_matrix = problem.matrix
        a_cols = np.zeros((x_matrix.shape[0], 0))
        rhs_vec = np.asarray(rhs, dtype=float)
        if rhs_vec.shape != (x_matrix.shape[0],):
            raise ValueError(f"rhs must have length {x_matrix.shape[0]}, "
                             f"got shape {rhs_vec.shape}")
        if not np.isfinite(rhs_vec).all():
            raise ValueError("rhs has non-finite entries")
    else:
        raise TypeError(f"unsupported problem type {type(problem)!r}")
    rank_one = isinstance(problem, ProblemSpec)
    indices, sizes, total = _patterns(n1, k_max, not rank_one)

    scale = 1.0 + float(np.max(np.abs(rhs_vec)))
    tol = 1e-9 * scale
    n_a = a_cols.shape[1]
    prefix = _prefix_sums(x_matrix, n1, n2)

    found = []
    ambiguous = []
    for size in sizes:
        for pattern in itertools.combinations(indices, size):
            bounds = np.array([0, *pattern, n1])
            lengths = np.diff(bounds)
            A = np.hstack([_restrict(prefix, bounds), a_cols])
            d_x = lengths.size * n2

            coef0, _, rank, _ = np.linalg.lstsq(A, rhs_vec, rcond=None)
            q = A.shape[1] - rank
            if np.max(np.abs(A @ coef0 - rhs_vec)) > tol:
                continue
            a = coef0[d_x:]
            levels = coef0[:d_x].reshape(-1, n2) * (1.0 / np.sqrt(lengths))[:, None]
            if q == 0:
                candidates = [levels]
            elif rank_one and q == n2 - 1:
                # the null space is the family 1 v^T with sum(v) = 0: it lies
                # in every pattern's subspace, and every constraint row maps
                # it to sum(v) = 0
                candidates = _rank_one_member(levels)
            else:
                candidates = None
            if candidates is None:
                ambiguous.append(tuple(pattern))
                continue

            for levels in candidates:
                X = np.repeat(levels, lengths, axis=0)
                sigma = np.linalg.svd(X, compute_uv=False)
                if rank_one and sigma.size > 1 and sigma[1] > 1e-6 * max(sigma[0], 1.0):
                    continue
                x_scale = 1.0 + float(np.max(np.abs(X)))
                changes = _actual_changes(X, 1e-7 * x_scale)
                duplicate = any(
                    np.max(np.abs(X - s.X)) <= 1e-6 * x_scale
                    and (n_a == 0 or np.max(np.abs(a - s.a)) <= 1e-6)
                    for s in found
                )
                if not duplicate:
                    found.append(BruteForceSolution(
                        X=X, a=a, change_count=len(changes),
                        pattern=tuple(pattern),
                    ))

    if found:
        least = min(s.change_count for s in found)
        found = [s for s in found if s.change_count == least]
    return BruteForceResult(
        solutions=tuple(found),
        patterns_checked=total,
        ambiguous_patterns=tuple(ambiguous),
    )
