"""Domain types and the lifted linear operator for blind ARX identification.

An identification instance is a set of output sequences, the model orders,
and a noise bound. Lifting replaces the bilinear product ``u @ b.T`` with a
single matrix variable ``X`` per sequence, which turns the measurement
equations into linear constraints on ``(X, a)`` plus a box-bounded slack
``w``. This module owns the bookkeeping: validation, the structural
constraint operator (tap indices and lagged outputs, with a dense view), and
the index map between constraint rows/columns and model coordinates.

Public contracts use 1-based time and matrix indices; sequences are
addressed by their 0-based position in the problem's sequence list.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np


def _frozen_array(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class ArxOrders:
    """Model orders: ``n_a`` output lags, ``n_b`` input taps, ``n_k`` delay."""

    n_a: int
    n_b: int
    n_k: int = 0

    def __post_init__(self):
        if self.n_b < 1:
            raise ValueError(f"n_b must be >= 1, got {self.n_b}")
        if self.n_a < 0:
            raise ValueError(f"n_a must be >= 0, got {self.n_a}")
        if self.n_k < 0:
            raise ValueError(f"n_k must be >= 0, got {self.n_k}")

    @property
    def n(self) -> int:
        """First constrained time index: ``max(n_a, n_k + n_b) + 1``."""
        return max(self.n_a, self.n_k + self.n_b) + 1


@dataclass(frozen=True)
class OutputSeries:
    """One measured output sequence ``y(1..N)`` with a text label."""

    samples: np.ndarray
    label: str = "y"

    def __post_init__(self):
        samples = _frozen_array(self.samples)
        if samples.ndim != 1:
            raise ValueError(f"series {self.label!r}: samples must be 1-d")
        if not np.all(np.isfinite(samples)):
            raise ValueError(f"series {self.label!r}: samples must be finite")
        object.__setattr__(self, "samples", samples)

    def __len__(self) -> int:
        return self.samples.shape[0]


@dataclass(frozen=True)
class ProblemSpec:
    """A validated identification instance.

    Attributes
    ----------
    sequences : list of OutputSeries
    orders : ArxOrders
    epsilon : float
        Componentwise noise bound; 0 means exact interpolation.
    """

    sequences: tuple
    orders: ArxOrders
    epsilon: float

    @property
    def n(self) -> int:
        return self.orders.n

    @property
    def lengths(self) -> tuple:
        return tuple(len(s) for s in self.sequences)

    @property
    def n_constraints(self) -> int:
        return sum(length - self.n + 1 for length in self.lengths)


def build_problem(sequences, orders: ArxOrders, epsilon: float) -> ProblemSpec:
    """Validate and assemble a :class:`ProblemSpec`.

    ``sequences`` may be raw 1-d arrays or :class:`OutputSeries`; raw arrays
    get labels ``y1, y2, ...``.
    """
    if not epsilon >= 0:
        raise ValueError(f"epsilon must be non-negative, got {epsilon}")
    seqs = []
    for j, seq in enumerate(sequences):
        if not isinstance(seq, OutputSeries):
            seq = OutputSeries(samples=np.asarray(seq, dtype=float), label=f"y{j + 1}")
        seqs.append(seq)
    if not seqs:
        raise ValueError("at least one output sequence is required")
    n = orders.n
    for seq in seqs:
        if len(seq) < n:
            raise ValueError(
                f"series {seq.label!r} has {len(seq)} samples but the orders "
                f"require at least n = {n}"
            )
    return ProblemSpec(sequences=tuple(seqs), orders=orders, epsilon=float(epsilon))


@dataclass(frozen=True)
class LiftedVariables:
    """Decision variables of the lifted program.

    ``X_blocks[j]`` is the ``N_j x n_b`` lifted matrix of sequence ``j``,
    ``a`` the autoregressive coefficients, and ``w_blocks[j]`` the slack for
    the constrained rows ``t = n..N_j``.
    """

    X_blocks: tuple
    a: np.ndarray
    w_blocks: tuple

    def __post_init__(self):
        object.__setattr__(
            self, "X_blocks", tuple(_frozen_array(x) for x in self.X_blocks)
        )
        object.__setattr__(self, "a", _frozen_array(self.a))
        object.__setattr__(
            self, "w_blocks", tuple(_frozen_array(w) for w in self.w_blocks)
        )

    @property
    def X_stacked(self) -> np.ndarray:
        return np.vstack(self.X_blocks)


def check_dimensions(spec: ProblemSpec, vars: LiftedVariables) -> None:
    """Raise if ``vars`` does not match ``spec`` shape-for-shape."""
    n_b = spec.orders.n_b
    if len(vars.X_blocks) != len(spec.sequences):
        raise ValueError(
            f"expected {len(spec.sequences)} X blocks, got {len(vars.X_blocks)}"
        )
    if len(vars.w_blocks) != len(spec.sequences):
        raise ValueError(
            f"expected {len(spec.sequences)} w blocks, got {len(vars.w_blocks)}"
        )
    if vars.a.shape != (spec.orders.n_a,):
        raise ValueError(f"a must have length {spec.orders.n_a}, got {vars.a.shape}")
    for j, (x, w, seq) in enumerate(zip(vars.X_blocks, vars.w_blocks, spec.sequences)):
        if x.shape != (len(seq), n_b):
            raise ValueError(
                f"X block {j} must be {len(seq)} x {n_b}, got {x.shape}"
            )
        if w.shape != (len(seq) - spec.n + 1,):
            raise ValueError(
                f"w block {j} must have length {len(seq) - spec.n + 1}, got {w.shape}"
            )


def lifted_from_input(spec, u_blocks, b, a, w_blocks=None) -> LiftedVariables:
    """Build planted variables ``X_j = outer(u_j, b)`` from model factors."""
    xs = [np.outer(np.asarray(u, dtype=float), np.asarray(b, dtype=float))
          for u in u_blocks]
    if w_blocks is None:
        w_blocks = [np.zeros(len(s) - spec.n + 1) for s in spec.sequences]
    out = LiftedVariables(X_blocks=tuple(xs), a=np.asarray(a, dtype=float),
                          w_blocks=tuple(w_blocks))
    check_dimensions(spec, out)
    return out


@dataclass(frozen=True)
class OperatorIndexMap:
    """Bidirectional bookkeeping between matrix coordinates and model ones.

    Rows are constraint equations, one per ``(sequence, t)`` with
    ``t = n..N_j``. Columns are the unknowns: every entry of every ``X``
    block (row-major within a block, blocks in sequence order) followed by
    the ``a`` coefficients. ``t``, X indices ``(i, k)`` and ``a`` index
    ``k2`` are 1-based; the sequence index is the 0-based list position.
    """

    n: int
    n_b: int
    n_a: int
    n_k: int
    lengths: tuple
    constraint_rows: tuple = field(init=False)
    _x_offsets: tuple = field(init=False)

    def __post_init__(self):
        rows = []
        for j, length in enumerate(self.lengths):
            rows.extend((j, t) for t in range(self.n, length + 1))
        offsets, total = [], 0
        for length in self.lengths:
            offsets.append(total)
            total += length * self.n_b
        object.__setattr__(self, "constraint_rows", tuple(rows))
        object.__setattr__(self, "_x_offsets", tuple(offsets))

    @property
    def n_rows(self) -> int:
        return len(self.constraint_rows)

    @property
    def n_x_columns(self) -> int:
        return sum(self.lengths) * self.n_b

    @property
    def n_columns(self) -> int:
        return self.n_x_columns + self.n_a

    def row_of(self, seq: int, t: int) -> int:
        length = self.lengths[seq]
        if not self.n <= t <= length:
            raise KeyError(f"t={t} outside constrained range [{self.n}, {length}]")
        base = sum(length_j - self.n + 1 for length_j in self.lengths[:seq])
        return base + (t - self.n)

    def x_column(self, seq: int, i: int, k: int) -> int:
        if not 1 <= i <= self.lengths[seq]:
            raise KeyError(f"X row {i} outside [1, {self.lengths[seq]}]")
        if not 1 <= k <= self.n_b:
            raise KeyError(f"X column {k} outside [1, {self.n_b}]")
        return self._x_offsets[seq] + (i - 1) * self.n_b + (k - 1)

    def a_column(self, k2: int) -> int:
        if not 1 <= k2 <= self.n_a:
            raise KeyError(f"a index {k2} outside [1, {self.n_a}]")
        return self.n_x_columns + (k2 - 1)

    def column_meaning(self, col: int):
        """Inverse map: ``('x', seq, i, k)`` or ``('a', k2)``."""
        if col < 0 or col >= self.n_columns:
            raise KeyError(f"column {col} out of range")
        if col >= self.n_x_columns:
            return ("a", col - self.n_x_columns + 1)
        for seq in reversed(range(len(self.lengths))):
            if col >= self._x_offsets[seq]:
                local = col - self._x_offsets[seq]
                return ("x", seq, local // self.n_b + 1, local % self.n_b + 1)
        raise KeyError(f"column {col} not mapped")


@dataclass(frozen=True)
class LiftedOperator:
    """The equality constraints ``A(X, a) + w = y`` in structural form.

    Row ``r`` of ``A`` holds a one in each packed-vector column
    ``x_index[r]``, one per tap ``k1`` (X entry ``(t - n_k - k1, k1)`` of its
    sequence), and the lagged outputs ``lagged[r] = y_j(t-1), ..., y_j(t-n_a)``
    in the ``a`` columns; ``rhs`` holds the targets ``y_j(t)``. No other
    entry is nonzero, and each X entry enters at most one row. ``matrix`` is
    a read-only dense view, built on first access.
    """

    x_index: np.ndarray
    lagged: np.ndarray
    rhs: np.ndarray
    index_map: OperatorIndexMap

    @cached_property
    def matrix(self) -> np.ndarray:
        """Dense ``n_rows x n_columns`` form of ``A``; read-only."""
        imap = self.index_map
        dense = np.zeros((imap.n_rows, imap.n_columns))
        dense[np.arange(imap.n_rows)[:, None], self.x_index] = 1.0
        dense[:, imap.n_x_columns:] = self.lagged
        dense.setflags(write=False)
        return dense

    def pack(self, vars: LiftedVariables) -> np.ndarray:
        parts = [x.ravel() for x in vars.X_blocks]
        parts.append(vars.a)
        return np.concatenate(parts) if parts else np.zeros(0)

    def unpack(self, vector: np.ndarray):
        """Split a packed vector into (X_blocks list, a)."""
        imap = self.index_map
        blocks, pos = [], 0
        for length in imap.lengths:
            size = length * imap.n_b
            blocks.append(vector[pos:pos + size].reshape(length, imap.n_b))
            pos += size
        return blocks, vector[pos:pos + imap.n_a]

    def matvec(self, vector: np.ndarray) -> np.ndarray:
        """``A @ vector`` for a packed vector (X entries, then a)."""
        n_x = self.index_map.n_x_columns
        return vector[self.x_index].sum(axis=1) + self.lagged @ vector[n_x:]

    def rmatvec(self, z: np.ndarray) -> np.ndarray:
        """``A.T @ z`` as a packed vector."""
        z = np.asarray(z, dtype=float)
        imap = self.index_map
        x_part = np.bincount(self.x_index.ravel(), weights=np.repeat(z, imap.n_b),
                             minlength=imap.n_x_columns)
        return np.concatenate([x_part, self.lagged.T @ z])

    def apply(self, vars: LiftedVariables) -> np.ndarray:
        return self.matvec(self.pack(vars))

    def adjoint(self, z: np.ndarray):
        """Apply the transpose map; returns (X_blocks list, a)."""
        return self.unpack(self.rmatvec(z))

    def iter_entries(self):
        """Yield every structural nonzero as ``(row, col, value)``.

        Each entry appears exactly once; the ``a`` coefficients equal lagged
        output samples and may be numerically zero for special data.
        """
        n_x = self.index_map.n_x_columns
        for row, (cols, lags) in enumerate(zip(self.x_index, self.lagged)):
            for col in cols:
                yield row, int(col), 1.0
            for k2, value in enumerate(lags):
                yield row, n_x + k2, value


def build_lifted_operator(spec: ProblemSpec) -> LiftedOperator:
    """Assemble the tap indices, lagged outputs, rhs and index map."""
    orders = spec.orders
    imap = OperatorIndexMap(
        n=spec.n, n_b=orders.n_b, n_a=orders.n_a, n_k=orders.n_k,
        lengths=spec.lengths,
    )
    taps = np.arange(1, orders.n_b + 1)
    lags = np.arange(1, orders.n_a + 1)
    x_index, lagged, rhs = [], [], []
    for j, seq in enumerate(spec.sequences):
        y = seq.samples
        t = np.arange(spec.n, len(seq) + 1)[:, None]
        x_index.append(imap.x_column(j, 1, 1)
                       + (t - orders.n_k - taps - 1) * orders.n_b + (taps - 1))
        lagged.append(y[t - lags - 1])
        rhs.append(y[t[:, 0] - 1])
    return LiftedOperator(
        x_index=_frozen_array(np.vstack(x_index), dtype=np.intp),
        lagged=_frozen_array(np.vstack(lagged)),
        rhs=_frozen_array(np.concatenate(rhs)),
        index_map=imap,
    )


def residual(spec: ProblemSpec, vars: LiftedVariables):
    """Per-constraint residuals ``y_j(t) - sum(X terms) - sum(a terms)``.

    Returns one array per sequence, covering ``t = n..N_j``. The residual is
    exactly what the slack ``w`` must absorb: the variables are feasible at
    noise bound ``eps`` iff every ``|r_j(t)| <= eps``.
    """
    check_dimensions(spec, vars)
    op = build_lifted_operator(spec)
    rows = np.cumsum([length - spec.n + 1 for length in spec.lengths])
    return np.split(op.rhs - op.apply(vars), rows[:-1])


def max_residual(spec: ProblemSpec, vars: LiftedVariables) -> float:
    """Largest absolute residual over all sequences and constrained rows."""
    return max(float(np.max(np.abs(r))) for r in residual(spec, vars))
