"""Domain types and the lifted linear operator for blind ARX identification.

An identification instance is a set of output sequences, the model orders,
and a noise bound. Lifting replaces the bilinear product ``u @ b.T`` with a
single matrix variable ``X`` per sequence, which turns the measurement
equations into linear constraints on ``(X, a)`` plus a box-bounded slack
``w``. This module owns the bookkeeping: validation, the container of the
lifted variables, and the structural constraint operator (tap indices and
lagged outputs, with a dense view), whose docstring gives the row and column
layout. It applies nothing itself: the solver assembles the one sparse
product of the constraints from these arrays, the baseline reads them, and
the isometry analysis reads the dense view.

Public contracts use 1-based time and matrix indices; sequences are
addressed by their 0-based position in the problem's sequence list.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np


def _frozen_array(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


def _check_integer(name: str, value, low=None) -> int:
    """``value`` as an ``int`` if it is a ``numbers.Integral`` (so numpy
    integers too) other than a bool, and at least ``low`` when given; else
    ValueError naming ``name``. Every count, index and seed goes through here;
    a plain ``int`` skips the ABC test, which costs some 0.5 us a call."""
    if ((type(value) is int or isinstance(value, numbers.Integral)
         and not isinstance(value, bool)) and (low is None or value >= low)):
        return int(value)
    bound = "" if low is None else f" >= {low}"
    raise ValueError(f"{name} must be an integer{bound}, got {value!r}")


def _check_real(name: str, value, low=None, finite=False) -> float:
    """``value`` as a ``float`` if it is a ``numbers.Real`` (numpy's too) other
    than a bool of either kind, not NaN, ``>= low`` when given and finite when
    ``finite``; else ValueError naming ``name``. Every real setting from outside
    goes through here; the per-iteration prox kernels keep a cheaper sign test."""
    if isinstance(value, numbers.Real) and not isinstance(value, (bool, np.bool_)):
        try:
            real = float(value)
        except OverflowError:       # an integer beyond floating-point range
            real = np.inf if value > 0 else -np.inf
        if real == real and (low is None or real >= low) and not (finite and abs(real) == np.inf):
            return real
    kind = "a finite real number" if finite else "a real number"
    raise ValueError(f"{name} must be {kind}{'' if low is None else f' >= {low}'}, got {value!r}")


@dataclass(frozen=True)
class ArxOrders:
    """Model orders: ``n_a`` output lags, ``n_b`` input taps, ``n_k`` delay;
    integers (not booleans), with ``n_b >= 1`` and ``n_a, n_k >= 0``."""

    n_a: int
    n_b: int
    n_k: int = 0

    def __post_init__(self):
        for name, low in (("n_b", 1), ("n_a", 0), ("n_k", 0)):
            object.__setattr__(self, name, _check_integer(name, getattr(self, name), low))

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


def build_problem(sequences, orders: ArxOrders, epsilon: float) -> ProblemSpec:
    """Validate and assemble a :class:`ProblemSpec`.

    ``sequences`` may be raw 1-d arrays or :class:`OutputSeries`; raw arrays
    get labels ``y1, y2, ...``. ``epsilon`` must be non-negative and finite.
    """
    epsilon = _check_real("epsilon", epsilon, 0, finite=True)
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
    return ProblemSpec(sequences=tuple(seqs), orders=orders, epsilon=epsilon)


@dataclass(frozen=True)
class LiftedVariables:
    """Decision variables of the lifted program.

    ``X_blocks[j]`` is the ``N_j x n_b`` lifted matrix of sequence ``j`` and
    ``a`` the autoregressive coefficients.
    """

    X_blocks: tuple
    a: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "X_blocks", tuple(_frozen_array(x) for x in self.X_blocks)
        )
        object.__setattr__(self, "a", _frozen_array(self.a))


@dataclass(frozen=True)
class LiftedOperator:
    """The equality constraints ``A(X, a) + w = y`` in structural form.

    ``A`` acts on a packed vector: every entry of every ``X`` block
    (row-major within a block, blocks in sequence order; ``n_x`` entries in
    all) followed by the ``n_a`` coefficients ``a``. Row ``r`` is one
    constraint ``(j, t)``, sequences in order and ``t = n..N_j`` within each.
    It holds a one in each packed column ``x_index[r]``, one per tap ``k1``
    (X entry ``(t - n_k - k1, k1)`` of sequence ``j``, 1-based), and the
    lagged outputs ``lagged[r] = y_j(t-1), ..., y_j(t-n_a)`` in the ``a``
    columns; ``rhs[r]`` is the target ``y_j(t)``. No other entry is nonzero,
    and each X entry enters at most one row. ``n_b``, ``n_a`` and the row
    count are ``x_index.shape[1]``, ``lagged.shape[1]`` and ``rhs.shape[0]``.
    ``matrix`` is a read-only dense view, built on first access.
    """

    x_index: np.ndarray
    lagged: np.ndarray
    rhs: np.ndarray
    n_x: int

    @cached_property
    def matrix(self) -> np.ndarray:
        """Dense ``A``: one row per constraint, ``n_x + n_a`` columns; read-only."""
        n_rows, n_a = self.lagged.shape
        dense = np.zeros((n_rows, self.n_x + n_a))
        dense[np.arange(n_rows)[:, None], self.x_index] = 1.0
        dense[:, self.n_x:] = self.lagged
        dense.setflags(write=False)
        return dense


def build_lifted_operator(spec: ProblemSpec) -> LiftedOperator:
    """Assemble the tap indices, lagged outputs and rhs."""
    orders = spec.orders
    taps = np.arange(1, orders.n_b + 1)
    lags = np.arange(1, orders.n_a + 1)
    x_index, lagged, rhs = [], [], []
    offset = 0      # packed column of X entry (1, 1) of the current sequence
    for seq in spec.sequences:
        y = seq.samples
        t = np.arange(spec.n, len(seq) + 1)[:, None]
        x_index.append(offset + (t - orders.n_k - taps - 1) * orders.n_b + (taps - 1))
        lagged.append(y[t - lags - 1])
        rhs.append(y[t[:, 0] - 1])
        offset += len(seq) * orders.n_b
    return LiftedOperator(
        x_index=_frozen_array(np.vstack(x_index), dtype=np.intp),
        lagged=_frozen_array(np.vstack(lagged)),
        rhs=_frozen_array(np.concatenate(rhs)),
        n_x=offset,
    )
