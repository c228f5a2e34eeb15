"""Synthetic scenario generation: piecewise inputs, ARX simulation, noise.

Noise comes from a fixed xorshift64* generator (seeded through one
splitmix64 step) so that every run and every platform produces bit-identical
sequences. Each 64-bit output maps to a uniform double in ``[0, 1)`` by
taking the top 53 bits.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .problem import ArxOrders, OutputSeries, ProblemSpec, build_problem

_MASK64 = (1 << 64) - 1


def _splitmix64(seed: int) -> int:
    z = (seed + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class UniformNoise:
    """xorshift64* stream of uniform doubles; deterministic per seed."""

    def __init__(self, seed: int):
        self._state = _splitmix64(int(seed) & _MASK64)
        if self._state == 0:
            self._state = 0x9E3779B97F4A7C15

    def next_u64(self) -> int:
        x = self._state
        x ^= (x >> 12)
        x = (x ^ (x << 25)) & _MASK64
        x ^= (x >> 27)
        self._state = x
        return (x * 0x2545F4914F6CDD1D) & _MASK64

    def next_unit(self) -> float:
        return (self.next_u64() >> 11) * (1.0 / (1 << 53))

    def uniform(self, low: float, high: float, size: int) -> np.ndarray:
        return np.array([low + (high - low) * self.next_unit() for _ in range(size)])


def gen_piecewise_input(N: int, change_points, levels) -> np.ndarray:
    """Piecewise-constant signal of length ``N``.

    ``change_points`` are ascending 1-based indices ``i`` with
    ``u(i) != u(i+1)``; ``levels`` holds one value per segment. Adjacent
    segments must have different levels so that the difference support is
    exactly the change-point set.
    """
    change_points = [int(i) for i in change_points]
    levels = [float(v) for v in levels]
    if len(levels) != len(change_points) + 1:
        raise ValueError(
            f"need {len(change_points) + 1} levels for {len(change_points)} "
            f"change points, got {len(levels)}"
        )
    if any(i < 1 or i > N - 1 for i in change_points):
        raise ValueError(f"change points must lie in [1, {N - 1}]")
    if any(b <= a for a, b in zip(change_points, change_points[1:])):
        raise ValueError("change points must be strictly ascending")
    for a, b in zip(levels, levels[1:]):
        if a == b:
            raise ValueError("adjacent segment levels must differ")
    u = np.empty(N)
    bounds = [0] + change_points + [N]
    for level, (lo, hi) in zip(levels, zip(bounds, bounds[1:])):
        u[lo:hi] = level
    return u


def simulate_arx(a, b, orders: ArxOrders, u, y_init=None) -> np.ndarray:
    """Noise-free ARX response to input ``u``.

    Outputs recurse from ``t = n`` on; earlier samples are presample values:
    the last ``n_a`` of them come from ``y_init`` (zeros by default) and any
    rows before those are zero.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    u = np.asarray(u, dtype=float)
    if a.shape != (orders.n_a,):
        raise ValueError(f"a must have length {orders.n_a}, got {a.shape}")
    if b.shape != (orders.n_b,):
        raise ValueError(f"b must have length {orders.n_b}, got {b.shape}")
    n = orders.n
    N = u.shape[0]
    if N < n:
        raise ValueError(f"input length {N} shorter than first simulated index {n}")
    z = np.zeros(N)
    if y_init is None:
        y_init = np.zeros(orders.n_a)
    y_init = np.asarray(y_init, dtype=float)
    if y_init.shape != (orders.n_a,):
        raise ValueError(f"y_init must have length {orders.n_a}, got {y_init.shape}")
    poles = arx_poles(a)
    if poles.size and np.max(np.abs(poles)) >= 1.0:
        warnings.warn("autoregressive polynomial has a pole with |pole| >= 1; "
                      "simulated output may grow without bound", stacklevel=2)
    if orders.n_a:
        z[n - 1 - orders.n_a : n - 1] = y_init
    for t in range(n, N + 1):
        acc = 0.0
        for k2 in range(1, orders.n_a + 1):
            acc += a[k2 - 1] * z[t - k2 - 1]
        for k1 in range(1, orders.n_b + 1):
            acc += b[k1 - 1] * u[t - orders.n_k - k1 - 1]
        z[t - 1] = acc
    return z


def arx_poles(a) -> np.ndarray:
    """Roots of ``1 - a_1 q^-1 - ... - a_na q^-na``; |pole| >= 1 is unstable."""
    a = np.asarray(a, dtype=float)
    if a.size == 0:
        return np.zeros(0)
    return np.roots(np.concatenate(([1.0], -a)))


def add_uniform_noise(z, bound: float, seed: int) -> np.ndarray:
    """Add ``e(t) ~ U(-bound, bound)`` from the portable generator."""
    if not bound >= 0:
        raise ValueError(f"noise bound must be non-negative, got {bound}")
    z = np.asarray(z, dtype=float)
    if bound == 0:
        return z.copy()
    rng = UniformNoise(seed)
    return z + rng.uniform(-bound, bound, z.shape[0])


@dataclass(frozen=True)
class PlantedTruth:
    """Ground truth behind a scenario, for oracle-style comparisons."""

    u_blocks: tuple
    a: np.ndarray
    b: np.ndarray
    change_points: tuple
    z_blocks: tuple


@dataclass(frozen=True)
class Scenario:
    name: str
    spec: ProblemSpec
    truth: PlantedTruth
    noise_bound: float
    seed: int


SCENARIO_NAMES = (
    "scenario_fir_noisefree",
    "scenario_arx_noisy",
    "scenario_two_sequences",
)

# Shared planted input for the single-sequence scenarios. The separation
# between levels is large against the noise bound of 2 used downstream.
_INPUT_N = 30
_INPUT_CHANGES = (8, 15, 23)
_INPUT_LEVELS = (0.0, 10.0, 4.0, 12.0)

_FIR_B = (-7.4111, -5.0782, -3.2058)
_ARX_A = (0.2,)
_ARX_B = (-4.9594, 6.1774, 3.3930)


def _single_sequence_scenario(name, orders, a, b, noise_bound, epsilon, seed):
    u = gen_piecewise_input(_INPUT_N, _INPUT_CHANGES, _INPUT_LEVELS)
    z = simulate_arx(a, b, orders, u)
    y = add_uniform_noise(z, noise_bound, seed)
    spec = build_problem([OutputSeries(y, label="y1")], orders, epsilon)
    truth = PlantedTruth(
        u_blocks=(u,), a=np.asarray(a, dtype=float), b=np.asarray(b, dtype=float),
        change_points=(_INPUT_CHANGES,), z_blocks=(z,),
    )
    return Scenario(name=name, spec=spec, truth=truth,
                    noise_bound=noise_bound, seed=seed)


def scenario(name: str, seed: int | None = None) -> Scenario:
    """Named preset instances used by the demos and the test suite.

    ``scenario_fir_noisefree``
        30-sample FIR instance (n_a=0, n_b=3), exact data, epsilon 0.
    ``scenario_arx_noisy``
        Same input through a first-order ARX system, uniform noise in
        [-2, 2], epsilon 2.
    ``scenario_two_sequences``
        Two sequences driven by different inputs through one shared (a, b),
        lightly noisy.
    """
    if name == "scenario_fir_noisefree":
        return _single_sequence_scenario(
            name, ArxOrders(n_a=0, n_b=3, n_k=0), (), _FIR_B,
            noise_bound=0.0, epsilon=0.0, seed=0 if seed is None else seed,
        )
    if name == "scenario_arx_noisy":
        return _single_sequence_scenario(
            name, ArxOrders(n_a=1, n_b=3, n_k=0), _ARX_A, _ARX_B,
            noise_bound=2.0, epsilon=2.0, seed=5 if seed is None else seed,
        )
    if name == "scenario_two_sequences":
        orders = ArxOrders(n_a=1, n_b=3, n_k=0)
        seed = 11 if seed is None else seed
        # Near-zero-mean inputs keep the identification sharp: this mimics
        # working on mean-subtracted measurements, the usual preprocessing
        # for logged power data.
        u1 = gen_piecewise_input(40, (12, 26), (-3.0, 5.0, -2.0))
        u2 = gen_piecewise_input(35, (9, 18, 27), (4.0, -2.0, 3.0, -4.0))
        z1 = simulate_arx(_ARX_A, _ARX_B, orders, u1)
        z2 = simulate_arx(_ARX_A, _ARX_B, orders, u2)
        bound = 0.5
        y1 = add_uniform_noise(z1, bound, seed)
        y2 = add_uniform_noise(z2, bound, seed + 1)
        spec = build_problem(
            [OutputSeries(y1, label="y1"), OutputSeries(y2, label="y2")],
            orders, epsilon=bound,
        )
        truth = PlantedTruth(
            u_blocks=(u1, u2), a=np.asarray(_ARX_A, dtype=float),
            b=np.asarray(_ARX_B, dtype=float),
            change_points=((12, 26), (9, 18, 27)), z_blocks=(z1, z2),
        )
        return Scenario(name=name, spec=spec, truth=truth,
                        noise_bound=bound, seed=seed)
    raise ValueError(f"unknown scenario {name!r}; choose from {SCENARIO_NAMES}")
