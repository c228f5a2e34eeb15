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

from .problem import ArxOrders, ProblemSpec, build_problem

_MASK64 = (1 << 64) - 1


def _splitmix64(seed: int) -> int:
    z = (seed + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _uniform_units(seed: int, size: int) -> list:
    """The first ``size`` doubles in ``[0, 1)`` of the xorshift64* stream of
    ``seed``; a seed that splitmix64 maps to 0, a fixed point of xorshift,
    starts from the golden-ratio constant instead."""
    x = _splitmix64(int(seed) & _MASK64) or 0x9E3779B97F4A7C15
    units = []
    for _ in range(size):
        x ^= x >> 12
        x = (x ^ (x << 25)) & _MASK64
        x ^= x >> 27
        units.append((((x * 0x2545F4914F6CDD1D) & _MASK64) >> 11) * (1.0 / (1 << 53)))
    return units


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
    return np.repeat(levels, np.diff([0, *change_points, N]))


def simulate_arx(a, b, orders: ArxOrders, u) -> np.ndarray:
    """Noise-free ARX response to input ``u``.

    Outputs recurse from ``t = n`` on; the earlier samples are presample
    values, all zero.
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
    poles = arx_poles(a)
    if poles.size and np.max(np.abs(poles)) >= 1.0:
        warnings.warn("autoregressive polynomial has a pole with |pole| >= 1; "
                      "simulated output may grow without bound", stacklevel=2)
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
    return z + (-bound + 2 * bound * np.array(_uniform_units(seed, z.shape[0])))


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


# Planted inputs as (N, change points, levels), one per sequence. The single
# sequence's levels are far apart against the noise bound of 2 used downstream.
# The two near-zero-mean inputs keep the identification sharp, as working on
# mean-subtracted measurements (usual for logged power data) does.
_SINGLE_INPUT = ((30, (8, 15, 23), (0.0, 10.0, 4.0, 12.0)),)
_TWO_INPUTS = ((40, (12, 26), (-3.0, 5.0, -2.0)),
               (35, (9, 18, 27), (4.0, -2.0, 3.0, -4.0)))

_FIR_B = (-7.4111, -5.0782, -3.2058)
_ARX_A = (0.2,)
_ARX_B = (-4.9594, 6.1774, 3.3930)

# Name -> (orders, a, b, planted inputs, noise bound, default seed).
_PRESETS = {
    "scenario_fir_noisefree": (ArxOrders(n_a=0, n_b=3, n_k=0), (), _FIR_B,
                               _SINGLE_INPUT, 0.0, 0),
    "scenario_arx_noisy": (ArxOrders(n_a=1, n_b=3, n_k=0), _ARX_A, _ARX_B,
                           _SINGLE_INPUT, 2.0, 5),
    "scenario_two_sequences": (ArxOrders(n_a=1, n_b=3, n_k=0), _ARX_A, _ARX_B,
                               _TWO_INPUTS, 0.5, 11),
}
SCENARIO_NAMES = tuple(_PRESETS)


def _build_scenario(name, orders, a, b, inputs, epsilon, seed):
    """Drive one shared ``(a, b)`` with each planted input; sequence ``j``
    (labelled ``y{j+1}``) gets uniform noise in ``[-epsilon, epsilon]`` from
    seed ``seed + j``, and the spec's noise bound is that same ``epsilon``."""
    u_blocks = tuple(gen_piecewise_input(*planted) for planted in inputs)
    z_blocks = tuple(simulate_arx(a, b, orders, u) for u in u_blocks)
    spec = build_problem([add_uniform_noise(z, epsilon, seed + j)
                          for j, z in enumerate(z_blocks)], orders, epsilon)
    truth = PlantedTruth(
        u_blocks=u_blocks, a=np.asarray(a, dtype=float), b=np.asarray(b, dtype=float),
        change_points=tuple(cps for _, cps, _ in inputs), z_blocks=z_blocks,
    )
    return Scenario(name=name, spec=spec, truth=truth)


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
    if name not in _PRESETS:
        raise ValueError(f"unknown scenario {name!r}; choose from {SCENARIO_NAMES}")
    *preset, default_seed = _PRESETS[name]
    return _build_scenario(name, *preset, default_seed if seed is None else seed)
