"""Machine-speed probes that put timings on a shared machine on one scale.

On the shared 2-vCPU x86_64 virtual machine where this benchmark was
defined, the speed of one vCPU swings by up to 2x within a minute: the same
400-iteration solve took 0.15 s in one 5-second window and 0.31 s in
another. A probe of fixed work that uses nothing from the program, timed
right before each operation, follows that swing. Dividing by it cut the
window-to-window spread of the solve from 0.40 to 0.07 of the median, and
that of dense BLAS work from 0.14 to 0.04. Interpreter-bound and BLAS-bound
code follow different probes, so there are two; each workload names the one
that matches where its time goes.

A normalised time is the measured time times ``REFERENCE_S / probe``: the
time the operation would have taken with the probe at its typical speed on
that machine (Python 3.11, numpy 2.4, OpenBLAS on one thread).
"""

from __future__ import annotations

import statistics
import time

import numpy as np
# Bound here, before a traced run wraps ``scipy.linalg``, so probes add no spans.
from scipy.linalg import cho_factor, cho_solve

REPEATS = 5
REFERENCE_S = {"interp": 8.0e-3, "blas": 12.5e-3}


class Probe:
    """Median time of ``REPEATS`` runs of one fixed piece of work."""

    def __init__(self, kind: str):
        self.kind = kind
        self.reference_s = REFERENCE_S[kind]
        rng = np.random.default_rng(0)
        self._small = np.linspace(0.0, 1.0, 90).reshape(30, 3)
        if kind == "blas":
            self._square = rng.standard_normal((256, 256))
            spd = rng.standard_normal((1500, 1500))
            self._factor = cho_factor(spd @ spd.T + 1500.0 * np.eye(1500))
            self._rhs = np.ones(1500)
        self._work = self._blas if kind == "blas" else self._interp

    def _interp(self) -> None:
        """Small-array numpy calls and interpreter arithmetic, as in one ADMM step."""
        x, acc = self._small, 0.0
        for _ in range(1000):
            y = x * 1.0001 + 0.5
            g = y.T @ y
            acc += float(np.sqrt(np.sum(g * g)))
            for j in range(20):
                acc += j * 1e-3

    def _blas(self) -> None:
        """Compute-bound matrix products and a bandwidth-bound triangular solve."""
        for _ in range(4):
            self._square @ self._square
        for _ in range(4):
            cho_solve(self._factor, self._rhs)

    def __call__(self) -> float:
        times = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            self._work()
            times.append(time.perf_counter() - start)
        return statistics.median(times)
