"""Seeded random problem instances shared by the solver tests, the
non-integer values every count, index and seed of the package rejects, and
the non-real values every real setting rejects."""

import re

import numpy as np

from bilarx import ArxOrders, build_problem, gen_piecewise_input, simulate_arx

# A bool of either kind, an integral and a fractional float, a numeric string.
NON_INTEGERS = (True, np.True_, 2.0, 2.5, "3")
NON_INTEGER_IDS = ("bool", "numpy_bool", "integral_float", "fraction", "str")


def non_integer_message(name, value):
    """The pattern of the one rejection message, ``<name> must be an
    integer[ >= <low>], got <repr>``, anchored at both ends."""
    return rf"^{re.escape(name)} must be an integer( >= -?\d+)?, got {re.escape(repr(value))}$"


# A bool of either kind, a numeric string, None.
NON_REALS = (True, np.True_, "1.5", None)
NON_REAL_IDS = ("bool", "numpy_bool", "str", "none")


def non_real_message(name, value):
    """The pattern of the one rejection message, ``<name> must be a [finite
    ]real number[ >= <low>], got <repr>``, anchored at both ends."""
    return (rf"^{re.escape(name)} must be a (finite )?real number( >= -?\d+)?, "
            rf"got {re.escape(repr(value))}$")


def random_tiny_instance(seed):
    """Criterion 3's random tiny instance for ``seed``: ``(spec, lam)``."""
    rng = np.random.default_rng(seed)
    N = int(rng.integers(10, 16))
    n_a = int(rng.integers(0, 2))
    n_b = int(rng.integers(1, 3))
    orders = ArxOrders(n_a=n_a, n_b=n_b, n_k=0)
    n_changes = int(rng.integers(1, 3))
    cps = sorted(rng.choice(np.arange(2, N - 1), size=n_changes,
                            replace=False).tolist())
    levels = []
    prev = None
    while len(levels) < n_changes + 1:
        lv = float(np.round(rng.uniform(-3, 3), 2))
        if prev is None or abs(lv - prev) > 0.3:
            levels.append(lv)
            prev = lv
    u = gen_piecewise_input(N, cps, levels)
    a = (float(rng.uniform(-0.5, 0.5)),) if n_a else ()
    b = rng.uniform(-2, 2, size=n_b)
    z = simulate_arx(a, b, orders, u)
    bound = float(rng.choice([0.0, 0.2]))
    y = z + rng.uniform(-bound, bound, size=N) if bound else z
    lam = float(rng.choice([1.0, 10.0, 50.0]))
    return build_problem([y], orders, bound), lam
