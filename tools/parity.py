"""Print one sha256 over a fixed set of solver answers, and their iteration
total; then, on its own line, a sha256 over their behaviour alone.

    python3 tools/parity.py

It imports ``src/`` of the checkout it lies in, so running the same file in
two checkouts tells whether a change keeps those answers bit for bit. The hash
covers X, ``a``, the singular values, ``u``, ``b``, the objective, the rank
gap and the diagnostics of ``solve_bil`` and of its gamma = 0.5
``refine_pipeline`` on the three presets, seeds default and 12, lambda 1e2,
1e4 and 1e7, at caps 30 000 and 3 000; then of two 200-iteration solves at
lambda 1e4 of the N = 2000 series that perfbench's ``LongSeries`` builds for
seeds 1 and 2. BLAS runs on one thread, as in perfbench, since
the rounding of a threaded product depends on how many threads share it.
The second digest covers only each solve's ``iterations``, ``converged``,
``rho`` and ``rho_changes``: a change that moves roundoff alone changes the
first line and keeps the second.

    python3 tools/parity.py --save FILE
    python3 tools/parity.py --against FILE

``--save`` writes every solution's objective, stacked X and ``a`` to FILE
(numpy ``.npz``); ``--against`` reads such a file, made in another checkout,
and prints on a third line how far this checkout's answers lie from it: the
largest relative objective change, the largest ``max |X - X'|`` over
``max |X'|``, ``X'`` being the saved X, and the largest ``|a - a'|``.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

_ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(_ROOT / "src"), str(_ROOT / "perfbench")]
import bilarx  # noqa: E402
from workloads import LongSeries  # noqa: E402

parser = argparse.ArgumentParser(description="Digest a fixed set of solver answers.")
parser.add_argument("--save", metavar="FILE", help="write the answers to FILE (.npz)")
parser.add_argument("--against", metavar="FILE", help="compare with answers saved in FILE")
args = parser.parse_args()

solutions = []
for cap in (30_000, 3_000):
    options = bilarx.SolverOptions(max_iters=cap)
    for name in ("scenario_fir_noisefree", "scenario_arx_noisy", "scenario_two_sequences"):
        for seed in (None, 12):
            spec = bilarx.scenario(name, seed=seed).spec
            for lam in (1e2, 1e4, 1e7):
                sol = bilarx.solve_bil(spec, lam, options)
                solutions += [sol, bilarx.refine_pipeline(spec, sol, 0.5, options)]
for seed in (1, 2):
    solutions.append(bilarx.solve_bil(LongSeries(seed).setup()[0], 1e4,
                                      bilarx.SolverOptions(max_iters=200)))

digest, behaviour = hashlib.sha256(), hashlib.sha256()
for sol in solutions:
    for array in (np.vstack(sol.vars.X_blocks), sol.a_est, sol.singular_values,
                  *sol.u_est, np.zeros(0) if sol.b_est is None else sol.b_est):
        digest.update(np.ascontiguousarray(array, dtype=float).tobytes())
    digest.update(repr((sol.b_est is None, sol.objective, sol.rank_gap,
                        dataclasses.astuple(sol.diagnostics))).encode())
    diag = sol.diagnostics
    behaviour.update(repr((diag.iterations, diag.converged, diag.rho,
                           diag.rho_changes)).encode())
print(digest.hexdigest(), sum(sol.diagnostics.iterations for sol in solutions))
print(behaviour.hexdigest())

answers = {"objective": np.array([sol.objective for sol in solutions])}
for i, sol in enumerate(solutions):
    answers[f"X{i}"], answers[f"a{i}"] = np.vstack(sol.vars.X_blocks), sol.a_est
if args.save:
    with open(args.save, "wb") as f:
        np.savez(f, **answers)
if args.against:
    with np.load(args.against) as file:
        saved = dict(file)
    if saved.keys() != answers.keys():
        raise SystemExit(f"{args.against} holds other answers than this set of {len(solutions)}")
    objective = max(abs(b - a) / abs(a) if a else abs(b)
                    for a, b in zip(saved["objective"], answers["objective"]))
    lifted = max(np.max(np.abs(answers[f"X{i}"] - saved[f"X{i}"]))
                 / (np.max(np.abs(saved[f"X{i}"])) or 1.0) for i in range(len(solutions)))
    coef = max(np.max(np.abs(answers[f"a{i}"] - saved[f"a{i}"]), initial=0.0)
               for i in range(len(solutions)))
    print(f"against {args.against}: objective max rel change {objective:.3g}, "
          f"X max |dX|/max|X| {lifted:.3g}, a max |da| {coef:.3g}")
