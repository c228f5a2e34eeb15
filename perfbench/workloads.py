"""The three benchmark workloads: inputs from a seed, operations, output checks.

Every workload is a closed loop with one client: the next unit of work starts
when the previous one has ended. A unit is one instance (``arx_refine``), one
budgeted solve (``long_series``) or one pass of eight CLI calls
(``cli_shared``). Each unit returns one ``OpResult`` per operation. An
operation is ``fixed`` when the amount of work it does (sizes, iterations,
patterns) does not depend on the seed; ``fixed_work_s`` times those. Checks
run outside the timed region and use the benchmark's own arithmetic, never a
``bilarx`` function, so they add no spans to the traced run.
"""

from __future__ import annotations

import csv
import json
import math
import random
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import bilarx
import bilarx.cli

GAMMA = 0.5  # change-point threshold of criterion 6 and of `refine --gamma`


@dataclass
class OpResult:
    """Outcome of one operation; times cover only the call into the program."""

    kind: str
    fixed: bool = False       # work independent of the seed (see module doc)
    probe_s: float = 0.0      # machine-speed probe taken right before the op
    scale: float = 1.0        # reference over measured probe speed (run.py)
    unit: int = 0             # index of the unit in its loop (run.py)
    wall_s: float = 0.0
    # Set when the op is one solve whose iterations are all in ``iters``:
    # "penalised" (``solve_bil``) or "refine" (frozen-row re-solve).
    solve_kind: str | None = None
    iters: int = 0            # every iteration the result reports
    solves: int = 0
    converged: int = 0
    bytes_written: int = 0
    failures: list = field(default_factory=list)
    # Quality against the planted truth; an empty list was not measured.
    hamming: list = field(default_factory=list)   # one per final sequence
    b_cos: list = field(default_factory=list)
    a_err: list = field(default_factory=list)
    rank_gap: list = field(default_factory=list)
    feas_excess: list = field(default_factory=list)


# -- checks shared by the workloads ------------------------------------------

def _finite(*arrays) -> bool:
    return all(np.all(np.isfinite(np.asarray(a, dtype=float))) for a in arrays)


def check_b(b, out: OpResult, label: str) -> None:
    """Unit 2-norm, largest-magnitude entry positive."""
    b = np.asarray(b, dtype=float)
    if abs(float(np.linalg.norm(b)) - 1.0) > 1e-9:
        out.failures.append(f"{label}: b is not unit-norm")
    elif b[int(np.argmax(np.abs(b)))] <= 0:
        out.failures.append(f"{label}: b breaks the sign convention")


def change_set(u, gamma: float = GAMMA) -> set:
    u = np.asarray(u, dtype=float)
    return {int(i) + 1 for i in np.nonzero(np.abs(u[:-1] - u[1:]) > gamma)[0]}


def feas_excess(orders, eps: float, series, X_blocks, a) -> float:
    """``max(max|residual| - eps, 0) / max|y|`` of ``y = A(X, a) + w``."""
    n = orders.n
    worst, y_max = 0.0, 0.0
    for y, x in zip(series, X_blocks):
        y = np.asarray(y, dtype=float)
        x = np.asarray(x, dtype=float)
        t = np.arange(n, y.shape[0] + 1)          # 1-based constrained rows
        r = y[t - 1].copy()
        for k1 in range(1, orders.n_b + 1):
            r -= x[t - orders.n_k - k1 - 1, k1 - 1]
        for k2 in range(1, orders.n_a + 1):
            r -= a[k2 - 1] * y[t - k2 - 1]
        worst = max(worst, float(np.max(np.abs(r))))
        y_max = max(y_max, float(np.max(np.abs(y))))
    return max(worst - eps, 0.0) / (y_max or 1.0)


def b_cosine(b_est, b_true) -> float:
    b_true = np.asarray(b_true, dtype=float)
    return abs(float(np.dot(b_est, b_true / np.linalg.norm(b_true))))


def check_solution(sol, out: OpResult, label: str) -> bool:
    """Checks one ``BilSolution``; True when it can be scored."""
    if sol.b_est is None:
        out.failures.append(f"{label}: no coefficient estimate")
        return False
    if not _finite(sol.a_est, sol.b_est, sol.singular_values, *sol.u_est):
        out.failures.append(f"{label}: non-finite estimate")
        return False
    check_b(sol.b_est, out, label)
    return True


def score_solution(sol, spec, out: OpResult) -> None:
    out.solves += 1
    out.converged += int(sol.diagnostics.converged)
    out.iters += sol.diagnostics.iterations
    out.rank_gap.append(float(sol.rank_gap))
    out.feas_excess.append(feas_excess(
        spec.orders, spec.epsilon, [s.samples for s in spec.sequences],
        sol.vars.X_blocks, sol.vars.a))


def score_truth(u_blocks, b, a, truth, out: OpResult, hamming=True) -> None:
    out.b_cos.append(b_cosine(b, truth.b))
    out.a_err.append(float(np.max(np.abs(np.asarray(a) - truth.a), initial=0.0)))
    if hamming:
        for u, cps in zip(u_blocks, truth.change_points):
            out.hamming.append(len(change_set(u) ^ set(cps)))


# -- arx_refine ----------------------------------------------------------------

class ArxRefine:
    """Noise instances of ``scenario_arx_noisy``: solve, refine, naive baseline.

    The criterion-6 path at its settings: ``solve_bil`` at lambda 1e7,
    ``refine_pipeline`` at gamma 0.5, ``naive_identify`` with 4 segments, all
    solves capped at 6000 iterations. One unit is one instance, three
    operations. Three units in four run the reference instance, whose work
    is fixed; the fourth takes the next seeded noise instance. The reference
    is noise seed 12, on which both solves converge (890 and 876 iterations,
    about 1 s), so its time is a time to an identified model; the documented
    seed 5 stops refine at the cap.
    """

    name = "arx_refine"
    trace_units = 4
    min_units = 1
    probe_kind = "interp"
    pool = 32   # seeded instances generated per set-up; the loop cycles them
    reference_seed = 12

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.noise_seeds = [rng.randrange(1, 2**31) for _ in range(self.pool)]
        self.options = bilarx.SolverOptions(max_iters=6000)

    def setup(self):
        return (bilarx.scenario("scenario_arx_noisy", seed=self.reference_seed),
                [bilarx.scenario("scenario_arx_noisy", seed=s) for s in self.noise_seeds])

    def run_unit(self, inputs, i: int, probe) -> list:
        reference, pool = inputs
        fixed = i % 4 != 3
        sc = reference if fixed else pool[(i // 4) % len(pool)]
        # ``sol`` is bound by the solve step, which runs before refine.
        steps = (
            ("solve", lambda: bilarx.solve_bil(sc.spec, 1e7, self.options)),
            ("refine", lambda: bilarx.refine_pipeline(sc.spec, sol, GAMMA, self.options)),
            ("naive", lambda: bilarx.naive_identify(sc.spec, 4)),
        )
        results = []
        for kind, call in steps:
            out = OpResult(kind, fixed=fixed, probe_s=probe())
            results.append(out)
            try:
                start = time.perf_counter()
                value = call()
                out.wall_s = time.perf_counter() - start
            except Exception as exc:  # an operation that raises counts as failed
                out.failures.append(f"{kind} raised {type(exc).__name__}: {exc}")
                return results
            if kind == "naive":
                if not _finite(*value[:2], *value[2]):
                    out.failures.append("naive: non-finite estimate")
                continue
            if not check_solution(value, out, kind):
                return results
            score_solution(value, sc.spec, out)
            out.solve_kind = "penalised" if kind == "solve" else "refine"
            if kind == "solve":
                sol = value
            else:
                score_truth(value.u_est, value.b_est, value.a_est, sc.truth, out)
        return results


# -- long_series ---------------------------------------------------------------

class LongSeries:
    """One N=2000 series (n_a=1, n_b=3) solved at a fixed iteration budget.

    About N/100 random change points; coefficients of ``scenario_arx_noisy``;
    uniform noise bound 0.5. The budget stops every solve at the same
    iteration, so only the continuous quality metrics are scored.
    """

    name = "long_series"
    trace_units = 2
    min_units = 1
    probe_kind = "blas"
    N = 2000
    budget = 20
    lam = 1e4
    noise = 0.5

    def __init__(self, seed: int, n: int = N):
        self.seed = seed
        self.N = n
        self.options = bilarx.SolverOptions(max_iters=self.budget)

    def setup(self):
        rng = random.Random(self.seed)
        cps = sorted(rng.sample(range(1, self.N), max(1, self.N // 100)))
        levels = [rng.uniform(-10.0, 10.0)]
        for _ in cps:
            step = rng.uniform(2.0, 8.0)
            levels.append(levels[-1] + step if levels[-1] < 0 else levels[-1] - step)
        u = bilarx.gen_piecewise_input(self.N, cps, levels)
        ref = bilarx.scenario("scenario_arx_noisy")
        orders = ref.spec.orders
        z = bilarx.simulate_arx(ref.truth.a, ref.truth.b, orders, u)
        y = bilarx.add_uniform_noise(z, self.noise, self.seed)
        spec = bilarx.build_problem([bilarx.OutputSeries(y, label="y1")],
                                    orders, self.noise)
        truth = bilarx.PlantedTruth(u_blocks=(u,), a=ref.truth.a, b=ref.truth.b,
                                    change_points=(tuple(cps),), z_blocks=(z,))
        return spec, truth

    def run_unit(self, inputs, i: int, probe) -> list:
        spec, truth = inputs
        out = OpResult("solve_budget", fixed=True, probe_s=probe())
        try:
            start = time.perf_counter()
            sol = bilarx.solve_bil(spec, self.lam, self.options)
            out.wall_s = time.perf_counter() - start
        except Exception as exc:
            out.failures.append(f"raised {type(exc).__name__}: {exc}")
            return [out]
        if check_solution(sol, out, "solve"):
            score_solution(sol, spec, out)
            score_truth(sol.u_est, sol.b_est, sol.a_est, truth, out, hamming=False)
            out.solve_kind = "penalised"
        if out.iters != self.budget and not out.converged:
            out.failures.append(f"stopped at {out.iters}, budget {self.budget}")
        return [out]


# -- cli_shared ----------------------------------------------------------------

# Documented exit codes: 0 success, 2 solver non-convergence.
_SOLVER_COMMANDS = ("identify", "refine", "sweep")


class CliShared:
    """In-process ``bilarx.cli.main`` on files in a temporary directory.

    One pass: two sequences through simulate, identify (lambda 1e4, 10 000
    iterations), refine (gamma 0.5) and baseline (4 segments); the noise-free
    FIR instance through simulate and ripcheck (k=2); the noisy ARX instance
    through simulate and a five-point sweep. The seed sets the noise of the
    two sequences and of the FIR file (which has none). The sweep runs on the
    documented noisy ARX instance (scenario default seed): across noise seeds
    its cost ranges from 2.4 s to 39 s, which would make one pass unbounded;
    noise-seed variation of that instance is what ``arx_refine`` measures.
    Every call but identify and refine does fixed work: the sweep and
    ripcheck inputs do not depend on the seed, and simulate and the baseline's
    segmentation cost depends only on the series length.
    """

    name = "cli_shared"
    trace_units = 1
    min_units = 2   # one pass takes about 24 s; two give the medians a pair
    probe_kind = "interp"
    sweep_grid = "1e3,1e4,1e5,1e6,1e7"

    def __init__(self, seed: int, work_dir: Path):
        rng = random.Random(seed)
        self.two_seed = rng.randrange(1, 2**31)
        self.fir_seed = rng.randrange(1, 2**31)
        self.work_dir = work_dir

    def setup(self):
        self.work_dir.mkdir(parents=True, exist_ok=True)
        root = Path(tempfile.mkdtemp(prefix="cli-", dir=self.work_dir))
        configs = {
            "two": {"n_a": 1, "n_b": 3, "n_k": 0, "epsilon": 0.5, "lambda": 1e4,
                    "gamma": GAMMA, "max_iters": 10000},
            "fir": {"n_a": 0, "n_b": 3, "n_k": 0, "epsilon": 0.0},
            "arx": {"n_a": 1, "n_b": 3, "n_k": 0, "epsilon": 2.0,
                    "gamma": GAMMA, "max_iters": 10000},
        }
        for key, cfg in configs.items():
            (root / f"{key}.cfg.json").write_text(json.dumps(cfg))
        truth = {
            "two": bilarx.scenario("scenario_two_sequences", seed=self.two_seed),
            "fir": bilarx.scenario("scenario_fir_noisefree", seed=self.fir_seed),
            "arx": bilarx.scenario("scenario_arx_noisy"),
        }
        return root, truth

    def close(self):
        shutil.rmtree(self.work_dir, ignore_errors=True)

    def _calls(self, root: Path):
        def io(key, out):
            return ["--data", str(root / f"{key}.csv"),
                    "--config", str(root / f"{key}.cfg.json"),
                    "--out", str(root / out)]

        return [
            ("simulate", "two", ["simulate", "--scenario", "scenario_two_sequences",
                                 "--seed", str(self.two_seed), "--out",
                                 str(root / "two.csv")]),
            ("identify", "two", ["identify", *io("two", "two.identify.json")]),
            ("refine", "two", ["refine", *io("two", "two.refine.json"), "--result",
                               str(root / "two.identify.json"), "--gamma", str(GAMMA)]),
            ("baseline", "two", ["baseline", *io("two", "two.baseline.json"),
                                 "--segments", "4"]),
            ("simulate", "fir", ["simulate", "--scenario", "scenario_fir_noisefree",
                                 "--seed", str(self.fir_seed), "--out",
                                 str(root / "fir.csv")]),
            ("ripcheck", "fir", ["ripcheck", *io("fir", "fir.ripcheck.json"),
                                 "--k", "2"]),
            ("simulate", "arx", ["simulate", "--scenario", "scenario_arx_noisy",
                                 "--out", str(root / "arx.csv")]),
            ("sweep", "arx", ["sweep", *io("arx", "arx.sweep.json"), "--lambdas",
                              self.sweep_grid, "--gap-target", "1e-3"]),
        ]

    def run_unit(self, inputs, i: int, probe) -> list:
        root, truth = inputs
        series = {}
        results = []
        for command, key, argv in self._calls(root):
            out_path = Path(argv[argv.index("--out") + 1])
            out_path.unlink(missing_ok=True)
            out = OpResult(command, fixed=command not in ("identify", "refine"),
                           probe_s=probe())
            try:
                start = time.perf_counter()
                code = bilarx.cli.main(argv)
                out.wall_s = time.perf_counter() - start
            except Exception as exc:
                out.failures.append(f"{command} raised {type(exc).__name__}: {exc}")
                results.append(out)
                continue
            allowed = (0, 2) if command in _SOLVER_COMMANDS else (0,)
            if code not in allowed:
                out.failures.append(f"{command} exited {code}")
            elif not out_path.exists():
                out.failures.append(f"{command} wrote no {out_path.name}")
            else:
                out.bytes_written = out_path.stat().st_size
                self._check(command, key, code, out_path, truth[key], series, out)
            results.append(out)
        return results

    def _check(self, command, key, code, path, truth, series, out):
        text = path.read_text()
        if command == "simulate":
            rows = list(csv.DictReader(text.splitlines()))
            by_label = {}
            for row in rows:
                by_label.setdefault(row.get("series", "y1"), []).append(float(row["y"]))
            expected = [len(s) for s in truth.spec.sequences]
            if [len(v) for v in by_label.values()] != expected:
                out.failures.append(f"simulate {key}: wrong row count")
            elif not _finite(*by_label.values()):
                out.failures.append(f"simulate {key}: non-finite samples")
            series[key] = by_label
            return
        try:
            payload = json.loads(text)
        except json.JSONDecodeError:
            out.failures.append(f"{command}: result JSON does not parse")
            return
        if command == "ripcheck":
            n = len(truth.spec.sequences[0]) - 3   # interior difference indices
            expected = sum(math.comb(n, s) for s in range(1, 3))
            if payload.get("patterns_checked") != expected:
                out.failures.append("ripcheck: wrong pattern count")
            if not (isinstance(payload.get("certified_unique"), bool)
                    and _finite(payload.get("rip_epsilon", math.nan))):
                out.failures.append("ripcheck: malformed report")
            return
        labels = list(series.get(key, {}))
        try:
            a = np.asarray(payload["a"], dtype=float)
            b = np.asarray(payload["b"], dtype=float)
            u = [np.asarray(payload["u"][lab], dtype=float) for lab in labels]
            rank_gap = float(payload.get("rank_gap", 0.0))
            eps = float(payload.get("epsilon", 0.0))
        except (KeyError, TypeError, ValueError):
            out.failures.append(f"{command}: result lacks a, b or u")
            return
        if not _finite(a, b, *u) or len(u) != len(truth.spec.sequences):
            out.failures.append(f"{command}: non-finite or missing estimate")
            return
        if command == "baseline":
            return
        if "rank_gap" not in payload or "epsilon" not in payload:
            out.failures.append(f"{command}: result lacks rank_gap or epsilon")
            return
        check_b(b, out, command)
        diag = payload.get("diagnostics", {})
        converged = diag.get("converged")
        if code != (0 if converged else 2):
            out.failures.append(f"{command}: exit {code} with converged={converged}")
        cps = payload.get("change_points", {})
        if any(sorted(change_set(uj)) != cps.get(lab) for uj, lab in zip(u, labels)):
            out.failures.append(f"{command}: change points disagree with u")
        out.solves = 1
        out.converged = int(bool(converged))
        out.iters = int(diag.get("iterations", 0))
        if command != "sweep":   # a sweep reports only its chosen point
            out.solve_kind = "penalised" if command == "identify" else "refine"
        out.rank_gap.append(rank_gap)
        y = [series[key][lab] for lab in labels]
        out.feas_excess.append(feas_excess(
            truth.spec.orders, eps, y, [np.outer(uj, b) for uj in u], a))
        if command != "identify":   # final estimates: refined, sweep choice
            score_truth(u, b, a, truth.truth, out)


def make(name: str, seed: int, work_dir: Path):
    if name == ArxRefine.name:
        return ArxRefine(seed)
    if name == LongSeries.name:
        return LongSeries(seed)
    if name == CliShared.name:
        return CliShared(seed, work_dir)
    raise ValueError(f"unknown workload {name!r}")
