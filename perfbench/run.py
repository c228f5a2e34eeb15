"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``. One workload runs per process, so ``peak_rss_mb`` belongs to it.
BLAS runs on one thread, pinned before numpy is imported.

``--trace 0`` measures set-up as the median import time of five fresh
interpreters plus the median of five input set-ups (``setup_s``), then runs
the workload's closed loop for ``--seconds`` and prints the end-to-end
metrics. ``--trace 1`` runs a fixed
number of units twice on the same inputs, untraced and then traced, prints
the per-layer metrics and checks the coverage invariants. Either way the
last line of standard output is the JSON result; the line before it is a
report with every ungated figure and the environment, also written to
``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 5

WORKLOAD_NAMES = ("arx_refine", "long_series", "cli_shared")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


_IMPORT = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
           "t = time.perf_counter(); import numpy, scipy.linalg, bilarx.cli; "
           "print(time.perf_counter() - t)")


def add_sources() -> None:
    """Put ``src/`` on the path; exits when the checkout has no sources."""
    src = ROOT / "src"
    if not (src / "bilarx" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no bilarx sources under {src}")
    sys.path.insert(0, str(src))


def cold_import_s() -> float:
    """Median import time over ``SETUP_REPEATS`` fresh interpreters."""
    times = [float(subprocess.run([sys.executable, "-c", _IMPORT, str(ROOT / "src")],
                                  capture_output=True, text=True, check=True).stdout)
             for _ in range(SETUP_REPEATS)]
    return statistics.median(times)


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "machine": platform.machine(),
    }


def timed_setups(workload):
    """Set up ``SETUP_REPEATS`` times; returns (last inputs, median seconds)."""
    times = []
    inputs = None
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        inputs = workload.setup()
        times.append(time.perf_counter() - start)
    return inputs, statistics.median(times)


def run_loop(workload, inputs, probe, seconds=None, units=None):
    """Closed loop, by time (``seconds``, at least ``workload.min_units``
    units) or by count (``units``).

    Each operation takes a speed probe just before it starts; one more probe
    closes the loop. An operation's ``scale`` is the probe's reference time
    over the mean of the probes on either side of it.
    """
    results, done = [], 0
    start = time.perf_counter()

    def more() -> bool:
        if units is not None:
            return done < units
        return done < workload.min_units or time.perf_counter() - start < seconds

    while more():
        for r in workload.run_unit(inputs, done, probe):
            r.unit = done
            results.append(r)
        done += 1
    probes = [r.probe_s for r in results] + [probe()]
    for r, before, after in zip(results, probes, probes[1:]):
        r.scale = probe.reference_s / (0.5 * (before + after))
    return results, done


def summarize(results, units: int) -> dict:
    """End-to-end figures of one loop, gated and reported.

    Normalised time is measured time times ``scale``; ``_raw`` variants
    leave out the scale. ``ms_per_iter`` is the mean over solve kinds
    (penalised, refine) of the median over that kind's solves of normalised
    time per iteration, so neither the mix of kinds a noise draw needs nor
    one slow window moves it. ``fixed_work_s`` is the median over units of
    the normalised time of a unit's fixed operations: time to a solution on
    work that does not depend on the seed, iteration count included.
    """
    by_unit = [[r for r in results if r.unit == u] for u in range(units)]
    unit_walls = [sum(r.wall_s for r in ops) for ops in by_unit]
    fixed_walls = [sum(r.wall_s * r.scale for r in ops if r.fixed)
                   for ops in by_unit if any(r.fixed for r in ops)]
    solves = sum(r.solves for r in results)
    failed = sum(1 for r in results if r.failures)

    def kind_ms(kind, scaled=True):
        rates = [1e3 * r.wall_s * (r.scale if scaled else 1.0) / r.iters
                 for r in results if r.solve_kind == kind and r.iters]
        return statistics.median(rates) if rates else None

    def ms_per_iter(scaled=True):
        rates = [kind_ms(k, scaled) for k in ("penalised", "refine")]
        rates = [v for v in rates if v is not None]
        return statistics.fmean(rates) if rates else None

    iters = sum(r.iters for r in results)
    wall_ms = 1e3 * sum(r.wall_s * r.scale for r in results) / iters if iters else None

    def pooled(attr, fn):
        values = [v for r in results for v in getattr(r, attr)]
        return fn(values) if values else None

    return {
        "fixed_work_s": statistics.median(fixed_walls),
        "fixed_work_units": len(fixed_walls),
        "ms_per_iter": ms_per_iter(),
        "ms_per_iter_raw": ms_per_iter(scaled=False),
        "penalised_ms_per_iter": kind_ms("penalised"),
        "refine_ms_per_iter": kind_ms("refine"),
        "wall_ms_per_iter": wall_ms,
        "scale_median": statistics.median(r.scale for r in results),
        "wall_s": statistics.median(unit_walls),
        "unit_walls_s": unit_walls,
        "units": units,
        "iters_total": iters,
        "solves": solves,
        "converged_frac": sum(r.converged for r in results) / solves if solves else None,
        "attempted": len(results),
        "failed": failed,
        "failed_frac": failed / len(results),
        "cp_hamming": pooled("hamming", statistics.fmean),
        "b_cos_min": pooled("b_cos", min),
        "a_err_max": pooled("a_err", max),
        "rank_gap_max": pooled("rank_gap", max),
        "feas_excess_max": pooled("feas_excess", max),
        "failures": [f for r in results for f in r.failures][:20],
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_untraced(workload, probe, seconds):
    cold_s = cold_import_s()
    inputs, setup_s = timed_setups(workload)
    results, units = run_loop(workload, inputs, probe, seconds=seconds)
    summary = summarize(results, units)
    metrics = {
        "fixed_work_s": (summary["fixed_work_s"], "s"),
        "ms_per_iter": (summary["ms_per_iter"], "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "setup_s": (cold_s + setup_s, "s"),
    }
    summary.update(cold_import_median_s=cold_s, setup_median_s=setup_s)
    return metrics, summary


def run_traced(workload, probe):
    from layers import layer_metrics, traced_run

    inputs, setup_s = timed_setups(workload)
    untraced, units = run_loop(workload, inputs, probe, units=workload.trace_units)
    tracer, traced, covered_s = traced_run(workload, lambda: run_loop(
        workload, inputs, probe, units=workload.trace_units)[0])
    metrics, invariants = layer_metrics(tracer, untraced, traced, covered_s)
    summary = summarize(untraced, units)
    summary.update(setup_median_s=setup_s, invariants=invariants,
                   traced=summarize(traced, units))
    return metrics, summary


def main(argv=None) -> int:
    args = parse_args(argv)
    add_sources()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads
    from speed import Probe

    workload = workloads.make(args.workload, args.seed, OUT_DIR / f"tmp-{os.getpid()}")
    probe = Probe(workload.probe_kind)
    try:
        if args.trace:
            metrics, summary = run_traced(workload, probe)
        else:
            metrics, summary = run_untraced(workload, probe, args.seconds)
    finally:
        getattr(workload, "close", lambda: None)()

    invariants_ok = all(summary.get("invariants", {}).values())
    traced = summary.get("traced", {})
    attempted = summary["attempted"] + traced.get("attempted", 0)
    failed = summary["failed"] + traced.get("failed", 0)
    correct = failed == 0 and invariants_ok
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(), "summary": summary}
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1) + "\n")
    for failure in summary["failures"] + traced.get("failures", []):
        print(f"perfbench: {failure}", file=sys.stderr)
    if not invariants_ok:
        print(f"perfbench: coverage invariants failed: {summary['invariants']}",
              file=sys.stderr)
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
