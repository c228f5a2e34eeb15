"""Length-scaling report, outside the gated workloads.

    python3 perfbench/scaling.py

For each series length N in ``LENGTHS`` (n_a=1, n_b=3, the ``long_series``
generator at ``SEED`` and its 20-iteration budget) a fresh process runs one untraced and one traced
``solve_bil``, so ``peak_rss_mb`` belongs to that length alone. Prints one
JSON line per length and a Markdown table, and writes
``.perfbench_out/scaling.json`` in the checkout.

The curve stops at N=2000: the dense solver needs about 2.5 GB at N=3000,
more than this benchmark takes on a machine it shares.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import run  # pins BLAS to one thread before numpy is imported

HERE = Path(__file__).resolve().parent
LENGTHS = (30, 300, 1000, 2000)
SEED = 1


def measure(n: int) -> dict:
    run.add_sources()
    from layers import traced_run
    from speed import Probe
    from workloads import LongSeries

    workload = LongSeries(SEED, n=n)
    inputs = workload.setup()
    probe = Probe(workload.probe_kind)
    (untraced,) = workload.run_unit(inputs, 0, probe)
    tracer, _, _ = traced_run(workload, lambda: workload.run_unit(inputs, 0, probe))
    return {
        "N": n,
        "p": n * 3 + 1,
        "iters": untraced.iters,
        "wall_s": untraced.wall_s,
        "ms_per_iter": 1e3 * untraced.wall_s / untraced.iters,
        "factor_build_s": tracer.total("linalg.cho_factor", "linalg.eigh",
                                       "problem.build_lifted_operator"),
        "xsolve_ms": 1e3 * tracer.total("linalg.cho_solve")
        / max(tracer.calls("linalg.cho_solve"), 1),
        "peak_rss_mb": run.peak_rss_mb(),
        "failures": untraced.failures,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--one", type=int, default=None, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.one is not None:
        print(json.dumps(measure(args.one)))
        return 0
    rows = []
    for n in LENGTHS:
        child = subprocess.run(
            [sys.executable, str(HERE / "scaling.py"), "--one", str(n)],
            capture_output=True, text=True, check=True)
        rows.append(json.loads(child.stdout.strip().splitlines()[-1]))
        print(json.dumps(rows[-1]), flush=True)
    run.OUT_DIR.mkdir(exist_ok=True)
    (run.OUT_DIR / "scaling.json").write_text(json.dumps(rows, indent=1) + "\n")
    print("| N | p | ms_per_iter | x-solve ms | factor + build_operator s | peak_rss_mb |")
    print("|---|---|---|---|---|---|")
    for r in rows:
        print(f"| {r['N']} | {r['p']} | {r['ms_per_iter']:.3f} | {r['xsolve_ms']:.3f} "
              f"| {r['factor_build_s']:.3f} | {r['peak_rss_mb']:.0f} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
