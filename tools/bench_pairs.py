"""Alternating benchmark pairs of two checkouts, written as one BENCH file.

    python3 tools/bench_pairs.py --parent DIR --change DIR --seed N \\
        --pairs P --out BENCH_<n>.json [--parent-rev REV]

``--parent`` and ``--change`` are source checkouts, for example the parent
commit unpacked with ``git archive`` beside the working tree. The command,
its run length and the workloads come from ``BENCHMARK.json``. For every
workload and pair, the command runs once in each checkout, each in a fresh
interpreter; even pairs run the parent first and odd pairs the change first,
so both sides see the same drift in machine speed. The file keeps every
run's gated metrics and, per metric, both medians and quartiles, the
relative change of the medians, how many pairs the change won and two
verdicts against the metric's ``end_to_end`` bound: ``within_bound`` when
the change's median is at most the parent's median times ``1 + bound``, and
``unresolved`` when the parent's interquartile range exceeds ``bound`` times
its median and not every change run beats every parent run. It also
records the parent's interquartile range and the gain verdict ``claim_met``:
the change won at least nine tenths of all pairs (ties count for neither
side) and its median lies below the parent's by more than that range. Beside
them, ungated, stand the quartiles of the per-pair ratios change / parent:
drift in machine speed that both sides of a pair share widens the parent's
interquartile range but cancels in these ratios. The verdicts and the ratio
quartiles are printed per workload. Each workload's
summary also counts, per side, the runs that report ``correct: false``. A
run that exits non-zero stops the command with the workload, side, pair and
the tail of that run's stderr.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCHMARK = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
BOUNDS = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
STDERR_TAIL = 20    # lines of a failed run's stderr shown when it stops the command


def command(workload: str, seed: int) -> list:
    return [*BENCHMARK["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", str(BENCHMARK["run_seconds"])]


def run(checkout: Path, workload: str, seed: int, where: str) -> tuple:
    """One untraced run; returns its result and the environment it reports.

    ``where`` names the run in the message that stops the command when the
    run exits non-zero."""
    argv = command(workload, seed)
    proc = subprocess.run([sys.executable, *argv[1:]], cwd=checkout,
                          capture_output=True, text=True)
    if proc.returncode:
        tail = "\n".join(proc.stderr.strip().splitlines()[-STDERR_TAIL:])
        raise SystemExit(f"{where}: exit status {proc.returncode}; "
                         f"last lines of its stderr:\n{tail}")
    report, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    return ({"correct": result["correct"], "failed": result["failed"],
             "metrics": {k: v["value"] for k, v in result["metrics"].items()}},
            report["report"]["environment"])


def compare(parent: list, change: list) -> dict:
    """Medians, quartiles, pair wins, bound verdicts and the gain verdict of
    every metric (all lower-is-better)."""
    out = {}
    for name in parent[0]["metrics"]:
        p = [r["metrics"][name] for r in parent]
        c = [r["metrics"][name] for r in change]
        p_median, c_median = statistics.median(p), statistics.median(c)
        p_quartiles = statistics.quantiles(p, n=4)[::2]
        p_iqr = p_quartiles[1] - p_quartiles[0]
        wins = sum(b < a for a, b in zip(p, c))
        bound = BOUNDS[name]
        out[name] = {
            "parent_median": p_median,
            "parent_quartiles": p_quartiles,
            "parent_iqr": p_iqr,
            "change_median": c_median,
            "change_quartiles": statistics.quantiles(c, n=4)[::2],
            "relative_change": c_median / p_median - 1.0,
            "change_lower_pairs": wins,
            "within_bound": c_median <= p_median * (1.0 + bound),
            "unresolved": p_iqr > bound * p_median and not max(c) < min(p),
            "claim_met": 10 * wins >= 9 * len(p) and p_median - c_median > p_iqr,
            "pair_ratio_quartiles": statistics.quantiles(
                [b / a for a, b in zip(p, c)], n=4)[::2],
        }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--parent-rev", default=None, help="parent commit, recorded")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("quartiles need at least two pairs")

    bench = {"command": command("<name>", args.seed),
             "parent_rev": args.parent_rev, "seed": args.seed,
             "seconds": BENCHMARK["run_seconds"], "pairs": args.pairs,
             "order": "parent first in even pairs, change first in odd",
             "workloads": {}}
    for workload in (w["name"] for w in BENCHMARK["workloads"]):
        runs = {"parent": [], "change": []}
        for pair in range(args.pairs):
            for side in ("parent", "change")[::1 if pair % 2 == 0 else -1]:
                where = f"{workload} pair {pair} {side}"
                result, bench["environment"] = run(getattr(args, side), workload,
                                                   args.seed, where)
                runs[side].append(result)
                print(f"{where}: {result['metrics']}", file=sys.stderr)
        incorrect = {side: sum(not r["correct"] for r in results)
                     for side, results in runs.items()}
        print(f"{workload} runs with correct: false: {incorrect}", file=sys.stderr)
        summary = compare(runs["parent"], runs["change"])
        for name, s in summary.items():
            print(f"{workload} {name}: {s['relative_change']:+.1%}, change lower in "
                  f"{s['change_lower_pairs']}/{args.pairs} pairs, within_bound "
                  f"{s['within_bound']}, unresolved {s['unresolved']}, "
                  f"claim_met {s['claim_met']}, pair ratio quartiles "
                  f"{s['pair_ratio_quartiles'][0]:.3f}-{s['pair_ratio_quartiles'][1]:.3f}",
                  file=sys.stderr)
        bench["workloads"][workload] = dict(
            runs, summary=dict(summary, incorrect_runs=incorrect))
    args.out.write_text(json.dumps(bench, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
