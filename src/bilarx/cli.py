"""Command-line front end.

Subcommands
-----------
identify   solve the lifted program on CSV data at the configured penalty
refine     bias-removal re-solve seeded by a previous result file
sweep      scan a penalty grid for a rank-one solution
baseline   naive two-step method (segment the output, then least squares)
ripcheck   restricted-isometry constant and uniqueness verdict
simulate   generate a named synthetic scenario as CSV

Data files are CSV with header ``t,y`` (single sequence) or ``t,y,series``;
extra columns are ignored, time indices are 1-based and consecutive per
series; with a ``series`` column every row names its series. With
``--plot-dir``, a label is a file-format error when some file
``<prefix>_<label>.csv`` that the command writes there would not be a plain
file name: one holding a path separator or a NUL, or longer than 255 bytes.
``ripcheck`` writes no per-figure file and has no ``--plot-dir``.
Configuration is flat JSON with keys ``n_a, n_b, n_k, epsilon, lambda,
gamma, max_iters``, the fields of ``ArxOrders`` and ``SolverOptions``
(their defaults fill absent keys) and three reals; any other key, ``rho``
and ``tol`` among them, is a configuration error. ``n_a, n_b, n_k,
max_iters`` take integers or integral floats such as ``1e4``, the others
real numbers >= 0 (not booleans), ``epsilon`` a finite one. Results are
JSON and CSV; every float is written in its shortest round-trip
representation, so it parses back bit-exact.

Exit codes: 0 success, 1 usage, configuration, file-format or file-write
error, 2 solver non-convergence, 3 invalid or infeasible input data (a
series too short for the model orders, non-consecutive ``t``, a non-finite
sample or refine estimate).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import json
import os
import sys
import warnings
from pathlib import Path

import numpy as np

from .analysis import operator_from_problem, rip_report
from .baseline import naive_identify
from .datagen import SCENARIO_NAMES, scenario, simulate_arx
from .extract import change_points
from .problem import ArxOrders, OutputSeries, _check_integer, _check_real, build_problem
from .solver import (
    SolverOptions,
    check_sweep_grid,
    freeze_small_differences,
    solve_bil,
    solve_refined,
    sweep_lambda,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NOT_CONVERGED = 2
EXIT_BAD_DATA = 3

# The integer config keys, and each real key with its checker's (low, finite).
_CONFIG_INTEGERS = {f.name for cls in (ArxOrders, SolverOptions) for f in dataclasses.fields(cls)}
_CONFIG_REALS = {"epsilon": (0, True), "lambda": (0, False), "gamma": (0, False)}


# Longest file name, in bytes, that common file systems accept.
_NAME_MAX = 255


class _UsageError(Exception):
    pass


class _DataError(Exception):
    pass


@contextlib.contextmanager
def _usage_errors(where):
    """Report a ValueError, TypeError or OverflowError from checking a
    setting, or from a solve rejecting one, as a usage error."""
    try:
        yield
    except (TypeError, ValueError, OverflowError) as exc:
        raise _UsageError(f"{where}: {exc}") from exc


@contextlib.contextmanager
def _write_errors(path):
    """Report an OSError from writing ``path`` as a usage error."""
    try:
        yield
    except OSError as exc:
        raise _UsageError(f"cannot write {path}: {exc}") from exc


def _fmt(x: float) -> str:
    """Shortest round-trip text of a float, as in the JSON output."""
    return repr(float(x))


def _write_json(path, obj):
    """``obj`` as JSON text; floats use Python's shortest round-trip ``repr``.
    A NaN or an infinity is no JSON number: that result is a data error, and
    nothing is written."""
    try:
        text = json.dumps(obj, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise _DataError(f"{path} not written: a result overflows floating-point "
                         f"range in the data's units") from exc
    with _write_errors(path):
        Path(path).write_text(text)


def _read_text(path) -> str:
    """The text of ``path``; an unreadable or non-UTF-8 file is a usage error."""
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise _UsageError(f"cannot read {path}: {exc}") from exc


def _load_json(path):
    text = _read_text(path)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise _UsageError(f"{path} is not valid JSON: {exc}") from exc


def _typed(path, key, value):
    """``value`` as config key ``key`` takes it: an integer key an integer or an
    integral float, a real key a real in its range; else a usage error."""
    with _usage_errors(path):
        if key in _CONFIG_REALS:
            return _check_real(key, value, *_CONFIG_REALS[key])
        if key in _CONFIG_INTEGERS:
            return _check_integer(key, int(value) if isinstance(value, float)
                                  and value.is_integer() else value)
    raise _UsageError(f"{path}: unknown config key {key!r}")


def _load_config(path):
    """The config object with every value converted to its key's type."""
    cfg = _load_json(path)
    if not isinstance(cfg, dict):
        raise _UsageError(f"{path}: config must be a JSON object")
    cfg = {key: _typed(path, key, value) for key, value in cfg.items()}
    for key in ("n_a", "n_b"):
        if key not in cfg:
            raise _UsageError(f"{path}: missing required config key {key!r}")
    return cfg


def _from_config(cls, path, cfg):
    """``cls`` from the config keys naming its fields; rejections are usage errors."""
    with _usage_errors(path):
        return cls(**{f.name: cfg[f.name] for f in dataclasses.fields(cls)
                      if f.name in cfg})


def _load_series_csv(path):
    """Read ``t,y[,series]`` rows into labeled sample arrays."""
    reader = csv.DictReader(_read_text(path).splitlines())
    fields = reader.fieldnames or []
    if "t" not in fields or "y" not in fields:
        raise _UsageError(f"{path}: need columns 't' and 'y', got {fields}")
    has_series = "series" in fields
    rows = {}
    for lineno, row in enumerate(reader, start=2):
        label = row["series"] if has_series else "y1"
        if label is None:
            raise _UsageError(f"{path}:{lineno}: missing series value")
        try:
            t = int(row["t"])
            y = float(row["y"])
        except (TypeError, ValueError) as exc:
            raise _UsageError(f"{path}:{lineno}: bad t/y value") from exc
        if not np.isfinite(y):
            raise _DataError(f"{path}:{lineno}: y must be finite, got {row['y']!r}")
        rows.setdefault(label, []).append((t, y))
    if not rows:
        raise _DataError(f"{path}: no data rows")
    series = []
    for label, pairs in rows.items():
        pairs.sort()
        ts = [t for t, _ in pairs]
        if ts != list(range(1, len(ts) + 1)):
            raise _DataError(
                f"{path}: series {label!r} must have consecutive t = 1..N"
            )
        series.append(OutputSeries(np.array([y for _, y in pairs]), label=label))
    return series


def _plot_name(prefix, label) -> str:
    """File name of the ``--plot-dir`` CSV ``prefix`` of series ``label``."""
    return f"{prefix}_{label}.csv"


def _build_spec(args, cfg, plot_prefixes=()):
    """The problem of ``args.data`` under ``cfg``. With ``--plot-dir``, every
    series label must make plain file names with ``plot_prefixes``, the
    per-figure files the command writes there."""
    orders = _from_config(ArxOrders, args.config, cfg)
    series = _load_series_csv(args.data)
    # Checked before any solve or write, so a rejected label leaves no file.
    for label in (seq.label for seq in series) if args.plot_dir else ():
        names = [_plot_name(prefix, label) for prefix in plot_prefixes]
        if any(Path(name).name != name or "\0" in name
               or len(os.fsencode(name)) > _NAME_MAX for name in names):
            raise _UsageError(f"{args.data}: series label {label!r} cannot name a file "
                              f"in --plot-dir")
    try:
        return build_problem(series, orders, cfg.get("epsilon", 0.0))
    except ValueError as exc:
        raise _DataError(str(exc)) from exc


def _inputs(spec, u_blocks, gamma):
    """Per-series input estimates and their change points, keyed by label."""
    labels = [s.label for s in spec.sequences]
    return ({lab: list(u) for lab, u in zip(labels, u_blocks)},
            {lab: change_points(u, gamma) for lab, u in zip(labels, u_blocks)})


def _write_series_csv(directory, name, columns, *series):
    """CSV ``name`` in ``directory``, created if missing, with header
    ``t, *columns`` and one row per time index ``t = 1..N``."""
    path = Path(directory) / name
    with _write_errors(path):
        Path(directory).mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", *columns])
            for t, values in enumerate(zip(*series), start=1):
                writer.writerow([t, *map(_fmt, values)])


def _run_solve(args, cfg, solve):
    """Build the problem, run ``solve(spec, options)`` and write its results.

    ``solve`` returns the solution and a dict of extra top-level result
    blocks; a ValueError from it is a usage error of the config. Writes the
    result JSON and, with ``--plot-dir``, per-series CSVs of measured against
    model output and of the input estimate. The exit code reports
    convergence. A model output that overflows is a data error, found
    before anything is written.
    """
    options = _from_config(SolverOptions, args.config, cfg)
    spec = _build_spec(args, cfg, ("fit", "input"))
    with _usage_errors(args.config):
        sol, extra = solve(spec, options)
    inputs, cps = _inputs(spec, sol.u_est, cfg.get("gamma", 0.0))
    # An unstable estimate warns and may overflow; the check below makes that
    # the one error line.
    with warnings.catch_warnings(), np.errstate(over="ignore", invalid="ignore"):
        warnings.simplefilter("ignore")
        fits = ([simulate_arx(sol.a_est, sol.b_est, spec.orders, np.asarray(u))
                 for u in sol.u_est] if args.plot_dir and sol.b_est is not None else [])
    if not all(np.isfinite(y_model).all() for y_model in fits):
        raise _DataError(f"{args.out} not written: the model output overflows "
                         f"floating-point range in the data's units")
    _write_json(args.out, {
        "a": list(sol.a_est),
        "b": None if sol.b_est is None else list(sol.b_est),
        "scale_note": "input and coefficients are determined up to a shared scalar",
        "u": inputs,
        "singular_values": list(sol.singular_values),
        "rank_gap": sol.rank_gap,
        "change_points": cps,
        "lambda": sol.lam,
        "objective": sol.objective,
        "epsilon": spec.epsilon,
        "diagnostics": dataclasses.asdict(sol.diagnostics),
        **extra,
    })
    for j, seq in enumerate(spec.sequences if args.plot_dir else ()):
        if fits:                    # no model without b
            _write_series_csv(args.plot_dir, _plot_name("fit", seq.label),
                              ["y_measured", "y_model"], seq.samples, fits[j])
        _write_series_csv(args.plot_dir, _plot_name("input", seq.label),
                          ["u_estimate"], sol.u_est[j])
    return EXIT_OK if sol.diagnostics.converged else EXIT_NOT_CONVERGED


def _cmd_identify(args):
    cfg = _load_config(args.config)
    if "lambda" not in cfg:
        raise _UsageError("identify needs 'lambda' in the config")
    return _run_solve(args, cfg, lambda spec, options: (
        solve_bil(spec, cfg["lambda"], options), {}))


def _cmd_refine(args):
    cfg = _load_config(args.config)
    if args.gamma is not None:
        cfg["gamma"] = _typed("--gamma", "gamma", args.gamma)
    if "gamma" not in cfg:
        raise _UsageError("refine needs --gamma or 'gamma' in the config")

    def solve(spec, options):
        prior = _load_json(args.result)
        prior_u = prior.get("u") if isinstance(prior, dict) else None
        if not isinstance(prior_u, dict):
            raise _UsageError(f"{args.result}: missing 'u' estimates")
        estimates = []
        for seq in spec.sequences:
            if seq.label not in prior_u:
                raise _UsageError(f"{args.result}: no input estimate for {seq.label!r}")
            with _usage_errors(args.result):
                u = np.asarray(prior_u[seq.label], dtype=float)
            if u.shape != (len(seq),):
                raise _DataError(
                    f"series {seq.label!r}: estimate shape {u.shape} does not "
                    f"match data length {len(seq)}"
                )
            if not np.all(np.isfinite(u)):
                raise _DataError(f"series {seq.label!r}: estimate must be finite")
            estimates.append(u)
        freeze = freeze_small_differences(estimates, cfg["gamma"])
        return solve_refined(spec, freeze, options), {}
    return _run_solve(args, cfg, solve)


def _cmd_sweep(args):
    cfg = _load_config(args.config)
    with _usage_errors("--lambdas"):
        grid = [float(v) for v in args.lambdas.split(",") if v.strip()]
    # check_sweep_grid checks the gap target first, then the grid.
    with _usage_errors("--lambdas" if 0.0 < args.gap_target < 1.0 else "--gap-target"):
        grid = check_sweep_grid(grid, args.gap_target)

    def solve(spec, options):
        result = sweep_lambda(spec, grid, args.gap_target, options)
        return result.solution, {"sweep": {
            "lambda_chosen": result.lambda_chosen,
            "qualified": result.qualified,
            "trace": [{"lambda": lam, "rank_gap": gap} for lam, gap in result.trace],
        }}
    return _run_solve(args, cfg, solve)


def _cmd_baseline(args):
    cfg = _load_config(args.config)
    spec = _build_spec(args, cfg, ("baseline",))
    try:
        a_est, b_est, u_hats = naive_identify(spec, args.segments)
    except ValueError as exc:
        raise _DataError(str(exc)) from exc
    inputs, cps = _inputs(spec, u_hats, 0.0)
    _write_json(args.out, {"a": list(a_est), "b": list(b_est), "u": inputs,
                           "change_points": cps, "segments": args.segments})
    if args.plot_dir:
        for seq, u in zip(spec.sequences, u_hats):
            _write_series_csv(args.plot_dir, _plot_name("baseline", seq.label),
                              ["y_measured", "u_fit"], seq.samples, u)
    return EXIT_OK


def _cmd_ripcheck(args):
    cfg = _load_config(args.config)
    spec = _build_spec(args, cfg)
    try:
        operator = operator_from_problem(spec)
        report = rip_report(operator, args.k)
    except ValueError as exc:
        raise _DataError(str(exc)) from exc
    _write_json(args.out, dataclasses.asdict(report))
    return EXIT_OK


def _cmd_simulate(args):
    try:
        scn = scenario(args.scenario, seed=args.seed)
    except ValueError as exc:
        raise _DataError(str(exc)) from exc
    multi = len(scn.spec.sequences) > 1
    with _write_errors(args.out), open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "z", "y", "series"] if multi else ["t", "z", "y"])
        for seq, z in zip(scn.spec.sequences, scn.truth.z_blocks):
            for t in range(1, len(seq) + 1):
                row = [t, _fmt(z[t - 1]), _fmt(seq.samples[t - 1])]
                if multi:
                    row.append(seq.label)
                writer.writerow(row)
    if args.plot_dir:
        for seq, u in zip(scn.spec.sequences, scn.truth.u_blocks):
            _write_series_csv(args.plot_dir, _plot_name("true_input", seq.label),
                              ["u_true"], u)
    return EXIT_OK


def _int_at_least(low):
    """argparse type: an integer ``>= low``; anything else is a usage error."""
    def integer(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return integer


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="bilarx",
                     description="Blind ARX identification via convex lifting")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p, plots=True):
        p.add_argument("--data", required=True, help="input CSV (t,y[,series])")
        p.add_argument("--config", required=True, help="JSON configuration file")
        p.add_argument("--out", required=True, help="output JSON path")
        if plots:
            p.add_argument("--plot-dir", default=None,
                           help="directory for per-figure CSV files")
        else:
            p.set_defaults(plot_dir=None)

    p = sub.add_parser("identify", help="solve the lifted convex program")
    add_io(p)
    p.set_defaults(func=_cmd_identify)

    p = sub.add_parser("refine", help="re-solve with frozen small differences")
    add_io(p)
    p.add_argument("--result", required=True, help="result JSON of a prior solve")
    p.add_argument("--gamma", type=float, default=None,
                   help="difference threshold (overrides config)")
    p.set_defaults(func=_cmd_refine)

    p = sub.add_parser("sweep", help="scan penalty weights for a rank-one solution")
    add_io(p)
    p.add_argument("--lambdas", required=True,
                   help="comma-separated ascending penalty grid")
    p.add_argument("--gap-target", type=float, default=1e-3,
                   help="rank gap threshold for accepting a penalty")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("baseline", help="naive two-step identification")
    add_io(p)
    p.add_argument("--segments", type=_int_at_least(1), required=True,
                   help="segment budget for the output fit")
    p.set_defaults(func=_cmd_baseline)

    p = sub.add_parser("ripcheck", help="restricted-isometry uniqueness check")
    add_io(p, plots=False)
    p.add_argument("--k", type=_int_at_least(1), required=True,
                   help="difference sparsity level")
    p.set_defaults(func=_cmd_ripcheck)

    p = sub.add_parser("simulate", help="generate a named synthetic scenario")
    p.add_argument("--scenario", required=True,
                   help=f"one of {', '.join(SCENARIO_NAMES)}")
    p.add_argument("--seed", type=int, default=None, help="noise seed")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--plot-dir", default=None,
                   help="directory for true-input CSV files")
    p.set_defaults(func=_cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (_UsageError, _DataError) as exc:
        print(f"bilarx: {exc}", file=sys.stderr)
        return EXIT_BAD_DATA if isinstance(exc, _DataError) else EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
