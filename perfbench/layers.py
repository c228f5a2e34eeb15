"""Per-layer metrics of the traced run, and its coverage invariants.

Times ending in ``_s`` are inclusive span totals over the traced units;
``self_s`` is a span minus its child spans. ``datagen.*`` also covers one
traced set-up, which is where set-up time goes.
"""

from __future__ import annotations

from tracer import Tracer

# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    ("prox.svt.calls", "count", "lower"),
    ("prox.svt_s", "s", "lower"),
    ("prox.thin_svd.calls", "count", "lower"),
    ("prox.thin_svd_s", "s", "lower"),
    ("prox.group_shrink_s", "s", "lower"),
    ("prox.box_clip_s", "s", "lower"),
    ("prox.row_diff_s", "s", "lower"),
    ("solver.factor_s", "s", "lower"),
    ("solver.factor_fallbacks", "count", "lower"),
    ("solver.xsolve.calls", "count", "lower"),
    ("solver.xsolve_s", "s", "lower"),
    ("solver.xsolve_mb_computed", "MB", "lower"),
    ("solver.solves", "count", "lower"),
    ("solver.iters", "count", "lower"),
    ("solver.converged", "count", "higher"),
    ("solver.self_s", "s", "lower"),
    ("solver.sweep_points", "count", "lower"),
    ("problem.build_operator.calls", "count", "lower"),
    ("problem.build_operator_s", "s", "lower"),
    ("extract.factor_rank1.calls", "count", "lower"),
    ("extract.factor_rank1_s", "s", "lower"),
    ("extract.change_points_s", "s", "lower"),
    ("analysis.rip_s", "s", "lower"),
    ("analysis.patterns", "count", "lower"),
    ("analysis.us_per_pattern", "us", "lower"),
    ("baseline.naive_identify_s", "s", "lower"),
    ("baseline.segment_s", "s", "lower"),
    ("datagen.scenario_s", "s", "lower"),
    ("datagen.simulate_s", "s", "lower"),
    ("cli.simulate_s", "s", "lower"),
    ("cli.identify_s", "s", "lower"),
    ("cli.refine_s", "s", "lower"),
    ("cli.sweep_s", "s", "lower"),
    ("cli.ripcheck_s", "s", "lower"),
    ("cli.baseline_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.bytes_written", "bytes", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
    ("trace.uncovered_frac", "frac", "lower"),
    ("trace.spans", "count", "lower"),
)


def _hooks(rip_patterns_checked):
    def on_solve(tracer, args, kwargs, sol):
        tracer.add("solver.solves", 1)
        tracer.add("solver.iters", sol.diagnostics.iterations)
        tracer.add("solver.converged", int(sol.diagnostics.converged))
        if tracer.parent() == "solver.sweep_lambda":
            tracer.add("solver.sweep_points", 1)

    def on_xsolve(tracer, args, kwargs, x):
        p = args[0][0].shape[0]          # (factor, lower) of a p x p matrix
        tracer.add("solver.xsolve_mb_computed", 8.0 * p * p / 1e6)

    def on_rip(tracer, args, kwargs, value):
        operator, k = args[0], args[1] if len(args) > 1 else kwargs["k"]
        tracer.add("analysis.patterns", rip_patterns_checked(operator, k))

    return {
        "solver.solve_bil": on_solve,
        "solver.solve_refined": on_solve,
        "linalg.cho_solve": on_xsolve,
        "analysis.rip_constant": on_rip,
    }


def traced_run(workload, run_units):
    """Install spans, trace one set-up and ``run_units()``.

    Returns the tracer, the results of the traced units and the seconds of
    those units that outermost spans cover.
    """
    import bilarx

    tracer = Tracer()
    tracer.install(hooks=_hooks(bilarx.analysis.rip_patterns_checked),
                   names={"cli.main": lambda args: f"cli.{args[0][0]}"})
    try:
        missed = tracer.unwrapped_sites()
        if missed:
            raise RuntimeError(f"tracer left lookup sites unwrapped: {missed}")
        workload.setup()
        root_before = tracer.root_s
        traced = run_units()
        covered_s = tracer.root_s - root_before
    finally:
        tracer.uninstall()
    return tracer, traced, covered_s


def layer_metrics(tracer, untraced, traced, covered_s):
    """Per-layer metrics plus the coverage invariants (name -> bool).

    ``covered_s`` is the time of the traced units that outermost spans cover.
    """
    t = tracer
    op_wall_t = sum(r.wall_s for r in traced)
    # Overhead compares normalised times, so a change of machine speed
    # between the two passes does not read as tracing cost.
    norm_u = sum(r.wall_s * r.scale for r in untraced)
    norm_t = sum(r.wall_s * r.scale for r in traced)
    iters_total = sum(r.iters for r in traced)
    solves = t.count("solver.solves")
    iters = t.count("solver.iters")
    fallbacks = t.calls("linalg.eigh")
    patterns = t.count("analysis.patterns")
    values = {
        "prox.svt.calls": t.calls("prox.svt"),
        "prox.svt_s": t.total("prox.svt"),
        "prox.thin_svd.calls": t.calls("prox.thin_svd"),
        "prox.thin_svd_s": t.total("prox.thin_svd"),
        "prox.group_shrink_s": t.total("prox.row_group_shrink"),
        "prox.box_clip_s": t.total("prox.box_clip"),
        "prox.row_diff_s": t.total("prox.row_diff", "prox.row_diff_adjoint"),
        "solver.factor_s": t.total("linalg.cho_factor", "linalg.eigh"),
        "solver.factor_fallbacks": fallbacks,
        "solver.xsolve.calls": t.calls("linalg.cho_solve"),
        "solver.xsolve_s": t.total("linalg.cho_solve"),
        "solver.xsolve_mb_computed": t.count("solver.xsolve_mb_computed"),
        "solver.solves": solves,
        "solver.iters": iters,
        "solver.converged": t.count("solver.converged"),
        "solver.self_s": t.self_time("solver."),
        "solver.sweep_points": t.count("solver.sweep_points"),
        "problem.build_operator.calls": t.calls("problem.build_lifted_operator"),
        "problem.build_operator_s": t.total("problem.build_lifted_operator"),
        "extract.factor_rank1.calls": t.calls("extract.factor_rank1"),
        "extract.factor_rank1_s": t.total("extract.factor_rank1"),
        "extract.change_points_s": t.total("extract.change_points"),
        "analysis.rip_s": t.total("analysis.operator_from_problem",
                                  "analysis.rip_report"),
        "analysis.patterns": patterns,
        "analysis.us_per_pattern": 1e6 * t.total("analysis.rip_constant") / patterns
        if patterns else 0.0,
        "baseline.naive_identify_s": t.total("baseline.naive_identify"),
        "baseline.segment_s": t.total("baseline.fit_piecewise_constant"),
        "datagen.scenario_s": t.total("datagen.scenario"),
        "datagen.simulate_s": t.total("datagen.simulate_arx"),
        **{f"cli.{c}_s": t.total(f"cli.{c}") for c in
           ("simulate", "identify", "refine", "sweep", "ripcheck", "baseline")},
        "cli.self_s": t.self_time("cli."),
        "cli.bytes_written": sum(r.bytes_written for r in traced),
        "trace.wall_s": op_wall_t,
        "trace.overhead_s": norm_t - norm_u,
        "trace.overhead_frac": (norm_t - norm_u) / norm_u,
        "trace.uncovered_frac": max(op_wall_t - covered_s, 0.0) / op_wall_t,
        "trace.spans": t.spans,
    }
    # Solves seen by the benchmark itself; the CLI sweep reports only its
    # chosen point, so there the hooks see more iterations than the JSON.
    sees_every_solve = all(r.kind != "sweep" for r in traced)
    invariants = {
        "svt_calls_eq_iters": values["prox.svt.calls"] == iters,
        "thin_svd_calls_eq_iters_plus_2_solves":
            values["prox.thin_svd.calls"] == iters + 2 * solves,
        "xsolve_calls_eq_iters":
            fallbacks > 0 or values["solver.xsolve.calls"] == iters,
        "hooked_iters_eq_reported": iters == iters_total if sees_every_solve
            else iters >= iters_total,
        "same_outcome_traced": [r.iters for r in traced] == [r.iters for r in untraced],
    }
    metrics = {name: (float(values[name]), unit) for name, unit, _ in PER_LAYER}
    return metrics, invariants
