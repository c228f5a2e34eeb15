"""Blind identification of ARX models with piecewise-constant inputs.

The package identifies both an ARX model and its unobserved
piecewise-constant input from output-only measurements by lifting the
bilinear unknowns into a low-rank matrix and solving a convex program
(nuclear norm plus a row-group-sparse penalty on consecutive differences)
with ADMM. It also ships the rank-1 extraction step, a bias-removing
refinement solve, a penalty sweep, a restricted-isometry uniqueness
certifier with a brute-force oracle, a naive two-step baseline, and
synthetic scenario generation.
"""

from .analysis import (
    BruteForceResult,
    BruteForceSolution,
    MatrixOperator,
    RipReport,
    brute_force_solve,
    certify_uniqueness,
    operator_from_problem,
    rip_constant,
    rip_report,
)
from .baseline import fit_piecewise_constant, least_squares_arx, naive_identify
from .datagen import (
    PlantedTruth,
    Scenario,
    add_uniform_noise,
    gen_piecewise_input,
    scenario,
    simulate_arx,
)
from .extract import FactoredModel, change_points, factor_rank1
from .problem import (
    ArxOrders,
    LiftedOperator,
    LiftedVariables,
    OutputSeries,
    ProblemSpec,
    build_lifted_operator,
    build_problem,
)
from .prox import (
    box_clip,
    row_group_norm,
    row_group_shrink,
    svt,
    thin_svd,
)
from .solver import (
    BilSolution,
    SolverDiagnostics,
    SolverOptions,
    SweepResult,
    refine_pipeline,
    solve_bil,
    solve_refined,
    sweep_lambda,
)

__version__ = "0.1.0"

__all__ = [
    "ArxOrders",
    "BilSolution",
    "BruteForceResult",
    "BruteForceSolution",
    "FactoredModel",
    "LiftedOperator",
    "LiftedVariables",
    "MatrixOperator",
    "OutputSeries",
    "PlantedTruth",
    "ProblemSpec",
    "RipReport",
    "Scenario",
    "SolverDiagnostics",
    "SolverOptions",
    "SweepResult",
    "add_uniform_noise",
    "box_clip",
    "brute_force_solve",
    "build_lifted_operator",
    "build_problem",
    "certify_uniqueness",
    "change_points",
    "factor_rank1",
    "fit_piecewise_constant",
    "gen_piecewise_input",
    "least_squares_arx",
    "naive_identify",
    "operator_from_problem",
    "refine_pipeline",
    "rip_constant",
    "rip_report",
    "row_group_norm",
    "row_group_shrink",
    "scenario",
    "simulate_arx",
    "solve_bil",
    "solve_refined",
    "svt",
    "sweep_lambda",
    "thin_svd",
]
