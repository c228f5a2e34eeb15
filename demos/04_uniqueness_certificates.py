"""When is the sparse solution provably the only one?

A measurement operator is (eps, k) restricted-isometric on piecewise
matrices if it nearly preserves the norm of every matrix whose consecutive
row differences have at most k nonzero rows (first and last differences
pinned to zero). If the constant at level 2k stays below one, two distinct
feasible matrices with at most k changes each cannot exist: their difference
would be annihilated while having at most 2k changes.

The constant is computed exactly by restricting the operator to each
difference-support subspace. Here: a well-conditioned random operator earns
a certificate and brute-force enumeration confirms the unique solution; the
structured identification operator does not certify (it cannot see
constant-row matrices with zero row sums), so convex recovery there rests on
the penalty, not on a certificate. On exact data the brute-force oracle still
answers: on the paper's FIR instance it resolves that invisible family to its
one rank-one member and finds the planted input the only solution with at
most three changes.
"""

import numpy as np

from bilarx import ArxOrders, build_problem, scenario
from bilarx.analysis import (
    MatrixOperator,
    brute_force_solve,
    certify_uniqueness,
    operator_from_problem,
    rip_constant,
    rip_report,
)

n1, n2, n3 = 8, 2, 60
rng = np.random.default_rng(7)
op = MatrixOperator(rng.normal(size=(n3, n1 * n2)) / np.sqrt(n3), n1, n2)

report = rip_report(op, k=1)
print(f"random operator, sparsity 1: constant {report.rip_epsilon:.3f} "
      f"over {report.patterns_checked} patterns")
print(f"certified unique at level 2: {report.certified_unique}")
print()

# plant a rank-one matrix with a single interior change and enumerate
row = rng.normal(size=n2)
u = np.ones(n1)
u[4:] = 2.2
Z = np.outer(u, row)
res = brute_force_solve(op, 1, rhs=op.apply(Z))
print(f"brute force over {res.patterns_checked} patterns found "
      f"{res.num_solutions} solution(s)")
print("planted matrix recovered exactly:",
      bool(np.allclose(res.solutions[0].X, Z, atol=1e-8)))
print()

spec = build_problem([np.arange(1.0, 13.0)], ArxOrders(n_a=0, n_b=2), 0.0)
arx_op = operator_from_problem(spec)
print(f"identification operator: constant at sparsity 1 = "
      f"{rip_constant(arx_op, 1):.3f}")
print("certified:", certify_uniqueness(arx_op, 1))
print()

sc = scenario("scenario_fir_noisefree")
fir = brute_force_solve(sc.spec, 3)
print(f"FIR preset (n_b = 3): brute force over {fir.patterns_checked} patterns "
      f"found {fir.num_solutions} solution(s), "
      f"{len(fir.ambiguous_patterns)} ambiguous pattern(s)")
print(f"changes at {fir.solutions[0].pattern}, "
      f"planted at {sc.truth.change_points[0]}")
