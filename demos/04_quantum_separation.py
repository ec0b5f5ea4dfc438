"""Quantum isomorphism without isomorphism, in dimension 4.

The magic square BCS is classically unsatisfiable, so its inconsistency
graph G_F is not isomorphic to the homogenized G_F0.  But two-qubit
Pauli observables satisfy the six constraints operationally, and the
resulting family of rank-1 projectors assembles into a d = 4 projective
permutation matrix intertwining the two adjacency matrices: the graphs
are quantum isomorphic.  Every residual of the certificate is zero to
machine precision.
"""

from qgiso import (
    magic_square,
    mermin_bcs_strategy,
    quantum_reduction_report,
    strategy_packing,
    strategy_to_certificate,
    verify_certificate_correlation,
    verify_packing,
    verify_qiso_certificate,
)

ms = magic_square()

strategy = mermin_bcs_strategy()
first_assignment, first_op = strategy.ops[0][0]
print("first constraint, first satisfying assignment:", first_assignment)
print("its measurement operator shape:", first_op.shape)

bg, bg0, cert = strategy_to_certificate(ms, strategy)
g, h = bg.graph, bg0.graph
report = verify_qiso_certificate(g, h, cert)
print("certificate ok:", report["ok"])
for name, value in report["residuals"].items():
    print(f"  {name:14s} {value:.3e}")

(ns_ok, _), (perfect_ok, _) = verify_certificate_correlation(cert, g, h)
print("induced correlation: non-signalling =", ns_ok, " perfect =", perfect_ok)

pack_report = verify_packing(g, strategy_packing(strategy, bg))
print("projective packing value:", pack_report["value"], "(= m, despite alpha = 5)")

full = quantum_reduction_report(ms)
print("summary: satisfiable =", full["satisfiable"],
      " isomorphic =", full["isomorphic"],
      " quantum isomorphic =", full["certificate"]["ok"])
