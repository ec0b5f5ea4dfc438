"""Linear binary constraint systems and their inconsistency graphs.

For a linear BCS F over GF(2) with m constraints, three statements are
equivalent: F is satisfiable, G_F is isomorphic to the graph of its
homogenization F_0, and the independence number of G_F equals m.  The
magic square system is the canonical unsatisfiable witness: its graph
has 24 vertices and alpha = 5 < 6.  The report decides the isomorphism by
the reduction's witnesses: the shift map of a satisfying assignment, or a
GF(2) refutation y (y^T A = 0, y^T b = 1) that proves alpha(G_F) < m.
"""

from qgiso import (
    bcs_graph,
    classical_reduction_report,
    format_bcs,
    homogenize,
    magic_square,
    parse_bcs,
    solve_or_refute,
)

ms = magic_square()
print(format_bcs(ms))
print("GF(2) elimination:", solve_or_refute(ms)[0])
print("homogenization:   ", solve_or_refute(homogenize(ms))[0])

bg = bcs_graph(ms)
print("G_F: vertices =", bg.graph.n, " edges =", bg.graph.num_edges())
print("a vertex label:", bg.graph.labels[0])

report = classical_reduction_report(ms)
for key in ("satisfiable", "graphs_isomorphic", "alpha", "alpha_equals_m"):
    print(f"  {key}: {report[key]}")
# the NO certificate: summing the constraints picked by y gives 0 = 1
print("  refutation y:", report["refutation"])

# a satisfiable system, for contrast: all three facets flip together
easy = parse_bcs("x1 + x2 = 1\nx2 + x3 = 0\n")
report = classical_reduction_report(easy)
print("satisfiable system:", report["satisfiable"], report["graphs_isomorphic"],
      report["alpha_equals_m"], " phi =", report["isomorphism"])
