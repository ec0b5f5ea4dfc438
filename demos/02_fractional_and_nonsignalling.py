"""Fractional isomorphism and the non-signalling strategy it induces.

C6 and 2K3 are both 2-regular, so color refinement on their disjoint
union stabilizes with a single common cell: they are fractionally
isomorphic even though no genuine isomorphism exists.  From the common
equitable partition we build an explicit perfect non-signalling strategy
for the isomorphism game and read the doubly stochastic witness back off
its diagonal entries.
"""

from fractions import Fraction

from qgiso import (
    build_ns_correlation,
    correlation_to_ds_witness,
    fractional_iso,
    from_edges,
    verify_distribution,
    verify_ds_witness,
    verify_nonsignalling,
    verify_perfect_iso_strategy,
)

c6 = from_edges(
    [f"v{i}" for i in range(6)],
    [(f"v{i}", f"v{(i + 1) % 6}") for i in range(6)],
)
two_k3 = from_edges(
    ["a0", "a1", "a2", "b0", "b1", "b2"],
    [("a0", "a1"), ("a0", "a2"), ("a1", "a2"), ("b0", "b1"), ("b0", "b2"), ("b1", "b2")],
)

cep, (M, L) = fractional_iso(c6, two_k3)  # D = M / L, integer numerators over one denominator
print("common equitable partition: cells =", cep.k, " sizes =", cep.sizes(), " c =", cep.c)
print("doubly stochastic witness entry D[0][0] =", Fraction(int(M[0, 0]), L))
assert Fraction(int(M[0, 0]), L) == Fraction(1, 6)

corr = build_ns_correlation(c6, two_k3, cep)
print("nonzero correlation entries:", len(corr.table))
print("p(edge answer | edge question) =", corr.get(0, 1, 6, 7))

print("distribution + non-signalling:",
      verify_distribution(corr)[0] and verify_nonsignalling(corr)[0])
print("wins the isomorphism game:   ", verify_perfect_iso_strategy(corr, c6, two_k3)[0])

# converse direction: diagonal entries of the correlation recover a witness
D_back = correlation_to_ds_witness(corr, c6, two_k3)
print("recovered witness verifies:  ", verify_ds_witness(c6, two_k3, D_back)[0])
