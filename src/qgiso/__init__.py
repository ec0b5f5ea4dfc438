"""Certified graph-isomorphism relaxations.

Decides and certifies classical isomorphism, fractional / non-signalling
isomorphism, and quantum isomorphism of graphs, and reproduces the
24-vertex pair (from the magic-square constraint system) that is quantum
isomorphic but not isomorphic.
"""

from .bcs import (
    BCSGraph,
    LinBCS,
    bcs_graph,
    classical_reduction_report,
    format_bcs,
    homogenize,
    magic_square,
    parse_bcs,
    solve_or_refute,
    verify_refutation,
)
from .correlations import (
    Correlation,
    build_ns_correlation,
    correlation_to_ds_witness,
    format_correlation,
    ns_iso,
    parse_correlation,
    pr_box,
    verify_distribution,
    verify_nonsignalling,
    verify_perfect_iso_strategy,
)
from .equitable import (
    CommonEquitablePartition,
    EquitablePartition,
    color_refinement,
    common_equitable_partition,
    fractional_iso,
    verify_ds_witness,
    verify_equitable,
)
from .graphs import (
    CharPoly,
    Graph,
    VertexMap,
    char_poly,
    complement,
    cospectral_mates,
    disjoint_union,
    find_isomorphism,
    format_graph,
    from_edges,
    independence_number,
    parse_graph,
)
from .quantum import (
    BCSQuantumStrategy,
    ProjectivePacking,
    QuantumIsoCertificate,
    certificate_correlation,
    mermin_bcs_strategy,
    observable_strategy,
    quantum_reduction_report,
    strategy_packing,
    strategy_to_certificate,
    verify_bcs_strategy,
    verify_certificate_correlation,
    verify_packing,
    verify_ppm,
    verify_qiso_certificate,
)

__version__ = "0.1.0"
