"""Complex-matrix certificates for quantum isomorphism.

Covers projective permutation matrices, the projector certificate for the
isomorphism game (both the sum/orthogonality form and the block-matrix
intertwining form), the induced correlation on the maximally entangled
state, projective packings, the dimension-4 operator solution of the
magic-square system, and the reduction from a perfect BCS strategy to an
isomorphism certificate.

All residuals are Frobenius norms; the default acceptance tolerance is
1e-9 while the built-in constructions land near machine epsilon.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bcs import LinBCS, bcs_graph, homogenize, magic_square, satisfying_assignments, solve_gf2
from .correlations import Correlation, iso_game_tokens
from .games import bcs_game_predicate, rel_codes
from .graphs import Graph, GraphError

DEFAULT_TOL = 1e-9
MAX_BLOCK_DIM = 64


def frob(a):
    return float(np.linalg.norm(np.asarray(a, dtype=complex)))


def _as_blocks(blocks):
    a = np.asarray(blocks, dtype=complex)
    if a.ndim != 4 or a.shape[2] != a.shape[3]:
        raise GraphError("expected an n x m array of square blocks")
    if a.shape[2] > MAX_BLOCK_DIM:
        raise GraphError(f"block dimension {a.shape[2]} exceeds cap {MAX_BLOCK_DIM}")
    return a


def projector_residuals(a):
    """Max Frobenius residuals (idempotence, hermiticity) over a block array."""
    idem = np.linalg.norm(a @ a - a, axis=(-2, -1)).max()
    herm = np.linalg.norm(a - a.conj().swapaxes(-2, -1), axis=(-2, -1)).max()
    return float(idem), float(herm)


def assemble(blocks):
    """Stack an (n, m, d, d) block array into an (n d, m d) matrix."""
    n, m, d, _ = blocks.shape
    return blocks.transpose(0, 2, 1, 3).reshape(n * d, m * d)


def verify_ppm(blocks, tol=DEFAULT_TOL):
    """Projective-permutation-matrix check, both characterizations.

    Blocks must all be projectors with every block-row and block-column
    summing to the identity; equivalently the assembled matrix is unitary
    with projector blocks.  The two routes must agree, so a disagreement
    beyond tolerance slack is flagged as inconsistent.
    """
    a = _as_blocks(blocks)
    n, m, d, _ = a.shape
    if n != m:
        raise GraphError("projective permutation matrices must be square block arrays")
    eye = np.eye(d)
    idem, herm = projector_residuals(a)
    row = float(np.linalg.norm(a.sum(axis=1) - eye, axis=(-2, -1)).max())
    col = float(np.linalg.norm(a.sum(axis=0) - eye, axis=(-2, -1)).max())
    big = assemble(a)
    unit = float(np.linalg.norm(big @ big.conj().T - np.eye(n * d)))
    residuals = {
        "projector": idem,
        "hermitian": herm,
        "row_sum": row,
        "col_sum": col,
        "unitarity": unit,
    }
    sums_ok = max(idem, herm, row, col) <= tol
    unitary_ok = max(idem, herm, unit) <= tol
    # the characterizations are equivalent; allow norm-growth slack of n*d
    consistent = sums_ok == unitary_ok or not (
        max(idem, herm, row, col) > tol * n * d or unit > tol * n * d
    )
    return {"ok": sums_ok and unitary_ok, "consistent": consistent, "residuals": residuals}


@dataclass
class QuantumIsoCertificate:
    """One d x d projector per vertex pair (g, h); absent pairs are zero."""

    d: int
    blocks: np.ndarray  # (|V(G)|, |V(H)|, d, d) complex

    def __post_init__(self):
        self.blocks = _as_blocks(self.blocks)
        if self.blocks.shape[2] != self.d:
            raise GraphError("block dimension does not match d")


def verify_qiso_certificate(g: Graph, h: Graph, cert: QuantumIsoCertificate, tol=DEFAULT_TOL):
    """Full certificate report: projector, sum, orthogonality, and
    intertwining residuals, plus the projective-permutation-matrix cross
    check.

    The sum/orthogonality conditions and the intertwining form are
    equivalent, so the report flags any disagreement between the two code
    paths as an internal inconsistency.
    """
    if g.n != h.n:
        return {"ok": False, "reason": "vertex counts differ", "residuals": {}}
    E = cert.blocks
    if E.shape[:2] != (g.n, h.n):
        raise GraphError("certificate block grid does not match the graphs")
    d = cert.d
    ppm = verify_ppm(E, tol)
    r = ppm["residuals"]
    idem, herm, row, col = r["projector"], r["hermitian"], r["row_sum"], r["col_sum"]

    # pairwise product norms via ||A B||^2 = tr((A^dag A)(B B^dag)); a pair
    # with an all-zero block has product exactly 0, so only non-zero blocks
    # are paired
    n = g.n
    nz_g, nz_h = np.nonzero(np.any(E != 0, axis=(2, 3)))
    M = E[nz_g, nz_h]
    P = M.conj().swapaxes(-2, -1) @ M
    Q = M @ M.conj().swapaxes(-2, -1)
    prod_sq = np.einsum("aij,bji->ab", P, Q).real
    mismatch = rel_codes(g)[np.ix_(nz_g, nz_g)] != rel_codes(h)[np.ix_(nz_h, nz_h)]
    orth = float(np.sqrt(np.abs(prod_sq[mismatch]).max())) if mismatch.any() else 0.0

    big = assemble(E)
    ag = np.kron(g.adj.astype(float), np.eye(d))
    ah = np.kron(h.adj.astype(float), np.eye(d))
    intertwine = float(np.linalg.norm(ag @ big - big @ ah))

    residuals = {
        "projector": idem,
        "hermitian": herm,
        "row_sum": row,
        "col_sum": col,
        "orthogonality": orth,
        "intertwining": intertwine,
        "unitarity": r["unitarity"],
    }
    direct_ok = max(idem, herm, row, col, orth) <= tol
    intertwine_ok = max(idem, herm, row, col, intertwine) <= tol
    consistent = direct_ok == intertwine_ok or not (
        orth > tol * n * d or intertwine > tol * n * d
    )
    return {
        "ok": direct_ok and intertwine_ok and ppm["ok"],
        "consistent": consistent and ppm["consistent"],
        "residuals": residuals,
    }


def classical_certificate(g: Graph, h: Graph, phi):
    """The d = 1 certificate of an actual isomorphism: E_gh = [h == phi(g)]."""
    blocks = np.zeros((g.n, h.n, 1, 1), dtype=complex)
    for v in range(g.n):
        blocks[v, phi(v), 0, 0] = 1.0
    return QuantumIsoCertificate(1, blocks)


def certificate_correlation(cert: QuantumIsoCertificate, g: Graph, h: Graph, tol=DEFAULT_TOL):
    """The correlation the certificate induces on the maximally entangled
    state: p(y, y' | x, x') = tr(E_xy E_x'y') / d, with Bob's operators the
    transposes and the off-graph operator extensions set to zero.

    Only the K non-zero blocks take part: one K x K product of the blocks,
    each flattened to d^2 entries, gives every trace tr(E_a E_b).  Block
    (g, h) is the operator for both question g / answer h and question h /
    answer g, so each of the 2K (question, answer) pairs of either player
    meets each of the other's; the entries with non-zero real part form the
    sparse float ``Correlation``.
    """
    n, d = g.n, cert.d
    nz_g, nz_h = np.nonzero(np.any(cert.blocks != 0, axis=(2, 3)))
    blocks = cert.blocks[nz_g, nz_h]
    k = len(blocks)
    traces = (blocks.reshape(k, d * d) @ blocks.swapaxes(1, 2).reshape(k, d * d).T) / d
    if traces.size and float(np.abs(traces.imag).max()) > tol:
        raise AssertionError("correlation has a non-real entry")
    x = np.concatenate([nz_g, nz_h + n])  # (question, answer) pair a uses block a % k
    y = np.concatenate([nz_h + n, nz_g])
    values = np.tile(traces.real, (2, 2))
    a, b = np.nonzero(values)
    keys = np.stack([x[a], x[b], y[a], y[b]], axis=1)
    return Correlation(iso_game_tokens(g, h), "float", (keys, values[a, b]), tol=tol)


@dataclass
class ProjectivePacking:
    """One d x d projector per vertex; adjacent vertices get orthogonal
    projectors.  Value is total rank over d."""

    d: int
    blocks: np.ndarray  # (n, d, d) complex


def verify_packing(g: Graph, pack: ProjectivePacking, tol=DEFAULT_TOL):
    """Verify packing invariants and return its exact value as a Fraction.

    Projector ranks are recovered as rounded real traces, which is valid
    because the projector property is checked first; a trace farther than
    0.01 from an integer is an error.
    """
    a = np.asarray(pack.blocks, dtype=complex)
    if a.shape != (g.n, pack.d, pack.d):
        raise GraphError("packing shape does not match the graph")
    idem, herm = projector_residuals(a)
    if max(idem, herm) > tol:
        return {"ok": False, "reason": f"non-projector entry (residual {max(idem, herm):.3e})"}
    orth = 0.0
    for i in range(g.n):
        for j in g.neighbors(i):
            if i < j:
                orth = max(orth, frob(a[i] @ a[int(j)]))
    if orth > tol:
        return {"ok": False, "reason": f"adjacent projectors not orthogonal ({orth:.3e})"}
    ranks = []
    for i in range(g.n):
        t = float(a[i].trace().real)
        r = round(t)
        if abs(t - r) > 0.01:
            return {"ok": False, "reason": f"trace {t} of vertex {i} not near an integer"}
        ranks.append(r)
    return {"ok": True, "value": Fraction(sum(ranks), pack.d), "ranks": ranks,
            "residuals": {"projector": idem, "hermitian": herm, "orthogonality": orth}}


@dataclass
class BCSQuantumStrategy:
    """Per constraint, a projective measurement indexed by the satisfying
    assignments of that constraint."""

    d: int
    ops: tuple  # per constraint: tuple of (assignment dict, (d, d) ndarray)


_I2 = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def magic_square_observables():
    """Two-qubit observables for the nine variables, row-major.

    Within each constraint the three observables commute and their product
    is +I for the five homogeneous constraints and -I for the inhomogeneous
    one, matching the right-hand sides of the magic-square system.
    """
    k = np.kron
    return [
        k(_X, _I2), k(_I2, _X), k(_X, _X),
        k(_I2, _Z), k(_Z, _I2), k(_Z, _Z),
        k(_X, _Z), k(_Z, _X), k(_Y, _Y),
    ]


def mermin_bcs_strategy(tol=DEFAULT_TOL):
    """The dimension-4 perfect strategy for the magic-square system.

    Measurement operators are joint-eigenspace projectors of the commuting
    observable triple of each constraint.  The observable table is asserted
    against all six product identities at build time rather than trusted.
    """
    bcs = magic_square()
    obs = magic_square_observables()
    eye = np.eye(4, dtype=complex)
    for o in obs:
        assert frob(o - o.conj().T) < 1e-12 and frob(o @ o - eye) < 1e-12
    for s, b in bcs.constraints:
        o1, o2, o3 = (obs[i] for i in s)
        assert frob(o1 @ o2 - o2 @ o1) < 1e-12
        assert frob(o2 @ o3 - o3 @ o2) < 1e-12
        assert frob(o1 @ o3 - o3 @ o1) < 1e-12
        assert frob(o1 @ o2 @ o3 - (-1.0) ** b * eye) < 1e-12
    ops = []
    for s, b in bcs.constraints:
        family = []
        for f in satisfying_assignments(s, b):
            proj = eye
            for i in s:
                proj = proj @ (eye + (-1.0) ** f[i] * obs[i]) / 2
            family.append((f, proj))
        ops.append(tuple(family))
    strat = BCSQuantumStrategy(4, tuple(ops))
    report = verify_bcs_strategy(bcs, strat, tol)
    if not report["ok"]:
        raise AssertionError(f"magic-square strategy failed verification: {report}")
    return strat


def classical_bcs_strategy(bcs: LinBCS, assignment):
    """d = 1 strategy from a classical satisfying assignment."""
    ops = []
    for s, b in bcs.constraints:
        family = []
        target = {i: assignment[i] for i in s}
        for f in satisfying_assignments(s, b):
            val = 1.0 if f == target else 0.0
            family.append((f, np.array([[val]], dtype=complex)))
        ops.append(tuple(family))
    return BCSQuantumStrategy(1, tuple(ops))


def verify_bcs_strategy(bcs: LinBCS, strat: BCSQuantumStrategy, tol=DEFAULT_TOL):
    """Check measurement structure and that the induced correlation
    tr(E_(l,f) E_(k,f'))/d vanishes on every losing tuple of the BCS game."""
    if len(strat.ops) != bcs.m:
        raise GraphError("strategy constraint count does not match the system")
    d = strat.d
    eye = np.eye(d)
    worst_proj = worst_sum = worst_losing = 0.0
    for l, ((s, b), family) in enumerate(zip(bcs.constraints, strat.ops)):
        expected = satisfying_assignments(s, b)
        if [f for f, _ in family] != expected:
            raise GraphError(f"constraint {l}: assignment family mismatch")
        total = np.zeros((d, d), dtype=complex)
        for f, op in family:
            idem, herm = projector_residuals(np.asarray(op)[None, None])
            worst_proj = max(worst_proj, idem, herm)
            total += op
        worst_sum = max(worst_sum, frob(total - eye))
    for l_a, fam_a in enumerate(strat.ops):
        for l_b, fam_b in enumerate(strat.ops):
            for f_a, op_a in fam_a:
                for f_b, op_b in fam_b:
                    if not bcs_game_predicate(bcs, l_a, l_b, f_a, f_b):
                        p = abs(np.trace(op_a @ op_b)) / d
                        worst_losing = max(worst_losing, float(p))
    residuals = {"projector": worst_proj, "sum": worst_sum, "losing_probability": worst_losing}
    return {"ok": max(worst_proj, worst_sum) <= tol and worst_losing <= tol,
            "residuals": residuals}


def strategy_packing(bcs: LinBCS, strat: BCSQuantumStrategy):
    """Projective packing of the BCS graph induced by a perfect strategy."""
    bg = bcs_graph(bcs)
    blocks = []
    for l, f in bg.vertex_meta:
        match = [op for fa, op in strat.ops[l] if fa == f]
        blocks.append(match[0])
    return bg, ProjectivePacking(strat.d, np.array(blocks))


def strategy_to_certificate(bcs: LinBCS, strat: BCSQuantumStrategy):
    """Certificate for the pair (G of the system, G of its homogenization).

    Block ((l, f), (k, g)) is the strategy operator for f xor g when l = k
    (f xor g satisfies the original constraint), zero otherwise.
    """
    bg = bcs_graph(bcs)
    bg0 = bcs_graph(homogenize(bcs))
    if bg.graph.n != bg0.graph.n:
        raise GraphError("graph and homogenized graph have different sizes")
    d = strat.d
    lookup = []
    for family in strat.ops:
        lookup.append({tuple(sorted(f.items())): op for f, op in family})
    blocks = np.zeros((bg.graph.n, bg0.graph.n, d, d), dtype=complex)
    for a, (l, f) in enumerate(bg.vertex_meta):
        for b, (k, fz) in enumerate(bg0.vertex_meta):
            if l != k:
                continue
            xor = {i: f[i] ^ fz[i] for i in f}
            blocks[a, b] = lookup[l][tuple(sorted(xor.items()))]
    return bg, bg0, QuantumIsoCertificate(d, blocks)


def quantum_reduction_report(bcs: LinBCS, strat=None, tol=DEFAULT_TOL):
    """End-to-end report for the quantum reduction on one system.

    Covers classical satisfiability, the classical isomorphism verdict,
    cospectrality, certificate residuals, the induced correlation's
    perfection and non-signalling checks, and the packing value against the
    constraint count.
    """
    from .correlations import verify_nonsignalling, verify_perfect_iso_strategy
    from .graphs import cospectral_mates, find_isomorphism, independence_number

    assignment = solve_gf2(bcs)
    if strat is None:
        if assignment is not None:
            strat = classical_bcs_strategy(bcs, assignment)
        elif bcs == magic_square():
            strat = mermin_bcs_strategy(tol)
        else:
            raise GraphError(
                "no strategy available: system is unsatisfiable and not the built-in magic square"
            )
    strat_report = verify_bcs_strategy(bcs, strat, tol)
    bg, bg0, cert = strategy_to_certificate(bcs, strat)
    cert_report = verify_qiso_certificate(bg.graph, bg0.graph, cert, tol)
    corr = certificate_correlation(cert, bg.graph, bg0.graph, tol=10 * tol)
    ns_ok, ns_violation = verify_nonsignalling(corr)
    perfect_ok, losing = verify_perfect_iso_strategy(corr, bg.graph, bg0.graph)
    _, packing = strategy_packing(bcs, strat)
    packing_report = verify_packing(bg.graph, packing, tol)
    spectra = cospectral_mates(bg.graph, bg0.graph)
    alpha = independence_number(bg.graph)
    alpha0 = independence_number(bg0.graph)
    phi = find_isomorphism(bg.graph, bg0.graph)
    report = {
        "satisfiable": assignment is not None,
        "isomorphic": phi is not None,
        "num_vertices": bg.graph.n,
        "m": bcs.m,
        "alpha": alpha["alpha"],
        "alpha_homogenized": alpha0["alpha"],
        "cospectral": spectra["cospectral"],
        "complements_cospectral": spectra["complements_cospectral"],
        "strategy": strat_report,
        "certificate": cert_report,
        "correlation_nonsignalling": ns_ok,
        "correlation_perfect": perfect_ok,
        "packing": packing_report,
        "ok": (strat_report["ok"] and cert_report["ok"] and ns_ok and perfect_ok
               and packing_report["ok"] and packing_report.get("value") == bcs.m),
    }
    if not ns_ok:
        report["nonsignalling_violation"] = ns_violation
    if not perfect_ok:
        report["losing_tuple"] = losing
    return report


# --- JSON round trip -------------------------------------------------------

def _matrix_to_json(mat):
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(mat, dtype=complex)]


def _matrix_from_json(data, d):
    mat = np.array([[complex(re, im) for re, im in row] for row in data])
    if mat.shape != (d, d):
        raise GraphError(f"matrix shape {mat.shape} does not match dimension {d}")
    return mat


def certificate_to_json(cert: QuantumIsoCertificate, g: Graph, h: Graph):
    entries = []
    for i in range(g.n):
        for j in range(h.n):
            if np.any(cert.blocks[i, j]):
                entries.append({
                    "g": g.labels[i],
                    "h": h.labels[j],
                    "matrix": _matrix_to_json(cert.blocks[i, j]),
                })
    return json.dumps({"d": cert.d, "entries": entries}, indent=1)


def certificate_from_json(text, g: Graph, h: Graph):
    data = json.loads(text)
    d = int(data["d"])
    blocks = np.zeros((g.n, h.n, d, d), dtype=complex)
    for entry in data["entries"]:
        blocks[g.index(entry["g"]), h.index(entry["h"])] = _matrix_from_json(entry["matrix"], d)
    return QuantumIsoCertificate(d, blocks)


def packing_to_json(pack: ProjectivePacking, g: Graph):
    entries = [
        {"vertex": g.labels[i], "matrix": _matrix_to_json(pack.blocks[i])}
        for i in range(g.n)
        if np.any(pack.blocks[i])
    ]
    return json.dumps({"d": pack.d, "entries": entries}, indent=1)


def packing_from_json(text, g: Graph):
    data = json.loads(text)
    d = int(data["d"])
    blocks = np.zeros((g.n, d, d), dtype=complex)
    for entry in data["entries"]:
        blocks[g.index(entry["vertex"])] = _matrix_from_json(entry["matrix"], d)
    return ProjectivePacking(d, blocks)


def strategy_to_json(strat: BCSQuantumStrategy):
    entries = []
    for l, family in enumerate(strat.ops):
        for f, op in family:
            entries.append({
                "constraint": l,
                "f": {f"x{i + 1}": bit for i, bit in sorted(f.items())},
                "matrix": _matrix_to_json(op),
            })
    return json.dumps({"d": strat.d, "entries": entries}, indent=1)


def strategy_from_json(text, bcs: LinBCS):
    data = json.loads(text)
    d = int(data["d"])
    by_constraint = {}
    for entry in data["entries"]:
        l = int(entry["constraint"])
        f = {int(k[1:]) - 1: int(v) for k, v in entry["f"].items()}
        by_constraint.setdefault(l, {})[tuple(sorted(f.items()))] = _matrix_from_json(
            entry["matrix"], d
        )
    ops = []
    for l, (s, b) in enumerate(bcs.constraints):
        family = []
        for f in satisfying_assignments(s, b):
            key = tuple(sorted(f.items()))
            op = by_constraint.get(l, {}).get(key, np.zeros((d, d), dtype=complex))
            family.append((f, op))
        ops.append(tuple(family))
    return BCSQuantumStrategy(d, tuple(ops))
