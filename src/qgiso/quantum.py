"""Complex-matrix certificates for quantum isomorphism.

Covers projective permutation matrices, the projector certificate for the
isomorphism game (both the sum/orthogonality form and the block-matrix
intertwining form), the induced correlation on the maximally entangled
state, projective packings, and the reduction from a perfect BCS strategy,
built from an operator solution by ``observable_strategy``, to an
isomorphism certificate.

A ``QuantumIsoCertificate`` splits its non-zero blocks into classes of
equal blocks once; the verifiers read it as its U operators ``ops`` and
class ``grid``.  The report and ``qiso quantum correlation`` check the
induced correlation on the U x U trace matrix (``verify_certificate_correlation``);
``certificate_correlation`` builds it from the K blocks as a coordinate
table only for export and as the test reference.

All residuals are Frobenius norms, orthogonality that of each mismatched
product itself (its square as a trace would read rounding of 1e-16 as 1e-8);
the default tolerance is 1e-9, and the built-in constructions land near 1e-16.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, reduce
from itertools import combinations, zip_longest

import numpy as np

from .bcs import (LinBCS, _family_index, bcs_graph, classical_reduction_report, homogenize,
                  magic_square)
from .correlations import (DEFAULT_TOL, Correlation, check_tolerance, iso_game_tokens,
                           verify_perfect_iso_strategy)
from .games import bcs_game_wins, rel_codes
from .graphs import Graph, GraphError, ParseError, _component_labels, cospectral_mates

MAX_BLOCK_DIM = 64
PRODUCT_CHUNK_BYTES = 1 << 18  # operand bytes per chunk of _product_norm


def projector_residuals(a):
    """Max Frobenius residuals (idempotence, hermiticity) over a block array."""
    idem = np.linalg.norm(a @ a - a, axis=(-2, -1)).max(initial=0.0)
    herm = np.linalg.norm(a - a.conj().swapaxes(-2, -1), axis=(-2, -1)).max(initial=0.0)
    return float(idem), float(herm)


def _within(tol, *residuals):
    # np.max keeps a NaN residual, where Python's max() can drop it
    return float(np.max(residuals)) <= tol


def _product_norm(a, i, j):
    """max_k ||a[i_k] a[j_k]||_F over aligned index arrays, from the products
    themselves, taken PRODUCT_CHUNK_BYTES of each operand at a time."""
    step = max(1, PRODUCT_CHUNK_BYTES // (a.itemsize * a.shape[-1] ** 2))
    return float(np.max([np.linalg.norm(a[i[s:s + step]] @ a[j[s:s + step]], axis=(1, 2)).max()
                         for s in range(0, len(i), step)], initial=0.0))


def _sum_residual(ops, group, count):
    """max over g < count of ||sum of the ops k with group[k] = g, minus I||_F.

    Each group is summed from 0 in stack order, as ``np.add.at`` sums it, so
    every residual keeps its value: pass r adds the r-th op of every group
    at once, as many passes as the largest group has ops.  (``np.add.reduceat``
    adds a group's tail pairwise, which moves the last bit.)"""
    d = ops.shape[-1]
    group = np.asarray(group, dtype=np.intp)
    order = np.argsort(group, kind="stable")
    rank = np.arange(len(group)) - np.searchsorted(group[order], group[order])  # place in its group
    by_pass = order[np.argsort(rank, kind="stable")]
    sums = np.zeros((count, d, d), dtype=complex)
    for k in np.split(by_pass, np.cumsum(np.bincount(rank))[:-1]):
        sums[group[k]] += ops[k]
    return float(np.linalg.norm(sums - np.eye(d), axis=(-2, -1)).max(initial=0.0))


def _pair_traces(a, b):
    """tr(a_i b_j) for every pair from two (k, d, d) operator stacks, as one
    product of the stacks flattened to d^2 entries: tr(A B) = vec(A) . vec(B^T)."""
    flat = a.shape[-1] ** 2  # not -1, which an empty stack cannot resolve
    return a.reshape(len(a), flat) @ b.swapaxes(1, 2).reshape(len(b), flat).T


def _support(grid):
    """Row indices, column indices and classes of the non-zero blocks of a
    certificate's class grid, in row-major order."""
    rows, cols = np.nonzero(grid >= 0)
    return rows, cols, grid[rows, cols]


def _class_mismatch(g, h, cert):
    """U x U mask of the class pairs holding a block pair whose G vertices
    relate otherwise than its H vertices, from float32 counts of such pairs."""
    nz_g, nz_h, classes = _support(cert.grid)
    # rows then columns: a tenth of the time of one np.ix_ gather at K = 320
    mismatch = rel_codes(g)[nz_g][:, nz_g] != rel_codes(h)[nz_h][:, nz_h]
    member = np.eye(len(cert.ops), dtype=np.float32)[classes]  # K x U
    return member.T @ mismatch.astype(np.float32) @ member > 0


def verify_ppm(cert, tol=DEFAULT_TOL):
    """Projective-permutation-matrix check of a certificate, both characterizations.

    Blocks must all be projectors with every block-row and block-column
    summing to the identity; equivalently the assembled matrix is unitary
    with projector blocks.  The two routes must agree, so a disagreement
    beyond tolerance slack is flagged as inconsistent.

    Only the K non-zero blocks are touched; a zero block is an exact
    projector, and the projector residuals are taken once per class of
    equal blocks.  The unitarity residual ||B B^dag - I|| pairs blocks that
    share a column only: it takes one product per connected component of
    the block support, and a row with no block adds ||I||^2 = d.
    """
    check_tolerance(tol)
    n, m, d, _ = cert.blocks.shape
    if n != m:
        raise GraphError("projective permutation matrices must be square block arrays")
    rows, cols, classes = _support(cert.grid)
    idem, herm = projector_residuals(cert.ops)
    nz = cert.ops[classes]
    row, col = _sum_residual(nz, rows, n), _sum_residual(nz, cols, n)
    # rows are nodes 0..n-1 and columns n..2n-1; a block joins its row and column
    row_label, col_label = np.split(_component_labels(rows, n + cols, 2 * n), [n])
    occupied = np.bincount(rows, minlength=n) > 0
    unit_sq = d * np.count_nonzero(~occupied)
    for c in np.flatnonzero(occupied & (row_label == np.arange(n))):
        r, k = np.flatnonzero(row_label == c), np.flatnonzero(col_label == c)
        sub = cert.blocks[np.ix_(r, k)].transpose(0, 2, 1, 3).reshape(len(r) * d, len(k) * d)
        unit_sq += np.linalg.norm(sub @ sub.conj().T - np.eye(len(r) * d)) ** 2
    unit = float(np.sqrt(unit_sq))
    residuals = {
        "projector": idem,
        "hermitian": herm,
        "row_sum": row,
        "col_sum": col,
        "unitarity": unit,
    }
    sums_ok = _within(tol, idem, herm, row, col)
    unitary_ok = _within(tol, idem, herm, unit)
    # the characterizations are equivalent; allow norm-growth slack of n*d
    consistent = sums_ok == unitary_ok or _within(tol * n * d, idem, herm, row, col, unit)
    return {"ok": sums_ok and unitary_ok, "consistent": consistent, "residuals": residuals}


@dataclass(frozen=True, eq=False)
class QuantumIsoCertificate:
    """One d x d projector per vertex pair (g, h); absent pairs are zero.

    ``blocks``, (|V(G)|, |V(H)|, d, d) complex, is taken without a copy and
    made read-only.  Its K non-zero blocks (NaN counts) fall into classes
    of blocks equal in every byte: 0.0 and -0.0, NaN payloads and one ulp
    stay apart.  ``ops`` (U, d, d) holds the first block of each class, in
    byte order, and ``grid`` (|V(G)|, |V(H)|) each block's class, -1 for a
    zero block.  A BCS certificate repeats its strategy's operators: U is
    K / 4 on the magic square and K / 8 on the pentagram.
    """

    d: int
    blocks: np.ndarray
    ops: np.ndarray = field(init=False)
    grid: np.ndarray = field(init=False)

    def __post_init__(self):
        a = np.ascontiguousarray(self.blocks, dtype=complex)
        if a.ndim != 4 or a.shape[2] != a.shape[3]:
            raise GraphError("expected an n x m array of square blocks")
        if a.shape[2] > MAX_BLOCK_DIM:
            raise GraphError(f"block dimension {a.shape[2]} exceeds cap {MAX_BLOCK_DIM}")
        if a.shape[2] < 1:
            raise GraphError("block dimension 0 is below 1")
        if a.shape[2] != self.d:
            raise GraphError("block dimension does not match d")
        rows, cols = np.nonzero(np.any(a != 0, axis=(2, 3)))
        nz = a[rows, cols]
        width = a.shape[2] ** 2
        keys = nz.reshape(len(nz), width).view(f"V{nz.itemsize * width}").ravel()
        _, first, classes = np.unique(keys, return_index=True, return_inverse=True)
        grid = np.full(a.shape[:2], -1, dtype=np.intp)
        grid[rows, cols] = classes
        for name, value in (("blocks", a), ("ops", nz[first]), ("grid", grid)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)


def verify_qiso_certificate(g: Graph, h: Graph, cert: QuantumIsoCertificate, tol=DEFAULT_TOL):
    """Full certificate report: projector, sum, orthogonality, and
    intertwining residuals, plus the projective-permutation-matrix cross
    check of ``verify_ppm``, whose residuals it shares.

    The sum/orthogonality conditions and the intertwining form are
    equivalent, so the report flags any disagreement between the two code
    paths as an internal inconsistency.
    """
    check_tolerance(tol)
    if g.n != h.n:
        return {"ok": False, "reason": "vertex counts differ", "residuals": {}}
    _certificate_blocks(cert, g, h)
    n, d = g.n, cert.d
    ppm = verify_ppm(cert, tol)
    r = ppm["residuals"]
    idem, herm, row, col = r["projector"], r["hermitian"], r["row_sum"], r["col_sum"]

    # a pair with an all-zero block has product exactly 0, so only non-zero
    # blocks are paired, and a pair of blocks only through their classes
    orth = _product_norm(cert.ops, *np.nonzero(_class_mismatch(g, h, cert)))

    # block (i, j) of (A_G (x) I) E - E (A_H (x) I) is sum_k A_G[i, k] E_kj -
    # E_ik A_H[k, j]: real n x n products on the block grid, with each
    # block's real and imaginary parts side by side; the second is batched
    # over i and reads A_H[k, j] as A_H[j, k], subtracted in chunks of rows
    # of at most 2^14 floats (128 KiB), below malloc's mmap threshold
    w = 2 * d * d
    parts = cert.blocks.view(float).reshape(n, n, w)
    diff = (g.adj.astype(float) @ parts.reshape(n, n * w)).reshape(n, n, w)
    a_h, rows = h.adj.astype(float), max(1, 2 ** 14 // (n * w))
    for i in range(0, n, rows):
        diff[i:i + rows] -= a_h @ parts[i:i + rows]
    intertwine = float(np.linalg.norm(diff))

    residuals = {
        "projector": idem,
        "hermitian": herm,
        "row_sum": row,
        "col_sum": col,
        "orthogonality": orth,
        "intertwining": intertwine,
        "unitarity": r["unitarity"],
    }
    direct_ok = _within(tol, idem, herm, row, col, orth)
    intertwine_ok = _within(tol, idem, herm, row, col, intertwine)
    consistent = direct_ok == intertwine_ok or _within(tol * n * d, orth, intertwine)
    return {
        "ok": direct_ok and intertwine_ok and ppm["ok"],
        "consistent": consistent and ppm["consistent"],
        "residuals": residuals,
    }


def _certificate_blocks(cert: QuantumIsoCertificate, g: Graph, h: Graph):
    """``_support`` of the certificate's grid, once checked to be V(G) x V(H)."""
    if cert.grid.shape != (g.n, h.n):
        raise GraphError("certificate block grid does not match the graphs")
    return _support(cert.grid)


def _trace_matrix(blocks, d, tol):
    """The real matrix T[a, b] = tr(E_a E_b) / d of the pair traces of a
    (k, d, d) stack of blocks.  Raises if a trace has an imaginary part
    above tol."""
    traces = _pair_traces(blocks, blocks)
    traces /= d
    if traces.size and float(np.abs(traces.imag).max()) > tol:
        raise AssertionError("correlation has a non-real entry")
    return traces.real


def certificate_correlation(cert: QuantumIsoCertificate, g: Graph, h: Graph, tol=DEFAULT_TOL):
    """The correlation the certificate induces on the maximally entangled
    state: p(y, y' | x, x') = tr(E_xy E_x'y') / d, with Bob's operators the
    transposes and the off-graph operator extensions set to zero.

    Block (g, h) is the operator for both question g / answer h and question
    h / answer g, so each of the 2K (question, answer) pairs of either player
    meets each of the other's, and the table is the K x K trace matrix of
    the non-zero blocks tiled 2 x 2; its entries with non-zero real part
    form the sparse float ``Correlation``.  This is the export path of
    ``qiso quantum correlation``; ``verify_certificate_correlation`` checks
    the same correlation without building the table, and the tests use this
    one as its reference.
    """
    check_tolerance(tol)
    n = g.n
    nz_g, nz_h, classes = _certificate_blocks(cert, g, h)
    traces = _trace_matrix(cert.ops[classes], cert.d, tol)
    x = np.concatenate([nz_g, nz_h + n])  # (question, answer) pair a uses block a % K
    y = np.concatenate([nz_h + n, nz_g])
    values = np.tile(traces, (2, 2))
    a, b = np.nonzero(values)
    keys = np.stack([x[a], x[b], y[a], y[b]], axis=1)
    return Correlation(iso_game_tokens(g, h), "float", (keys, values[a, b]), tol=tol)


def verify_certificate_correlation(cert: QuantumIsoCertificate, g: Graph, h: Graph,
                                   tol=DEFAULT_TOL):
    """Non-signalling and perfection of the correlation the certificate
    induces, decided on the trace matrix T of its U operators ``ops``.

    Returns ((ok, violation), (ok, losing tuple)): what ``verify_nonsignalling``
    and ``verify_perfect_iso_strategy`` return on
    ``certificate_correlation(cert, g, h, tol)``, with a violation or losing
    tuple that names an entry of that table.  Block k = (g_k, h_k) answers
    the pairs (g_k, n + h_k) and (n + h_k, g_k), both with row c_k of T,
    where c_k is the class of its block.  With C the U x N matrix that
    counts, per class, the blocks at each of the columns g_k and n + h_k,
    Alice's marginals over Bob's question are the rows of T C and Bob's
    those of T^T C, taken by class; a side signals when one of its rows is
    not constant.  A tuple loses when its G vertices relate otherwise than
    its H vertices, whichever graph each question came from, so one mask
    over the class pairs covers all four orientations; only a failing
    perfection check builds the table, whose verifier names its worst tuple.
    """
    check_tolerance(tol)
    nz_g, nz_h, classes = _certificate_blocks(cert, g, h)
    T = _trace_matrix(cert.ops, cert.d, tol)
    # the table path rejects these too: a NaN compares as no violation
    if not np.isfinite(T).all():
        raise GraphError("correlation table has a non-finite entry")
    n, u = g.n, len(T)
    if u == 0:
        return (True, None), (True, None)
    N = n + h.n
    C = np.bincount(np.concatenate([classes * N + nz_g, classes * N + n + nz_h]),
                    minlength=u * N).reshape(u, N).astype(float)
    ns = True, None
    for side, marg in (("A", T @ C), ("B", T.T @ C)):
        spread = np.ptp(marg, axis=1)[classes]
        k = int(spread.argmax())
        if spread[k] > tol:
            row = marg[classes[k]]
            lo, hi = int(row.argmin()), int(row.argmax())
            ns = False, (side, int(nz_g[k]), int(nz_h[k]) + n, lo, hi,
                         float(row[lo]), float(row[hi]))
            break
    if not np.abs(T)[_class_mismatch(g, h, cert)].max(initial=0.0) > tol:
        return ns, (True, None)
    # the table path names the tuple: T[a, b] and T[b, a] may differ in the
    # last bit, and a U x U product, rounding otherwise, could name the
    # other pair of a near tie
    return ns, verify_perfect_iso_strategy(certificate_correlation(cert, g, h, tol), g, h)


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
    check_tolerance(tol)
    if pack.d < 1:
        raise GraphError(f"block dimension {pack.d} is below 1")
    a = np.asarray(pack.blocks, dtype=complex)
    if a.shape != (g.n, pack.d, pack.d):
        raise GraphError("packing shape does not match the graph")
    idem, herm = projector_residuals(a)
    if not (idem <= tol and herm <= tol):  # also catches a NaN residual
        return {"ok": False, "reason": f"non-projector entry (residuals {idem:.3e}, {herm:.3e})"}
    orth = _product_norm(a, *np.nonzero(np.triu(g.adj)))
    if orth > tol:
        return {"ok": False, "reason": f"adjacent projectors not orthogonal ({orth:.3e})"}
    traces = np.trace(a, axis1=1, axis2=2).real
    far = np.abs(traces - np.round(traces)) > 0.01
    if far.any():
        i = far.argmax()
        return {"ok": False, "reason": f"trace {traces[i]} of vertex {i} not near an integer"}
    ranks = np.round(traces).astype(int).tolist()
    return {"ok": True, "value": Fraction(sum(ranks), pack.d), "ranks": ranks,
            "residuals": {"projector": idem, "hermitian": herm, "orthogonality": orth}}


@dataclass(frozen=True, eq=False)
class BCSQuantumStrategy:
    """Per constraint, a projective measurement indexed by the satisfying
    assignments of that constraint.  ``stack``, built on first use, holds the
    operators family by family as one read-only (V, d, d) complex array."""

    d: int
    ops: tuple  # per constraint: tuple of (assignment dict, (d, d) ndarray)

    @cached_property
    def stack(self):
        if self.d < 1:
            raise GraphError(f"block dimension {self.d} is below 1")
        for l, family in enumerate(self.ops):
            if any(np.shape(op) != (self.d, self.d) for _, op in family):
                raise GraphError(f"constraint {l}: operator is not {self.d} x {self.d}")
        stack = np.array([op for family in self.ops for _, op in family], dtype=complex)
        stack.setflags(write=False)
        return stack


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
    def k(a, b):  # the two-qubit operator a (x) b
        return np.einsum("ij,kl->ikjl", a, b).reshape(4, 4)

    return [
        k(_X, _I2), k(_I2, _X), k(_X, _X),
        k(_I2, _Z), k(_Z, _I2), k(_Z, _Z),
        k(_X, _Z), k(_Z, _X), k(_Y, _Y),
    ]


def observable_strategy(bcs: LinBCS, observables):
    """The perfect strategy of an operator solution: one observable per
    variable, those of each constraint commuting with product (-1)^b I,
    with one projector per entry of ``bcs.families``.

    Measurement operators are joint-eigenspace projectors of each
    constraint's observables.  The observables are checked against every
    condition at build time rather than trusted.

    The projector of an assignment f of support s is
    P <- (P @ (I + (-1)^f_i X_i)) / 2 over i in s, from P = I.  It is taken
    for every vertex at once, one batched product per support position, the
    factors picked from a table of I + X_i and I - X_i; each operator has the
    bytes of that fold run one 2-D product at a time.
    """
    obs = np.asarray(observables, dtype=complex)
    d = obs.shape[-1]
    if obs.shape != (bcs.n, d, d):
        raise GraphError("expected one square observable per variable")
    if d < 1:
        raise GraphError("block dimension 0 is below 1")
    eye = np.eye(d, dtype=complex)
    residual = np.linalg.norm([obs - obs.conj().swapaxes(-2, -1), obs @ obs - eye], axis=(-2, -1))
    bad = np.flatnonzero(~(residual < 1e-12).all(axis=0))  # a NaN residual fails too
    if len(bad):
        raise AssertionError(f"observable {bad[0]} is not a hermitian involution")
    owner, i, j = np.array([(l, i, j) for l, (s, _) in enumerate(bcs.constraints)
                            for i, j in combinations(s, 2)], dtype=np.int64).reshape(-1, 3).T
    commute = np.linalg.norm(obs[i] @ obs[j] - obs[j] @ obs[i], axis=(-2, -1)) < 1e-12
    noncommuting = np.bincount(owner[~commute], minlength=bcs.m)
    for l, (s, b) in enumerate(bcs.constraints):
        if noncommuting[l]:
            raise AssertionError(f"constraint {l}: observables do not commute")
        if not np.linalg.norm(reduce(np.matmul, obs[list(s)]) - (-1.0) ** b * eye) < 1e-12:
            raise AssertionError(f"constraint {l}: observable product is not (-1)^b I")
    meta = bcs.families
    size = np.array([len(f) for _, f in meta])
    width = size.max()
    code = np.zeros((len(meta), width), dtype=np.intp)  # [v, j]: bit * n + variable, j-th of f
    code[size[:, None] > np.arange(width)] = [bit * bcs.n + i for _, f in meta for i, bit in f.items()]
    factors = np.array([eye + (-1.0) ** bit * obs for bit in (0, 1)]).reshape(-1, d, d)
    proj = np.repeat(eye[None], len(meta), axis=0)
    for j in range(width):
        rows = np.flatnonzero(size > j)
        proj[rows] = proj[rows] @ factors[code[rows, j]] / 2
    ops = [[] for _ in bcs.constraints]
    for (l, f), p in zip(meta, proj):
        ops[l].append((f, p))
    return BCSQuantumStrategy(d, tuple(map(tuple, ops)))


def mermin_bcs_strategy():
    """The dimension-4 perfect strategy for the magic-square system."""
    return observable_strategy(magic_square(), magic_square_observables())


def _strategy_stack(strat: BCSQuantumStrategy, meta, m):
    """``strat.stack``, once checked to be in the order of ``meta``, the
    (constraint, assignment) list of a BCS graph's vertices.  Raises
    GraphError unless m families of d x d operators flatten to ``meta``; a
    mismatch names the smaller constraint of its first differing entry."""
    if len(strat.ops) != m:
        raise GraphError("strategy constraint count does not match the system")
    flat = [(l, f) for l, family in enumerate(strat.ops) for f, _ in family]
    for got, want in zip_longest(flat, meta, fillvalue=(m, None)):
        if got != want:
            raise GraphError(f"constraint {min(got[0], want[0])}: assignment family mismatch")
    return strat.stack


def verify_bcs_strategy(bcs: LinBCS, strat: BCSQuantumStrategy, tol=DEFAULT_TOL):
    """Check measurement structure and that the induced correlation
    tr(E_(l,f) E_(k,f'))/d vanishes on every losing tuple of the BCS game,
    on the strategy's stack in the order of ``bcs.families``."""
    check_tolerance(tol)
    d = strat.d
    meta = bcs.families
    ops = _strategy_stack(strat, meta, bcs.m)
    losing = ~bcs_game_wins(bcs, meta)
    residuals = {
        "projector": float(np.max(projector_residuals(ops))),
        "sum": _sum_residual(ops, [l for l, _ in meta], bcs.m),
        "losing_probability": float(np.max(np.abs(_pair_traces(ops, ops)[losing]), initial=0.0)) / d,
    }
    return {"ok": all(r <= tol for r in residuals.values()), "residuals": residuals}


def strategy_packing(strat: BCSQuantumStrategy, bg):
    """Projective packing of the BCS graph ``bg`` induced by a perfect
    strategy: each vertex (l, f) gets the operator of f in constraint l."""
    m = bg.vertex_meta[-1][0] + 1  # every constraint has a vertex
    return ProjectivePacking(strat.d, _strategy_stack(strat, bg.vertex_meta, m))


def strategy_to_certificate(bcs: LinBCS, strat: BCSQuantumStrategy):
    """Certificate for the pair (G of the system, G of its homogenization).

    Block ((l, f), (k, g)) is the strategy operator for f xor g when l = k
    (f xor g satisfies the original constraint), zero otherwise.
    """
    bg, bg0 = bcs_graph(bcs), bcs_graph(homogenize(bcs))
    return bg, bg0, _strategy_certificate(bcs, strat, bg)


def _strategy_certificate(bcs, strat, bg):
    owner, first, k = _family_index(bg.vertex_meta)
    stack = _strategy_stack(strat, bg.vertex_meta, bcs.m)
    rows, cols = np.nonzero(owner[:, None] == owner)
    blocks = np.zeros((len(owner), len(owner), strat.d, strat.d), dtype=complex)
    blocks[rows, cols] = stack[first[rows] + (k[rows] ^ k[cols])]
    return QuantumIsoCertificate(strat.d, blocks)


def quantum_reduction_report(bcs: LinBCS, strat=None, tol=DEFAULT_TOL):
    """End-to-end report for the quantum reduction on one system.

    The classical facts (satisfiability, the isomorphism verdict and both
    independence numbers, checked to agree) and the graphs G_F and G_F0
    come from ``classical_reduction_report``.  This adds cospectrality, the
    strategy check, certificate residuals, the induced correlation's
    perfection and non-signalling checks, and the packing value against the
    constraint count.  The verified certificate is returned as ``witness``, on the
    graph pair ``graphs``.
    """
    check_tolerance(tol)
    classical = classical_reduction_report(bcs)
    if strat is None:
        if classical["satisfiable"]:
            # the d = 1 operator solution: x_i as the 1 x 1 observable (-1)^(x_i)
            signs = (-1.0) ** np.array(classical["assignment"])
            strat = observable_strategy(bcs, signs.reshape(-1, 1, 1))
        elif bcs == magic_square():
            strat = mermin_bcs_strategy()
        else:
            raise GraphError(
                "no strategy available: system is unsatisfiable and not the built-in magic square"
            )
    strat_report = verify_bcs_strategy(bcs, strat, tol)
    bg, bg0 = classical["bcs_graphs"]
    cert = _strategy_certificate(bcs, strat, bg)
    g, h = bg.graph, bg0.graph
    cert_report = verify_qiso_certificate(g, h, cert, tol)
    (ns_ok, ns_violation), (perfect_ok, losing) = verify_certificate_correlation(
        cert, g, h, 10 * tol)
    packing_report = verify_packing(g, strategy_packing(strat, bg), tol)
    spectra = cospectral_mates(g, h)
    report = {
        "satisfiable": classical["satisfiable"],
        "isomorphic": classical["graphs_isomorphic"],
        "num_vertices": classical["num_vertices"],
        "m": bcs.m,
        "alpha": classical["alpha"],
        "alpha_homogenized": classical["alpha_homogenized"],
        "cospectral": spectra["cospectral"],
        "complements_cospectral": spectra["complements_cospectral"],
        "strategy": strat_report,
        "certificate": cert_report,
        "correlation_nonsignalling": ns_ok,
        "correlation_perfect": perfect_ok,
        "packing": packing_report,
        "ok": (strat_report["ok"] and cert_report["ok"] and ns_ok and perfect_ok
               and packing_report["ok"] and packing_report.get("value") == bcs.m),
        "witness": cert,
        "graphs": (g, h),
    }
    if not ns_ok:
        report["nonsignalling_violation"] = ns_violation
    if not perfect_ok:
        report["losing_tuple"] = losing
    return report


# --- JSON round trip -------------------------------------------------------

def _family_to_json(d, entries):
    """The matrix-family document ``_blocks_from_json`` reads, from
    (keys, matrix) pairs."""
    return json.dumps({"d": d, "entries": [
        {**keys, "matrix": [[[float(z.real), float(z.imag)] for z in row]
                            for row in np.asarray(mat, dtype=complex)]}
        for keys, mat in entries]}, indent=1)


def _stacked(matrices, d):
    """The matrices as one (K, d, d) complex array, read bit for bit from
    one float64 array of their [re, im] pairs; None unless every one is d
    rows of d pairs of finite numbers that fit float64."""
    try:
        pairs = np.array(matrices)
    except ValueError:  # ragged
        return None
    if pairs.dtype.kind not in "biuf" or pairs.shape != (len(matrices), d, d, 2):
        return None
    mats = np.ascontiguousarray(pairs, dtype=np.float64).view(complex)[..., 0]
    return mats if np.isfinite(mats).all() else None


def certificate_to_json(cert: QuantumIsoCertificate, g: Graph, h: Graph):
    return _family_to_json(cert.d, (
        ({"g": g.labels[i], "h": h.labels[j]}, cert.ops[c])
        for i, j, c in zip(*_certificate_blocks(cert, g, h))))


def _blocks_from_json(text, graphs, keys, what):
    """Dimension and block array of a matrix-family document
    ``{"d": int, "entries": [{<keys>..., "matrix": [[[re, im], ...], ...]}, ...]}``
    whose entries name a vertex of each graph under the matching key.

    Every entry's keys and matrix, a finite d x d complex array, are checked
    before any label; a malformed entry, an unknown label or a repeated
    ``what`` raises ParseError naming the entry.
    """
    try:
        data = json.loads(text)
    except RecursionError:
        raise ParseError("JSON nested too deeply") from None
    except ValueError as exc:  # malformed, or an integer literal past int()'s digit limit
        raise ParseError(str(exc)) from None
    d = data.get("d") if isinstance(data, dict) else None
    if type(d) is not int or not 1 <= d <= MAX_BLOCK_DIM:
        raise ParseError(f'"d" must be an integer in [1, {MAX_BLOCK_DIM}], got {d!r}')
    if not isinstance(data.get("entries"), list):
        raise ParseError('"entries" must be a list')
    entries, need, mats = data["entries"], {*keys, "matrix"}, None
    if all(isinstance(entry, dict) and need <= entry.keys() for entry in entries):
        mats = _stacked([entry["matrix"] for entry in entries], d)
    if mats is None:  # any other document entry by entry, so that an error names the entry
        mats = []
        for i, entry in enumerate(entries):
            if not isinstance(entry, dict) or not need <= entry.keys():
                raise ParseError(f"entry {i}: needs the keys {', '.join(keys)} and matrix")
            try:
                mat = np.array([[complex(re, im) for re, im in row] for row in entry["matrix"]])
            except (TypeError, ValueError, OverflowError):
                raise ParseError(
                    f"entry {i}: matrix must be rows of [re, im] number pairs") from None
            if mat.shape != (d, d):
                raise ParseError(
                    f"entry {i}: matrix shape {mat.shape} does not match dimension {d}")
            if not np.isfinite(mat).all():
                raise ParseError(f"entry {i}: non-finite matrix value")
            mats.append(mat)
    blocks = np.zeros((*(graph.n for graph in graphs), d, d), dtype=complex)
    seen = set()
    for i, (entry, mat) in enumerate(zip(entries, mats)):
        try:
            index = tuple(graph.index(entry[key]) for graph, key in zip(graphs, keys))
        except GraphError as exc:
            raise ParseError(f"entry {i}: {exc}") from None
        if index in seen:
            raise ParseError(f"entry {i}: repeated {what}")
        seen.add(index)
        blocks[index] = mat
    return d, blocks


def certificate_from_json(text, g: Graph, h: Graph):
    return QuantumIsoCertificate(*_blocks_from_json(text, (g, h), ("g", "h"), "vertex pair"))


def packing_to_json(pack: ProjectivePacking, g: Graph):
    return _family_to_json(pack.d, (
        ({"vertex": g.labels[i]}, pack.blocks[i])
        for i in np.flatnonzero(np.any(pack.blocks, axis=(1, 2)))))


def packing_from_json(text, g: Graph):
    return ProjectivePacking(*_blocks_from_json(text, (g,), ("vertex",), "vertex"))
