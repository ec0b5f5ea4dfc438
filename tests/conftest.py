import itertools
import json
import math
import random
from enum import Enum
from fractions import Fraction

import numpy as np
import pytest

from qgiso import graphs as gmod
from qgiso.bcs import BCSGraph, LinBCS, satisfying_assignments, vertex_label
from qgiso.correlations import Correlation
from qgiso.equitable import (
    CommonEquitablePartition,
    EquitablePartition,
    NotAPartitionError,
    verify_common_equitable,
)
from qgiso.games import rel_codes
from qgiso.graphs import Graph, GraphError, ParseError, from_edges
from qgiso.quantum import MAX_BLOCK_DIM, BCSQuantumStrategy, QuantumIsoCertificate


def cycle(n, prefix="v"):
    labels = [f"{prefix}{i}" for i in range(n)]
    return from_edges(labels, [(labels[i], labels[(i + 1) % n]) for i in range(n)])


def path(n, prefix="v"):
    labels = [f"{prefix}{i}" for i in range(n)]
    return from_edges(labels, [(labels[i], labels[i + 1]) for i in range(n - 1)])


def complete(n, prefix="v"):
    labels = [f"{prefix}{i}" for i in range(n)]
    return from_edges(labels, list(itertools.combinations(labels, 2)))


def empty(n, prefix="v"):
    return from_edges([f"{prefix}{i}" for i in range(n)], [])


def star(n_leaves):
    labels = ["c"] + [f"l{i}" for i in range(n_leaves)]
    return from_edges(labels, [("c", l) for l in labels[1:]])


def two_k3():
    labels = [f"a{i}" for i in range(3)] + [f"b{i}" for i in range(3)]
    edges = [(f"a{i}", f"a{j}") for i in range(3) for j in range(i + 1, 3)]
    edges += [(f"b{i}", f"b{j}") for i in range(3) for j in range(i + 1, 3)]
    return from_edges(labels, edges)


def graph_from_bits(n, bits):
    """Graph on n vertices from an edge-set bitmask over pairs (i<j)."""
    adj = np.zeros((n, n), dtype=bool)
    k = 0
    for i in range(n):
        for j in range(i + 1, n):
            if (bits >> k) & 1:
                adj[i, j] = adj[j, i] = True
            k += 1
    return Graph(tuple(f"v{i}" for i in range(n)), adj)


def random_graph(n, p, rng):
    bits = 0
    npairs = n * (n - 1) // 2
    for k in range(npairs):
        if rng.random() < p:
            bits |= 1 << k
    return graph_from_bits(n, bits)


# Mermin's pentagram: X1 X2 X3 Y1 Y2 Y3 XXX YYX YXY XYY
PENTAGRAM = LinBCS(10, (((0, 1, 2, 6), 0), ((3, 4, 2, 7), 0), ((3, 1, 5, 8), 0),
                        ((0, 4, 5, 9), 0), ((6, 7, 8, 9), 1)))


def pentagram_observables():
    """Three-qubit observables for the pentagram's ten variables; with them
    the four lines through single-qubit observables multiply to +I and the
    line of three-qubit observables to -I."""
    x, y, i2 = np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.eye(2)
    return [np.kron(np.kron(a, b), c) for a, b, c in (
        (x, i2, i2), (i2, x, i2), (i2, i2, x), (y, i2, i2), (i2, y, i2), (i2, i2, y),
        (x, x, x), (y, y, x), (y, x, y), (x, y, y))]


def permuted_copy(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    adj = g.adj[np.ix_(perm, perm)]
    return Graph(tuple(f"w{i}" for i in range(g.n)), adj)


# --- independent brute-force oracles ---------------------------------------

def brute_force_alpha(g):
    masks = g.bitmasks()
    best = 0
    for s in range(1 << g.n):
        ok = True
        t = s
        while t:
            v = (t & -t).bit_length() - 1
            if masks[v] & s:
                ok = False
                break
            t &= t - 1
        if ok:
            best = max(best, bin(s).count("1"))
    return best


def brute_force_isomorphic(g, h):
    if g.n != h.n:
        return False
    for perm in itertools.permutations(range(g.n)):
        if all(
            g.adj[i, j] == h.adj[perm[i], perm[j]]
            for i in range(g.n)
            for j in range(i + 1, g.n)
        ):
            return True
    return False


# --- scalar game oracles ----------------------------------------------------
# One question tuple at a time: the rules that ``games.rel_codes``,
# ``iso_game_wins`` and ``bcs_game_wins`` apply to whole arrays, kept as
# their oracle.

class Rel(Enum):
    EQUAL = "equal"
    ADJACENT = "adjacent"
    DISTINCT_NONADJACENT = "distinct-nonadjacent"


def rel(g: Graph, x, y):
    """Relationship of two vertices of the same graph."""
    if not (0 <= x < g.n and 0 <= y < g.n):
        raise GraphError(f"vertex index out of range: {x}, {y}")
    if x == y:
        return Rel.EQUAL
    if g.adj[x, y]:
        return Rel.ADJACENT
    return Rel.DISTINCT_NONADJACENT


def split_token(g: Graph, h: Graph, token):
    """Classify a token of the combined input set V(G) + V(H).

    Tokens 0..|V(G)|-1 are G vertices; the rest are H vertices (offset by
    |V(G)|).  Returns ("G", index) or ("H", index).
    """
    if 0 <= token < g.n:
        return "G", token
    if g.n <= token < g.n + h.n:
        return "H", token - g.n
    raise GraphError(f"token {token} outside V(G) + V(H)")


def iso_game_predicate(g: Graph, h: Graph, x_a, x_b, y_a, y_b):
    """True iff (y_a, y_b) is a winning answer to questions (x_a, x_b).

    The players must answer from the graph their question was not from, and
    the relationship of the two G-vertices involved must equal that of the
    two H-vertices.
    """
    sx_a, ix_a = split_token(g, h, x_a)
    sx_b, ix_b = split_token(g, h, x_b)
    sy_a, iy_a = split_token(g, h, y_a)
    sy_b, iy_b = split_token(g, h, y_b)
    if sy_a == sx_a or sy_b == sx_b:
        return False
    g_a, h_a = (ix_a, iy_a) if sx_a == "G" else (iy_a, ix_a)
    g_b, h_b = (ix_b, iy_b) if sx_b == "G" else (iy_b, ix_b)
    return rel(g, g_a, g_b) == rel(h, h_a, h_b)


def bcs_game_predicate(bcs, l_a, l_b, f_a, f_b):
    """True iff both assignments satisfy their constraints and agree on the
    shared variables.

    ``f_a`` and ``f_b`` map variable indices of the respective supports to
    bits; their domains must equal the supports exactly.
    """
    s_a, b_a = bcs.constraints[l_a]
    s_b, b_b = bcs.constraints[l_b]
    if set(f_a) != set(s_a) or set(f_b) != set(s_b):
        raise ValueError("assignment domain does not match the constraint support")
    if sum(f_a[i] for i in s_a) % 2 != b_a:
        return False
    if sum(f_b[i] for i in s_b) % 2 != b_b:
        return False
    return all(f_a[i] == f_b[i] for i in set(s_a) & set(s_b))


# --- BCS graph oracle ----------------------------------------------------------
# The loop over vertex pairs that ``bcs.bcs_graph`` ran before it set every
# variable's (0-setter, 1-setter) pairs in one scatter, kept as its oracle.

def oracle_bcs_graph(bcs):
    meta = []
    labels = []
    for l, (s, b) in enumerate(bcs.constraints):
        for f in satisfying_assignments(s, b):
            meta.append((l, f))
            labels.append(vertex_label(l, s, f))
    edges = []
    for a in range(len(meta)):
        la, fa = meta[a]
        for b_ in range(a + 1, len(meta)):
            lb, fb = meta[b_]
            if any(fa[i] != fb[i] for i in fa.keys() & fb.keys()):
                edges.append((labels[a], labels[b_]))
    return BCSGraph(from_edges(labels, edges), tuple(meta))


# --- shift map oracle -----------------------------------------------------------
# The label lookup that ``classical_reduction_report`` made before it read the
# family index: each shifted vertex's label, found among G_F0's labels.

def oracle_shift_map(bcs, assignment, bg, bg0):
    """The image of (l, f) -> (l, f xor x|S) from G_F to G_F0, as a tuple."""
    index = {label: i for i, label in enumerate(bg0.graph.labels)}
    image = []
    for l, f in bg.vertex_meta:
        s = bcs.constraints[l][0]
        image.append(index[vertex_label(l, s, {i: f[i] ^ assignment[i] for i in s})])
    return tuple(image)


# --- d = 1 certificate of an isomorphism --------------------------------------
# Moved from ``qgiso.quantum``, where nothing but the tests called it.

def classical_certificate(g, h, phi):
    """The d = 1 certificate of an actual isomorphism: E_gh = [h == phi(g)]."""
    blocks = np.zeros((g.n, h.n, 1, 1), dtype=complex)
    for v in range(g.n):
        blocks[v, phi(v), 0, 0] = 1.0
    return QuantumIsoCertificate(1, blocks)


# --- d = 1 strategy oracle ---------------------------------------------------
# The loop that built a satisfiable system's strategy before the report
# used ``observable_strategy`` on the 1 x 1 observables (-1)^(x_i).

def classical_bcs_strategy(bcs, assignment):
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


# --- projector loop oracle ---------------------------------------------------
# The per-assignment loop that ``quantum.observable_strategy`` ran before it
# built every projector in one stack, kept as its oracle: the same factors in
# the same order, one 2-D product at a time.

def oracle_observable_strategy(bcs, observables):
    obs = np.asarray(observables, dtype=complex)
    eye = np.eye(obs.shape[-1], dtype=complex)
    ops = []
    for s, b in bcs.constraints:
        family = []
        for f in satisfying_assignments(s, b):
            proj = eye
            for i in s:
                proj = proj @ (eye + (-1.0) ** f[i] * obs[i]) / 2
            family.append((f, proj))
        ops.append(tuple(family))
    return BCSQuantumStrategy(len(eye), tuple(ops))


# --- Fraction-loop oracles for the exact correlation path -----------------
# The verifiers and the six-loop builder that the integer arrays replaced,
# kept as the oracle for their verdicts and tables.  They read and make a
# {key: Fraction} dict.

def oracle_distribution(table, N):
    for key, v in table.items():
        if v < 0:
            return False
    sums = {}
    for (x_a, x_b, _, _), v in table.items():
        sums[(x_a, x_b)] = sums.get((x_a, x_b), Fraction(0)) + v
    return all(sums.get((x_a, x_b), Fraction(0)) == 1 for x_a in range(N) for x_b in range(N))


def oracle_nonsignalling(table, N):
    marg_a, marg_b = {}, {}
    for (x_a, x_b, y_a, y_b), v in table.items():
        marg_a[(x_a, y_a, x_b)] = marg_a.get((x_a, y_a, x_b), Fraction(0)) + v
        marg_b[(x_b, y_b, x_a)] = marg_b.get((x_b, y_b, x_a), Fraction(0)) + v
    for marg in (marg_a, marg_b):
        grouped = {}
        for (x, y, other), v in marg.items():
            grouped.setdefault((x, y), {})[other] = v
        for by_other in grouped.values():
            vals = [by_other.get(o, Fraction(0)) for o in range(N)]
            if any(vals[o] != vals[0] for o in range(1, N)):
                return False
    return True


def oracle_perfect(table, g, h):
    return all(v == 0 or iso_game_predicate(g, h, *key) for key, v in table.items())


def oracle_ns_table(g, h, cep):
    n = g.n
    sizes = cep.sizes()
    # non-neighbour counts: cbar[i][j] = n_j - c[i][j] - delta_ij
    cbar = [[sizes[j] - c_ij - (i == j) for j, c_ij in enumerate(row)]
            for i, row in enumerate(cep.c)]
    table = {}

    def put(key, value):
        old = table.get(key)
        if old is None:
            table[key] = value
        elif old != value:
            raise AssertionError(f"reflection clauses disagree at {key}")

    for i in range(cep.k):
        n_i = sizes[i]
        for j in range(cep.k):
            for gv in cep.cells_g[i]:
                for gw in cep.cells_g[j]:
                    for hv in cep.cells_h[i]:
                        for hw in cep.cells_h[j]:
                            if gv != gw and g.adj[gv, gw] and hv != hw and h.adj[hv, hw]:
                                v = Fraction(1, n_i * cep.c[i][j])
                            elif (gv != gw and not g.adj[gv, gw]
                                  and hv != hw and not h.adj[hv, hw]):
                                v = Fraction(1, n_i * cbar[i][j])
                            elif gv == gw and hv == hw:
                                v = Fraction(1, n_i)
                            else:
                                continue
                            tg, tw = gv, gw
                            th, tw2 = hv + n, hw + n
                            put((tg, tw, th, tw2), v)
                            put((tg, tw2, th, tw), v)
                            put((th, tw, tg, tw2), v)
                            put((th, tw2, tg, tw), v)
    return table


def oracle_format_exact(inputs, table):
    lines = [f"corr {len(inputs)} exact", " ".join(inputs)]
    for (x_a, x_b, y_a, y_b), v in sorted(table.items()):
        if v != 0:
            lines.append(f"{x_a} {x_b} {y_a} {y_b} {v.numerator}/{v.denominator}")
    return "\n".join(lines) + "\n"


# --- line-loop correlation parser ---------------------------------------------
# The parser that the one-pass parser replaced, kept as the oracle for its
# tables and its errors: one Fraction per line into a {key: value} dict.

def oracle_parse_correlation(text, tol=1e-9):
    lines = [(no, l) for no, l in enumerate(text.splitlines(), start=1)
             if l.strip() and not l.startswith("#")]
    if not lines:
        raise ParseError("empty correlation file")
    head_no, head = lines[0][0], lines[0][1].split()
    if (len(head) != 3 or head[0] != "corr" or not head[1].isdecimal()
            or head[2] not in ("exact", "float")):
        raise ParseError("correlation file must start with 'corr <N> exact|float'", head_no)
    N, mode = int(head[1]), head[2]
    if len(lines) < 2:
        raise ParseError("the header is not followed by a token line", head_no)
    inputs = tuple(lines[1][1].split())
    if len(inputs) != N:
        raise ParseError(f"expected {N} tokens, found {len(inputs)}", lines[1][0])
    table = {}
    for lineno, line in lines[2:]:
        parts = line.split()
        try:
            if len(parts) != 5:
                raise ValueError
            key = tuple(int(p) for p in parts[:4])
            value = Fraction(parts[4])
            if mode == "float":
                value = float(value)
        except (ValueError, ZeroDivisionError, OverflowError):
            raise ParseError(f"malformed correlation line: {line!r}", lineno) from None
        if not all(0 <= i < N for i in key):
            raise ParseError(f"index out of range [0, {N}): {line!r}", lineno)
        if key in table:
            raise ParseError(f"repeated index {key}", lineno)
        table[key] = value
    return Correlation(inputs, mode, table, tol=tol)


# --- the per-entry matrix reader -----------------------------------------------
# The certificate and packing reader before it read all matrices as one array
# and in one function: each entry's matrix made from complex(re, im) of every
# pair, then each entry's labels placed in the block array.

def oracle_family_from_json(text, keys):
    try:
        data = json.loads(text)
    except RecursionError:
        raise ParseError("JSON nested too deeply") from None
    except ValueError as exc:
        raise ParseError(str(exc)) from None
    d = data.get("d") if isinstance(data, dict) else None
    if type(d) is not int or not 1 <= d <= MAX_BLOCK_DIM:
        raise ParseError(f'"d" must be an integer in [1, {MAX_BLOCK_DIM}], got {d!r}')
    if not isinstance(data.get("entries"), list):
        raise ParseError('"entries" must be a list')
    parsed = []
    for i, entry in enumerate(data["entries"]):
        if not isinstance(entry, dict) or not {*keys, "matrix"} <= entry.keys():
            raise ParseError(f"entry {i}: needs the keys {', '.join(keys)} and matrix")
        try:
            mat = np.array([[complex(re, im) for re, im in row] for row in entry["matrix"]])
        except (TypeError, ValueError, OverflowError):
            raise ParseError(f"entry {i}: matrix must be rows of [re, im] number pairs") from None
        if mat.shape != (d, d):
            raise ParseError(f"entry {i}: matrix shape {mat.shape} does not match dimension {d}")
        if not np.isfinite(mat).all():
            raise ParseError(f"entry {i}: non-finite matrix value")
        parsed.append((i, entry, mat))
    return d, parsed


def oracle_blocks_from_json(text, graphs, keys, what):
    d, entries = oracle_family_from_json(text, keys)
    blocks = np.zeros((*(graph.n for graph in graphs), d, d), dtype=complex)
    seen = set()
    for i, entry, mat in entries:
        try:
            index = tuple(graph.index(entry[key]) for graph, key in zip(graphs, keys))
        except GraphError as exc:
            raise ParseError(f"entry {i}: {exc}") from None
        if index in seen:
            raise ParseError(f"entry {i}: repeated {what}")
        seen.add(index)
        blocks[index] = mat
    return d, blocks


# --- line-loop graph conversions ----------------------------------------------
# The graph reader, writer and bitmasks that the array-based ones replaced,
# kept as their oracles: the reader keeps label-keyed sets and lists and
# indexes the labels again to build the adjacency; the writer and the
# bitmasks loop over adjacency entries one at a time.

def oracle_parse_graph(text):
    labels, seen, edges, edge_set = [], set(), [], set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "v":
            if len(parts) != 2:
                raise ParseError("'v' line needs exactly one label", lineno)
            if parts[1] in seen:
                raise ParseError(f"duplicate vertex {parts[1]!r}", lineno)
            seen.add(parts[1])
            labels.append(parts[1])
        elif parts[0] == "e":
            if len(parts) != 3:
                raise ParseError("'e' line needs exactly two labels", lineno)
            a, b = parts[1], parts[2]
            if a == b:
                raise ParseError(f"self-loop at {a!r}", lineno)
            if a not in seen or b not in seen:
                raise ParseError("edge references undeclared vertex", lineno)
            key = (min(a, b), max(a, b))
            if key in edge_set:
                raise ParseError(f"duplicate edge {a!r} {b!r}", lineno)
            edge_set.add(key)
            edges.append((a, b))
        else:
            raise ParseError(f"unknown directive {parts[0]!r}", lineno)
    if not labels:
        raise ParseError("empty vertex set")
    idx = {lab: i for i, lab in enumerate(labels)}
    adj = np.zeros((len(labels), len(labels)), dtype=bool)
    for a, b in edges:
        adj[idx[a], idx[b]] = adj[idx[b], idx[a]] = True
    return Graph(tuple(labels), adj)


def oracle_format_graph(g: Graph):
    lines = [f"v {lab}" for lab in sorted(g.labels)]
    edges = []
    for i in range(g.n):
        for j in range(i + 1, g.n):
            if g.adj[i, j]:
                a, b = g.labels[i], g.labels[j]
                edges.append((min(a, b), max(a, b)))
    lines.extend(f"e {a} {b}" for a, b in sorted(edges))
    return "\n".join(lines) + "\n"


def oracle_bitmasks(g: Graph):
    masks = []
    for i in range(g.n):
        m = 0
        for j in np.flatnonzero(g.adj[i]):
            m |= 1 << int(j)
        masks.append(m)
    return masks


# --- dense oracles for the certificate checks ------------------------------
# The projective-permutation-matrix and certificate checks on the assembled
# (n d) x (n d) matrix, with Kronecker-lifted adjacency matrices, that the
# blockwise checks replaced; kept as the oracle for their residuals and
# verdicts.

def oracle_projector_residuals(a):
    idem = np.linalg.norm(a @ a - a, axis=(-2, -1)).max()
    herm = np.linalg.norm(a - a.conj().swapaxes(-2, -1), axis=(-2, -1)).max()
    return float(idem), float(herm)


def oracle_within(tol, *residuals):
    return float(np.max(residuals)) <= tol


def assemble(blocks):
    """Stack an (n, m, d, d) block array into an (n d, m d) matrix."""
    n, m, d, _ = blocks.shape
    return blocks.transpose(0, 2, 1, 3).reshape(n * d, m * d)


def oracle_ppm(blocks, tol=1e-9):
    a = np.asarray(blocks, dtype=complex)
    n, m, d, _ = a.shape
    eye = np.eye(d)
    idem, herm = oracle_projector_residuals(a)
    row = float(np.linalg.norm(a.sum(axis=1) - eye, axis=(-2, -1)).max())
    col = float(np.linalg.norm(a.sum(axis=0) - eye, axis=(-2, -1)).max())
    big = assemble(a)
    unit = float(np.linalg.norm(big @ big.conj().T - np.eye(n * d)))
    residuals = {"projector": idem, "hermitian": herm, "row_sum": row, "col_sum": col,
                 "unitarity": unit}
    sums_ok = oracle_within(tol, idem, herm, row, col)
    unitary_ok = oracle_within(tol, idem, herm, unit)
    consistent = sums_ok == unitary_ok or oracle_within(tol * n * d, idem, herm, row, col, unit)
    return {"ok": sums_ok and unitary_ok, "consistent": consistent, "residuals": residuals}


def oracle_qiso_certificate(g, h, cert, tol=1e-9):
    E, d, n = np.asarray(cert.blocks, dtype=complex), cert.d, g.n
    ppm = oracle_ppm(E, tol)
    r = ppm["residuals"]
    idem, herm, row, col = r["projector"], r["hermitian"], r["row_sum"], r["col_sum"]
    # the products of every mismatched pair of non-zero blocks
    nz_g, nz_h = np.nonzero(np.any(E != 0, axis=(2, 3)))
    a, b = np.nonzero(rel_codes(g)[np.ix_(nz_g, nz_g)] != rel_codes(h)[np.ix_(nz_h, nz_h)])
    prods = E[nz_g[a], nz_h[a]] @ E[nz_g[b], nz_h[b]]
    orth = float(np.max(np.linalg.norm(prods, axis=(1, 2)), initial=0.0))
    big = assemble(E)
    ag = np.kron(g.adj.astype(float), np.eye(d))
    ah = np.kron(h.adj.astype(float), np.eye(d))
    intertwine = float(np.linalg.norm(ag @ big - big @ ah))
    residuals = {"projector": idem, "hermitian": herm, "row_sum": row, "col_sum": col,
                 "orthogonality": orth, "intertwining": intertwine, "unitarity": r["unitarity"]}
    direct_ok = oracle_within(tol, idem, herm, row, col, orth)
    intertwine_ok = oracle_within(tol, idem, herm, row, col, intertwine)
    consistent = direct_ok == intertwine_ok or oracle_within(tol * n * d, orth, intertwine)
    return {"ok": direct_ok and intertwine_ok and ppm["ok"],
            "consistent": consistent and ppm["consistent"], "residuals": residuals}


# --- connected-component oracles ---------------------------------------------
# The union-find over automorphism cycles and the row/column minimum loop over
# a certificate's block grid that the shared kernel ``graphs._component_labels``
# replaced; kept as the oracle for orbit and block-component labels.

def oracle_orbits(found, prefix, n):
    """Orbit label (smallest vertex) of each of n vertices under the maps in
    ``found`` that fix ``prefix`` pointwise, by union-find."""
    label = list(range(n))

    def find(x):
        while label[x] != x:
            label[x] = x = label[label[x]]
        return x

    for s in found:
        if all(s[x] == x for x in prefix):
            for x, y in enumerate(s):
                if x != y:
                    a, b = find(x), find(y)
                    label[max(a, b)] = min(a, b)
    return [find(x) for x in range(n)]


def oracle_block_components(rows, cols, n):
    """Component labels of the rows and columns of an n x n block grid in
    which each block (rows[k], cols[k]) joins its row and column: the
    smallest row index of the component, found by propagating minima.  A
    column with no block gets n; a row with no block keeps its own index."""
    label = np.arange(n)
    while True:
        col_label = np.full(n, n)
        np.minimum.at(col_label, cols, label[rows])
        new = label.copy()
        np.minimum.at(new, rows, col_label[cols])
        if np.array_equal(new, label):
            return label, col_label
        label = new


# --- loop oracles for the equitable-partition checks ------------------------
# The per-(vertex, cell) set-intersection check with its k x k counting
# identity loop, and the common partition refined on a label-prefixed union
# Graph from the all-zero colouring, that the one-product check and the
# search's pair entry replaced; kept as the oracle for cells, partition
# numbers and first violations.

def oracle_verify_equitable(g, cells):
    cells = tuple(tuple(sorted(cell)) for cell in cells)
    flat = [v for cell in cells for v in cell]
    if sorted(flat) != list(range(g.n)) or any(not cell for cell in cells):
        raise NotAPartitionError("cells do not partition the vertex set")
    k = len(cells)
    c = [[None] * k for _ in range(k)]
    cell_sets = [set(cell) for cell in cells]
    for i, cell in enumerate(cells):
        for v in cell:
            nbrs = set(int(u) for u in g.neighbors(v))
            for j in range(k):
                count = len(nbrs & cell_sets[j])
                if c[i][j] is None:
                    c[i][j] = count
                elif c[i][j] != count:
                    return None, (v, j)
    sizes = [len(cell) for cell in cells]
    for i in range(k):
        for j in range(k):
            if c[i][j] * sizes[i] != c[j][i] * sizes[j]:
                raise AssertionError("partition-number counting identity violated")
    return EquitablePartition(cells, tuple(tuple(row) for row in c)), None


def oracle_refine(nbrs, colors, split=None):
    """Colour refinement recomputing every signature each round, colours
    numbered 0..k-1 in sorted signature order; None once the halves of a
    disjoint union cut at ``split`` have different colour histograms."""
    colors = list(colors)
    while True:
        sigs = [(colors[v], tuple(sorted(colors[u] for u in nb))) for v, nb in enumerate(nbrs)]
        order = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [order[s] for s in sigs]
        if split is not None and sorted(new[:split]) != sorted(new[split:]):
            return None
        if new == colors:
            return colors
        colors = new


def oracle_common_equitable_partition(g, h):
    union, _, off_h = gmod.disjoint_union(g, h)
    colors = oracle_refine(gmod._neighbour_lists(union), [0] * union.n, split=off_h)
    if colors is None:
        return None
    cells = [[] for _ in range(max(colors, default=-1) + 1)]
    for v, col in enumerate(colors):
        cells[col].append(v)
    cells_g = tuple(tuple(v for v in cell if v < off_h) for cell in cells)
    cells_h = tuple(tuple(v - off_h for v in cell if v >= off_h) for cell in cells)
    pg, vio = oracle_verify_equitable(g, cells_g)
    if vio is not None:
        raise AssertionError("refinement cells not equitable on the first graph")
    ph, vio = oracle_verify_equitable(h, cells_h)
    if vio is not None or ph.c != pg.c or any(len(a) != len(b) for a, b in zip(cells_g, cells_h)):
        return None
    return CommonEquitablePartition(cells_g, cells_h, pg.c)


# --- Fraction-list doubly stochastic witnesses -------------------------------
# A witness was a list of lists of Fractions before it became the pair (M, L)
# of integer numerators over one denominator.  The helpers convert between
# the two forms; the Fraction-loop checker and writer that the integer pair
# replaced are kept as the oracle for its verdicts, messages and file bytes.

def ds_pair(rows):
    """A list of lists of Fractions (or ints) as (M, L), L the lcm of their
    denominators."""
    L = math.lcm(*(Fraction(x).denominator for row in rows for x in row))
    nums = [[Fraction(x).numerator * (L // Fraction(x).denominator) for x in row] for row in rows]
    big = any(abs(x) >= 2 ** 62 for row in nums for x in row)
    return np.array(nums, dtype=object if big else np.int64).reshape(len(rows), -1), L


def ds_rows(D):
    """(M, L) as a list of lists of Fractions."""
    M, L = D
    return [[Fraction(int(x), L) for x in row] for row in M]


def oracle_verify_ds_witness(g, h, D):
    for i, row in enumerate(D):
        for j, x in enumerate(row):
            if x < 0:
                return False, f"negative entry at ({i}, {j})"
    for i, row in enumerate(D):
        if sum(row) != 1:
            return False, f"row {i} sums to {sum(row)}"
    for j in range(h.n):
        s = sum(D[i][j] for i in range(g.n))
        if s != 1:
            return False, f"column {j} sums to {s}"
    for i in range(g.n):
        for j in range(h.n):
            lhs = sum(D[int(u)][j] for u in g.neighbors(i))
            rhs = sum(D[i][int(w)] for w in h.neighbors(j))
            if lhs != rhs:
                return False, f"A_G D != D A_H at ({i}, {j}): {lhs} vs {rhs}"
    return True, None


def oracle_format_ds_witness(D):
    rows, cols = len(D), len(D[0])
    lines = [f"ds {rows} {cols}"]
    for row in D:
        lines.append(" ".join(f"{x.numerator}/{x.denominator}" for x in row))
    return "\n".join(lines) + "\n"


# --- fractionally isomorphic pair generator --------------------------------

def _circulant_offsets(n, degree, rng):
    # symmetric offset set of the given even (or n-even) size
    offs = []
    half = list(range(1, (n + 1) // 2))
    rng.shuffle(half)
    need = degree
    if degree % 2 == 1:
        assert n % 2 == 0
        offs.append(n // 2)
        need -= 1
    offs.extend(half[: need // 2])
    return offs


def cep_pair(rng):
    """A random graph pair realizing the same equitable cell structure.

    Both sides realize identical cell sizes and partition numbers via
    circulant intra-cell graphs and shifted semiregular cross blocks, so
    the pair is fractionally isomorphic by construction.
    """
    k = rng.choice([1, 2, 3])
    sizes = [rng.choice([2, 3, 4, 6]) for _ in range(k)]
    c = [[0] * k for _ in range(k)]
    for i in range(k):
        max_even = sizes[i] - 1
        choices = [d for d in range(0, sizes[i]) if d % 2 == 0 or sizes[i] % 2 == 0]
        c[i][i] = rng.choice(choices)
    for i in range(k):
        for j in range(i + 1, k):
            g = math.gcd(sizes[i], sizes[j])
            step = sizes[j] // g
            tmax = sizes[j] // step
            t = rng.randint(0, tmax)
            c[i][j] = t * step
            c[j][i] = c[i][j] * sizes[i] // sizes[j]

    def build(shifts, prefix):
        total = sum(sizes)
        offsets = []
        acc = 0
        for s in sizes:
            offsets.append(acc)
            acc += s
        adj = np.zeros((total, total), dtype=bool)
        for i in range(k):
            offs = _circulant_offsets(sizes[i], c[i][i], rng)
            for a in range(sizes[i]):
                for o in offs:
                    b = (a + o) % sizes[i]
                    adj[offsets[i] + a, offsets[i] + b] = True
                    adj[offsets[i] + b, offsets[i] + a] = True
        for i in range(k):
            for j in range(i + 1, k):
                for a in range(sizes[i]):
                    for t in range(c[i][j]):
                        b = (a * c[i][j] + t + shifts[(i, j)]) % sizes[j]
                        adj[offsets[i] + a, offsets[j] + b] = True
                        adj[offsets[j] + b, offsets[i] + a] = True
        labels = tuple(f"{prefix}{v}" for v in range(total))
        cells = tuple(
            tuple(range(offsets[i], offsets[i] + sizes[i])) for i in range(k)
        )
        return Graph(labels, adj), cells

    shifts_g = {(i, j): 0 for i in range(k) for j in range(i + 1, k)}
    shifts_h = {
        (i, j): rng.randint(0, sizes[j] - 1) for i in range(k) for j in range(i + 1, k)
    }
    g, cells_g = build(shifts_g, "g")
    h, cells_h = build(shifts_h, "h")
    cep = CommonEquitablePartition(cells_g, cells_h, tuple(tuple(row) for row in c))
    assert verify_common_equitable(g, h, cep)
    return g, h, cep


@pytest.fixture
def rng():
    return random.Random(20240817)
