"""Linear binary constraint systems over GF(2) and their graphs.

Includes the built-in magic-square system, Gaussian elimination over GF(2)
that returns a satisfying assignment or a refutation, homogenization, the
constraint/assignment graph construction, and the classical reduction
report.  The report decides G_F ~ G_F0 by the reduction's own witnesses, a
verified shift map or a checked refutation, with no isomorphism search, and
checks the verdict against satisfiability and the independence number.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .games import bcs_game_wins
from .graphs import Graph, VertexMap, independence_number, is_isomorphism

MAX_SUPPORT = 20
MAX_VARIABLES = 4096


class BCSError(ValueError):
    pass


@dataclass(frozen=True)
class LinBCS:
    """Parity constraints sum(x_i for i in support) = b over GF(2)."""

    n: int  # variable count
    constraints: tuple  # tuple of (sorted index tuple, bit)

    def __post_init__(self):
        cons = tuple((tuple(sorted(s)), int(b)) for s, b in self.constraints)
        object.__setattr__(self, "constraints", cons)
        if not cons:
            raise BCSError("a BCS needs at least one constraint")
        for s, b in cons:
            if not s:
                raise BCSError("empty constraint support")
            if len(set(s)) != len(s):
                raise BCSError("repeated variable in a support")
            if b not in (0, 1):
                raise BCSError(f"right-hand side {b} not a bit")
            if any(i < 0 or i >= self.n for i in s):
                raise BCSError("variable index out of range")

    @property
    def m(self):
        return len(self.constraints)

    def satisfies(self, assignment):
        """Check a full assignment (length-n bit sequence) against every
        constraint."""
        return all(sum(assignment[i] for i in s) % 2 == b for s, b in self.constraints)


def parse_bcs(text):
    """Parse 'x<i> + x<j> + ... = <0|1>' lines ('#' comments allowed).

    Variables are numbered by their suffix: x1 is index 0.  Elimination
    takes time linear in the largest index, which is capped at MAX_VARIABLES.
    """
    constraints = []
    max_var = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#")[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise BCSError(f"line {lineno}: missing '='")
        lhs, _, rhs = line.partition("=")
        rhs = rhs.strip()
        if rhs not in ("0", "1"):
            raise BCSError(f"line {lineno}: right-hand side must be 0 or 1")
        support = []
        for term in lhs.split("+"):
            term = term.strip()
            digits = term[1:].lstrip("0")  # int() refuses more than 4,300 digits
            too_long = len(digits) > len(str(MAX_VARIABLES))
            if not term.startswith("x") or not digits.isdecimal() or not too_long and int(digits) < 1:
                raise BCSError(f"line {lineno}: malformed variable {term!r}")
            if too_long or int(digits) > MAX_VARIABLES:
                raise BCSError(f"line {lineno}: variable {term} exceeds cap x{MAX_VARIABLES}")
            support.append(int(digits) - 1)
        if len(set(support)) != len(support):
            raise BCSError(f"line {lineno}: repeated variable")
        max_var = max(max_var, max(support) + 1)
        constraints.append((tuple(support), int(rhs)))
    if not constraints:
        raise BCSError("no constraints found")
    return LinBCS(max_var, tuple(constraints))


def format_bcs(bcs: LinBCS):
    lines = []
    for s, b in bcs.constraints:
        lines.append(" + ".join(f"x{i + 1}" for i in s) + f" = {b}")
    return "\n".join(lines) + "\n"


def magic_square():
    """The 9-variable, 6-constraint system: three rows summing to 0, three
    columns summing to 0, 0, 1.  Unsatisfiable (every variable appears twice,
    so all equations sum to 0 = 1)."""
    rows = [((0, 1, 2), 0), ((3, 4, 5), 0), ((6, 7, 8), 0)]
    cols = [((0, 3, 6), 0), ((1, 4, 7), 0), ((2, 5, 8), 1)]
    return LinBCS(9, tuple(rows + cols))


def solve_or_refute(bcs: LinBCS):
    """One Gaussian elimination over GF(2) of [A | b | I].

    The identity block records which constraints each reduced row sums, so
    the pass ends with either ``(assignment, None)``, a verified satisfying
    assignment, or ``(None, y)``: a refutation, one bit per constraint, with
    y^T A = 0 and y^T b = 1 (``verify_refutation`` checks it).
    """
    m, n = bcs.m, bcs.n
    M = np.zeros((m, n + 1 + m), dtype=np.uint8)
    for r, (s, b) in enumerate(bcs.constraints):
        M[r, list(s)] = 1
        M[r, n] = b
    M[:, n + 1:] = np.eye(m, dtype=np.uint8)
    row = 0
    pivots = []
    for col in range(n):
        pivot = next((r for r in range(row, m) if M[r, col]), None)
        if pivot is None:
            continue
        M[[row, pivot]] = M[[pivot, row]]
        for r in range(m):
            if r != row and M[r, col]:
                M[r] ^= M[row]
        pivots.append(col)
        row += 1
    for r in range(row, m):
        if M[r, n]:
            return None, tuple(int(v) for v in M[r, n + 1:])
    x = [0] * n
    for r, col in enumerate(pivots):
        x[col] = int(M[r, n])
    assignment = tuple(x)
    if not bcs.satisfies(assignment):
        raise AssertionError("elimination produced a non-satisfying assignment")
    return assignment, None


def homogenize(bcs: LinBCS):
    """Same supports, all right-hand sides zero."""
    return LinBCS(bcs.n, tuple((s, 0) for s, _ in bcs.constraints))


def satisfying_assignments(support, b):
    """All f: support -> bits with parity b, in lexicographic bit order."""
    if len(support) > MAX_SUPPORT:
        raise BCSError(f"support of size {len(support)} exceeds cap {MAX_SUPPORT}")
    out = []
    for bits in product((0, 1), repeat=len(support)):
        if sum(bits) % 2 == b:
            out.append(dict(zip(support, bits)))
    return out


def _family_index(meta):
    """Per BCS-graph vertex of ``meta``: its constraint, its family's first
    vertex and its place k in the family, as int arrays.  The assignments of
    parity b are the binary numbers k on all bits but the last, so in G_F and
    G_F0 alike the k-th of parity b xor the k'-th of parity b' is the
    (k ^ k')-th of parity b xor b'."""
    owner = np.array([l for l, _ in meta], dtype=np.intp)
    first = np.searchsorted(owner, owner)
    return owner, first, np.arange(len(owner)) - first


def vertex_label(l, support, f):
    return f"c{l}:" + "".join(str(f[i]) for i in support)


@dataclass(frozen=True)
class BCSGraph:
    """Graph with one vertex per (constraint, satisfying assignment), edges
    between inconsistent pairs.  Vertices of one constraint form a clique."""

    graph: Graph
    vertex_meta: tuple  # per vertex: (constraint index, assignment dict)


def bcs_graph(bcs: LinBCS):
    """Two vertices are adjacent when they set some variable differently.

    Each vertex's (variable, bit) entries are listed once and grouped by one
    stable sort, each variable's 0-setters before its 1-setters; every
    (0-setter, 1-setter) pair of every variable is then set by one symmetric
    scatter into ``adj``, sum over i of |Z_i| |O_i| writes, no V x n array."""
    meta, labels, size, var, bit = [], [], [], [], []
    for l, (s, b) in enumerate(bcs.constraints):
        for f in satisfying_assignments(s, b):
            meta.append((l, f))
            labels.append(vertex_label(l, s, f))
            size.append(len(s))
            var += s
            bit += f.values()  # in support order
    key = 2 * np.array(var, dtype=np.intp) + np.array(bit, dtype=np.intp)
    setter = np.repeat(np.arange(len(meta)), size)[np.argsort(key, kind="stable")]
    zeros, ones = np.bincount(key, minlength=2 * bcs.n).reshape(bcs.n, 2).T
    pairs = zeros * ones  # per variable
    v = np.repeat(np.arange(bcs.n), pairs)  # the variable of each pair
    p = np.arange(len(v)) - np.repeat(np.cumsum(pairs) - pairs, pairs)  # its place among them
    first_one = (np.cumsum(zeros + ones) - ones)[v]  # in the sorted setters
    u, w = setter[first_one - zeros[v] + p // ones[v]], setter[first_one + p % ones[v]]
    adj = np.zeros((len(meta), len(meta)), dtype=bool)
    adj[np.concatenate([u, w]), np.concatenate([w, u])] = True
    return BCSGraph(Graph(tuple(labels), adj), tuple(meta))


def verify_refutation(bcs: LinBCS, y, bg: BCSGraph, bg0: BCSGraph):
    """Check that ``y`` proves alpha(G_F) < m <= alpha(G_F0), so that G_F and
    G_F0 are not isomorphic.  Returns ``(True, None)`` or ``(False,
    reason)``; a malformed ``y`` is rejected, not raised on.

    Independent of the elimination and of ``bcs_graph``:
    - y^T A = 0 and y^T b = 1 mod 2, recomputed from ``bcs.constraints``,
      so no assignment satisfies F;
    - off the diagonal, G_F's adjacency is ``~bcs_game_wins``, every vertex
      satisfies its constraint, and the m constraint classes are cliques
      that partition V(G_F).  An independent set of size m would take one
      vertex per class, pairwise consistent: a satisfying assignment.  So
      alpha(G_F) < m;
    - the zero-assignment vertices of G_F0 are m independent vertices, so
      alpha(G_F0) >= m.
    """
    m = bcs.m
    try:
        y = list(y)
    except TypeError:
        return False, "refutation is not a sequence"
    if len(y) != m or not all(isinstance(v, (int, np.integer, np.bool_)) and v in (0, 1) for v in y):
        return False, f"refutation is not a sequence of {m} bits"
    picked = [c for c, bit in zip(bcs.constraints, y) if bit]
    parity = np.zeros(bcs.n, dtype=np.int64)
    for s, _ in picked:
        parity[list(s)] += 1
    if (parity % 2).any():
        return False, "y^T A is not 0 mod 2"
    if sum(b for _, b in picked) % 2 != 1:
        return False, "y^T b is not 1 mod 2"
    for name, graph in (("G_F", bg), ("G_F0", bg0)):
        if len(graph.vertex_meta) != graph.graph.n:
            return False, f"{name} has {graph.graph.n} vertices but {len(graph.vertex_meta)} metadata entries"
    owner = [l for l, _ in bg.vertex_meta]
    if any(l not in range(m) for l in owner):
        return False, "a G_F vertex names no constraint"
    try:
        wins = bcs_game_wins(bcs, bg.vertex_meta)
    except ValueError as exc:
        return False, f"G_F vertex: {exc}"
    if not wins.diagonal().all():
        return False, "a G_F vertex violates its constraint"
    off = ~np.eye(len(owner), dtype=bool)
    if not np.array_equal(bg.graph.adj[off], ~wins[off]):
        return False, "G_F adjacency is not the inconsistency relation"
    owner = np.array(owner, dtype=np.int64)
    if not (bg.graph.adj | ~off | (owner[:, None] != owner[None, :])).all():
        return False, "a constraint class of G_F is not a clique"
    zeros = [v for v, (_, f) in enumerate(bg0.vertex_meta) if not any(f.values())]
    if len(zeros) != m or bg0.graph.adj[np.ix_(zeros, zeros)].any():
        return False, f"the zero-assignment vertices of G_F0 are not {m} independent vertices"
    return True, None


def classical_reduction_report(bcs: LinBCS):
    """The three equivalent facets of the classical reduction, decided
    independently and asserted to agree:

    - F satisfiable, by one GF(2) elimination;
    - G_F isomorphic to G_F0: YES by the shift map (l, f) -> (l, f xor x|_S)
      of the satisfying assignment x, checked by ``is_isomorphism``; NO by
      the elimination's refutation y, checked by ``verify_refutation``;
    - alpha(G_F) = m, by branch and bound.

    Returns a dict with the verdicts, alpha values and witnesses: the shift
    map as ``isomorphism`` (None when unsatisfiable), y as ``refutation``
    (None when satisfiable), and the pair (G_F, G_F0) as ``bcs_graphs``.
    """
    assignment, refutation = solve_or_refute(bcs)
    bg = bcs_graph(bcs)
    bg0 = bcs_graph(homogenize(bcs))
    phi = None
    if assignment is not None:
        owner, first, k = _family_index(bg.vertex_meta)
        # x|S's place: x's bits on S but its last variable, read as a binary number
        place = np.array([sum(assignment[i] << j for j, i in enumerate(reversed(s[:-1])))
                          for s, _ in bcs.constraints])
        phi = VertexMap(first + (k ^ place[owner]))
        if not is_isomorphism(bg.graph, bg0.graph, phi):
            raise AssertionError("explicit shift map is not an isomorphism")
    else:
        ok, why = verify_refutation(bcs, refutation, bg, bg0)
        if not ok:
            raise AssertionError(f"refutation rejected: {why}")
    alpha = independence_number(bg.graph)
    alpha0 = independence_number(bg0.graph)
    report = {
        "satisfiable": assignment is not None,
        "assignment": assignment,
        "refutation": refutation,
        "graphs_isomorphic": phi is not None,
        "isomorphism": phi,
        "alpha": alpha["alpha"],
        "alpha_witness": alpha["witness"],
        "alpha_homogenized": alpha0["alpha"],
        "alpha_equals_m": alpha["alpha"] == bcs.m,
        "m": bcs.m,
        "num_vertices": bg.graph.n,
        "bcs_graphs": (bg, bg0),
    }
    facets = {report["satisfiable"], report["graphs_isomorphic"], report["alpha_equals_m"]}
    if len(facets) != 1:
        raise AssertionError(f"classical reduction facets disagree: {report}")
    return report
