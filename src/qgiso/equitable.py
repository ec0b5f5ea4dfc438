"""Equitable partitions, color refinement, and fractional isomorphism.

All arithmetic here is exact: naturals, ``fractions.Fraction`` witnesses,
and integer numerators over a common denominator when a witness is checked.
The fractional-isomorphism decision certifies its YES answers with a
verified doubly stochastic matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .graphs import Graph, GraphError, ParseError, _neighbour_lists, _refine, disjoint_union


@dataclass(frozen=True)
class EquitablePartition:
    """Disjoint cells covering V plus the partition-number matrix.

    Every vertex of cell i has exactly c[i][j] neighbors in cell j.
    """

    cells: tuple  # tuple of sorted vertex-index tuples
    c: tuple  # k x k tuple of tuples of ints

    @property
    def k(self):
        return len(self.cells)

    def sizes(self):
        return tuple(len(cell) for cell in self.cells)


class NotAPartitionError(GraphError):
    pass


def verify_equitable(g: Graph, cells):
    """Check equitability of a candidate partition.

    Returns (EquitablePartition, None) on success, or (None, (vertex, cell
    index)) for the first vertex whose neighbor count into some cell differs
    from its cellmates'.
    """
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
    part = EquitablePartition(cells, tuple(tuple(row) for row in c))
    _check_counting_identity(part)
    return part, None


def _check_counting_identity(p: EquitablePartition):
    sizes = p.sizes()
    for i in range(p.k):
        for j in range(p.k):
            if p.c[i][j] * sizes[i] != p.c[j][i] * sizes[j]:
                raise AssertionError("partition-number counting identity violated")


def _colour_cells(colors):
    """The vertices of each colour 0..k-1, in one pass."""
    cells = [[] for _ in range(max(colors, default=-1) + 1)]
    for v, c in enumerate(colors):
        cells[c].append(v)
    return cells


def color_refinement(g: Graph):
    """Coarsest equitable partition of g, by 1-dimensional refinement.

    The result is re-verified before returning.
    """
    cells = _colour_cells(_refine(_neighbour_lists(g), [0] * g.n))
    part, violation = verify_equitable(g, cells)
    if violation is not None:
        raise AssertionError("refinement produced a non-equitable partition")
    return part


@dataclass(frozen=True)
class CommonEquitablePartition:
    """Aligned equitable partitions of two graphs with shared cell sizes and
    partition numbers."""

    cells_g: tuple
    cells_h: tuple
    c: tuple

    @property
    def k(self):
        return len(self.cells_g)

    def sizes(self):
        return tuple(len(cell) for cell in self.cells_g)

    def cbar(self):
        """Non-neighbor counts: cbar[i][j] = n_j - c[i][j] - delta_ij."""
        sizes = self.sizes()
        return tuple(
            tuple(sizes[j] - self.c[i][j] - (1 if i == j else 0) for j in range(self.k))
            for i in range(self.k)
        )


def verify_common_equitable(g: Graph, h: Graph, cep: CommonEquitablePartition):
    """Re-verify both sides of a common equitable partition with the same c."""
    pg, vio = verify_equitable(g, cep.cells_g)
    if vio is not None or pg.c != cep.c:
        return False
    ph, vio = verify_equitable(h, cep.cells_h)
    if vio is not None or ph.c != cep.c:
        return False
    return all(len(a) == len(b) for a, b in zip(cep.cells_g, cep.cells_h))


def common_equitable_partition(g: Graph, h: Graph):
    """Coarsest common equitable partition of a graph pair, or None.

    Runs color refinement on the disjoint union and aligns color classes.
    The refinement stops at the first round where the two graphs' color
    histograms differ: then no common equitable partition exists.
    """
    union, off_g, off_h = disjoint_union(g, h)
    colors = _refine(_neighbour_lists(union), [0] * union.n, split=off_h)
    if colors is None:
        return None
    cells = _colour_cells(colors)
    cells_g = [tuple(v for v in cell if v < off_h) for cell in cells]
    cells_h = [tuple(v - off_h for v in cell if v >= off_h) for cell in cells]
    pg, vio = verify_equitable(g, cells_g)
    if vio is not None:
        raise AssertionError("refinement cells not equitable on the first graph")
    cep = CommonEquitablePartition(tuple(cells_g), tuple(cells_h), pg.c)
    if not verify_common_equitable(g, h, cep):
        return None
    return cep


def _int_dtype(bound):
    """int64 for integers whose magnitudes, and those of all their sums, are
    at most ``bound`` < 2^62, so a difference of two cannot overflow either;
    else object, which holds Python ints."""
    return np.int64 if bound < 2 ** 62 else object


def verify_ds_witness(g: Graph, h: Graph, D):
    """Check D is doubly stochastic and intertwines the adjacency matrices.

    D is a list-of-lists of Fractions (or ints), |V(G)| x |V(H)|.  Returns
    (True, None) or (False, description of the first violation).  All
    checks are exact, on M = L D, integers over L, the lcm of D's
    denominators (int64, or Python ints past the ``_int_dtype`` guard):
    M >= 0, every row and column of M sums to L, and A_G M = M A_H.
    """
    if len(D) != g.n or any(len(row) != h.n for row in D):
        raise GraphError("witness dimensions do not match the graphs")
    L = math.lcm(*{x.denominator for row in D for x in row})
    M = [x.numerator * (L // x.denominator) for row in D for x in row]
    dtype = _int_dtype(max(L, max(map(abs, M), default=0)) * max(g.n, h.n))
    M = np.array(M, dtype=dtype).reshape(g.n, h.n)
    for i, j in np.argwhere(M < 0)[:1]:
        return False, f"negative entry at ({i}, {j})"
    for name, sums in (("row", M.sum(axis=1)), ("column", M.sum(axis=0))):
        for i in np.flatnonzero(sums != L)[:1]:
            return False, f"{name} {i} sums to {Fraction(int(sums[i]), L)}"
    lhs, rhs = g.adj.astype(dtype) @ M, M @ h.adj.astype(dtype)
    for i, j in np.argwhere(lhs != rhs)[:1]:
        return False, (f"A_G D != D A_H at ({i}, {j}): "
                       f"{Fraction(int(lhs[i, j]), L)} vs {Fraction(int(rhs[i, j]), L)}")
    return True, None


def build_ds_witness(cep: CommonEquitablePartition):
    """Blockwise doubly stochastic witness: 1/n_i on aligned cells, else 0."""
    n = sum(cep.sizes())
    D = [[Fraction(0)] * n for _ in range(n)]
    for cell_g, cell_h in zip(cep.cells_g, cep.cells_h):
        w = Fraction(1, len(cell_g))
        for v in cell_g:
            for u in cell_h:
                D[v][u] = w
    return D


def fractional_iso(g: Graph, h: Graph):
    """Decide fractional isomorphism.

    Returns None for NO; for YES returns (cep, D) where D is a doubly
    stochastic witness verified in exact rational arithmetic.
    """
    if g.n != h.n:
        return None
    cep = common_equitable_partition(g, h)
    if cep is None:
        return None
    D = build_ds_witness(cep)
    ok, violation = verify_ds_witness(g, h, D)
    if not ok:
        raise AssertionError(f"constructed witness failed verification: {violation}")
    return cep, D


def format_ds_witness(D):
    """Serialize: header 'ds <rows> <cols>' then row-major p/q entries."""
    rows, cols = len(D), len(D[0])
    lines = [f"ds {rows} {cols}"]
    for row in D:
        lines.append(" ".join(f"{x.numerator}/{x.denominator}" for x in row))
    return "\n".join(lines) + "\n"


def parse_ds_witness(text):
    """Read ``format_ds_witness``'s text: the header 'ds <rows> <cols>'
    with decimal sizes, then rows * cols p/q entries in row-major order.
    A malformed header or entry raises ParseError naming it."""
    tokens = text.split()
    head = tokens[:3]
    if len(head) < 3 or head[0] != "ds" or not (head[1].isdecimal() and head[2].isdecimal()):
        raise ParseError(f"witness file must start with 'ds <rows> <cols>', not {' '.join(head)!r}")
    rows, cols = int(tokens[1]), int(tokens[2])
    entries = tokens[3:]
    if len(entries) != rows * cols:
        raise ParseError(f"expected {rows * cols} entries, found {len(entries)}")
    D = []
    for i in range(rows):
        row = []
        for j, entry in enumerate(entries[i * cols:(i + 1) * cols]):
            try:
                row.append(Fraction(entry))
            except (ValueError, ZeroDivisionError):
                raise ParseError(f"entry ({i}, {j}) {entry!r} is not a fraction p/q") from None
        D.append(row)
    return D
