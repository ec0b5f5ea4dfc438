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

from .graphs import Graph, GraphError, ParseError, _root


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
    from its cellmates'.  Every vertex's count into every cell is one
    integer product A M, with M the n x k cell-membership matrix.
    """
    cells = tuple(tuple(sorted(cell)) for cell in cells)
    flat = [v for cell in cells for v in cell]
    if sorted(flat) != list(range(g.n)) or any(not cell for cell in cells):
        raise NotAPartitionError("cells do not partition the vertex set")
    sizes = np.array([len(cell) for cell in cells], dtype=np.intp)
    cell_of = np.repeat(np.arange(len(cells)), sizes)  # the cell of each vertex of flat
    member = np.zeros((g.n, len(cells)), dtype=np.int64)
    member[np.array(flat, dtype=np.intp), cell_of] = 1
    counts = (g.adj.astype(np.int64) @ member)[flat]
    c = counts[np.cumsum(sizes) - sizes]  # the row of each cell's first vertex
    for r, j in np.argwhere(counts != c[cell_of])[:1]:
        return None, (flat[r], int(j))
    edges = sizes[:, None] * c  # edges between cells i and j, counted from i
    if not np.array_equal(edges, edges.T):
        raise AssertionError("partition-number counting identity violated")
    return EquitablePartition(cells, tuple(map(tuple, c.tolist()))), None


def color_refinement(g: Graph):
    """Coarsest equitable partition of g, by 1-dimensional refinement.

    The result is re-verified before returning.
    """
    cells = _root(g)[2]
    part, violation = verify_equitable(g, [cells[c] for c in sorted(cells)])
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

    Refines the disjoint union from the isomorphism search's entry
    (``graphs._root``) and cuts each cell, in order, into its two sides.
    It stops at the first split that leaves a cell's halves unequal: then
    no common equitable partition exists.  Balanced cells give both sides
    the same sizes and partition numbers, so a mismatch is a kernel fault.
    """
    if (root := _root(g, h)) is None:
        return None
    cells = [root[2][c] for c in sorted(root[2])]
    pg, vio_g = verify_equitable(g, [[v for v in cell if v < g.n] for cell in cells])
    ph, vio_h = verify_equitable(h, [[v - g.n for v in cell if v >= g.n] for cell in cells])
    if vio_g is not None or vio_h is not None or pg.c != ph.c or pg.sizes() != ph.sizes():
        raise AssertionError("refinement cells not equitable and aligned on both sides")
    return CommonEquitablePartition(pg.cells, ph.cells, pg.c)


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
    try:
        rows, cols = int(tokens[1]), int(tokens[2])
    except ValueError:  # int() refuses more than 4,300 digits
        raise ParseError("witness header 'ds <rows> <cols>': a size has too many digits") from None
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
