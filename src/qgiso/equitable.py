"""Equitable partitions, color refinement, and fractional isomorphism.

All arithmetic here is exact: naturals, and witnesses as integer numerators
over one common denominator, in float64 only while every sum is below 2^53.
The fractional-isomorphism decision certifies its YES answers with a
verified doubly stochastic matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Integral, Rational, Real

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
    from its cellmates'.  Every vertex's count into every cell is one float64
    product A M, exact as counts are at most n; M is the cell-membership matrix.
    """
    cells = tuple(tuple(sorted(cell)) for cell in cells)
    flat = [v for cell in cells for v in cell]
    if sorted(flat) != list(range(g.n)) or any(not cell for cell in cells):
        raise NotAPartitionError("cells do not partition the vertex set")
    sizes = np.array([len(cell) for cell in cells], dtype=np.intp)
    cell_of = np.repeat(np.arange(len(cells)), sizes)  # the cell of each vertex of flat
    member = np.zeros((g.n, len(cells)))
    member[np.array(flat, dtype=np.intp), cell_of] = 1
    counts = (g.adj[flat].astype(np.float64) @ member).astype(np.int64)
    c = counts[np.cumsum(sizes) - sizes]  # the row of each cell's first vertex
    for k in np.flatnonzero(counts != c[cell_of])[:1]:  # 10x faster than a 2-D np.argwhere
        return None, (flat[k // len(cells)], int(k % len(cells)))
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

    def cell_of(self):
        """The cell index of each vertex of G and of H, as two arrays."""
        which = np.repeat(np.arange(self.k), self.sizes())
        return tuple(which[np.argsort(np.array([v for cell in cells for v in cell], np.intp))]
                     for cells in (self.cells_g, self.cells_h))


def verify_common_equitable(g: Graph, h: Graph, cep: CommonEquitablePartition):
    """Re-verify both sides of a common equitable partition with the same c."""
    for graph, cells in ((g, cep.cells_g), (h, cep.cells_h)):
        part, vio = verify_equitable(graph, cells)
        if vio is not None or part.c != cep.c:
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


def _numerators(values, denominator, terms):
    """Integer numerators over a positive int, in the ``_int_dtype`` of a sum
    of ``terms`` of them, and that bound; GraphError for other numbers."""
    # numpy reads [-1, 2**63] as float64 and [True, 1] as int64: check lists number by number
    values = values if isinstance(values, np.ndarray) else np.asarray(values, dtype=object)
    if not (isinstance(denominator, Integral) and not isinstance(denominator, bool)
            and denominator > 0 and (values.dtype.kind in "iu" or values.dtype == object and all(
                isinstance(v, Integral) and not isinstance(v, bool) for v in values.flat))):
        raise GraphError("exact values need integer numerators over a positive integer")
    bound = max(denominator, -int(values.min(initial=0)), int(values.max(initial=0))) * terms
    return values.astype(_int_dtype(bound), copy=False), bound


def _common_denominator(values):
    """Exact values as (integer numerators, int64 where they fit, their lcm)."""
    try:
        if not all(isinstance(v, Real) for v in values):
            raise ValueError
        values = [v if isinstance(v, Rational) else Fraction(v) for v in values]
    except (ValueError, OverflowError):
        raise GraphError("exact correlation values must be finite numbers") from None
    denominator = math.lcm(*{v.denominator for v in values})
    nums = [v.numerator * (denominator // v.denominator) for v in values]
    return np.array(nums, _int_dtype(max([denominator, *map(abs, nums)]))), denominator


def verify_ds_witness(g: Graph, h: Graph, D):
    """Check D = M / L is doubly stochastic and intertwines the adjacency
    matrices: M >= 0 and its row and column sums are L, in its ``_int_dtype``;
    A_G M = M A_H in float64 while n max(L, |M|) < 2^53, so every partial sum
    is an exact integer, else in that integer dtype.  Returns (True, None) or
    (False, description of the first violation).
    """
    try:
        M, L = D
        M, bound = _numerators(M, L, max(g.n, h.n))
    except (TypeError, ValueError):  # GraphError is a ValueError
        raise GraphError("a witness needs integer numerators over a positive int") from None
    if M.shape != (g.n, h.n):
        raise GraphError("witness dimensions do not match the graphs")
    for k in np.flatnonzero(M < 0)[:1]:
        return False, f"negative entry at {divmod(int(k), h.n)}"
    for name, sums in (("row", M.sum(axis=1)), ("column", M.sum(axis=0))):
        for i in np.flatnonzero(sums != L)[:1]:
            return False, f"{name} {i} sums to {Fraction(int(sums[i]), L)}"
    M = M.astype(np.float64 if bound < 2 ** 53 else M.dtype, copy=False)
    lhs, rhs = g.adj.astype(M.dtype) @ M, M @ h.adj.astype(M.dtype)
    for k in np.flatnonzero(lhs != rhs)[:1]:
        return False, (f"A_G D != D A_H at {divmod(int(k), h.n)}: "
                       f"{Fraction(int(lhs.flat[k]), L)} vs {Fraction(int(rhs.flat[k]), L)}")
    return True, None


def build_ds_witness(cep: CommonEquitablePartition):
    """Blockwise doubly stochastic witness (M, L): 1/n_i on aligned cells,
    else 0, as numerators over L, the lcm of the cell sizes."""
    sizes, (cell_g, cell_h) = cep.sizes(), cep.cell_of()
    L = math.lcm(*sizes)
    weights = np.array([L // s for s in sizes], _int_dtype(L))[cell_g]
    return np.where(cell_g[:, None] == cell_h, weights[:, None], 0), L


def fractional_iso(g: Graph, h: Graph):
    """Decide fractional isomorphism: None for NO; for YES (cep, D), with
    D = (M, L) a doubly stochastic witness verified in exact arithmetic."""
    if g.n != h.n or (cep := common_equitable_partition(g, h)) is None:
        return None
    D = build_ds_witness(cep)
    ok, violation = verify_ds_witness(g, h, D)
    if not ok:
        raise AssertionError(f"constructed witness failed verification: {violation}")
    return cep, D


def format_ds_witness(D):
    """Serialize (M, L): header 'ds <rows> <cols>' then row-major entries,
    each reduced to p/q (zero as 0/1); each distinct entry is formatted once."""
    M, L = np.asarray(D[0]), int(D[1])
    distinct, which = np.unique(M, return_inverse=True)
    texts = [f"{p // d}/{L // d}" for p in distinct.tolist() for d in [math.gcd(p, L)]]
    rows = (" ".join(map(texts.__getitem__, row)) for row in which.reshape(M.shape).tolist())
    return "\n".join([f"ds {M.shape[0]} {M.shape[1]}", *rows, ""])


def parse_ds_witness(text):
    """Read ``format_ds_witness``'s text, 'ds <rows> <cols>' with decimal
    sizes then rows * cols p/q entries in row-major order, as (M, L), each
    distinct entry parsed once.  A malformed header or entry raises
    ParseError naming it."""
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
    seen = {}
    which = np.fromiter((seen.setdefault(e, len(seen)) for e in entries), np.intp, len(entries))
    values = []
    for entry in seen:  # in order of first appearance, so the first bad one is named
        try:
            values.append(Fraction(entry))
        except (ValueError, ZeroDivisionError):
            i, j = divmod(entries.index(entry), cols)
            raise ParseError(f"entry ({i}, {j}) {entry!r} is not a fraction p/q") from None
    nums, L = _common_denominator(values)
    return nums[which].reshape(rows, cols), L
