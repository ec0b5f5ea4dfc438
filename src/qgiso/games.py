"""Winning predicates for the isomorphism game and the BCS game.

The classical, non-signalling, and quantum verifiers all consult these
predicates, so the rules of each game live in exactly one place.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .graphs import Graph, GraphError


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


def rel_codes(g: Graph):
    """The n x n int8 matrix of ``rel``: 0 equal, 1 adjacent, 2 distinct
    non-adjacent."""
    r = np.full((g.n, g.n), 2, dtype=np.int8)
    r[g.adj] = 1
    np.fill_diagonal(r, 0)
    return r


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


def iso_game_wins(g: Graph, h: Graph, x_a, x_b, y_a, y_b):
    """``iso_game_predicate`` over equal-length token arrays, as a bool array."""
    x_a, x_b, y_a, y_b = (np.asarray(t, dtype=np.int64) for t in (x_a, x_b, y_a, y_b))
    for t in (x_a, x_b, y_a, y_b):
        if t.size and (t.min() < 0 or t.max() >= g.n + h.n):
            raise GraphError("token outside V(G) + V(H)")
    n = g.n
    win = ((x_a < n) != (y_a < n)) & ((x_b < n) != (y_b < n))
    rows = np.flatnonzero(win)  # each answer is from the other graph
    x_a, x_b, y_a, y_b = x_a[rows], x_b[rows], y_a[rows], y_b[rows]
    g_a, h_a = np.where(x_a < n, x_a, y_a), np.where(x_a < n, y_a, x_a) - n
    g_b, h_b = np.where(x_b < n, x_b, y_b), np.where(x_b < n, y_b, x_b) - n
    win[rows] = rel_codes(g)[g_a, g_b] == rel_codes(h)[h_a, h_b]
    return win


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
