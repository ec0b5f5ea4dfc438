"""Winning rules of the isomorphism game and the BCS game, on arrays.

The classical, non-signalling, and quantum verifiers all consult these
functions, so the rules of each game live in exactly one place.
"""

from __future__ import annotations

import numpy as np

from .graphs import Graph, GraphError


def rel_codes(g: Graph):
    """The n x n int8 matrix of the relation of two vertices: 0 equal,
    1 adjacent, 2 distinct non-adjacent."""
    r = np.full((g.n, g.n), 2, dtype=np.int8)
    r[g.adj] = 1
    np.fill_diagonal(r, 0)
    return r


def iso_game_wins(g: Graph, h: Graph, x_a, x_b, y_a, y_b):
    """Which rows of questions (x_a, x_b) and answers (y_a, y_b), tokens of
    V(G) + V(H) with H offset by |V(G)|, win the isomorphism game: each
    answer is from the other graph than its question, and the two G vertices
    relate as the two H vertices do.  A bool array."""
    x_a, x_b, y_a, y_b = (np.asarray(t, dtype=np.int64) for t in (x_a, x_b, y_a, y_b))
    if any(t.size and (t.min() < 0 or t.max() >= g.n + h.n) for t in (x_a, x_b, y_a, y_b)):
        raise GraphError("token outside V(G) + V(H)")
    n = g.n
    # each answer must come from the other graph; then the smaller token of a
    # player's (question, answer) pair is its G vertex
    win = ((x_a < n) != (y_a < n)) & ((x_b < n) != (y_b < n))
    # on losing rows the flat indices may leave the matrices: clipped, they
    # read some entry that ``win`` discards
    g_rel = rel_codes(g).take(np.minimum(x_a, y_a) * g.n + np.minimum(x_b, y_b), mode="clip")
    win &= g_rel == rel_codes(h).take((np.maximum(x_a, y_a) - n) * h.n
                                      + (np.maximum(x_b, y_b) - n), mode="clip")
    return win


def bcs_game_wins(bcs, meta):
    """Which pairs of (constraint, assignment) entries of ``meta`` win the
    BCS game, as a V x V bool array: each assignment, over exactly its
    constraint's support, satisfies it, and the two agree where they overlap.

    Each assignment becomes a row of ones and a row of zeros over the
    variables that occur in ``meta``, each filled by one scatter of the
    (row, variable, bit) entries; two assignments disagree on a shared
    variable exactly when one's ones meet the other's zeros.
    """
    rows, cols, bits, satisfied = [], [], [], []
    for a, (l, f) in enumerate(meta):
        s, b = bcs.constraints[l]
        if set(f) != set(s):
            raise ValueError("assignment domain does not match the constraint support")
        if any(f[i] not in (0, 1) for i in s):
            raise ValueError("assignment values must be bits")
        values = [f[i] for i in s]
        rows += [a] * len(s)
        cols += s
        bits += values
        satisfied.append(sum(values) % 2 == b)
    used, column = np.unique(np.array(cols, dtype=np.intp), return_inverse=True)
    ones = np.zeros((len(meta), len(used)), dtype=np.int64)
    zeros = np.zeros_like(ones)
    bits = np.array(bits, dtype=np.int64)
    ones[rows, column], zeros[rows, column] = bits, 1 - bits
    clash = ones @ zeros.T
    satisfied = np.array(satisfied, dtype=bool)
    return satisfied[:, None] & satisfied[None, :] & (clash + clash.T == 0)
