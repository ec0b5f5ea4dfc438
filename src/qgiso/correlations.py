"""Correlation tables and the non-signalling / perfect-strategy verifiers.

A Correlation stores the four-index table p(y_A, y_B | x_A, x_B) over a
common input = output token set.  Exact mode keeps a sparse dict of
Fractions and verifies with tolerance zero; floating mode keeps a dense
numpy array and a tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .equitable import CommonEquitablePartition, verify_common_equitable
from .games import iso_game_predicate
from .graphs import Graph, GraphError, ParseError, SizeLimitError

DEFAULT_TOL = 1e-9
MAX_EXHAUSTIVE_VERTICES = 32


@dataclass
class Correlation:
    """p(y_A, y_B | x_A, x_B) over the token list ``inputs``.

    ``table`` is a dict {(x_a, x_b, y_a, y_b): Fraction} in exact mode
    (missing tuples are zero) or a dense float ndarray indexed the same way.
    """

    inputs: tuple
    mode: str  # "exact" | "float"
    table: object
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        self.inputs = tuple(self.inputs)
        if self.mode not in ("exact", "float"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "float":
            self.table = np.asarray(self.table, dtype=float)
            N = len(self.inputs)
            if self.table.shape != (N, N, N, N):
                raise ValueError("dense table shape does not match the token list")
            # every verifier tests `value > tol`, which is False for NaN
            if not np.isfinite(self.table).all():
                raise GraphError("correlation table has a non-finite entry")

    @property
    def size(self):
        return len(self.inputs)

    def get(self, x_a, x_b, y_a, y_b):
        if self.mode == "exact":
            return self.table.get((x_a, x_b, y_a, y_b), Fraction(0))
        return float(self.table[x_a, x_b, y_a, y_b])

    def effective_tol(self):
        return 0 if self.mode == "exact" else self.tol


def verify_distribution(corr: Correlation):
    """Nonnegativity and per-input-pair normalization.

    Returns (True, None) or (False, description).
    """
    N = corr.size
    if corr.mode == "exact":
        for key, v in corr.table.items():
            if v < 0:
                return False, f"negative entry at {key}"
        sums = {}
        for (x_a, x_b, _, _), v in corr.table.items():
            sums[(x_a, x_b)] = sums.get((x_a, x_b), Fraction(0)) + v
        for x_a in range(N):
            for x_b in range(N):
                if sums.get((x_a, x_b), Fraction(0)) != 1:
                    return False, f"inputs ({x_a}, {x_b}) sum to {sums.get((x_a, x_b), 0)}"
        return True, None
    t = corr.tol
    if corr.table.min() < -t:
        idx = np.unravel_index(int(corr.table.argmin()), corr.table.shape)
        return False, f"negative entry at {idx}"
    totals = corr.table.sum(axis=(2, 3))
    worst = float(np.abs(totals - 1.0).max())
    if worst > t:
        return False, f"normalization off by {worst:.3e}"
    return True, None


def verify_nonsignalling(corr: Correlation):
    """Check both marginal-independence families.

    A correlation signals if some marginal of one player's output depends on
    the other player's input.  Returns (True, None) or
    (False, (side, x, y, x_other, x_other_alt, value, value_alt)).
    """
    N = corr.size
    if corr.mode == "exact":
        marg_a, marg_b = {}, {}
        for (x_a, x_b, y_a, y_b), v in corr.table.items():
            marg_a[(x_a, y_a, x_b)] = marg_a.get((x_a, y_a, x_b), Fraction(0)) + v
            marg_b[(x_b, y_b, x_a)] = marg_b.get((x_b, y_b, x_a), Fraction(0)) + v
        for side, marg in (("A", marg_a), ("B", marg_b)):
            grouped = {}
            for (x, y, other), v in marg.items():
                grouped.setdefault((x, y), {})[other] = v
            for (x, y), by_other in grouped.items():
                vals = [by_other.get(o, Fraction(0)) for o in range(N)]
                for o in range(1, N):
                    if vals[o] != vals[0]:
                        return False, (side, x, y, 0, o, vals[0], vals[o])
        return True, None
    t = corr.tol
    marg_a = corr.table.sum(axis=3)  # [x_a, x_b, y_a]
    spread = marg_a.max(axis=1) - marg_a.min(axis=1)
    if spread.max() > t:
        x_a, y_a = np.unravel_index(int(spread.argmax()), spread.shape)
        col = marg_a[x_a, :, y_a]
        return False, ("A", int(x_a), int(y_a), int(col.argmin()), int(col.argmax()),
                       float(col.min()), float(col.max()))
    marg_b = corr.table.sum(axis=2)  # [x_a, x_b, y_b]
    spread = marg_b.max(axis=0) - marg_b.min(axis=0)
    if spread.max() > t:
        x_b, y_b = np.unravel_index(int(spread.argmax()), spread.shape)
        col = marg_b[:, x_b, y_b]
        return False, ("B", int(x_b), int(y_b), int(col.argmin()), int(col.argmax()),
                       float(col.min()), float(col.max()))
    return True, None


def iso_game_tokens(g: Graph, h: Graph):
    """Token list for the (G, H)-isomorphism game: V(G) then V(H)."""
    return tuple("G:" + l for l in g.labels) + tuple("H:" + l for l in h.labels)


def winning_mask(g: Graph, h: Graph):
    """Dense boolean mask of winning tuples [x_a, x_b, y_a, y_b]."""
    n, N = g.n, g.n + h.n
    if h.n != n:
        raise GraphError("the isomorphism game needs equal vertex counts")
    rel_g = np.full((n, n), 2, dtype=np.int8)
    rel_g[g.adj] = 1
    np.fill_diagonal(rel_g, 0)
    rel_h = np.full((n, n), 2, dtype=np.int8)
    rel_h[h.adj] = 1
    np.fill_diagonal(rel_h, 0)
    X = np.arange(N)
    is_g = X < n
    valid = is_g[:, None] ^ is_g[None, :]  # token pair from opposite graphs
    g_of = np.where(is_g[:, None], X[:, None], X[None, :])
    h_of = np.where(is_g[:, None], X[None, :] - n, X[:, None] - n)
    g_of = np.clip(g_of, 0, n - 1)
    h_of = np.clip(h_of, 0, n - 1)
    ga = g_of[:, None, :, None]
    gb = g_of[None, :, None, :]
    ha = h_of[:, None, :, None]
    hb = h_of[None, :, None, :]
    win = rel_g[ga, gb] == rel_h[ha, hb]
    win &= valid[:, None, :, None]
    win &= valid[None, :, None, :]
    return win


def verify_perfect_iso_strategy(corr: Correlation, g: Graph, h: Graph):
    """Check that p vanishes on every losing tuple of the isomorphism game.

    Returns (True, None) or (False, (x_a, x_b, y_a, y_b, p)).
    """
    if corr.size != g.n + h.n:
        raise GraphError("correlation token count does not match V(G) + V(H)")
    if corr.mode == "exact":
        for (x_a, x_b, y_a, y_b), v in sorted(corr.table.items()):
            if v != 0 and not iso_game_predicate(g, h, x_a, x_b, y_a, y_b):
                return False, (x_a, x_b, y_a, y_b, v)
        return True, None
    win = winning_mask(g, h)
    losing = np.where(win, 0.0, corr.table)
    worst = float(losing.max())
    if worst > corr.tol:
        idx = np.unravel_index(int(losing.argmax()), losing.shape)
        return False, (*map(int, idx), worst)
    return True, None


class InconsistentCorrelationError(GraphError):
    pass


def build_ns_correlation(g: Graph, h: Graph, cep: CommonEquitablePartition):
    """The explicit perfect non-signalling correlation of a common equitable
    partition.

    Within aligned cells C_i, C_j the value is 1/(n_i c_ij) on edge pairs,
    1/(n_i cbar_ij) on distinct non-adjacent pairs, 1/n_i on equal pairs,
    plus the four input/output reflections; everything else is zero.  Any
    tuple reached by two clauses must agree, which is checked on insertion.
    """
    if not verify_common_equitable(g, h, cep):
        raise GraphError("common equitable partition fails verification for this pair")
    if g.n > MAX_EXHAUSTIVE_VERTICES:
        raise SizeLimitError(
            f"exhaustive correlation table capped at {MAX_EXHAUSTIVE_VERTICES} vertices"
        )
    n = g.n
    sizes = cep.sizes()
    cbar = cep.cbar()
    table = {}

    def put(key, value):
        old = table.get(key)
        if old is None:
            table[key] = value
        elif old != value:
            raise InconsistentCorrelationError(
                f"reflection clauses disagree at {key}: {old} vs {value}"
            )

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
    return Correlation(iso_game_tokens(g, h), "exact", table)


def pr_box():
    """The 2-input/2-output box with p = 1/2 iff y + y' = x x' (mod 2)."""
    table = {}
    for x in (0, 1):
        for xp in (0, 1):
            for y in (0, 1):
                for yp in (0, 1):
                    if (y + yp) % 2 == (x * xp) % 2:
                        table[(x, xp, y, yp)] = Fraction(1, 2)
    return Correlation(("0", "1"), "exact", table)


def ns_iso(g: Graph, h: Graph):
    """Decide non-signalling isomorphism via fractional isomorphism.

    Returns None for NO; for YES returns (cep, correlation) with the
    correlation verified as a distribution, non-signalling, and perfect
    before returning.
    """
    from .equitable import fractional_iso

    result = fractional_iso(g, h)
    if result is None:
        return None
    cep, _ = result
    corr = build_ns_correlation(g, h, cep)
    for check in (verify_distribution, verify_nonsignalling):
        ok, violation = check(corr)
        if not ok:
            raise AssertionError(f"constructed correlation failed: {violation}")
    ok, violation = verify_perfect_iso_strategy(corr, g, h)
    if not ok:
        raise AssertionError(f"constructed correlation loses at {violation}")
    return cep, corr


def correlation_to_ds_witness(corr: Correlation, g: Graph, h: Graph):
    """Extract D[g][h] = p(h, h | g, g) from a perfect NS correlation."""
    D = []
    for gv in range(g.n):
        row = []
        for hv in range(h.n):
            v = corr.get(gv, gv, hv + g.n, hv + g.n)
            row.append(v if corr.mode == "exact" else Fraction(v).limit_denominator(10**9))
        D.append(row)
    return D


def format_correlation(corr: Correlation):
    """Serialize: 'corr <N> <mode>', token list, sparse nonzero lines."""
    lines = [f"corr {corr.size} {corr.mode}", " ".join(corr.inputs)]
    if corr.mode == "exact":
        for (x_a, x_b, y_a, y_b), v in sorted(corr.table.items()):
            if v != 0:
                lines.append(f"{x_a} {x_b} {y_a} {y_b} {v.numerator}/{v.denominator}")
    else:
        nz = np.argwhere(corr.table != 0.0)
        for x_a, x_b, y_a, y_b in nz:
            lines.append(
                f"{x_a} {x_b} {y_a} {y_b} {float(corr.table[x_a, x_b, y_a, y_b])!r}"
            )
    return "\n".join(lines) + "\n"


def parse_correlation(text, tol=DEFAULT_TOL):
    lines = [(no, l) for no, l in enumerate(text.splitlines(), start=1)
             if l.strip() and not l.startswith("#")]
    head = lines[0][1].split()
    if len(head) != 3 or head[0] != "corr":
        raise GraphError("correlation file must start with 'corr <N> <mode>'")
    N, mode = int(head[1]), head[2]
    inputs = tuple(lines[1][1].split())
    if len(inputs) != N:
        raise GraphError(f"expected {N} tokens, found {len(inputs)}")
    if mode == "exact":
        table = {}
    else:
        table = np.zeros((N, N, N, N))
    for lineno, line in lines[2:]:
        parts = line.split()
        if len(parts) != 5:
            raise ParseError(f"malformed correlation line: {line!r}", lineno)
        key = tuple(int(p) for p in parts[:4])
        if not all(0 <= i < N for i in key):
            raise ParseError(f"index out of range [0, {N}): {line!r}", lineno)
        if mode == "exact":
            table[key] = Fraction(parts[4])
        else:
            table[key] = float(Fraction(parts[4]))
    return Correlation(inputs, mode, table, tol=tol)
