"""Correlation tables and the non-signalling / perfect-strategy verifiers.

A Correlation stores the four-index table p(y_A, y_B | x_A, x_B) over a
common input = output token set.  Exact mode keeps a sparse dict of
Fractions and verifies with tolerance zero; floating mode keeps a
coordinate list of the non-zero entries and a tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .equitable import CommonEquitablePartition, verify_common_equitable
from .games import iso_game_predicate, iso_game_wins
from .graphs import Graph, GraphError, ParseError, SizeLimitError

DEFAULT_TOL = 1e-9
MAX_EXHAUSTIVE_VERTICES = 32


@dataclass(frozen=True, eq=False)
class CooTable:
    """The stored entries of a float correlation over N tokens.

    ``keys`` is an (nnz, 4) int array of (x_a, x_b, y_a, y_b), sorted
    lexicographically with no repeats; ``values`` holds the aligned floats
    and ``index`` each key flattened to one int in [0, N^4), so it is sorted
    too and serves binary search.
    """

    keys: np.ndarray
    values: np.ndarray
    index: np.ndarray

    @property
    def nbytes(self):
        return self.keys.nbytes + self.values.nbytes + self.index.nbytes


@dataclass
class Correlation:
    """p(y_A, y_B | x_A, x_B) over the token list ``inputs``.

    ``table`` is a dict {(x_a, x_b, y_a, y_b): Fraction} in exact mode, or
    a ``CooTable`` in float mode; missing tuples are zero in both.  A float
    table may be given as a pair (keys, values) or as a dense (N, N, N, N)
    array, whose non-zero entries are kept.
    """

    inputs: tuple
    mode: str  # "exact" | "float"
    table: object
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        self.inputs = tuple(self.inputs)
        if self.mode not in ("exact", "float"):
            raise GraphError(f"unknown mode {self.mode!r}")
        if self.mode == "float":
            self.table = self._coo(self.table)

    def _coo(self, table):
        N = len(self.inputs)
        if isinstance(table, tuple):
            keys, values = table
        else:
            dense = np.asarray(table, dtype=float)
            if dense.shape != (N, N, N, N):
                raise GraphError("dense table shape does not match the token list")
            keys = np.argwhere(dense != 0)
            values = dense[dense != 0]
        keys, values = np.asarray(keys), np.asarray(values, dtype=float)
        if keys.ndim != 2 or keys.shape[1] != 4 or values.shape != (len(keys),):
            raise GraphError("a float table needs (nnz, 4) keys and nnz values")
        if not np.issubdtype(keys.dtype, np.integer):
            raise GraphError("correlation keys must be integers")
        keys = keys.astype(np.int64, copy=False)
        # the verifiers index relation matrices with the keys, and numpy
        # wraps negative indices
        if len(keys) and (keys.min() < 0 or keys.max() >= N):
            raise GraphError(f"correlation key outside [0, {N})")
        # every verifier tests `value > tol`, which is False for NaN
        if not np.isfinite(values).all():
            raise GraphError("correlation table has a non-finite entry")
        index = np.ravel_multi_index(tuple(keys.T), (N,) * 4)
        order = np.argsort(index, kind="stable")
        index = index[order]
        if np.any(index[1:] == index[:-1]):
            raise GraphError("correlation table repeats a key")
        return CooTable(keys[order], values[order], index)

    @property
    def size(self):
        return len(self.inputs)

    def get(self, x_a, x_b, y_a, y_b):
        if self.mode == "exact":
            return self.table.get((x_a, x_b, y_a, y_b), Fraction(0))
        N = self.size
        if not all(0 <= t < N for t in (x_a, x_b, y_a, y_b)):
            raise IndexError(f"token outside [0, {N})")
        flat = ((x_a * N + x_b) * N + y_a) * N + y_b
        i = int(np.searchsorted(self.table.index, flat))
        if i < len(self.table.index) and self.table.index[i] == flat:
            return float(self.table.values[i])
        return 0.0

    def effective_tol(self):
        return 0 if self.mode == "exact" else self.tol


def _grouped(corr: Correlation, *columns):
    """Sums of the stored values grouped by the given key columns, as a dense
    array with one axis per column; absent groups sum to 0."""
    N, keys = corr.size, corr.table.keys
    flat = np.ravel_multi_index(tuple(keys[:, c] for c in columns), (N,) * len(columns))
    sums = np.bincount(flat, weights=corr.table.values, minlength=N ** len(columns))
    return sums.reshape((N,) * len(columns))


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
    t, values = corr.tol, corr.table.values
    if len(values) and values.min() < -t:
        return False, f"negative entry at {tuple(corr.table.keys[values.argmin()].tolist())}"
    # every input pair, including those with no stored entry, must sum to 1
    worst = float(np.abs(_grouped(corr, 0, 1) - 1.0).max())
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
    # marginal [x, y, x_other] of each side, over every x_other
    for side, columns in (("A", (0, 2, 1)), ("B", (1, 3, 0))):
        marg = _grouped(corr, *columns)
        spread = marg.max(axis=2) - marg.min(axis=2)
        if spread.max() > corr.tol:
            x, y = np.unravel_index(int(spread.argmax()), spread.shape)
            col = marg[x, y]
            return False, (side, int(x), int(y), int(col.argmin()), int(col.argmax()),
                           float(col.min()), float(col.max()))
    return True, None


def iso_game_tokens(g: Graph, h: Graph):
    """Token list for the (G, H)-isomorphism game: V(G) then V(H)."""
    return tuple("G:" + l for l in g.labels) + tuple("H:" + l for l in h.labels)


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
    keys, values = corr.table.keys, corr.table.values
    losing = np.flatnonzero(~iso_game_wins(g, h, *keys.T))
    if len(losing):
        worst = losing[values[losing].argmax()]
        if values[worst] > corr.tol:
            return False, (*keys[worst].tolist(), float(values[worst]))
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
        keep = corr.table.values != 0.0
        for key, v in zip(corr.table.keys[keep].tolist(), corr.table.values[keep].tolist()):
            lines.append(f"{key[0]} {key[1]} {key[2]} {key[3]} {v!r}")
    return "\n".join(lines) + "\n"


def parse_correlation(text, tol=DEFAULT_TOL):
    lines = [(no, l) for no, l in enumerate(text.splitlines(), start=1)
             if l.strip() and not l.startswith("#")]
    if not lines:
        raise ParseError("empty correlation file")
    head_no, head = lines[0][0], lines[0][1].split()
    if (len(head) != 3 or head[0] != "corr" or not head[1].isdigit()
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
    if mode == "float":
        table = (np.array(list(table), dtype=np.int64).reshape(-1, 4),
                 np.array(list(table.values()), dtype=float))
    return Correlation(inputs, mode, table, tol=tol)
