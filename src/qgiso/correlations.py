"""Correlation tables and the non-signalling / perfect-strategy verifiers.

A Correlation stores the four-index table p(y_A, y_B | x_A, x_B) over a
common input = output token set as one coordinate list of its stored
entries.  Exact mode keeps integer numerators over a common denominator and
verifies with tolerance zero; floating mode keeps floats and a tolerance.
Both modes go through the same verifiers.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from numbers import Integral

import numpy as np

from .equitable import (CommonEquitablePartition, _common_denominator, _int_dtype, _numerators,
                        common_equitable_partition, verify_common_equitable)
from .games import iso_game_wins, rel_codes
from .graphs import Graph, GraphError, ParseError, SizeLimitError

DEFAULT_TOL = 1e-9
MAX_EXHAUSTIVE_VERTICES = 32


def check_tolerance(tol):
    """``tol`` if it is a finite number >= 0, else GraphError: every verifier
    tests ``value > tol``, which is False against NaN or inf."""
    if not (math.isfinite(tol) and tol >= 0):
        raise GraphError(f"tolerance must be a finite number >= 0, got {tol!r}")
    return tol


@dataclass(frozen=True, eq=False)
class CooTable(Mapping):
    """The stored entries of a correlation over ``size`` tokens.

    ``coords`` is an (nnz, 4) int64 array of (x_a, x_b, y_a, y_b), sorted
    lexicographically with no repeats; ``index`` is each key flattened to one
    int in [0, N^4), sorted too, for binary search.  Entry k stands for
    ``data[k] / denominator``: floats over 1 in float mode; in exact mode
    integer numerators over one common denominator, int64 while no sum of
    nnz of them can overflow (``equitable._numerators``), else Python ints.
    As a read-only mapping it is {key tuple: value}, values made on request
    (``Fraction`` in exact mode).
    """

    size: int
    coords: np.ndarray
    data: np.ndarray
    index: np.ndarray
    denominator: int = 1

    @property
    def nbytes(self):
        return self.coords.nbytes + self.data.nbytes + self.index.nbytes

    def value(self, v):
        """A stored number, or a sum of them, as the value it stands for."""
        return float(v) if self.data.dtype.kind == "f" else Fraction(int(v), self.denominator)

    def __getitem__(self, key):
        N = self.size
        if not (isinstance(key, tuple) and len(key) == 4
                and all(isinstance(t, Integral) and 0 <= t < N for t in key)):
            raise KeyError(key)
        flat = ((key[0] * N + key[1]) * N + key[2]) * N + key[3]
        i = int(np.searchsorted(self.index, flat))
        if i == len(self.index) or self.index[i] != flat:
            raise KeyError(key)
        return self.value(self.data[i])

    def __iter__(self):
        return map(tuple, self.coords.tolist())

    def __len__(self):
        return len(self.index)


@dataclass
class Correlation:
    """p(y_A, y_B | x_A, x_B) over the token list ``inputs``.

    ``table`` becomes a ``CooTable``; missing tuples are zero.  It may be
    given as a mapping {key: value} or a pair (keys, values); in float mode
    also as a dense (N, N, N, N) array, whose non-zero entries are kept, and
    in exact mode as (keys, integer numerators, denominator).  Exact values
    are numbers taken exactly (ints, Fractions, finite floats) and stored
    over the lcm of their denominators.
    """

    inputs: tuple
    mode: str  # "exact" | "float"
    table: object
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        self.inputs = tuple(self.inputs)
        if self.mode not in ("exact", "float"):
            raise GraphError(f"unknown mode {self.mode!r}")
        check_tolerance(self.tol)
        self.table = self._coo(self.table)

    def _coo(self, table):
        N, exact, denominator = len(self.inputs), self.mode == "exact", 1
        if N ** 4 >= 2 ** 63:  # keys are flattened to int64
            raise GraphError(f"too many tokens ({N}): N^4 must stay below 2^63")
        if isinstance(table, Mapping):
            table = (list(table), list(table.values()))
        if exact and isinstance(table, tuple) and len(table) == 2:
            table = (table[0], *_common_denominator(table[1]))
        if exact and isinstance(table, tuple) and len(table) == 3:
            keys, denominator = table[0], table[2]
            values = _numerators(table[1], denominator, max(np.size(table[1]), 1))[0]
        elif exact:
            raise GraphError("an exact table needs a mapping, (keys, values) or "
                             "(keys, numerators, denominator)")
        elif isinstance(table, tuple):
            keys, values = table
            values = np.asarray(values, dtype=float)
        else:
            dense = np.asarray(table, dtype=float)
            if dense.shape != (N, N, N, N):
                raise GraphError("dense table shape does not match the token list")
            keys, values = np.argwhere(dense != 0), dense[dense != 0]
        keys = np.asarray(keys)
        keys = keys if keys.size else np.empty((0, 4), np.int64)
        if keys.ndim != 2 or keys.shape[1] != 4 or values.shape != (len(keys),):
            raise GraphError("a table needs (nnz, 4) keys and nnz values")
        if not np.issubdtype(keys.dtype, np.integer):
            raise GraphError("correlation keys must be integers")
        keys = keys.astype(np.int64, copy=False)
        # the verifiers index relation matrices with the keys, and numpy
        # wraps negative indices
        if len(keys) and (keys.min() < 0 or keys.max() >= N):
            raise GraphError(f"correlation key outside [0, {N})")
        # every verifier tests `value > tol`, which is False for NaN
        if not exact and not np.isfinite(values).all():
            raise GraphError("correlation table has a non-finite entry")
        index = np.ravel_multi_index(tuple(keys.T), (N,) * 4)
        order = np.argsort(index)
        index = index[order]
        if np.any(index[1:] == index[:-1]):
            raise GraphError("correlation table repeats a key")
        return CooTable(N, keys[order], values[order], index, denominator)

    @property
    def size(self):
        return len(self.inputs)

    def get(self, x_a, x_b, y_a, y_b):
        if not all(0 <= t < self.size for t in (x_a, x_b, y_a, y_b)):
            raise IndexError(f"token outside [0, {self.size})")
        return self.table.get((x_a, x_b, y_a, y_b), self.table.value(0))

    def effective_tol(self):
        return 0 if self.mode == "exact" else self.tol


def _grouped(corr: Correlation, *columns):
    """Sums of the stored numbers grouped by the given key columns, in their
    own dtype, as a dense array with one axis per column; absent groups sum
    to 0."""
    N, table = corr.size, corr.table
    flat = np.ravel_multi_index(tuple(table.coords[:, c] for c in columns), (N,) * len(columns))
    sums = np.zeros(N ** len(columns), dtype=table.data.dtype)
    np.add.at(sums, flat, table.data)
    return sums.reshape((N,) * len(columns))


def verify_distribution(corr: Correlation):
    """Nonnegativity and per-input-pair normalization.

    Returns (True, None) or (False, description).
    """
    t, table = corr.effective_tol(), corr.table
    if len(table) and table.data.min() < -t:
        return False, f"negative entry at {tuple(table.coords[table.data.argmin()].tolist())}"
    # every input pair, including those with no stored entry, must sum to 1
    sums = _grouped(corr, 0, 1)
    off = np.abs(sums - table.denominator)
    if off.max(initial=0) > t:
        x_a, x_b = np.unravel_index(int(off.argmax()), off.shape)
        return False, f"inputs ({x_a}, {x_b}) sum to {table.value(sums[x_a, x_b])}"
    return True, None


def verify_nonsignalling(corr: Correlation):
    """Check both marginal-independence families.

    A correlation signals if some marginal of one player's output depends on
    the other player's input.  Returns (True, None) or
    (False, (side, x, y, x_other, x_other_alt, value, value_alt)).
    """
    if corr.size == 0:
        return True, None
    # marginal [x, y, x_other] of each side, over every x_other
    for side, columns in (("A", (0, 2, 1)), ("B", (1, 3, 0))):
        marg = _grouped(corr, *columns)
        spread = marg.max(axis=2) - marg.min(axis=2)
        if spread.max() > corr.effective_tol():
            x, y = np.unravel_index(int(spread.argmax()), spread.shape)
            col = marg[x, y]
            lo, hi = int(col.argmin()), int(col.argmax())
            return False, (side, int(x), int(y), lo, hi,
                           corr.table.value(col[lo]), corr.table.value(col[hi]))
    return True, None


def iso_game_tokens(g: Graph, h: Graph):
    """Token list for the (G, H)-isomorphism game: V(G) then V(H)."""
    return tuple("G:" + l for l in g.labels) + tuple("H:" + l for l in h.labels)


def verify_perfect_iso_strategy(corr: Correlation, g: Graph, h: Graph):
    """Check that p vanishes on every losing tuple of the isomorphism game.

    Returns (True, None) or (False, (x_a, x_b, y_a, y_b, p)) for the losing
    tuple of largest |p|.
    """
    if corr.size != g.n + h.n:
        raise GraphError("correlation token count does not match V(G) + V(H)")
    table = corr.table
    losing = np.flatnonzero(~iso_game_wins(g, h, *table.coords.T))
    if len(losing):
        worst = losing[np.abs(table.data[losing]).argmax()]
        if abs(table.data[worst]) > corr.effective_tol():
            return False, (*table.coords[worst].tolist(), table.value(table.data[worst]))
    return True, None


def build_ns_correlation(g: Graph, h: Graph, cep: CommonEquitablePartition):
    """The explicit perfect non-signalling correlation of a common equitable
    partition.

    Within aligned cells C_i, C_j the value is 1/(n_i c_ij) on edge pairs,
    1/(n_i cbar_ij) on distinct non-adjacent pairs, 1/n_i on equal pairs,
    plus the four input/output reflections; everything else is zero.  The
    reflections put G and H tokens in four different positions (GGHH, GHHG,
    HGGH, HHGG), so no tuple is reached twice.  Values are stored exactly, as
    numerators over L, the lcm of every n_i, n_i c_ij and n_i cbar_ij in use.
    """
    if not verify_common_equitable(g, h, cep):
        raise GraphError("common equitable partition fails verification for this pair")
    if g.n > MAX_EXHAUSTIVE_VERTICES:
        raise SizeLimitError(f"exhaustive correlation table capped at "
                             f"{MAX_EXHAUSTIVE_VERTICES} vertices")
    n, sizes, cbar = g.n, cep.sizes(), cep.cbar()
    # the denominator of each relation code (equal, adjacent, distinct
    # non-adjacent) between cells i and j; 0 where the code cannot occur
    dens = [[(sizes[i], sizes[i] * cep.c[i][j], sizes[i] * cbar[i][j]) for j in range(cep.k)]
            for i in range(cep.k)]
    L = math.lcm(*(den for row in dens for triple in row for den in triple if den))
    rel_g, rel_h = rel_codes(g), rel_codes(h)
    keys, nums = [np.empty((0, 4), np.int64)], [np.empty(0, _int_dtype(L))]
    for i in range(cep.k):
        for j in range(cep.k):
            gi, gj = np.array(cep.cells_g[i]), np.array(cep.cells_g[j])
            hi, hj = np.array(cep.cells_h[i]), np.array(cep.cells_h[j])
            codes = rel_g[np.ix_(gi, gj)]
            a, b, c, d = np.nonzero(codes[:, :, None, None] == rel_h[np.ix_(hi, hj)])
            gv, gw, hv, hw = gi[a], gj[b], hi[c] + n, hj[d] + n
            for key in ((gv, gw, hv, hw), (gv, hw, hv, gw), (hv, gw, gv, hw), (hv, hw, gv, gw)):
                keys.append(np.stack(key, axis=1))
            by_code = np.array([L // den if den else 0 for den in dens[i][j]], dtype=_int_dtype(L))
            nums += [by_code[codes[a, b]]] * 4
    return Correlation(iso_game_tokens(g, h), "exact",
                       (np.concatenate(keys), np.concatenate(nums), L))


def pr_box():
    """The 2-input/2-output box with p = 1/2 iff y + y' = x x' (mod 2)."""
    return Correlation(("0", "1"), "exact", {
        (x, xp, y, yp): Fraction(1, 2) for x, xp, y, yp in np.ndindex(2, 2, 2, 2)
        if (y + yp) % 2 == x * xp})


def ns_iso(g: Graph, h: Graph):
    """Decide non-signalling isomorphism via fractional isomorphism: None for
    NO; for YES (cep, correlation), the correlation verified as a
    distribution, non-signalling and perfect."""
    if (cep := common_equitable_partition(g, h)) is None:
        return None
    corr = build_ns_correlation(g, h, cep)
    for ok, violation in (verify_distribution(corr), verify_nonsignalling(corr),
                          verify_perfect_iso_strategy(corr, g, h)):
        if not ok:
            raise AssertionError(f"constructed correlation failed: {violation}")
    return cep, corr


def correlation_to_ds_witness(corr: Correlation, g: Graph, h: Graph):
    """Extract D[g][h] = p(h, h | g, g) from a perfect NS correlation, as (M, L):
    in float mode each value's nearest fraction with denominator <= 10^9."""
    if corr.size != g.n + h.n:
        raise GraphError("correlation token count does not match V(G) + V(H)")
    x_a, x_b, y_a, y_b = corr.table.coords.T
    diag = np.flatnonzero((x_a == x_b) & (y_a == y_b) & (x_a < g.n) & (y_a >= g.n))
    nums, L = corr.table.data[diag], corr.table.denominator
    if corr.mode == "float":
        nums, L = _common_denominator([Fraction(v).limit_denominator(10**9) for v in nums.tolist()])
    M = np.zeros((g.n, h.n), nums.dtype)
    M[x_a[diag], y_a[diag] - g.n] = nums
    return M, L


def format_correlation(corr: Correlation):
    """Serialize: 'corr <N> <mode>', token list, sparse nonzero lines."""
    table, keep = corr.table, corr.table.data != 0
    distinct, which = np.unique(table.data[keep], return_inverse=True)
    texts = [f"{v.numerator}/{v.denominator}" if corr.mode == "exact" else repr(v)
             for v in map(table.value, distinct.tolist())]
    rows = zip(table.coords[keep].tolist(), which.tolist())
    return "\n".join([f"corr {corr.size} {corr.mode}", " ".join(corr.inputs),
                      *(f"{a} {b} {c} {d} {texts[i]}" for (a, b, c, d), i in rows), ""])


def _data_lines(text):
    """(number, line, fields) of each line that is not blank or a comment."""
    return ((n, s, f) for n, s in enumerate(text.splitlines(), 1) if (f := s.split()) and s[0] != "#")


def parse_correlation(text, tol=DEFAULT_TOL):
    lines = _data_lines(text)
    head_no, _, head = next(lines, (None, None, None))
    if head is None:
        raise ParseError("empty correlation file")
    if (len(head) != 3 or head[0] != "corr" or not head[1].isdecimal()
            or head[2] not in ("exact", "float")):
        raise ParseError("correlation file must start with 'corr <N> exact|float'", head_no)
    digits = head[1].lstrip("0")  # int() refuses more than 4,300 digits
    if len(digits) > 5 or int(digits or 0) ** 4 >= 2 ** 63:
        raise ParseError("too many tokens: N^4 must stay below 2^63", head_no)
    N, mode = int(digits or 0), head[2]
    token_no, _, inputs = next(lines, (None, None, None))
    if inputs is None:
        raise ParseError("the header is not followed by a token line", head_no)
    if len(inputs) != N:
        raise ParseError(f"expected {N} tokens, found {len(inputs)}", token_no)
    keys, which, seen, values = [], [], {}, []  # which[r]: line r's value in values
    try:
        for lineno, line, parts in lines:
            x_a, x_b, y_a, y_b, token = parts  # ValueError unless 5 fields
            i = seen.setdefault(token, len(seen))  # each distinct value is parsed once
            if i == len(values):
                values.append(float(Fraction(token)) if mode == "float" else Fraction(token))
            keys += (int(x_a), int(x_b), int(y_a), int(y_b))
            which.append(i)
        line = None
        coords = np.array(keys, np.int64).reshape(-1, 4)  # OverflowError: a key past int64
        distinct = (np.array(values),) if mode == "float" else _common_denominator(values)
        return Correlation(inputs, mode, (coords, distinct[0][which], *distinct[1:]), tol=tol)
    except (ValueError, ZeroDivisionError, OverflowError) as e:  # GraphError is a ValueError
        error = e if line is None else ParseError(f"malformed correlation line: {line!r}", lineno)
    done = set()  # a key out of range or repeated before the error is the first bad line
    for (lineno, line, _), key in zip(itertools.islice(_data_lines(text), 2, None),
                                      zip(*[iter(keys)] * 4)):
        if key in done or not all(0 <= k < N for k in key):
            raise ParseError(f"repeated index {key}" if key in done
                             else f"index out of range [0, {N}): {line!r}", lineno)
        done.add(key)
    raise error
