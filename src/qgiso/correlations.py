"""Correlation tables and the non-signalling / perfect-strategy verifiers.

A Correlation stores the four-index table p(y_A, y_B | x_A, x_B) over a
common input = output token set as one coordinate list of its stored
entries.  Exact mode keeps integer numerators over a common denominator and
verifies with tolerance zero; floating mode keeps floats and a tolerance.
Both modes go through the same verifiers.  The table is bound by memory, so
every pass over it holds the table plus at most one chunk of CHUNK_ENTRIES.
"""

from __future__ import annotations

import itertools
import math
import re
import warnings
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
CHUNK_ENTRIES = 1 << 16  # entries per chunk of a table pass; the reader slices 16 characters each


def check_tolerance(tol):
    """``tol`` if it is a finite number >= 0, else GraphError: every verifier
    tests ``value > tol``, which is False against NaN or inf."""
    if not (math.isfinite(tol) and tol >= 0):
        raise GraphError(f"tolerance must be a finite number >= 0, got {tol!r}")
    return tol


def _chunks(n):
    """Slices of range(n), CHUNK_ENTRIES at a time."""
    return (slice(s, s + CHUNK_ENTRIES) for s in range(0, n, CHUNK_ENTRIES))


def _increasing(index):
    """Whether ``index`` strictly increases, compared one chunk at a time."""
    return all((np.diff(index[s.start:s.stop + 1]) > 0).all() for s in _chunks(len(index) - 1))


@dataclass(frozen=True, eq=False)
class CooTable(Mapping):
    """The stored entries of a correlation over ``size`` tokens.

    ``coords`` is an (nnz, 4) int64 array of (x_a, x_b, y_a, y_b), sorted
    lexicographically with no repeats; ``index`` is each key flattened to one
    int in [0, N^4), sorted too, for binary search.  Entry k stands for
    ``data[k] / denominator``: floats over 1 in float mode; in exact mode
    integer numerators over one common denominator, int64 while no sum of
    nnz of them can overflow (``equitable._numerators``), else Python ints.
    The three arrays are read-only.  As a read-only mapping it is {key tuple:
    value}, values made on request (``Fraction`` in exact mode).
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
        return (tuple(k) for s in _chunks(len(self)) for k in self.coords[s].tolist())

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
        if not _increasing(index):  # built tables and written files come sorted, kept as given
            order = np.argsort(index)
            index = index[order]
            if not _increasing(index):  # before the keys and values are copied
                raise GraphError("correlation table repeats a key")
            keys, values = keys[order], values[order]
        table = CooTable(N, keys.view(), values.view(), index, denominator)
        for a in (table.coords, table.data, table.index):
            a.setflags(write=False)  # views, so the caller's arrays stay writable
        return table

    @property
    def size(self):
        return len(self.inputs)

    def get(self, x_a, x_b, y_a, y_b):
        if not all(0 <= t < self.size for t in (x_a, x_b, y_a, y_b)):
            raise IndexError(f"token outside [0, {self.size})")
        return self.table.get((x_a, x_b, y_a, y_b), self.table.value(0))

    def effective_tol(self):
        """0 in exact mode, else ``tol``, checked again: it may be set after construction."""
        tol = check_tolerance(self.tol)
        return 0 if self.mode == "exact" else tol


def _grouped(corr: Correlation, *columns):
    """Sums of the stored numbers grouped by the given key columns, in their
    own dtype, as a dense array with one axis per column; absent groups sum
    to 0."""
    N, table = corr.size, corr.table
    sums = np.zeros(N ** len(columns), dtype=table.data.dtype)
    for s in _chunks(len(table)):
        np.add.at(sums, np.ravel_multi_index(tuple(table.coords[s, c] for c in columns),
                                             (N,) * len(columns)), table.data[s])
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
    t = corr.effective_tol()
    if corr.size == 0:
        return True, None
    # marginal [x, y, x_other] of each side, over every x_other
    for side, columns in (("A", (0, 2, 1)), ("B", (1, 3, 0))):
        marg = _grouped(corr, *columns)
        spread = marg.max(axis=2) - marg.min(axis=2)
        if spread.max() > t:
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
    tuple of largest |p|, the first in key order.
    """
    if corr.size != g.n + h.n:
        raise GraphError("correlation token count does not match V(G) + V(H)")
    t, table, worst = corr.effective_tol(), corr.table, None
    for s in _chunks(len(table)):
        losing = np.flatnonzero(~iso_game_wins(g, h, *table.coords[s].T)) + s.start
        if len(losing):
            k = losing[np.abs(table.data[losing]).argmax()]
            worst = k if worst is None or abs(table.data[k]) > abs(table.data[worst]) else worst
    if worst is not None and abs(table.data[worst]) > t:
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
    Each entry is one flat key, sorted once and spread into the columns.
    """
    if not verify_common_equitable(g, h, cep):
        raise GraphError("common equitable partition fails verification for this pair")
    if g.n > MAX_EXHAUSTIVE_VERTICES:
        raise SizeLimitError(f"exhaustive correlation table capped at "
                             f"{MAX_EXHAUSTIVE_VERTICES} vertices")
    n, N, (cell_g, cell_h) = g.n, g.n + h.n, cep.cell_of()
    # match[v, w, x, y]: G vertices v, w and H vertices x, y related alike, in aligned cells
    match = rel_codes(g)[:, :, None, None] == rel_codes(h)
    match &= cell_g[:, None, None, None] == cell_h[:, None]
    match &= cell_g[:, None, None] == cell_h
    den = match.sum(axis=(2, 3))  # the matches of (v, w): n_i, n_i c_ij or n_i cbar_ij
    L = math.lcm(*set(den.ravel().tolist()))  # not np.unique: numpy 2.4 keeps 0.6 MiB after its first call
    by_pair = L // den.astype(_int_dtype(L))  # the numerator of each pair of G tokens
    v, w, x, y = np.nonzero(match)
    x, y = x + n, y + n
    # each temporary is freed once used, so the peak is the finished table
    flat = np.concatenate([((p * N + q) * N + r) * N + t for p, q, r, t in
                           ((v, w, x, y), (v, y, x, w), (x, w, v, y), (x, y, v, w))])
    del match, v, w, x, y
    flat.sort()
    coords = np.empty((len(flat), 4), np.int64)
    for col in range(4):
        np.floor_divide(flat, N ** (3 - col), out=coords[:, col])
        np.remainder(coords[:, col], N, out=coords[:, col])
    del flat
    nums = np.empty(len(coords), by_pair.dtype)
    for s in _chunks(len(coords)):
        x_a, x_b, y_a, y_b = coords[s].T
        nums[s] = by_pair[np.minimum(x_a, y_a), np.minimum(x_b, y_b)]
    return Correlation(iso_game_tokens(g, h), "exact", (coords, nums, L))


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
    """Serialize: 'corr <N> <mode>', token list, sparse nonzero lines, written
    a chunk at a time with each distinct value of the chunk formatted once."""
    table, pieces = corr.table, [f"corr {corr.size} {corr.mode}\n{' '.join(corr.inputs)}\n"]
    for s in _chunks(len(table)):
        keep = table.data[s] != 0
        distinct, which = np.unique(table.data[s][keep], return_inverse=True)
        texts = [f"{v.numerator}/{v.denominator}" if corr.mode == "exact" else repr(v)
                 for v in map(table.value, distinct.tolist())]
        pieces.append("".join(f"{a} {b} {c} {d} {texts[i]}\n" for (a, b, c, d), i
                              in zip(table.coords[s][keep].tolist(), which.tolist())))
    return "".join(pieces)


def _slices(text):
    """Slices of ``text`` of about 16 CHUNK_ENTRIES characters, each ending
    just after one of ``str.splitlines``' line breaks, "\\r\\n" kept whole."""
    breaks, start = re.compile("\r\n|[\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]"), 0
    while start < len(text):
        found = breaks.search(text, start + 16 * CHUNK_ENTRIES)
        stop = found.end() if found else len(text)
        yield text[start:stop]
        start = stop


def _data_lines(text):
    """(number, line, fields) of each line that is not blank or a comment,
    numbered by ``splitlines`` over the slices."""
    number = 0
    for piece in _slices(text):
        for number, s in enumerate(piece.splitlines(), number + 1):
            if (f := s.split()) and s[0] != "#":
                yield number, s, f


def _stored(coords, which, values, mode):
    """The table Correlation takes from the keys and ``values[which]``:
    floats, or exact numerators over their common denominator."""
    distinct = (np.array(values),) if mode == "float" else _common_denominator(values)
    return (coords, distinct[0][which], *distinct[1:])


class _Ids(dict):
    """Each token's number in order of first sight; ``map(ids.__getitem__,
    tokens)`` numbers a column in C, calling Python only on new tokens."""

    def __missing__(self, token):
        self[token] = i = len(self)
        return i


# all five fields of a line, so that one of 4 or 6 is refused; the value as an
# object, since a fixed-width string field would cut a long token short
_ROW = np.dtype([("key", np.int64, 4), ("value", object)])


def _read_table(text, skip, mode, rows):
    """The table of the lines after the first ``skip``, read by one
    ``np.loadtxt`` per slice into preallocated arrays, each distinct value
    token parsed once.  ValueError, ZeroDivisionError or OverflowError on a
    line that read or ``Fraction`` refuses, even one the line loop accepts."""
    coords, which, ids, stored = np.empty((rows, 4), np.int64), np.empty(rows, np.intp), _Ids(), 0
    for piece in _slices(text):
        lines = piece.splitlines()
        lines, skip = lines[skip:], max(skip - len(lines), 0)
        if "#" in piece:
            lines = [s for s in lines if s[:1] != "#"]
        if any(map(str.strip, lines)):  # loadtxt warns on a slice with no data
            with warnings.catch_warnings():  # older numpy reads a key "1.0" as 1, with this warning
                warnings.simplefilter("error", DeprecationWarning)
                # comments=None: a "#" after the data is a field, as for str.split
                read = np.loadtxt(lines, _ROW, comments=None, ndmin=1, encoding=None)
            end = stored + len(read)
            coords[stored:end] = read["key"]
            which[stored:end], stored = list(map(ids.__getitem__, read["value"])), end
            del read
        del lines  # freed before the next slice's are made
    # each value token must be str.split's fifth field, whatever whitespace loadtxt splits at
    if any([token] != token.split() for token in ids):
        raise ValueError("a value token holds whitespace")
    values = [float(Fraction(t)) if mode == "float" else Fraction(t) for t in ids]
    return _stored(coords[:stored], which[:stored], values, mode)


def _first_repeat(coords, N):
    """The first row whose key repeats an earlier row's, or None: the
    earliest second occurrence in a stable sort of the flat keys."""
    flat = np.ravel_multi_index(tuple(coords.T), (N,) * 4)
    order = np.argsort(flat, kind="stable")
    flat = flat[order]
    later = order[1:][flat[1:] == flat[:-1]]
    return int(later.min()) if len(later) else None


def _read_lines(text, N, mode, rows):
    """The table of the data lines after the token line, read one line at a
    time, or ParseError naming the first bad line: malformed or out of range
    as it is read, a repeated key from the keys read before."""
    lines, bad = itertools.islice(_data_lines(text), 2, None), None
    coords, which = np.empty((rows, 4), np.int64), np.empty(rows, np.intp)
    stored, seen, values = 0, {}, []  # which[r]: line r's value in values
    while bad is None:  # a chunk of lines at a time, then its keys and picks into the arrays
        keys, picks = [], []
        for lineno, line, parts in itertools.islice(lines, CHUNK_ENTRIES):
            try:
                x_a, x_b, y_a, y_b, token = parts  # ValueError unless 5 fields
                key = int(x_a), int(x_b), int(y_a), int(y_b)
                i = seen.setdefault(token, len(seen))  # each distinct value is parsed once
                if i == len(values):
                    values.append(float(Fraction(token)) if mode == "float" else Fraction(token))
            except (ValueError, ZeroDivisionError, OverflowError):
                bad = ParseError(f"malformed correlation line: {line!r}", lineno)
                break
            if not (0 <= min(key) and max(key) < N):
                bad = ParseError(f"index out of range [0, {N}): {line!r}", lineno)
                break
            keys += key
            picks.append(i)
        end = stored + len(picks)
        coords[stored:end] = np.array(keys, np.int64).reshape(-1, 4)
        which[stored:end], stored = picks, end
        if len(picks) < CHUNK_ENTRIES:
            break
    if (r := _first_repeat(coords[:stored], N)) is not None:
        lineno = next(itertools.islice(_data_lines(text), 2 + r, None))[0]
        raise ParseError(f"repeated index {tuple(coords[r].tolist())}", lineno)
    if bad is not None:
        raise bad
    return _stored(coords[:stored], which[:stored], values, mode)


def parse_correlation(text, tol=DEFAULT_TOL):
    """Read a correlation file, as ``format_correlation`` writes it, by one C
    read per slice; a file that read refuses goes to the line loop, which
    reads it or names its first bad line."""
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
    del lines  # its slice of lines
    # splitlines' breaks; an ASCII text (an O(1) test) holds none of the last three
    breaks = "\n\r\v\f\x1c\x1d\x1e" + ("" if text.isascii() else "\x85\u2028\u2029")
    rows = sum(map(text.count, breaks)) + 1
    try:  # at the default tolerance, so that only a parse error leads to the line loop
        corr = Correlation(inputs, mode, _read_table(text, token_no, mode, rows))
    except (ValueError, ZeroDivisionError, OverflowError):  # GraphError is a ValueError
        corr = None  # out of the handler, the fast read's arrays are freed
    if corr is None:
        corr = Correlation(inputs, mode, _read_lines(text, N, mode, rows))
    corr.tol = check_tolerance(tol)
    return corr
