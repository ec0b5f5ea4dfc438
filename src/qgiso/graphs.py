"""Graph values, exact combinatorial oracles, and integer characteristic polynomials.

Everything in this module is exact: adjacency is boolean, the isomorphism /
independence oracles are complete searches (with pruning), not heuristics,
and characteristic polynomials are integer polynomials.  One Faddeev-LeVerrier
loop runs modulo primes on a stack of every (graph, prime) pair, keeps
signed residues, and lifts under the smaller of a Hadamard and an energy
bound (Maclaurin; Koolen and Moulton 2001) on the coefficients.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

MAX_ORACLE_VERTICES = 128


class GraphError(ValueError):
    pass


class ParseError(GraphError):
    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class SizeLimitError(GraphError):
    """Raised when an exponential oracle is asked for an oversized graph."""


@dataclass(frozen=True)
class Graph:
    """Simple undirected loopless graph with distinct string labels."""

    labels: tuple
    adj: np.ndarray  # n x n bool, symmetric, zero diagonal

    def __post_init__(self):
        n = len(self.labels)
        a = np.asarray(self.adj, dtype=bool)
        if a.shape != (n, n):
            raise GraphError(f"adjacency shape {a.shape} does not match {n} labels")
        if not np.array_equal(a, a.T):
            raise GraphError("adjacency matrix is not symmetric")
        if a.diagonal().any():
            raise GraphError("self-loop on the diagonal")
        if len(set(self.labels)) != n:
            raise GraphError("labels are not pairwise distinct")
        a.setflags(write=False)
        object.__setattr__(self, "adj", a)
        object.__setattr__(self, "labels", tuple(self.labels))

    @property
    def n(self):
        return len(self.labels)

    def num_edges(self):
        return int(np.count_nonzero(self.adj)) // 2

    def neighbors(self, v):
        return np.flatnonzero(self.adj[v])

    def index(self, label):
        try:
            return self.labels.index(label)
        except ValueError:
            raise GraphError(f"unknown vertex label {label!r}") from None

    def bitmasks(self):
        """Adjacency rows as Python int bitmasks, for the search oracles."""
        return [int.from_bytes(row.tobytes(), "little")
                for row in np.packbits(self.adj, axis=1, bitorder="little")]


def _from_pairs(labels, pairs):
    """The Graph on ``labels`` with an edge at each (i, j) vertex pair."""
    adj = np.zeros((len(labels),) * 2, dtype=bool)
    i, j = np.array([*pairs], dtype=np.intp).reshape(-1, 2).T
    adj[i, j] = adj[j, i] = True
    return Graph(tuple(labels), adj)


def from_edges(labels, edges):
    """Build a Graph from a label list and (label, label) edge pairs."""
    idx = {lab: i for i, lab in enumerate(labels)}
    pairs = []
    for a, b in edges:
        if a == b:
            raise GraphError(f"self-loop at {a!r}")
        try:
            pairs.append((idx[a], idx[b]))
        except KeyError as exc:
            raise GraphError(f"edge names unknown vertex {exc.args[0]!r}") from None
    return _from_pairs(labels, pairs)


def parse_graph(text):
    """Parse the line-oriented graph format.

    ``#`` starts a comment, ``v <label>`` declares a vertex, ``e <a> <b>``
    an undirected edge between declared vertices.  Vertex order follows the
    ``v`` lines.  One pass maps labels to vertex indices and keeps each edge
    as its (smaller, larger) index pair.
    """
    index, pairs = {}, set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts or parts[0].startswith("#"):
            continue
        if parts[0] == "v":
            if len(parts) != 2:
                raise ParseError("'v' line needs exactly one label", lineno)
            if parts[1] in index:
                raise ParseError(f"duplicate vertex {parts[1]!r}", lineno)
            index[parts[1]] = len(index)
        elif parts[0] == "e":
            if len(parts) != 3:
                raise ParseError("'e' line needs exactly two labels", lineno)
            a, b = parts[1], parts[2]
            if a == b:
                raise ParseError(f"self-loop at {a!r}", lineno)
            i, j = index.get(a), index.get(b)
            if i is None or j is None:
                raise ParseError("edge references undeclared vertex", lineno)
            pair = (i, j) if i < j else (j, i)
            if pair in pairs:
                raise ParseError(f"duplicate edge {a!r} {b!r}", lineno)
            pairs.add(pair)
        else:
            raise ParseError(f"unknown directive {parts[0]!r}", lineno)
    if not index:
        raise ParseError("empty vertex set")
    return _from_pairs(index, pairs)


def format_graph(g: Graph):
    """Serialize in the same format: sorted 'v' lines, then sorted 'e' lines."""
    lines = [f"v {lab}" for lab in sorted(g.labels)]
    i, j = np.nonzero(np.triu(g.adj))
    edges = sorted(sorted((g.labels[a], g.labels[b])) for a, b in zip(i.tolist(), j.tolist()))
    lines.extend(f"e {a} {b}" for a, b in edges)
    return "\n".join(lines) + "\n"


def complement(g: Graph):
    adj = ~g.adj
    np.fill_diagonal(adj, False)
    return Graph(g.labels, adj)


def disjoint_union(g: Graph, h: Graph):
    """Disjoint union; labels are prefixed with "G:" and "H:" to stay distinct.

    Returns (graph, offset_g, offset_h).
    """
    n = g.n + h.n
    adj = np.zeros((n, n), dtype=bool)
    adj[: g.n, : g.n] = g.adj
    adj[g.n :, g.n :] = h.adj
    labels = tuple("G:" + l for l in g.labels) + tuple("H:" + l for l in h.labels)
    return Graph(labels, adj), 0, g.n


@dataclass(frozen=True)
class CharPoly:
    """Monic integer characteristic polynomial, coeffs[k] multiplies x**k."""

    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(int(c) for c in self.coeffs))
        if self.coeffs[-1] != 1:
            raise GraphError("characteristic polynomial must be monic")

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def __str__(self):
        terms = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            if k == 0:
                terms.append(f"{c:+d}")
            else:
                xs = "x" if k == 1 else f"x^{k}"
                if c == 1:
                    terms.append(f"+{xs}")
                elif c == -1:
                    terms.append(f"-{xs}")
                else:
                    terms.append(f"{c:+d}{xs}")
        s = "".join(terms)
        return s.lstrip("+") or "0"


_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(m):
    """Deterministic Miller-Rabin; these twelve bases decide every m < 2**64."""
    if m < 2:
        return False
    for a in _WITNESSES:
        if m % a == 0:
            return m == a
    d, s = m - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
        x = pow(a, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


@functools.cache
def _prime(bits, i):
    """The (i + 1)-th largest prime below 2**bits, found on first use."""
    p = (1 << bits) - 1 if i == 0 else _prime(bits, i - 1) - 2
    while not _is_prime(p):
        p -= 2
    return p


def _coefficient_bound(g):
    """A proven bound on every |c_k| of det(xI - A), as char_poly states it."""
    n, two_m, delta = g.n, int(g.adj.sum()), int(g.adj.sum(axis=1).max(initial=0))
    u = two_m + math.isqrt((n - 1) * two_m * (n * n - two_m)) + 1  # n E < u when 2m >= n
    return max(math.comb(n, k) * min(math.isqrt(min(delta, k) ** k) + 1,
                                     -(-u ** k // n ** (2 * k)) if two_m >= n else math.inf)
               for k in range(n + 1))


def char_poly(g: Graph):
    """Exact det(xI - A) by Faddeev-LeVerrier modulo word-size primes,
    lifted to the integers by the Chinese remainder theorem.

    Per prime p the recurrence M_k = A M_(k-1) + c_(k-1) I, with
    c_k = -tr(A M_k) / k, takes one float64 matrix product per step, for
    every (graph, prime) pair of a ``_char_polys`` batch at once; dividing
    by k is multiplying by k^-1 mod p, as p > n.  Every value is an exact
    integer below 2**53, as p < 2**(52 - bit_length(n)) makes n p < 2**52.
    The signed step x - rint(x * (1/p)) * p reduces A M_k: its quotient is
    within n 2**-51 of x / p, so residues are within p/2 + 2 of zero.  With
    c_(k-1) in [0, p) added on the diagonal, |M_k| < 3p/2 + 2; A is 0/1, so
    partial sums of A @ M_k stay below n (3p/2 + 2) < 2**53, traces below n p.

    c_k is (-1)^k e_k(eigenvalues), so |c_k| is at most the smaller of
    C(n, k) min(Delta, k)^(k/2), Delta the maximum degree, by Hadamard's
    inequality on the principal k x k minors, and C(n, k) (E/n)^k, by
    Maclaurin's inequality on the |eigenvalues|, whose sum E is the energy;
    when 2m >= n, n E <= 2m + sqrt((n - 1) 2m (n^2 - 2m)) (Koolen and
    Moulton, *Maximal energy graphs*, Adv. Appl. Math. 26, 2001).  Both are
    exact integers.  The primes' product exceeds twice the batch's largest
    bound, so each symmetric lift is exact; one more prime confirms it, and a
    mismatch raises.
    """
    return _char_polys([g])[0]


def _char_polys(graphs):
    """char_poly of each graph: one loop per order, on its (graph, prime) stack."""
    polys = [None] * len(graphs)
    for n in {g.n for g in graphs}:
        batch = [i for i, g in enumerate(graphs) if g.n == n]
        bound = max(_coefficient_bound(graphs[i]) for i in batch)
        primes = []
        while math.prod(primes) <= 2 * bound:
            primes.append(_prime(52 - n.bit_length(), len(primes)))
        primes.append(_prime(52 - n.bit_length(), len(primes)))  # the check prime
        p = np.array(primes, dtype=float)[:, None, None, None]
        A = np.stack([graphs[i].adj for i in batch]).astype(float)
        residues = np.ones((len(batch), len(primes), n + 1))  # [..., n - k]: c_k mod p; c_0 = 1
        buf = np.zeros((2, len(primes), len(batch), n, n))  # M_k and A M_k take turns
        diag = np.einsum("bpgii->bgpi", buf)  # writable views of their diagonals
        for k in range(1, n + 1):
            M, AM = buf[k % 2], buf[1 - k % 2]
            diag[k % 2] += residues[..., n - k + 1, None]  # M_k = A M_(k-1) + c_(k-1) I
            np.matmul(A, M, out=AM)
            AM -= np.multiply(np.rint(np.multiply(AM, 1 / p, out=M), out=M), p, out=M)
            inv = [pow(k, -1, q) for q in primes]
            residues[..., n - k] = [[-int(t) * v % q for t, v, q in zip(row, inv, primes)]
                                    for row in diag[1 - k % 2].sum(axis=2).tolist()]
        for i, res in zip(batch, residues.astype(np.int64).tolist()):
            lifted, modulus = [0] * (n + 1), 1
            for q, r in zip(primes[:-1], res):
                inv = pow(modulus, -1, q)
                lifted = [x + modulus * ((y - x) * inv % q) for x, y in zip(lifted, r)]
                modulus *= q
            coeffs = [x - modulus if 2 * x > modulus else x for x in lifted]
            if any((x - r) % primes[-1] for x, r in zip(coeffs, res[-1])):
                raise AssertionError("characteristic polynomial lift disagrees with the check prime")
            polys[i] = CharPoly(coeffs)
    return polys


def cospectral_mates(g: Graph, h: Graph):
    """Exact cospectrality report for the pair and for their complements."""
    pg, ph, pgc, phc = _char_polys([g, h, complement(g), complement(h)])
    return {
        "cospectral": pg == ph,
        "complements_cospectral": pgc == phc,
        "char_poly_g": pg,
        "char_poly_h": ph,
        "char_poly_g_complement": pgc,
        "char_poly_h_complement": phc,
    }


@dataclass(frozen=True)
class VertexMap:
    """A vertex bijection from one graph to another, stored as an index list."""

    image: tuple

    def __post_init__(self):
        object.__setattr__(self, "image", tuple(int(i) for i in self.image))

    def __call__(self, v):
        return self.image[v]


def is_isomorphism(g: Graph, h: Graph, phi: VertexMap):
    """Check exhaustively that phi preserves the vertex relation (the map validator)."""
    if g.n != h.n or sorted(phi.image) != list(range(g.n)):
        return False
    img = np.array(phi.image)
    return np.array_equal(g.adj, h.adj[np.ix_(img, img)])


def _check_oracle_size(g: Graph):
    if g.n > MAX_ORACLE_VERTICES:
        raise SizeLimitError(
            f"graph has {g.n} vertices; exact oracles are capped at {MAX_ORACLE_VERTICES}"
        )


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _neighbour_lists(g: Graph):
    """Each vertex's neighbours, ascending: one ``np.nonzero`` cut at row bounds."""
    rows, cols = np.nonzero(g.adj)
    bounds, cols = np.cumsum(np.bincount(rows, minlength=g.n)).tolist(), cols.tolist()
    return [cols[a:b] for a, b in zip([0, *bounds], bounds)]


def _refine(nbrs, colors, cells, split=None, touched=None):
    """The colour-refinement kernel: split the cells of an ordered partition
    by (colour, sorted neighbour colours) signatures to a fixed point.

    A colour is the position where its cell starts, as in nauty, and
    ``cells`` maps it to the cell's vertices.  A round reads every signature
    from the colours it starts with.  A cell that splits orders its parts by
    signature; the first keeps the colour and each next one starts where the
    one before ends, so the cells keep the order of their signatures and a
    round recolours only the parts that move.  ``touched`` holds the vertices
    whose signatures may differ from their cellmates' (default: all); later
    rounds touch the neighbours of recoloured vertices, which gives the
    result of recomputing every signature.  Lists in ``cells`` are replaced,
    never changed.  With ``split`` the vertices are a disjoint union cut at
    that index, each cell with equal halves; the kernel returns False at the
    first split that unbalances one, else True.
    """
    touched = range(len(nbrs)) if touched is None else touched
    while True:
        subs = {}  # colour -> {sorted neighbour colours: touched members}
        for v in touched:
            key = tuple(sorted([colors[u] for u in nbrs[v]]))
            subs.setdefault(colors[v], {}).setdefault(key, []).append(v)
        parts = []  # (colour, members) of each part of a cell that splits
        for c, groups in subs.items():
            rest = [v for v in cells[c] if v not in touched]
            if rest:  # untouched cellmates still share one signature
                key = tuple(sorted([colors[u] for u in nbrs[rest[0]]]))
                groups.setdefault(key, []).extend(rest)
            if len(groups) > 1:
                for key in sorted(groups):
                    part = groups[key]
                    if split is not None and 2 * sum(v < split for v in part) != len(part):
                        return False
                    parts.append((c, part))
                    c += len(part)
        if not parts:
            return True
        touched = set()
        for c, part in parts:
            if colors[part[0]] != c:
                for v in part:
                    colors[v] = c
                touched.update(*(nbrs[v] for v in part))
            cells[c] = part


def _root(g, h=None):
    """Neighbour lists of g, or of the disjoint union of g and h, and their
    stable ordered partition from degrees, as (nbrs, colors, cells); for a
    union, None once its halves' colour histograms differ.  A cell starts
    out at the first position of its degree in sorted order."""
    nbrs, split = _neighbour_lists(g), None
    if h is not None:
        nbrs, split = nbrs + [[u + g.n for u in nb] for nb in _neighbour_lists(h)], g.n
    ranked = sorted(len(nb) for nb in nbrs)
    colors = [bisect_left(ranked, len(nb)) for nb in nbrs]
    cells = {}
    for v, c in enumerate(colors):
        cells.setdefault(c, []).append(v)
    balanced = split is None or sorted(colors[:split]) == sorted(colors[split:])
    return (nbrs, colors, cells) if balanced and _refine(nbrs, colors, cells, split) else None


def _component_labels(a, b, n):
    """The connected-components kernel: the smallest node of each node's
    component in the graph on range(n) with edges (a[k], b[k]).  Minima
    spread along the edges both ways, then pointers jump, to a fixed point."""
    label, old = np.arange(n), None
    while not np.array_equal(label, old):
        old, label = label, label.copy()
        np.minimum.at(label, a, old[b])
        np.minimum.at(label, b, old[a])
        label = label[label]
    return label


class _Automorphisms:
    """Automorphisms of h, found on first use by the search on (h, h).

    On the first path the search individualises the same vertex on both
    sides; every other candidate there is searched for one automorphism
    that maps the first-path vertex to it.  The maps found generate the
    pointwise stabilisers along the first path, as in nauty.
    """

    def __init__(self, h: Graph):
        self.h = h
        self.found = None

    def orbits(self, prefix):
        """Orbit label (its smallest vertex) of each vertex of h under the
        automorphisms found so far that fix ``prefix`` pointwise."""
        if self.found is None:
            self.found = []
            _search(self.h, self.h, *_root(self.h, self.h), (), self, first_path=True)
        n, fixed = self.h.n, list(prefix)
        maps = np.array(self.found, dtype=np.intp).reshape(-1, n)
        maps = maps[(maps[:, fixed] == fixed).all(axis=1)]
        k, x = np.nonzero(maps != np.arange(n))  # moved points only
        return _component_labels(x, maps[k, x], n).tolist()


def _search(g, h, nbrs, colors, cells, prefix, autos, first_path=False):
    """Individualisation-refinement below one node of the search tree.

    ``colors`` and ``cells`` are a stable ordered partition of the disjoint
    union of g and h with balanced cells, and ``prefix`` holds the h
    vertices individualised so far.  The g side individualises the lowest
    vertex of the smallest cell of more than two; the h side branches over
    that cell's h vertices, skipping candidates in the orbit of an already
    tried one.  Each pair gets a colour past every cell.  Returns a verified
    VertexMap, or None.  On h's first path of the search on (h, h), the
    automorphisms found are recorded and the search goes on.
    """
    n = g.n
    if len(cells) == n:
        phi = VertexMap(tuple(w - n for v, w in sorted(map(sorted, cells.values()))))
        return phi if not first_path and is_isomorphism(g, h, phi) else None
    target = min((len(cell), c) for c, cell in cells.items() if len(cell) > 2)[1]
    cell, pair = cells[target], 2 * (n + len(prefix))
    v = min(cell)
    tried, orbit = [], None
    for w in sorted(u - n for u in cell if u >= n):
        if tried:
            orbit = orbit or autos.orbits(prefix)
            if any(orbit[t] == orbit[w] for t in tried):
                continue
        colors_w, cells_w = list(colors), dict(cells)  # the node's lists are shared, not changed
        colors_w[v] = colors_w[n + w] = pair
        cells_w[target] = [u for u in cell if u != v and u != n + w]
        cells_w[pair] = [v, n + w]
        if _refine(nbrs, colors_w, cells_w, n, {v, n + w, *nbrs[v], *nbrs[n + w]}):
            phi = _search(g, h, nbrs, colors_w, cells_w, (*prefix, w), autos, first_path and w == v)
            if phi is not None:
                if not first_path:
                    return phi
                autos.found.append(phi.image)
                orbit = None
        tried.append(w)
    return None


def find_isomorphism(g: Graph, h: Graph):
    """Exact isomorphism search: individualisation-refinement on the
    disjoint union, pruned by automorphisms of h.

    One colour-refinement kernel (``_refine``, shared with ``equitable``)
    refines the union's ordered partition from neighbour lists built once,
    and gives up on a branch at the first split that leaves a cell with
    unequal g and h halves.  The g side follows one path; the h side
    branches and skips a candidate in the same orbit as a failed one,
    under the automorphisms of h that fix its individualised vertices.
    Those automorphisms are found lazily, the first time a node reaches a
    second candidate, by the same search run on (h, h) and checked with
    ``is_isomorphism`` like every map returned.  Returns a verified
    VertexMap or None; None means the search was exhausted up to proven
    automorphisms.
    """
    _check_oracle_size(g)
    _check_oracle_size(h)
    if g.n != h.n or g.num_edges() != h.num_edges():
        return None
    root = _root(g, h)
    return None if root is None else _search(g, h, *root, (), _Automorphisms(h))


def independence_number(g: Graph):
    """Exact maximum independent set by branch and bound.

    The bound is a greedy clique cover: an independent set takes at most one
    vertex per clique.  Returns {"alpha": int, "witness": sorted vertex list}
    with the witness re-verified before returning.
    """
    _check_oracle_size(g)
    n = g.n
    masks = g.bitmasks()
    full = (1 << n) - 1

    best = {"size": 0, "set": 0}

    def clique_cover_bound(cand):
        # greedy: repeatedly start a clique at the lowest remaining vertex
        bound = 0
        rest = cand
        while rest:
            v = (rest & -rest).bit_length() - 1
            clique = 1 << v
            common = masks[v] & rest
            rest ^= 1 << v
            while common:
                u = (common & -common).bit_length() - 1
                clique |= 1 << u
                common &= masks[u]
            rest &= ~clique
            bound += 1
        return bound

    def expand(chosen, size, cand):
        if size > best["size"]:
            best["size"], best["set"] = size, chosen
        if not cand:
            return
        if size + clique_cover_bound(cand) <= best["size"]:
            return
        rest = cand
        while rest:
            v = (rest & -rest).bit_length() - 1
            rest ^= 1 << v
            if size + bin(rest).count("1") + 1 <= best["size"]:
                return
            expand(chosen | (1 << v), size + 1, rest & ~masks[v])

    expand(0, 0, full)
    witness = sorted(_bits(best["set"]))
    for i in witness:
        for j in witness:
            if i < j and g.adj[i, j]:
                raise AssertionError("branch and bound returned a non-independent set")
    return {"alpha": best["size"], "witness": witness}
