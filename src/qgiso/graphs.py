"""Graph values, exact combinatorial oracles, and integer characteristic polynomials.

Everything in this module is exact: adjacency is boolean, characteristic
polynomials are integer polynomials computed modulo primes and lifted
with a proven coefficient bound, and the isomorphism /
independence oracles are complete searches (with pruning), not heuristics.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
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

    def degree(self, v):
        return int(np.count_nonzero(self.adj[v]))

    def neighbors(self, v):
        return np.flatnonzero(self.adj[v])

    def index(self, label):
        try:
            return self.labels.index(label)
        except ValueError:
            raise GraphError(f"unknown vertex label {label!r}") from None

    def bitmasks(self):
        """Adjacency rows as Python int bitmasks, for the search oracles."""
        masks = []
        for i in range(self.n):
            m = 0
            for j in np.flatnonzero(self.adj[i]):
                m |= 1 << int(j)
            masks.append(m)
        return masks


def from_edges(labels, edges):
    """Build a Graph from a label list and (label, label) edge pairs."""
    idx = {lab: i for i, lab in enumerate(labels)}
    n = len(labels)
    adj = np.zeros((n, n), dtype=bool)
    for a, b in edges:
        i, j = idx[a], idx[b]
        if i == j:
            raise GraphError(f"self-loop at {a!r}")
        adj[i, j] = adj[j, i] = True
    return Graph(tuple(labels), adj)


def parse_graph(text):
    """Parse the line-oriented graph format.

    ``#`` starts a comment, ``v <label>`` declares a vertex, ``e <a> <b>``
    an undirected edge between declared vertices.  Vertex order follows the
    ``v`` lines.
    """
    labels = []
    seen = set()
    edges = []
    edge_set = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "v":
            if len(parts) != 2:
                raise ParseError("'v' line needs exactly one label", lineno)
            if parts[1] in seen:
                raise ParseError(f"duplicate vertex {parts[1]!r}", lineno)
            seen.add(parts[1])
            labels.append(parts[1])
        elif parts[0] == "e":
            if len(parts) != 3:
                raise ParseError("'e' line needs exactly two labels", lineno)
            a, b = parts[1], parts[2]
            if a == b:
                raise ParseError(f"self-loop at {a!r}", lineno)
            if a not in seen or b not in seen:
                raise ParseError("edge references undeclared vertex", lineno)
            key = (min(a, b), max(a, b))
            if key in edge_set:
                raise ParseError(f"duplicate edge {a!r} {b!r}", lineno)
            edge_set.add(key)
            edges.append((a, b))
        else:
            raise ParseError(f"unknown directive {parts[0]!r}", lineno)
    if not labels:
        raise ParseError("empty vertex set")
    return from_edges(labels, edges)


def format_graph(g: Graph):
    """Serialize in the same format: sorted 'v' lines, then sorted 'e' lines."""
    lines = [f"v {lab}" for lab in sorted(g.labels)]
    edges = []
    for i in range(g.n):
        for j in range(i + 1, g.n):
            if g.adj[i, j]:
                a, b = g.labels[i], g.labels[j]
                edges.append((min(a, b), max(a, b)))
    lines.extend(f"e {a} {b}" for a, b in sorted(edges))
    return "\n".join(lines) + "\n"


def complement(g: Graph):
    adj = ~g.adj
    np.fill_diagonal(adj, False)
    return Graph(g.labels, adj)


def disjoint_union(g: Graph, h: Graph, tags=("G:", "H:")):
    """Disjoint union; labels are prefixed with the part tags to stay distinct.

    Returns (graph, offset_g, offset_h).
    """
    n = g.n + h.n
    adj = np.zeros((n, n), dtype=bool)
    adj[: g.n, : g.n] = g.adj
    adj[g.n :, g.n :] = h.adj
    labels = tuple(tags[0] + l for l in g.labels) + tuple(tags[1] + l for l in h.labels)
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


def _mod(x, p):
    """x mod p for float arrays of non-negative integers, exact while
    x + p < 2**53: the rounded quotient is at most one too large, never too
    small, so floor(x / p) * p <= x + p and one correction suffices."""
    r = x - np.floor(x / p) * p
    return np.where(r < 0, r + p, r)


def char_poly(g: Graph):
    """Exact det(xI - A) by Faddeev-LeVerrier modulo word-size primes,
    lifted to the integers by the Chinese remainder theorem.

    Per prime p the recurrence M_k = A M_(k-1) + c_(k-1) I, with
    c_k = -tr(A M_k) / k, runs on float64 arrays with one matrix product
    per step, all primes at once; the division by k is a multiplication
    by k^-1 mod p, which exists because p > n.  The arithmetic is exact
    because every value is an integer below 2**53: A M_(k-1) is reduced
    into [0, p), so M_k is below 2p, A is 0/1, and every partial sum of
    A @ M_k, in any summation order, plus p for its reduction, is below
    2 n p.  Primes below 2**(52 - bit_length(n)) keep 2 n p below 2**53.

    Each coefficient is (-1)^k times the sum of the C(n, k) principal
    k x k minors.  By Hadamard's inequality a minor is at most
    min(Delta, k)^(k/2), Delta the maximum degree, since each of its rows
    holds at most min(Delta, k) ones.  Enough primes are taken that their
    product exceeds twice that bound, so the symmetric lift is the exact
    coefficient; one more prime confirms the lift, and a mismatch raises.
    """
    n = g.n
    delta = int(g.adj.sum(axis=1).max()) if n else 0
    bound = max(math.comb(n, k) * (math.isqrt(min(delta, k) ** k) + 1) for k in range(n + 1))
    bits = 52 - n.bit_length()
    primes, modulus = [], 1
    while modulus <= 2 * bound:
        primes.append(_prime(bits, len(primes)))
        modulus *= primes[-1]
    primes.append(_prime(bits, len(primes)))  # the check prime

    p = np.array(primes, dtype=float)[:, None, None]
    A = g.adj.astype(float)
    diag = np.arange(n)
    residues = np.zeros((len(primes), n + 1))  # residues[:, n - k] holds c_k mod p
    residues[:, n] = 1
    M = np.zeros((len(primes), n, n))
    for k in range(1, n + 1):
        M[:, diag, diag] += residues[:, n - k + 1, None]  # M_k = A M_(k-1) + c_(k-1) I
        M = _mod(A @ M, p)  # A M_k
        residues[:, n - k] = [-int(t) * pow(k, -1, q) % q
                              for t, q in zip(M.trace(axis1=1, axis2=2), primes)]
    residues = residues.astype(np.int64).tolist()

    lifted, modulus = [0] * (n + 1), 1
    for q, res in zip(primes[:-1], residues):
        inv = pow(modulus, -1, q)
        lifted = [x + modulus * ((r - x) * inv % q) for x, r in zip(lifted, res)]
        modulus *= q
    coeffs = [x - modulus if 2 * x > modulus else x for x in lifted]
    q = primes[-1]
    if any((x - r) % q for x, r in zip(coeffs, residues[-1])):
        raise AssertionError("characteristic polynomial lift disagrees with the check prime")
    return CharPoly(coeffs)


def cospectral_mates(g: Graph, h: Graph):
    """Exact cospectrality report for the pair and for their complements."""
    pg, ph = char_poly(g), char_poly(h)
    pgc, phc = char_poly(complement(g)), char_poly(complement(h))
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
    """Check rel-preservation of phi exhaustively (the map validator)."""
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
    return [np.flatnonzero(row).tolist() for row in g.adj]


def _refine(nbrs, colors, split=None, changed=None):
    """The colour-refinement kernel: iterate (colour, sorted neighbour
    colours) signatures to a fixed point.

    New colours number the signatures in sorted order, so the result is
    deterministic.  ``changed`` names the vertices recoloured since the
    colouring was last stable (default: all); each round recomputes only
    the signatures that can differ from their cellmates', those of
    neighbours of a vertex whose cell split, and the result is the same
    as recomputing every signature.  With ``split`` the vertices are a
    disjoint union cut at that index; the kernel returns None at the first
    round where the two halves have different colour histograms.
    Refinement only ever splits cells, so a histogram that differs once
    differs at the fixed point too.
    """
    if split is not None and sorted(colors[:split]) != sorted(colors[split:]):
        return None
    colors = list(colors)
    cells = {}
    for v, c in enumerate(colors):
        cells.setdefault(c, []).append(v)
    if changed is None:
        touched = set(range(len(nbrs)))
    else:
        touched = set(changed).union(*(nbrs[v] for v in changed))
    while True:
        subs = {}  # colour -> {sorted neighbour colours: touched members}
        for v in touched:
            key = tuple(sorted([colors[u] for u in nbrs[v]]))
            subs.setdefault(colors[v], {}).setdefault(key, []).append(v)
        new_cells, moved = [], []
        for c in sorted(cells):
            members, groups = cells[c], subs.get(c)
            if groups is None:
                new_cells.append(members)
                continue
            rest = [v for v in members if v not in touched]
            if rest:  # untouched cellmates still share one signature
                key = tuple(sorted([colors[u] for u in nbrs[rest[0]]]))
                groups.setdefault(key, []).extend(rest)
            if len(groups) > 1:
                if split is not None and any(
                        2 * sum(v < split for v in sub) != len(sub) for sub in groups.values()):
                    return None
                moved.extend(members)
            new_cells.extend(groups[key] for key in sorted(groups))
        cells = dict(enumerate(new_cells))
        for c, members in cells.items():
            for v in members:
                colors[v] = c
        if not moved:
            return colors
        touched = {u for v in moved for u in nbrs[v]}


def _root(g, h):
    """Neighbour lists of the disjoint union and its stable colouring from
    degrees, or None for the colouring if the halves' histograms differ."""
    nbrs = _neighbour_lists(disjoint_union(g, h)[0])
    return nbrs, _refine(nbrs, [len(nb) for nb in nbrs], split=g.n)


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
        """Orbit label of each vertex of h under the automorphisms found so
        far that fix ``prefix`` pointwise."""
        if self.found is None:
            self.found = []
            nbrs, colors = _root(self.h, self.h)
            _search(self.h, self.h, nbrs, colors, (), self, first_path=True)
        label = list(range(self.h.n))

        def find(x):
            while label[x] != x:
                label[x] = x = label[label[x]]
            return x

        for s in self.found:
            if all(s[x] == x for x in prefix):
                for x, y in enumerate(s):
                    if x != y:
                        a, b = find(x), find(y)
                        label[max(a, b)] = min(a, b)
        return [find(x) for x in range(self.h.n)]


def _search(g, h, nbrs, colors, prefix, autos, first_path=False):
    """Individualisation-refinement below one node of the search tree.

    ``colors`` is a stable colouring of the disjoint union of g and h whose
    halves have equal histograms, and ``prefix`` holds the h vertices
    individualised so far.  The g side individualises the first vertex of
    the smallest non-singleton cell; the h side branches over that cell,
    skipping candidates in the orbit of an already tried one.  Returns a
    verified VertexMap, or None.  On h's first path of the search on
    (h, h), the automorphisms found are recorded and the search goes on.
    """
    n = g.n
    counts = Counter(colors[n:])
    if len(counts) == n:
        pos = {c: w for w, c in enumerate(colors[n:])}
        phi = VertexMap(tuple(pos[c] for c in colors[:n]))
        return phi if not first_path and is_isomorphism(g, h, phi) else None
    target = min((k, c) for c, k in counts.items() if k > 1)[1]
    v = colors.index(target)
    tried, orbit = [], None
    for w in range(n):
        if colors[n + w] != target:
            continue
        if tried:
            orbit = orbit or autos.orbits(prefix)
            if any(orbit[t] == orbit[w] for t in tried):
                continue
        child = list(colors)
        child[v] = child[n + w] = len(colors)  # a colour no vertex has
        child = _refine(nbrs, child, split=n, changed=(v, n + w))
        if child is not None:
            phi = _search(g, h, nbrs, child, prefix + (w,), autos, first_path and w == v)
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

    One colour-refinement kernel (``_refine``, shared with
    ``equitable``) refines the union from neighbour lists built once, and
    gives up on a branch at the first round where the g and h halves have
    different colour histograms.  The g side follows one path; the h side
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
    nbrs, colors = _root(g, h)
    if colors is None:
        return None
    return _search(g, h, nbrs, colors, (), _Automorphisms(h))


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
