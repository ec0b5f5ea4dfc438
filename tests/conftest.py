import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from qgiso import graphs as gmod
from qgiso.equitable import CommonEquitablePartition, verify_common_equitable
from qgiso.games import iso_game_predicate
from qgiso.graphs import Graph, from_edges


def cycle(n, prefix="v"):
    labels = [f"{prefix}{i}" for i in range(n)]
    return from_edges(labels, [(labels[i], labels[(i + 1) % n]) for i in range(n)])


def path(n, prefix="v"):
    labels = [f"{prefix}{i}" for i in range(n)]
    return from_edges(labels, [(labels[i], labels[i + 1]) for i in range(n - 1)])


def complete(n, prefix="v"):
    labels = [f"{prefix}{i}" for i in range(n)]
    return from_edges(labels, list(itertools.combinations(labels, 2)))


def empty(n, prefix="v"):
    return from_edges([f"{prefix}{i}" for i in range(n)], [])


def star(n_leaves):
    labels = ["c"] + [f"l{i}" for i in range(n_leaves)]
    return from_edges(labels, [("c", l) for l in labels[1:]])


def two_k3():
    labels = [f"a{i}" for i in range(3)] + [f"b{i}" for i in range(3)]
    edges = [(f"a{i}", f"a{j}") for i in range(3) for j in range(i + 1, 3)]
    edges += [(f"b{i}", f"b{j}") for i in range(3) for j in range(i + 1, 3)]
    return from_edges(labels, edges)


def graph_from_bits(n, bits):
    """Graph on n vertices from an edge-set bitmask over pairs (i<j)."""
    adj = np.zeros((n, n), dtype=bool)
    k = 0
    for i in range(n):
        for j in range(i + 1, n):
            if (bits >> k) & 1:
                adj[i, j] = adj[j, i] = True
            k += 1
    return Graph(tuple(f"v{i}" for i in range(n)), adj)


def random_graph(n, p, rng):
    bits = 0
    npairs = n * (n - 1) // 2
    for k in range(npairs):
        if rng.random() < p:
            bits |= 1 << k
    return graph_from_bits(n, bits)


def permuted_copy(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    adj = g.adj[np.ix_(perm, perm)]
    return Graph(tuple(f"w{i}" for i in range(g.n)), adj)


# --- independent brute-force oracles ---------------------------------------

def brute_force_alpha(g):
    masks = g.bitmasks()
    best = 0
    for s in range(1 << g.n):
        ok = True
        t = s
        while t:
            v = (t & -t).bit_length() - 1
            if masks[v] & s:
                ok = False
                break
            t &= t - 1
        if ok:
            best = max(best, bin(s).count("1"))
    return best


def brute_force_isomorphic(g, h):
    if g.n != h.n:
        return False
    for perm in itertools.permutations(range(g.n)):
        if all(
            g.adj[i, j] == h.adj[perm[i], perm[j]]
            for i in range(g.n)
            for j in range(i + 1, g.n)
        ):
            return True
    return False


# --- Fraction-loop oracles for the exact correlation path -----------------
# The verifiers and the six-loop builder that the integer arrays replaced,
# kept as the oracle for their verdicts and tables.  They read and make a
# {key: Fraction} dict.

def oracle_distribution(table, N):
    for key, v in table.items():
        if v < 0:
            return False
    sums = {}
    for (x_a, x_b, _, _), v in table.items():
        sums[(x_a, x_b)] = sums.get((x_a, x_b), Fraction(0)) + v
    return all(sums.get((x_a, x_b), Fraction(0)) == 1 for x_a in range(N) for x_b in range(N))


def oracle_nonsignalling(table, N):
    marg_a, marg_b = {}, {}
    for (x_a, x_b, y_a, y_b), v in table.items():
        marg_a[(x_a, y_a, x_b)] = marg_a.get((x_a, y_a, x_b), Fraction(0)) + v
        marg_b[(x_b, y_b, x_a)] = marg_b.get((x_b, y_b, x_a), Fraction(0)) + v
    for marg in (marg_a, marg_b):
        grouped = {}
        for (x, y, other), v in marg.items():
            grouped.setdefault((x, y), {})[other] = v
        for by_other in grouped.values():
            vals = [by_other.get(o, Fraction(0)) for o in range(N)]
            if any(vals[o] != vals[0] for o in range(1, N)):
                return False
    return True


def oracle_perfect(table, g, h):
    return all(v == 0 or iso_game_predicate(g, h, *key) for key, v in table.items())


def oracle_ns_table(g, h, cep):
    n = g.n
    sizes = cep.sizes()
    cbar = cep.cbar()
    table = {}

    def put(key, value):
        old = table.get(key)
        if old is None:
            table[key] = value
        elif old != value:
            raise AssertionError(f"reflection clauses disagree at {key}")

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
    return table


def oracle_format_exact(inputs, table):
    lines = [f"corr {len(inputs)} exact", " ".join(inputs)]
    for (x_a, x_b, y_a, y_b), v in sorted(table.items()):
        if v != 0:
            lines.append(f"{x_a} {x_b} {y_a} {y_b} {v.numerator}/{v.denominator}")
    return "\n".join(lines) + "\n"


# --- fractionally isomorphic pair generator --------------------------------

def _circulant_offsets(n, degree, rng):
    # symmetric offset set of the given even (or n-even) size
    offs = []
    half = list(range(1, (n + 1) // 2))
    rng.shuffle(half)
    need = degree
    if degree % 2 == 1:
        assert n % 2 == 0
        offs.append(n // 2)
        need -= 1
    offs.extend(half[: need // 2])
    return offs


def cep_pair(rng):
    """A random graph pair realizing the same equitable cell structure.

    Both sides realize identical cell sizes and partition numbers via
    circulant intra-cell graphs and shifted semiregular cross blocks, so
    the pair is fractionally isomorphic by construction.
    """
    k = rng.choice([1, 2, 3])
    sizes = [rng.choice([2, 3, 4, 6]) for _ in range(k)]
    c = [[0] * k for _ in range(k)]
    for i in range(k):
        max_even = sizes[i] - 1
        choices = [d for d in range(0, sizes[i]) if d % 2 == 0 or sizes[i] % 2 == 0]
        c[i][i] = rng.choice(choices)
    for i in range(k):
        for j in range(i + 1, k):
            g = math.gcd(sizes[i], sizes[j])
            step = sizes[j] // g
            tmax = sizes[j] // step
            t = rng.randint(0, tmax)
            c[i][j] = t * step
            c[j][i] = c[i][j] * sizes[i] // sizes[j]

    def build(shifts, prefix):
        total = sum(sizes)
        offsets = []
        acc = 0
        for s in sizes:
            offsets.append(acc)
            acc += s
        adj = np.zeros((total, total), dtype=bool)
        for i in range(k):
            offs = _circulant_offsets(sizes[i], c[i][i], rng)
            for a in range(sizes[i]):
                for o in offs:
                    b = (a + o) % sizes[i]
                    adj[offsets[i] + a, offsets[i] + b] = True
                    adj[offsets[i] + b, offsets[i] + a] = True
        for i in range(k):
            for j in range(i + 1, k):
                for a in range(sizes[i]):
                    for t in range(c[i][j]):
                        b = (a * c[i][j] + t + shifts[(i, j)]) % sizes[j]
                        adj[offsets[i] + a, offsets[j] + b] = True
                        adj[offsets[j] + b, offsets[i] + a] = True
        labels = tuple(f"{prefix}{v}" for v in range(total))
        cells = tuple(
            tuple(range(offsets[i], offsets[i] + sizes[i])) for i in range(k)
        )
        return Graph(labels, adj), cells

    shifts_g = {(i, j): 0 for i in range(k) for j in range(i + 1, k)}
    shifts_h = {
        (i, j): rng.randint(0, sizes[j] - 1) for i in range(k) for j in range(i + 1, k)
    }
    g, cells_g = build(shifts_g, "g")
    h, cells_h = build(shifts_h, "h")
    cep = CommonEquitablePartition(cells_g, cells_h, tuple(tuple(row) for row in c))
    assert verify_common_equitable(g, h, cep)
    return g, h, cep


@pytest.fixture
def rng():
    return random.Random(20240817)
