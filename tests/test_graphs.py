import itertools
import random

import numpy as np
import pytest

from conftest import (
    PENTAGRAM,
    brute_force_alpha,
    brute_force_isomorphic,
    cep_pair,
    complete,
    cycle,
    empty,
    graph_from_bits,
    path,
    permuted_copy,
    random_graph,
    star,
    two_k3,
)
from qgiso.bcs import bcs_graph, homogenize, magic_square
from qgiso.graphs import (
    CharPoly,
    Graph,
    ParseError,
    SizeLimitError,
    VertexMap,
    char_poly,
    complement,
    cospectral_mates,
    disjoint_union,
    find_isomorphism,
    format_graph,
    from_edges,
    independence_number,
    is_isomorphism,
    parse_graph,
)
from qgiso.graphs import _Automorphisms, _neighbour_lists, _refine


class TestParse:
    def test_k2(self):
        g = parse_graph("v a\nv b\ne a b\n")
        assert g.labels == ("a", "b")
        assert g.num_edges() == 1

    def test_triangle(self):
        g = parse_graph("v a\nv b\nv c\ne a b\ne b c\ne a c\n")
        assert g.n == 3 and g.num_edges() == 3

    def test_self_loop_rejected(self):
        with pytest.raises(ParseError, match="self-loop"):
            parse_graph("v a\ne a a\n")

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ParseError, match="duplicate edge"):
            parse_graph("v a\nv b\ne a b\ne b a\n")

    def test_unknown_directive(self):
        with pytest.raises(ParseError, match="unknown directive"):
            parse_graph("v a\nq a\n")

    def test_empty_vertex_set(self):
        with pytest.raises(ParseError, match="empty vertex set"):
            parse_graph("# nothing\n")

    def test_error_carries_line_number(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_graph("v a\nv b\ne a a\n")

    def test_round_trip(self, rng):
        g = random_graph(7, 0.4, rng)
        h = parse_graph(format_graph(g))
        # writer sorts labels, so compare canonically
        assert sorted(h.labels) == sorted(g.labels)
        assert find_isomorphism(g, h) is not None


class TestComplement:
    def test_k3_complement_empty(self):
        c = complement(complete(3))
        assert c.num_edges() == 0

    def test_involution(self):
        c5 = cycle(5)
        assert (complement(complement(c5)).adj == c5.adj).all()

    def test_c5_self_complementary(self):
        c5 = cycle(5)
        assert find_isomorphism(c5, complement(c5)) is not None


class TestDisjointUnion:
    def test_two_singletons(self):
        u, _, off = disjoint_union(empty(1, "a"), empty(1, "b"))
        assert u.n == 2 and u.num_edges() == 0 and off == 1

    def test_two_triangles(self):
        u, _, _ = disjoint_union(complete(3, "a"), complete(3, "b"))
        assert u.n == 6 and u.num_edges() == 6

    def test_c6_and_2k3(self):
        u, _, _ = disjoint_union(cycle(6), two_k3())
        assert u.n == 12 and u.num_edges() == 12


class TestCharPoly:
    def test_k3(self):
        # eigenvalues 2, -1, -1: (x - 2)(x + 1)^2 = x^3 - 3x - 2
        assert char_poly(complete(3)).coeffs == (-2, -3, 0, 1)

    def test_empty(self):
        assert char_poly(empty(5)).coeffs == (0, 0, 0, 0, 0, 1)

    def test_c6_vs_2k3_differ(self):
        # C6: x^6 - 6x^4 + 9x^2 - 4; 2K3: (x^3 - 3x - 2)^2
        p6 = char_poly(cycle(6))
        p33 = char_poly(two_k3())
        assert p6.coeffs == (-4, 0, 9, 0, -6, 0, 1)
        assert p33.coeffs == (4, 12, 9, -4, -6, 0, 1)
        assert p6 != p33

    def test_trace_zero(self, rng):
        for _ in range(10):
            g = random_graph(8, 0.5, rng)
            p = char_poly(g)
            assert p.coeffs[-1] == 1 and p.coeffs[-2] == 0

    def test_matches_numpy_roundtrip(self, rng):
        g = random_graph(9, 0.5, rng)
        exact = char_poly(g).coeffs
        approx = np.poly(g.adj.astype(float))[::-1]
        assert max(abs(a - b) for a, b in zip(exact, approx)) < 1e-6


def _faddeev_leverrier_reference(g):
    """The Python-int Faddeev-LeVerrier recurrence char_poly replaced: object
    arrays, two products per step, every division checked exact."""
    n = g.n
    A = np.array(g.adj, dtype=object) * 1
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    M = np.zeros((n, n), dtype=object)
    c = 1
    for k in range(1, n + 1):
        M = A @ M + c * np.eye(n, dtype=object)
        t = int(np.trace(A @ M))
        if t % k:
            raise AssertionError("inexact division in the reference recurrence")
        c = -t // k
        coeffs[n - k] = c
    return tuple(coeffs)


class TestCharPolyMultiModular:
    """char_poly against the exact integer recurrence it replaced."""

    def test_random_graphs_and_complements(self):
        rng = random.Random(5150)
        for _ in range(10):
            g = random_graph(rng.randint(2, 40), rng.random(), rng)
            for x in (g, complement(g)):
                assert char_poly(x).coeffs == _faddeev_leverrier_reference(x)

    @pytest.mark.parametrize("system", [magic_square(), PENTAGRAM], ids=["magic", "pentagram"])
    def test_separation_pairs_and_complements(self, system):
        for g in _pair(system):
            for x in (g, complement(g)):
                assert char_poly(x).coeffs == _faddeev_leverrier_reference(x)

    def test_single_vertex_and_empty_graphs(self):
        no_vertices = Graph((), np.zeros((0, 0), dtype=bool))
        for g in (empty(1), empty(7), no_vertices):
            assert char_poly(g).coeffs == _faddeev_leverrier_reference(g)
        assert char_poly(no_vertices).coeffs == (1,)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 20, 32, 64, 128])
    def test_complete_graph_closed_form(self, n):
        # eigenvalues n - 1 once and -1 n - 1 times; K_128 has 131-bit coefficients
        expected = [1]
        for root in [n - 1] + [-1] * (n - 1):  # multiply by (x - root)
            expected = [-root * a + b for a, b in zip(expected + [0], [0] + expected)]
        assert char_poly(complete(n)).coeffs == tuple(expected)


class TestCospectral:
    def test_self(self):
        g = cycle(6)
        r = cospectral_mates(g, g)
        assert r["cospectral"] and r["complements_cospectral"]

    def test_c6_vs_2k3(self):
        r = cospectral_mates(cycle(6), two_k3())
        assert not r["cospectral"]


class TestFindIsomorphism:
    def test_permuted_c4(self, rng):
        c4 = cycle(4)
        phi = find_isomorphism(c4, permuted_copy(c4, rng))
        assert phi is not None

    def test_star_vs_path(self):
        assert find_isomorphism(star(3), path(4)) is None
        assert not brute_force_isomorphic(star(3), path(4))

    def test_returned_map_is_verified(self, rng):
        g = random_graph(8, 0.5, rng)
        h = permuted_copy(g, rng)
        phi = find_isomorphism(g, h)
        assert phi is not None and is_isomorphism(g, h, phi)

    def test_symmetry(self, rng):
        for _ in range(15):
            g = random_graph(6, 0.5, rng)
            h = random_graph(6, 0.5, rng)
            assert (find_isomorphism(g, h) is None) == (find_isomorphism(h, g) is None)

    def test_agrees_with_brute_force(self, rng):
        for _ in range(25):
            n = rng.randint(2, 6)
            g = random_graph(n, 0.5, rng)
            h = permuted_copy(g, rng) if rng.random() < 0.5 else random_graph(n, 0.5, rng)
            assert (find_isomorphism(g, h) is not None) == brute_force_isomorphic(g, h)

    def test_size_cap(self):
        big = empty(129)
        with pytest.raises(SizeLimitError):
            find_isomorphism(big, big)


def _full_refinement(nbrs, colors, split=None):
    """Reference for the kernel: recompute every signature each round."""
    colors = list(colors)
    while True:
        sigs = [(colors[v], tuple(sorted(colors[u] for u in nb))) for v, nb in enumerate(nbrs)]
        order = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [order[s] for s in sigs]
        if split is not None and sorted(new[:split]) != sorted(new[split:]):
            return None
        if new == colors:
            return colors
        colors = new


class TestRefinementKernel:
    def test_matches_full_recomputation(self, rng):
        for _ in range(40):
            g, h = random_graph(9, rng.random(), rng), random_graph(9, rng.random(), rng)
            union, _, _ = disjoint_union(g, h)
            nbrs = _neighbour_lists(union)
            degrees = [len(nb) for nb in nbrs]
            assert _refine(nbrs, degrees) == _full_refinement(nbrs, degrees)
            assert _refine(nbrs, degrees, split=9) == _full_refinement(nbrs, degrees, split=9)
            # a stable colouring with a few vertices recoloured
            stable = _full_refinement(nbrs, degrees)
            changed = rng.sample(range(18), 2)
            colors = list(stable)
            for v in changed:
                colors[v] = 18 + rng.randrange(2)
            assert (_refine(nbrs, colors, split=9, changed=changed)
                    == _full_refinement(nbrs, colors, split=9))


def _pair(system):
    return bcs_graph(system).graph, bcs_graph(homogenize(system)).graph


def _two_cycles(k):
    return disjoint_union(cycle(k, "a"), cycle(k, "b"))[0]


def _petersen():
    outer = [(f"o{i}", f"o{(i + 1) % 5}") for i in range(5)]
    inner = [(f"i{i}", f"i{(i + 2) % 5}") for i in range(5)]
    spokes = [(f"o{i}", f"i{i}") for i in range(5)]
    return from_edges([f"o{i}" for i in range(5)] + [f"i{i}" for i in range(5)],
                      outer + inner + spokes)


class TestPrunedSearch:
    """Symmetric inputs, where candidates are pruned by automorphisms."""

    def test_magic_square_pair(self):
        assert find_isomorphism(*_pair(magic_square())) is None

    def test_magic_square_relabelled(self, rng):
        g = _pair(magic_square())[0]
        h = permuted_copy(g, rng)
        phi = find_isomorphism(g, h)
        assert phi is not None and is_isomorphism(g, h, phi)

    def test_pentagram_pair(self):
        g, h = _pair(PENTAGRAM)
        assert g.n == 40
        assert find_isomorphism(g, h) is None

    def test_long_cycle_vs_two_cycles(self):
        assert find_isomorphism(cycle(64), _two_cycles(32)) is None
        assert find_isomorphism(_two_cycles(32), cycle(64)) is None

    def test_petersen_permuted(self, rng):
        g = _petersen()
        h = permuted_copy(g, rng)
        phi = find_isomorphism(g, h)
        assert phi is not None and is_isomorphism(g, h, phi)

    def test_orbits_match_brute_force(self, rng):
        graphs = [cycle(6), path(6), two_k3()] + [random_graph(6, rng.random(), rng) for _ in range(12)]
        for g in graphs:
            group = [p for p in itertools.permutations(range(6)) if is_isomorphism(g, g, VertexMap(p))]
            autos = _Automorphisms(g)
            for prefix in [(), (0,), (2,), (0, 1), (1, 4)]:
                fixing = [p for p in group if all(p[x] == x for x in prefix)]
                label = autos.orbits(prefix)
                for x, y in itertools.combinations(range(6), 2):
                    in_orbit = any(p[x] == y for p in fixing)
                    # merged only if truly in one orbit; the whole group is found
                    assert in_orbit or label[x] != label[y]
                    assert prefix or in_orbit == (label[x] == label[y])

    def test_agrees_with_networkx(self):
        nx = pytest.importorskip("networkx")

        def from_nx(x):
            adj = nx.to_numpy_array(x, nodelist=range(x.number_of_nodes())).astype(bool)
            return Graph(tuple(f"v{i}" for i in range(len(adj))), adj)

        rng = random.Random(7)
        for _ in range(30):
            d = rng.choice([3, 4])
            n = rng.choice([10, 12, 14])
            g = from_nx(nx.random_regular_graph(d, n, seed=rng.randrange(10**6)))
            if rng.random() < 0.3:
                h = permuted_copy(g, rng)
            else:
                h = from_nx(nx.random_regular_graph(d, n, seed=rng.randrange(10**6)))
            pairs = [(g, h), cep_pair(rng)[:2]]
            for a, b in pairs:
                expected = nx.is_isomorphic(nx.from_numpy_array(a.adj), nx.from_numpy_array(b.adj))
                phi = find_isomorphism(a, b)
                assert (phi is not None) == expected
                assert phi is None or is_isomorphism(a, b, phi)


class TestIndependenceNumber:
    def test_complete(self):
        assert independence_number(complete(6))["alpha"] == 1

    def test_c5(self):
        r = independence_number(cycle(5))
        assert r["alpha"] == 2 == brute_force_alpha(cycle(5))

    def test_witness_is_independent(self, rng):
        g = random_graph(10, 0.4, rng)
        r = independence_number(g)
        w = r["witness"]
        assert len(w) == r["alpha"]
        assert all(not g.adj[i, j] for i in w for j in w if i < j)

    def test_agrees_with_brute_force(self, rng):
        for _ in range(25):
            g = random_graph(rng.randint(1, 7), rng.random(), rng)
            assert independence_number(g)["alpha"] == brute_force_alpha(g)


def test_charpoly_str():
    assert str(char_poly(complete(3))) == "x^3-3x-2"


def test_vertex_map_validator_rejects_non_bijection():
    g = complete(3)
    assert not is_isomorphism(g, g, VertexMap((0, 0, 1)))
