import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    PENTAGRAM,
    brute_force_alpha,
    brute_force_isomorphic,
    cep_pair,
    complete,
    cycle,
    empty,
    graph_from_bits,
    oracle_bitmasks,
    oracle_format_graph,
    oracle_parse_graph,
    oracle_refine,
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
    GraphError,
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
from qgiso import graphs as gmod
from qgiso.graphs import (
    _Automorphisms,
    _char_polys,
    _coefficient_bound,
    _neighbour_lists,
    _refine,
    _root,
)


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

    def test_from_edges_names_an_unknown_label(self):
        with pytest.raises(GraphError, match="edge names unknown vertex 'b'"):
            from_edges(["a"], [("a", "b")])

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

    def test_duplicate_vertex_on_the_next_line(self):
        with pytest.raises(ParseError, match="line 3: duplicate vertex 'b'"):
            parse_graph("v a\nv b\nv b\n")


# --- the one-pass reader and array-based writer against the line loops -------

_LABELS = ("a", "b", "c", "d", "x1", "x10", "#h", "\u00e9")
_GRAPH_MUTATIONS = {  # one bad line, given a declared label and an edge of the file
    "duplicate vertex": lambda lab, edge: f"v {lab}",
    "self-loop": lambda lab, edge: f"e {lab} {lab}",
    "undeclared vertex": lambda lab, edge: f"e {lab} zz",
    "edge anywhere": lambda lab, edge: f"e {edge[0]} {edge[1]}",
    "reversed edge": lambda lab, edge: f"e {edge[1]} {edge[0]}",
    "bare v": lambda lab, edge: "v",
    "v with two labels": lambda lab, edge: f"v {lab} {lab}2",
    "e with one label": lambda lab, edge: f"e {lab}",
    "e with three labels": lambda lab, edge: f"e {edge[0]} {edge[1]} {lab}",
    "unknown directive": lambda lab, edge: f"V {lab}",
}


def _parsed_graph(parse, text):
    """The labels and adjacency a reader builds, or the error it raises with its line."""
    try:
        g = parse(text)
    except GraphError as e:
        return type(e), str(e), getattr(e, "line", None)
    return g.labels, g.adj.tolist()


@st.composite
def _graph_files(draw):
    labels = draw(st.lists(st.sampled_from(_LABELS), unique=True, max_size=6))
    pairs = list(itertools.combinations(labels, 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=8)) if pairs else []
    body = [f"v {lab}" for lab in labels]
    body += [f"e {a} {b}" if draw(st.booleans()) else f"e {b} {a}" for a, b in edges]
    for name in draw(st.lists(st.sampled_from(sorted(_GRAPH_MUTATIONS) + ["repeated line"]),
                              max_size=1)):
        if name == "repeated line":  # next to itself: a duplicate vertex or edge
            at = draw(st.integers(0, len(body)))
            body.insert(at, body[at - 1] if at else "v a")
        else:
            lab = draw(st.sampled_from(labels)) if labels else "a"
            edge = draw(st.sampled_from(edges)) if edges else ("a", "b")
            body.insert(draw(st.integers(0, len(body))), _GRAPH_MUTATIONS[name](lab, edge))
    for filler in draw(st.lists(st.sampled_from(["", "   ", "# note", "  # indented", "\t#e a b"]),
                                max_size=3)):
        body.insert(draw(st.integers(0, len(body))), filler)
    return "\n".join(body) + "\n"


class TestReaderMatchesLineLoop:
    """Same labels and adjacency, or the same error and line: arity, then
    self-loop, then undeclared vertex, then duplicate edge on one line."""

    @settings(max_examples=600, deadline=None)
    @given(text=_graph_files())
    def test_generated_files(self, text):
        assert _parsed_graph(parse_graph, text) == _parsed_graph(oracle_parse_graph, text)

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(0, 12), bits=st.integers(0, 2 ** 66 - 1), seed=st.integers(0, 2 ** 16))
    def test_writer_and_bitmasks(self, n, bits, seed):
        g = permuted_copy(graph_from_bits(n, bits), random.Random(seed))
        assert g.bitmasks() == oracle_bitmasks(g)
        if n:
            assert format_graph(g) == oracle_format_graph(g)
            assert _parsed_graph(parse_graph, format_graph(g)) == _parsed_graph(
                oracle_parse_graph, format_graph(g))

    def test_writer_and_bitmasks_at_the_oracle_cap(self, rng):
        g = permuted_copy(random_graph(gmod.MAX_ORACLE_VERTICES, 0.3, rng), rng)
        assert g.bitmasks() == oracle_bitmasks(g)
        assert format_graph(g) == oracle_format_graph(g)


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


def _no_vertices():
    return Graph((), np.zeros((0, 0), dtype=bool))


def _complete_char_poly(n):
    """(x - (n - 1)) (x + 1)^(n - 1), expanded by binomials."""
    return tuple((math.comb(n - 1, k - 1) if k else 0) - (n - 1) * math.comb(n - 1, k)
                 for k in range(n + 1))


def _complete_bipartite(a, b):
    left, right = [f"l{i}" for i in range(a)], [f"r{j}" for j in range(b)]
    return from_edges(left + right, list(itertools.product(left, right)))


def _hadamard_bound(g):
    """The coefficient bound char_poly used before the energy bound."""
    n = g.n
    delta = int(g.adj.sum(axis=1).max()) if n else 0
    return max(math.comb(n, k) * (math.isqrt(min(delta, k) ** k) + 1) for k in range(n + 1))


class TestCharPolysBatch:
    """The batched kernel against one call per graph and the reference recurrence."""

    def test_mixed_orders_match_one_call_per_graph(self):
        rng = random.Random(1313)
        corpus = [random_graph(rng.randint(1, 30), rng.random(), rng) for _ in range(12)]
        corpus += [complement(g) for g in corpus[:4]] + [_no_vertices(), empty(7), complete(9)]
        rng.shuffle(corpus)
        batch = _char_polys(corpus)
        assert batch == [char_poly(g) for g in corpus]
        assert [p.coeffs for p in batch] == [_faddeev_leverrier_reference(g) for g in corpus]

    def test_zero_vertex_graph(self):
        polys = _char_polys([_no_vertices(), cycle(4), _no_vertices()])
        assert polys[0].coeffs == polys[2].coeffs == (1,)
        assert polys[1].coeffs == _faddeev_leverrier_reference(cycle(4))

    def test_cospectral_mates_of_different_orders(self):
        r = cospectral_mates(cycle(5), cycle(6))
        assert not r["cospectral"] and not r["complements_cospectral"]
        assert r["char_poly_g"] == char_poly(cycle(5)) and r["char_poly_h"] == char_poly(cycle(6))

    @pytest.mark.parametrize("n", [63, 127])
    def test_complete_graph_closed_form_at_prime_size_boundaries(self, n):
        # 63 and 64, 127 and 128 take primes of different sizes
        assert char_poly(complete(n)).coeffs == _complete_char_poly(n)

    def test_k128_lifts_with_six_primes(self, monkeypatch):
        asked = []
        prime = gmod._prime

        def recording_prime(bits, i):
            asked.append(i)
            return prime(bits, i)
        monkeypatch.setattr(gmod, "_prime", recording_prime)
        assert char_poly(complete(128)).coeffs == _complete_char_poly(128)
        assert max(asked) + 1 == 6  # five lift primes and the check prime


class TestCoefficientBound:
    """The bound covers every coefficient and never exceeds the Hadamard bound."""

    @staticmethod
    def _graphs():
        for n in (1, 2, 63, 64, 127, 128):
            yield complete(n)
        for a, b in ((1, 1), (3, 5), (10, 10), (2, 30)):
            yield _complete_bipartite(a, b)
        for leaves in (1, 5, 30):
            yield star(leaves)
        rng = random.Random(2001)
        for _ in range(8):
            yield random_graph(rng.randint(2, 50), rng.random(), rng)
        yield from _pair(PENTAGRAM)

    def test_between_coefficients_and_hadamard(self):
        for g in self._graphs():
            top = max(abs(c) for c in char_poly(g).coeffs)
            assert top <= _coefficient_bound(g) <= _hadamard_bound(g)

    def test_sparse_graph_keeps_the_hadamard_bound(self):
        # one edge and ten isolated vertices: 2m < n, so the energy bound does not apply
        g = from_edges([f"v{i}" for i in range(12)], [("v0", "v1")])
        assert _coefficient_bound(g) == _hadamard_bound(g)
        assert max(abs(c) for c in char_poly(g).coeffs) <= _coefficient_bound(g)

    def test_bit_lengths(self):
        assert _coefficient_bound(complete(128)).bit_length() <= 200
        assert _hadamard_bound(complete(128)).bit_length() == 456
        g, h = _pair(PENTAGRAM)
        for x in (g, h, complement(g), complement(h)):
            assert _coefficient_bound(x).bit_length() <= 87


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


def _ranks(colors):
    """The colours renumbered 0..k-1 in the same order."""
    order = {c: i for i, c in enumerate(sorted(set(colors)))}
    return [order[c] for c in colors]


def _check_cells(colors, cells, packed=True):
    # each cell holds the vertices of its colour and ends where the next one
    # starts; after individualising, the pair's old cell ends before that
    assert sorted(v for cell in cells.values() for v in cell) == list(range(len(colors)))
    starts = sorted(cells)
    for c, d in zip(starts, starts[1:] + [len(colors) if packed else math.inf]):
        assert all(colors[v] == c for v in cells[c])
        assert c + len(cells[c]) == d if packed else c + len(cells[c]) <= d


class TestRefinementKernel:
    def test_matches_full_recomputation(self, rng):
        outcomes = set()
        for i in range(40):
            # independent random pairs mostly fail at the root; generated
            # fractionally isomorphic pairs reach the individualised child
            if i % 2:
                g, h = cep_pair(rng)[:2]
            else:
                g, h = random_graph(9, rng.random(), rng), random_graph(9, rng.random(), rng)
            n = g.n
            union, _, _ = disjoint_union(g, h)
            _, colors, cells = _root(union)
            _check_cells(colors, cells)
            nbrs = _neighbour_lists(union)
            degrees = [len(nb) for nb in nbrs]
            assert _ranks(colors) == oracle_refine(nbrs, degrees)
            root, want = _root(g, h), oracle_refine(nbrs, degrees, split=n)
            assert (root is None) == (want is None)
            if root is None:
                continue
            _, colors, cells = root
            _check_cells(colors, cells)
            assert _ranks(colors) == want
            # individualise a balanced pair of one cell, as the search does
            big = [c for c, cell in cells.items() if len(cell) > 2]
            if not big:
                continue
            target = rng.choice(big)
            v = rng.choice([u for u in cells[target] if u < n])
            w = rng.choice([u for u in cells[target] if u >= n])
            snapshot = {c: list(cell) for c, cell in cells.items()}
            child_colors, child_cells = list(colors), dict(cells)
            child_colors[v] = child_colors[w] = 2 * n
            child_cells[target] = [u for u in cells[target] if u not in (v, w)]
            child_cells[2 * n] = [v, w]
            want = oracle_refine(nbrs, child_colors, split=n)
            ok = _refine(nbrs, child_colors, child_cells, split=n,
                         touched={v, w, *nbrs[v], *nbrs[w]})
            assert ok == (want is not None)
            if ok:
                _check_cells(child_colors, child_cells, packed=False)
                assert _ranks(child_colors) == want
            assert cells == snapshot  # the parent's lists are left as they were
            outcomes.add(ok)
        assert outcomes == {True, False}


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
