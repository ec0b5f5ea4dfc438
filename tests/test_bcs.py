import random

import numpy as np
import pytest

from conftest import PENTAGRAM, oracle_bcs_graph
from qgiso.bcs import (
    MAX_VARIABLES,
    BCSError,
    BCSGraph,
    LinBCS,
    bcs_graph,
    classical_reduction_report,
    format_bcs,
    homogenize,
    magic_square,
    parse_bcs,
    satisfying_assignments,
    solve_or_refute,
    verify_refutation,
)
from qgiso.graphs import Graph, find_isomorphism, independence_number, is_isomorphism


class TestParse:
    def test_single_constraint(self):
        bcs = parse_bcs("x1 + x2 = 1\n")
        assert bcs.n == 2 and bcs.constraints == (((0, 1), 1),)

    def test_magic_square_text(self):
        text = format_bcs(magic_square())
        assert parse_bcs(text) == magic_square()

    def test_malformed_term(self):
        # every split of the left side yields a term, so an empty one is named
        for text in (" = 1\n", "+ = 1\n", "x1 + = 0\n"):
            with pytest.raises(BCSError, match="line 1: malformed variable ''"):
                parse_bcs(text)

    def test_bad_rhs(self):
        with pytest.raises(BCSError):
            parse_bcs("x1 = 2\n")

    def test_repeated_variable(self):
        with pytest.raises(BCSError):
            parse_bcs("x1 + x1 = 0\n")

    def test_repeated_variable_through_the_api(self):
        # x1 + x1 + x2 = 1 would reduce to x2 = 1, which the support's
        # satisfying assignments, read with x1 once, do not respect
        with pytest.raises(BCSError, match="repeated variable in a support"):
            LinBCS(2, (((0, 0, 1), 1), ((1,), 1)))

    @pytest.mark.parametrize("n, constraints, message", [
        (2, (), "a BCS needs at least one constraint"),
        (2, (((), 1),), "empty constraint support"),
        (2, (((0, 1), 2),), "right-hand side 2 not a bit"),
        (2, (((0, 2), 1),), "variable index out of range"),
    ], ids=["no-constraint", "empty-support", "rhs-not-a-bit", "index-out-of-range"])
    def test_linbcs_refusals(self, n, constraints, message):
        with pytest.raises(BCSError, match=message):
            LinBCS(n, constraints)

    def test_comments_ignored(self):
        bcs = parse_bcs("# header\nx1 + x3 = 0  # trailing\n")
        assert bcs.n == 3 and bcs.constraints == (((0, 2), 0),)

    def test_variable_cap(self):
        # elimination loops over every variable index in Python
        assert parse_bcs(f"x1 + x{MAX_VARIABLES} = 1\n").n == MAX_VARIABLES
        with pytest.raises(BCSError, match=f"line 2: variable x{MAX_VARIABLES + 1} exceeds cap"):
            parse_bcs(f"x1 = 1\nx1 + x{MAX_VARIABLES + 1} = 0\n")

    def test_suffix_past_the_int_digit_limit(self):
        # int() refuses more than 4,300 digits; leading zeros count there but not here
        with pytest.raises(BCSError, match="line 2: variable x1+ exceeds cap"):
            parse_bcs("x1 = 0\nx" + "1" * 5000 + " = 1\n")
        assert parse_bcs("x" + "0" * 5000 + "2 = 1\n").constraints == (((1,), 1),)


class TestMagicSquare:
    def test_first_constraint(self):
        assert magic_square().constraints[0] == ((0, 1, 2), 0)

    def test_last_constraint_inhomogeneous(self):
        assert magic_square().constraints[5] == ((2, 5, 8), 1)

    def test_every_variable_in_exactly_two_constraints(self):
        counts = [0] * 9
        for s, _ in magic_square().constraints:
            for i in s:
                counts[i] += 1
        assert counts == [2] * 9


class TestSolveGf2:
    def test_magic_square_unsatisfiable(self):
        assert solve_or_refute(magic_square())[0] is None

    def test_homogenized_magic_square(self):
        assignment = solve_or_refute(homogenize(magic_square()))[0]
        assert assignment == (0,) * 9

    def test_single_variable(self):
        assert solve_or_refute(parse_bcs("x1 = 1\n"))[0] == (1,)

    def test_random_consistency(self, rng):
        # brute force over all assignments must agree with elimination
        for _ in range(30):
            n = rng.randint(2, 6)
            m = rng.randint(1, 5)
            cons = []
            for _ in range(m):
                size = rng.randint(1, min(3, n))
                support = tuple(sorted(rng.sample(range(n), size)))
                cons.append((support, rng.randint(0, 1)))
            bcs = LinBCS(n, tuple(cons))
            brute = any(
                bcs.satisfies(tuple((a >> i) & 1 for i in range(n)))
                for a in range(1 << n)
            )
            assert (solve_or_refute(bcs)[0] is not None) == brute
            assignment, y = solve_or_refute(bcs)
            assert assignment == solve_or_refute(bcs)[0] and (y is None) == brute


class TestHomogenize:
    def test_only_rhs_changes(self):
        bcs = magic_square()
        h = homogenize(bcs)
        assert [s for s, _ in h.constraints] == [s for s, _ in bcs.constraints]
        assert all(b == 0 for _, b in h.constraints)

    def test_idempotent(self):
        assert homogenize(homogenize(magic_square())) == homogenize(magic_square())

    def test_same_vertex_count(self):
        assert bcs_graph(magic_square()).graph.n == bcs_graph(homogenize(magic_square())).graph.n


class TestBcsGraph:
    def test_magic_square_24_vertices(self):
        assert bcs_graph(magic_square()).graph.n == 24

    def test_magic_square_edge_count(self):
        # independent oracle: exhaustive pair enumeration over vertex metadata
        bg = bcs_graph(magic_square())
        count = 0
        for a in range(24):
            la, fa = bg.vertex_meta[a]
            for b in range(a + 1, 24):
                lb, fb = bg.vertex_meta[b]
                if any(fa[i] != fb[i] for i in fa.keys() & fb.keys()):
                    count += 1
        assert bg.graph.num_edges() == count == 108

    def test_single_constraint_k2(self):
        bg = bcs_graph(parse_bcs("x1 + x2 = 0\n"))
        assert bg.graph.n == 2 and bg.graph.num_edges() == 1
        assert set(bg.graph.labels) == {"c0:00", "c0:11"}

    def test_constraint_blocks_are_cliques(self):
        bg = bcs_graph(magic_square())
        for a in range(24):
            la, _ = bg.vertex_meta[a]
            for b in range(a + 1, 24):
                lb, _ = bg.vertex_meta[b]
                if la == lb:
                    assert bg.graph.adj[a, b]

    def test_alpha_at_most_m(self, rng):
        for _ in range(5):
            bcs = _random_bcs(rng)
            alpha = independence_number(bcs_graph(bcs).graph)["alpha"]
            assert alpha <= bcs.m

    def test_matches_pairwise_loop(self):
        rng = random.Random(203)
        systems = [magic_square(), homogenize(magic_square()), PENTAGRAM, homogenize(PENTAGRAM)]
        for _ in range(200):
            n = rng.randint(1, 8)
            systems.append(LinBCS(n, tuple((rng.sample(range(n), rng.randint(1, min(4, n))),
                                            rng.randint(0, 1)) for _ in range(rng.randint(1, 6)))))
        for system in systems:
            bg, oracle = bcs_graph(system), oracle_bcs_graph(system)
            assert bg.graph.labels == oracle.graph.labels
            assert np.array_equal(bg.graph.adj, oracle.graph.adj)
            assert bg.vertex_meta == oracle.vertex_meta

    def test_zero_assignment_vertices_independent(self):
        bg0 = bcs_graph(homogenize(magic_square()))
        zeros = [
            i for i, (l, f) in enumerate(bg0.vertex_meta) if all(v == 0 for v in f.values())
        ]
        assert len(zeros) == 6
        for a in zeros:
            for b in zeros:
                assert not bg0.graph.adj[a, b]

    def test_satisfying_assignment_order_is_lexicographic(self):
        fams = satisfying_assignments((0, 1, 2), 0)
        bit_rows = [tuple(f[i] for i in (0, 1, 2)) for f in fams]
        assert bit_rows == sorted(bit_rows)

    def test_support_cap(self):
        with pytest.raises(BCSError):
            satisfying_assignments(tuple(range(21)), 0)


def _random_bcs(rng, n_max=10, m_max=8):
    n = rng.randint(3, n_max)
    m = rng.randint(1, m_max)
    cons = []
    for _ in range(m):
        support = tuple(sorted(rng.sample(range(n), 3)))
        cons.append((support, rng.randint(0, 1)))
    return LinBCS(n, tuple(cons))


class TestClassicalReductionReport:
    def test_magic_square(self):
        report = classical_reduction_report(magic_square())
        assert report["satisfiable"] is False
        assert report["graphs_isomorphic"] is False
        assert report["alpha_equals_m"] is False
        assert report["alpha"] == 5

    def test_homogenized_magic_square(self):
        report = classical_reduction_report(homogenize(magic_square()))
        assert report["satisfiable"] and report["graphs_isomorphic"] and report["alpha_equals_m"]
        bg, bg0 = report["bcs_graphs"]
        assert is_isomorphism(bg.graph, bg0.graph, report["isomorphism"])
        assert report["refutation"] is None

    @pytest.mark.parametrize("system", [magic_square(), PENTAGRAM, homogenize(PENTAGRAM)],
                             ids=["magic square", "pentagram", "homogenized pentagram"])
    def test_verdict_matches_search(self, system):
        report = classical_reduction_report(system)
        bg, bg0 = report["bcs_graphs"]
        assert report["graphs_isomorphic"] == (find_isomorphism(bg.graph, bg0.graph) is not None)

    def test_trivial_system(self):
        report = classical_reduction_report(parse_bcs("x1 = 1\n"))
        assert report["satisfiable"] and report["num_vertices"] == 1

    def test_three_way_agreement_on_random_corpus(self, rng):
        for _ in range(10):
            report = classical_reduction_report(_random_bcs(rng))
            assert (
                report["satisfiable"]
                == report["graphs_isomorphic"]
                == report["alpha_equals_m"]
            )
            bg, bg0 = report["bcs_graphs"]
            assert report["graphs_isomorphic"] == (find_isomorphism(bg.graph, bg0.graph) is not None)


def _with_edge_flipped(bg, a, b):
    adj = bg.graph.adj.copy()
    adj[a, b] = adj[b, a] = not adj[a, b]
    return BCSGraph(Graph(bg.graph.labels, adj), bg.vertex_meta)


class TestVerifyRefutation:
    @pytest.fixture(params=["magic square", "pentagram"])
    def refuted(self, request):
        system = magic_square() if request.param == "magic square" else PENTAGRAM
        return system, bcs_graph(system), bcs_graph(homogenize(system))

    def test_all_ones_is_the_refutation(self, refuted):
        # every variable lies in exactly two constraints: the left kernel is
        # spanned by the all-ones vector
        system, bg, bg0 = refuted
        assert solve_or_refute(system) == (None, (1,) * system.m)
        assert verify_refutation(system, (1,) * system.m, bg, bg0) == (True, None)

    def test_single_bit_flips_rejected(self, refuted):
        system, bg, bg0 = refuted
        for i in range(system.m):
            y = [1] * system.m
            y[i] = 0
            ok, why = verify_refutation(system, y, bg, bg0)
            assert not ok and why

    @pytest.mark.parametrize("y", [(1,) * 5, (1,) * 7, (), (1, 1, 1, 1, 1, 2), (1, 1, 1, 1, 1, -1),
                                   (1, 1, 1, 1, 1, 0.5), (1, 1, 1, 1, 1, "1"), (1, 1, 1, 1, 1, None),
                                   None, 1, "111111", np.ones((6, 1), dtype=int)],
                             ids=repr)
    def test_malformed_y_rejected_without_raising(self, y):
        bcs = magic_square()
        ok, why = verify_refutation(bcs, y, bcs_graph(bcs), bcs_graph(homogenize(bcs)))
        assert not ok and why

    def test_zero_y_has_even_parity(self):
        bcs = magic_square()
        ok, why = verify_refutation(bcs, (0,) * 6, bcs_graph(bcs), bcs_graph(homogenize(bcs)))
        assert (ok, why) == (False, "y^T b is not 1 mod 2")

    def test_metadata_one_entry_short_rejected(self):
        system = magic_square()
        bg, bg0 = bcs_graph(system), bcs_graph(homogenize(system))
        short = BCSGraph(bg.graph, bg.vertex_meta[:-1])
        assert verify_refutation(system, (1,) * 6, short, bg0) == (
            False, "G_F has 24 vertices but 23 metadata entries")

    def test_edge_removed_or_added_rejected(self, refuted):
        system, bg, bg0 = refuted
        y = (1,) * system.m
        adj = bg.graph.adj
        edge = tuple(np.argwhere(np.triu(adj))[0])
        non_edge = tuple(np.argwhere(np.triu(~adj, 1))[0])
        for a, b in (edge, non_edge):
            ok, why = verify_refutation(system, y, _with_edge_flipped(bg, a, b), bg0)
            assert not ok and "adjacency" in why

    def test_zero_assignment_clique_rejected(self):
        system = magic_square()
        bg, bg0 = bcs_graph(system), bcs_graph(homogenize(system))
        zeros = [v for v, (_, f) in enumerate(bg0.vertex_meta) if not any(f.values())]
        ok, why = verify_refutation(system, (1,) * 6, bg, _with_edge_flipped(bg0, *zeros[:2]))
        assert not ok and "G_F0" in why

    @pytest.mark.parametrize("vertex", [(6, {0: 0, 1: 0, 2: 0}), (0, {0: 0, 1: 0, 2: 2}),
                                        (0, {0: 0, 1: 0}), (0, {0: 1, 1: 0, 2: 0})],
                             ids=["no such constraint", "non-bit value", "wrong domain",
                                  "violates its constraint"])
    def test_malformed_vertex_rejected_without_raising(self, vertex):
        system = magic_square()
        bg, bg0 = bcs_graph(system), bcs_graph(homogenize(system))
        bad = BCSGraph(bg.graph, (vertex,) + bg.vertex_meta[1:])
        ok, why = verify_refutation(system, (1,) * 6, bad, bg0)
        assert not ok and "G_F vertex" in why

    def test_random_corpus(self, rng):
        refuted = 0
        for _ in range(30):
            system = _random_bcs(rng)
            report = classical_reduction_report(system)
            if report["satisfiable"]:
                assert report["refutation"] is None
            else:
                refuted += 1
                assert verify_refutation(system, report["refutation"], *report["bcs_graphs"]) == (True, None)
        assert refuted
