import re
from fractions import Fraction

import pytest

from conftest import cep_pair, complete, cycle, empty, path, random_graph, star, two_k3
from qgiso.correlations import ns_iso
from qgiso.equitable import (
    NotAPartitionError,
    build_ds_witness,
    color_refinement,
    common_equitable_partition,
    format_ds_witness,
    fractional_iso,
    parse_ds_witness,
    verify_ds_witness,
    verify_equitable,
)
from qgiso.graphs import ParseError, find_isomorphism, from_edges


class TestColorRefinement:
    def test_k3_single_cell(self):
        p = color_refinement(complete(3))
        assert p.k == 1 and p.c == ((2,),)

    def test_p3_ends_and_middle(self):
        p = color_refinement(path(3))
        cells = set(p.cells)
        assert cells == {(0, 2), (1,)}
        # ends have 1 neighbor in the middle cell, the middle has 2 in the ends
        by_cell = {cell: i for i, cell in enumerate(p.cells)}
        ends, mid = by_cell[(0, 2)], by_cell[(1,)]
        assert p.c[ends][mid] == 1 and p.c[mid][ends] == 2
        assert p.c[ends][ends] == 0 and p.c[mid][mid] == 0

    def test_c6_regular(self):
        p = color_refinement(cycle(6))
        assert p.k == 1 and p.c == ((2,),)

    def test_empty_graph_pair(self):
        e = empty(0)
        assert color_refinement(e).cells == ()
        assert common_equitable_partition(e, e).cells_g == ()
        assert fractional_iso(e, e) is not None
        assert ns_iso(e, e) is not None

    def test_idempotent(self, rng):
        for _ in range(10):
            g = random_graph(8, 0.4, rng)
            p = color_refinement(g)
            q, violation = verify_equitable(g, p.cells)
            assert violation is None and q.cells == p.cells and q.c == p.c


class TestVerifyEquitable:
    def test_c6_single_cell(self):
        p, violation = verify_equitable(cycle(6), [range(6)])
        assert violation is None and p.c == ((2,),)

    def test_p3_single_cell_violation(self):
        p, violation = verify_equitable(path(3), [range(3)])
        assert p is None and violation is not None

    def test_p3_two_cells_ok(self):
        p, violation = verify_equitable(path(3), [(0, 2), (1,)])
        assert violation is None

    def test_not_a_partition(self):
        with pytest.raises(NotAPartitionError):
            verify_equitable(path(3), [(0, 1), (1, 2)])


class TestCommonEquitablePartition:
    def test_c6_and_2k3(self):
        cep = common_equitable_partition(cycle(6), two_k3())
        assert cep is not None
        assert cep.k == 1 and cep.sizes() == (6,) and cep.c == ((2,),)

    def test_star_vs_path_none(self):
        assert common_equitable_partition(star(3), path(4)) is None

    def test_self_pair(self, rng):
        g = random_graph(7, 0.5, rng)
        cep = common_equitable_partition(g, g)
        assert cep is not None
        assert cep.cells_g == cep.cells_h == color_refinement(g).cells

    def test_symmetry(self, rng):
        for _ in range(10):
            g = random_graph(6, 0.5, rng)
            h = random_graph(6, 0.5, rng)
            a = common_equitable_partition(g, h)
            b = common_equitable_partition(h, g)
            assert (a is None) == (b is None)

    def test_cbar(self):
        cep = common_equitable_partition(cycle(6), two_k3())
        assert cep.cbar() == ((3,),)


class TestFractionalIso:
    def test_c6_and_2k3_uniform_witness(self):
        cep, D = fractional_iso(cycle(6), two_k3())
        assert all(x == Fraction(1, 6) for row in D for x in row)

    def test_star_vs_path_no(self):
        assert fractional_iso(star(3), path(4)) is None

    def test_self_yes(self, rng):
        g = random_graph(7, 0.5, rng)
        assert fractional_iso(g, g) is not None

    def test_different_order_no(self):
        assert fractional_iso(cycle(4), cycle(5)) is None

    def test_regular_pairs_always_yes(self, rng):
        import networkx as nx

        for seed in range(6):
            a = nx.random_regular_graph(3, 8, seed=seed)
            b = nx.random_regular_graph(3, 8, seed=seed + 100)
            g = from_edges([f"a{v}" for v in range(8)], [(f"a{u}", f"a{v}") for u, v in a.edges()])
            h = from_edges([f"b{v}" for v in range(8)], [(f"b{u}", f"b{v}") for u, v in b.edges()])
            assert fractional_iso(g, h) is not None

    def test_generated_cep_pairs(self, rng):
        for _ in range(8):
            g, h, _ = cep_pair(rng)
            assert fractional_iso(g, h) is not None


class TestDsWitness:
    def test_permutation_matrix_ok(self, rng):
        g = random_graph(6, 0.5, rng)
        from conftest import permuted_copy

        h = permuted_copy(g, rng)
        phi = find_isomorphism(g, h)
        D = [[Fraction(1 if phi(i) == j else 0) for j in range(g.n)] for i in range(g.n)]
        ok, violation = verify_ds_witness(g, h, D)
        assert ok, violation

    def test_uniform_ok_for_c6_2k3(self):
        D = [[Fraction(1, 6)] * 6 for _ in range(6)]
        ok, _ = verify_ds_witness(cycle(6), two_k3(), D)
        assert ok

    def test_uniform_fails_for_irregular_pair(self):
        h = from_edges(
            ["c", "l0", "l1", "l2", "i0", "i1"], [("c", "l0"), ("c", "l1"), ("c", "l2")]
        )
        D = [[Fraction(1, 6)] * 6 for _ in range(6)]
        ok, violation = verify_ds_witness(cycle(6), h, D)
        assert not ok and "A_G D" in violation

    def test_row_sum_violation_reported(self):
        D = [[Fraction(0)] * 6 for _ in range(6)]
        ok, violation = verify_ds_witness(cycle(6), two_k3(), D)
        assert not ok and "row 0" in violation

    def test_round_trip(self):
        _, D = fractional_iso(cycle(6), two_k3())
        assert parse_ds_witness(format_ds_witness(D)) == D

    @pytest.mark.parametrize("text, named", [
        ("ds x 2\n1 0\n", "'ds x 2'"),
        ("ds 2 2\n1 0\n1/0 1\n", "entry (1, 0) '1/0'"),
        ("ds -1 -1\n1\n", "'ds -1 -1'"),
    ], ids=["non-decimal size", "zero denominator", "negative sizes"])
    def test_malformed_text_raises_naming_the_header_or_entry(self, text, named):
        with pytest.raises(ParseError, match=re.escape(named)):
            parse_ds_witness(text)

    def test_built_witness_always_verifies(self, rng):
        for _ in range(5):
            g, h, cep = cep_pair(rng)
            D = build_ds_witness(cep)
            ok, violation = verify_ds_witness(g, h, D)
            assert ok, violation


def _oracle_verify_ds_witness(g, h, D):
    """The Fraction-loop check that the integer-array one replaced."""
    for i, row in enumerate(D):
        for j, x in enumerate(row):
            if x < 0:
                return False, f"negative entry at ({i}, {j})"
    for i, row in enumerate(D):
        if sum(row) != 1:
            return False, f"row {i} sums to {sum(row)}"
    for j in range(h.n):
        s = sum(D[i][j] for i in range(g.n))
        if s != 1:
            return False, f"column {j} sums to {s}"
    for i in range(g.n):
        for j in range(h.n):
            lhs = sum(D[int(u)][j] for u in g.neighbors(i))
            rhs = sum(D[i][int(w)] for w in h.neighbors(j))
            if lhs != rhs:
                return False, f"A_G D != D A_H at ({i}, {j}): {lhs} vs {rhs}"
    return True, None


def _mutations(D, rng):
    """D itself, then copies with a negative entry, a broken row, a broken
    column, and two doubly stochastic matrices that may break the
    intertwining: D with columns 0 and j swapped, and the identity."""
    n = len(D)
    yield D
    i, j = rng.randrange(n), rng.randrange(n)
    negative = [row[:] for row in D]
    negative[i][j] -= Fraction(1, 2 * n)
    negative[i][(j + 1) % n] += Fraction(1, 2 * n)
    yield negative
    row = [r[:] for r in D]
    row[i][j] += Fraction(1, 3)
    yield row
    col = [r[:] for r in D]
    col[i][j] += Fraction(1, 5)
    col[i][(j + 1) % n] -= Fraction(1, 5)
    yield col
    yield [[r[j]] + r[1:j] + [r[0]] + r[j + 1:] if j else r[:] for r in D]
    yield [[Fraction(int(a == b)) for b in range(n)] for a in range(n)]


class TestDsWitnessMatchesFractionLoops:
    def _pairs(self, rng):
        yield cycle(6), two_k3()
        for _ in range(6):
            g, h, _ = cep_pair(rng)
            yield g, h
        yield complete(5), complete(5)

    def test_same_verdicts_on_mutated_witnesses(self, rng):
        seen = set()
        for g, h in self._pairs(rng):
            _, D = fractional_iso(g, h)
            for M in _mutations(D, rng):
                got = verify_ds_witness(g, h, M)
                assert got == _oracle_verify_ds_witness(g, h, M)
                seen.add(got[1].split()[0] if not got[0] else "ok")
        assert seen == {"ok", "negative", "row", "column", "A_G"}

    def test_object_fallback(self):
        # a 2 x 2 exchange of 1/p keeps C6 vs 2K3's witness doubly
        # stochastic; p is prime, so the lcm 6p times n overflows int64
        p = 2 ** 61 - 1
        D = [[Fraction(1, 6)] * 6 for _ in range(6)]
        for i, j, s in ((0, 0, 1), (0, 1, -1), (1, 0, -1), (1, 1, 1)):
            D[i][j] += s * Fraction(1, p)
        g, h = cycle(6), two_k3()
        got = verify_ds_witness(g, h, D)
        assert not got[0] and got == _oracle_verify_ds_witness(g, h, D)
        D[0][0] = -D[0][0]
        assert verify_ds_witness(g, h, D) == _oracle_verify_ds_witness(g, h, D)
