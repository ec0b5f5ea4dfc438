import math
import random
import re
from fractions import Fraction

import pytest

import networkx as nx
import numpy as np

from conftest import (
    cep_pair,
    complete,
    cycle,
    ds_pair,
    ds_rows,
    empty,
    oracle_common_equitable_partition,
    oracle_format_ds_witness,
    oracle_ns_table,
    oracle_verify_ds_witness,
    oracle_verify_equitable,
    path,
    permuted_copy,
    random_graph,
    star,
    two_k3,
)
from qgiso import equitable as eqmod
from qgiso.correlations import correlation_to_ds_witness, ns_iso
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
from qgiso.graphs import Graph, GraphError, ParseError, find_isomorphism, from_edges


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
        # a distinct non-adjacent pair in the one cell: 1 / (n_1 cbar_11), cbar_11 = 6 - 2 - 1
        g, h = cycle(6), two_k3()
        assert not g.adj[0, 2] and not h.adj[0, 3]
        table = oracle_ns_table(g, h, common_equitable_partition(g, h))
        assert table[(0, 2, 6, 9)] == Fraction(1, 18)

    def test_misaligned_kernel_cells_raise(self, monkeypatch):
        # every partition of K4 is equitable, but these sides' sizes differ: a
        # kernel fault, which must not come out as a NO
        def misaligned(g, h):
            return None, None, {0: [0, 1, 4], 3: [2, 3, 5, 6, 7]}

        monkeypatch.setattr(eqmod, "_root", misaligned)
        with pytest.raises(AssertionError, match="aligned"):
            common_equitable_partition(complete(4), complete(4))


class TestFractionalIso:
    def test_c6_and_2k3_uniform_witness(self):
        cep, D = fractional_iso(cycle(6), two_k3())
        assert all(x == Fraction(1, 6) for row in ds_rows(D) for x in row)

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
        ok, violation = verify_ds_witness(g, h, ds_pair(D))
        assert ok, violation

    def test_uniform_ok_for_c6_2k3(self):
        D = [[Fraction(1, 6)] * 6 for _ in range(6)]
        ok, _ = verify_ds_witness(cycle(6), two_k3(), ds_pair(D))
        assert ok

    def test_uniform_fails_for_irregular_pair(self):
        h = from_edges(
            ["c", "l0", "l1", "l2", "i0", "i1"], [("c", "l0"), ("c", "l1"), ("c", "l2")]
        )
        D = [[Fraction(1, 6)] * 6 for _ in range(6)]
        ok, violation = verify_ds_witness(cycle(6), h, ds_pair(D))
        assert not ok and "A_G D" in violation

    def test_row_sum_violation_reported(self):
        D = [[Fraction(0)] * 6 for _ in range(6)]
        ok, violation = verify_ds_witness(cycle(6), two_k3(), ds_pair(D))
        assert not ok and "row 0" in violation

    def test_round_trip(self):
        _, D = fractional_iso(cycle(6), two_k3())
        assert ds_rows(parse_ds_witness(format_ds_witness(D))) == ds_rows(D)

    @pytest.mark.parametrize("text, named", [
        ("ds x 2\n1 0\n", "'ds x 2'"),
        ("ds 2 2\n1 0\n1/0 1\n", "entry (1, 0) '1/0'"),
        ("ds -1 -1\n1\n", "'ds -1 -1'"),
        ("ds " + "1" * 5000 + " 1\n1\n", "'ds <rows> <cols>'"),
        ("ds 2 2\n1 0\n", "expected 4 entries, found 2"),
    ], ids=["non-decimal size", "zero denominator", "negative sizes", "size past int digits",
            "entry count"])
    def test_malformed_text_raises_naming_the_header_or_entry(self, text, named):
        with pytest.raises(ParseError, match=re.escape(named)):
            parse_ds_witness(text)

    def test_built_witness_always_verifies(self, rng):
        for _ in range(5):
            g, h, cep = cep_pair(rng)
            D = build_ds_witness(cep)
            ok, violation = verify_ds_witness(g, h, D)
            assert ok, violation


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


def _exchanged(p):
    """C6 vs 2K3's uniform witness 1/6 with a 2 x 2 exchange of 1/p: still
    doubly stochastic, but no longer intertwining."""
    D = [[Fraction(1, 6)] * 6 for _ in range(6)]
    for i, j, s in ((0, 0, 1), (0, 1, -1), (1, 0, -1), (1, 1, 1)):
        D[i][j] += s * Fraction(1, p)
    return D


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
            for M in _mutations(ds_rows(D), rng):
                got = verify_ds_witness(g, h, ds_pair(M))
                assert got == oracle_verify_ds_witness(g, h, M)
                seen.add(got[1].split()[0] if not got[0] else "ok")
        assert seen == {"ok", "negative", "row", "column", "A_G"}

    def test_object_fallback(self):
        # p is prime, so the lcm 6p times n overflows int64
        D = _exchanged(2 ** 61 - 1)
        g, h = cycle(6), two_k3()
        got = verify_ds_witness(g, h, ds_pair(D))
        assert not got[0] and got == oracle_verify_ds_witness(g, h, D)
        D[0][0] = -D[0][0]
        assert verify_ds_witness(g, h, ds_pair(D)) == oracle_verify_ds_witness(g, h, D)


def _uniform_exchanged(n, q, e):
    """The n x n witness q / (n q) with the 2 x 2 exchange +e, -e, -e, +e at
    its top left, as (M, L)."""
    M = np.full((n, n), q, dtype=np.int64)
    M[:2, :2] += np.array([[e, -e], [-e, e]])
    return M, n * q


def _two_c4():
    labels = [f"c{i}" for i in range(8)]
    return from_edges(labels, [(labels[b + i], labels[b + (i + 1) % 4]) for b in (0, 4)
                               for i in range(4)])


class TestDsWitnessExactness:
    """A_G M and M A_H are taken in float64 only while n max(L, |M|) < 2^53,
    so that every partial sum is an exact integer."""

    @pytest.mark.parametrize("q", [2 ** 47 - 1, 2 ** 47],
                             ids=["n peak = 2^53 - 64", "n peak = 2^53"])
    @pytest.mark.parametrize("e, extra, kind", [
        (0, 0, "ok"), (1, 0, "A_G"), (None, 0, "negative"), (0, 1, "row"),
    ], ids=["doubly stochastic", "exchange of 1", "negative", "row off by 1"])
    def test_both_sides_of_the_boundary_match_the_fraction_loops(self, q, e, extra, kind):
        # C8 vs 2C4 on 8 vertices: L = 8q, so n L is 2^53 - 64 or 2^53
        g, h = cycle(8), _two_c4()
        M, L = _uniform_exchanged(8, q, q + 1 if e is None else e)
        M[0, 0] += extra
        assert 8 * max(L, int(abs(M).max())) == 64 * q
        got = verify_ds_witness(g, h, (M, L))
        assert got == oracle_verify_ds_witness(g, h, ds_rows((M, L)))
        assert (got[1] or "ok").split()[0] == kind

    def test_a_difference_of_one_past_2_53_is_seen(self):
        # entries near 2^53 + 3 differ by 1 between the two products, which
        # float64 (spacing 2 there) would round to the same value
        g, h = cycle(6), two_k3()
        M, L = _uniform_exchanged(6, 2 ** 52 + 2, 1)
        lhs, rhs = g.adj.astype(np.int64) @ M, M @ h.adj.astype(np.int64)
        assert (lhs != rhs).any() and lhs[lhs != rhs].min() >= 2 ** 53
        Mf = M.astype(np.float64)
        assert np.array_equal(g.adj.astype(np.float64) @ Mf, Mf @ h.adj.astype(np.float64))
        got = verify_ds_witness(g, h, (M, L))
        assert not got[0] and got[1].startswith("A_G")
        assert got == oracle_verify_ds_witness(g, h, ds_rows((M, L)))

    @pytest.mark.parametrize("low, kind", [(1, "ok"), (-1, "negative")])
    def test_plain_int_rows_past_int64(self, low, kind):
        # numpy infers float64 for [1, 2**63] and [-1, 2**63]; K2 against K2
        # swaps rows on one side and columns on the other
        rows = [[low, 2 ** 63], [2 ** 63, low]]
        L = low + 2 ** 63
        got = verify_ds_witness(complete(2), complete(2), (rows, L))
        assert got == oracle_verify_ds_witness(
            complete(2), complete(2), [[Fraction(v, L) for v in row] for row in rows])
        assert (got[1] or "ok").split()[0] == kind

    @pytest.mark.parametrize("first", [1.0, True, Fraction(1)], ids=["float", "bool", "Fraction"])
    def test_other_numbers_in_rows_past_int64_raise(self, first):
        with pytest.raises(GraphError, match="integer numerators"):
            verify_ds_witness(complete(2), complete(2), ([[first, 2 ** 63], [2 ** 63, first]],
                                                         2 ** 63 + 1))

    @pytest.mark.parametrize("D", [
        (np.full((6, 6), 1.0), 6),
        (np.ones((6, 6), dtype=bool), 6),
        (np.ones((6, 6), dtype=complex), 6),
        (np.full((6, 6), Fraction(1, 6), dtype=object), 1),
        (np.ones((5, 6), dtype=np.int64), 6),
        (np.ones((6, 6, 1), dtype=np.int64), 6),
        *((np.ones((6, 6), dtype=np.int64), L) for L in (0, -1, True, 1.5, "6")),
        [[Fraction(1, 6)] * 6 for _ in range(6)],
        (np.ones((6, 6), dtype=np.int64),),
        ([[1] * 6] * 5 + [[1] * 5], 6),
    ], ids=["float", "bool", "complex", "object Fractions", "5 rows", "3 axes",
            "denominator 0", "denominator -1", "denominator True", "denominator 1.5",
            "denominator '6'", "Fraction rows", "no denominator", "ragged rows"])
    def test_malformed_pair_raises(self, D):
        with pytest.raises(GraphError):
            verify_ds_witness(cycle(6), two_k3(), D)


class TestDsWitnessFile:
    @pytest.mark.parametrize("case", ["C6 vs 2K3", "128-vertex discrete", "unreduced denominator",
                                      "object fallback"])
    def test_bytes_match_the_fraction_writer(self, case):
        if case == "C6 vs 2K3":
            D = fractional_iso(cycle(6), two_k3())[1]
        elif case == "128-vertex discrete":
            rng = random.Random(7)
            g = random_graph(128, 0.5, rng)
            cep, D = fractional_iso(g, permuted_copy(g, rng))
            assert cep.k == 128  # refinement is discrete
        elif case == "unreduced denominator":
            g, h = cycle(6), two_k3()
            D = correlation_to_ds_witness(ns_iso(g, h)[1], g, h)
            assert D[1] == 36 and math.gcd(*D[0].ravel().tolist(), D[1]) == 6
        else:
            D = ds_pair(_exchanged(2 ** 61 - 1))
        rows = ds_rows(D)
        text = format_ds_witness(D)
        assert text == oracle_format_ds_witness(rows)
        assert ds_rows(parse_ds_witness(text)) == rows


def _random_cells(n, rng):
    """A random partition of range(n) in shuffled order, sometimes broken:
    a vertex dropped or repeated, one out of range, or an empty cell."""
    labels = [rng.randrange(rng.randint(1, max(n, 1))) for _ in range(n)]
    cells = [[v for v in range(n) if labels[v] == i] for i in sorted(set(labels))]
    for cell in cells:
        rng.shuffle(cell)
    rng.shuffle(cells)
    broken = rng.randrange(8)
    if broken == 0 and n:
        cells[0] = cells[0][1:]
    elif broken == 1 and n:
        cells[-1].append(cells[0][0])
    elif broken == 2:
        cells.append([n])
    elif broken == 3:
        cells.append([])
    return cells


def _regular(n, d, seed, prefix):
    a = nx.random_regular_graph(d, n, seed=seed)
    labels = [f"{prefix}{v}" for v in range(n)]
    return from_edges(labels, [(labels[u], labels[v]) for u, v in a.edges()])


def _random_pairs(rng):
    """Graph pairs on at most 12 vertices, fractionally isomorphic or not,
    then regular pairs of equal and of different degrees up to 40."""
    for _ in range(60):
        n = rng.randint(0, 12)
        g = random_graph(n, rng.random(), rng)
        yield g, random_graph(n if rng.random() < 0.8 else rng.randint(0, 12), rng.random(), rng)
        yield g, permuted_copy(g, rng)
    for _ in range(10):
        yield cep_pair(rng)[:2]
    for n, d, e in ((20, 3, 3), (30, 4, 4), (40, 5, 5), (40, 4, 6), (36, 3, 3)):
        yield _regular(n, d, n + d, "a"), _regular(n, e, n + e + 1, "b")


class TestMatchesLoopOracles:
    def test_verify_equitable_partition_or_first_violation(self, rng):
        seen = set()
        for _ in range(400):
            n = rng.randint(0, 12)
            g = random_graph(n, rng.random(), rng)
            cells = _random_cells(n, rng) if rng.random() < 0.8 else color_refinement(g).cells
            if rng.random() < 0.3:
                cells = [np.array(cell, dtype=np.int64) for cell in cells]
            try:
                want = oracle_verify_equitable(g, cells)
            except NotAPartitionError:
                with pytest.raises(NotAPartitionError):
                    verify_equitable(g, cells)
                seen.add("not a partition")
                continue
            got = verify_equitable(g, cells)
            assert got == want
            seen.add("equitable" if got[1] is None else "violation")
        assert seen == {"equitable", "violation", "not a partition"}

    def test_common_equitable_partition_cells_and_numbers(self, rng):
        yes = no = 0
        for g, h in _random_pairs(rng):
            want = oracle_common_equitable_partition(g, h)
            assert common_equitable_partition(g, h) == want
            result = fractional_iso(g, h)
            assert (result is None) == (want is None or g.n != h.n)
            if result is not None:
                assert ds_rows(result[1]) == ds_rows(build_ds_witness(want))
            yes, no = yes + (result is not None), no + (result is None)
        assert yes >= 40 and no >= 40

    def test_ns_table(self, rng):
        for _ in range(6):
            g = random_graph(rng.randint(2, 7), 0.5, rng)
            h = permuted_copy(g, rng)
            cep, corr = ns_iso(g, h)
            assert cep == oracle_common_equitable_partition(g, h)
            assert dict(corr.table) == oracle_ns_table(g, h, cep)

    def test_checks_each_side_once(self, monkeypatch):
        calls = []

        def counted(g, cells):
            calls.append(g)
            return verify_equitable(g, cells)

        monkeypatch.setattr(eqmod, "verify_equitable", counted)
        g, h = cycle(6), two_k3()
        assert common_equitable_partition(g, h) is not None
        assert calls == [g, h]

    def test_builds_no_union_graph(self, monkeypatch):
        built = []
        post_init = Graph.__post_init__

        def counted(self):
            built.append(self.n)
            post_init(self)

        g, h = cycle(6), two_k3()
        monkeypatch.setattr(Graph, "__post_init__", counted)
        assert common_equitable_partition(g, h) is not None
        assert built == []
