import dataclasses
import re
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    cep_pair,
    cycle,
    ds_rows,
    empty,
    graph_from_bits,
    iso_game_predicate,
    oracle_distribution,
    oracle_format_exact,
    oracle_nonsignalling,
    oracle_ns_table,
    oracle_parse_correlation,
    oracle_perfect,
    path,
    random_graph,
    star,
    two_k3,
)
from qgiso import correlations
from qgiso.correlations import (
    Correlation,
    build_ns_correlation,
    correlation_to_ds_witness,
    format_correlation,
    iso_game_tokens,
    ns_iso,
    parse_correlation,
    pr_box,
    verify_distribution,
    verify_nonsignalling,
    verify_perfect_iso_strategy,
)
from qgiso.equitable import common_equitable_partition, fractional_iso, verify_ds_witness
from qgiso.graphs import GraphError, ParseError, find_isomorphism, from_edges


@pytest.mark.parametrize("call, message", [
    (lambda: Correlation(("a",), "sparse", {}), "unknown mode 'sparse'"),
    (lambda: Correlation(("a",), "exact", ([(0, 0, 0, 0)], [0.5], 2)),
     "exact values need integer numerators over a positive integer"),
    (lambda: Correlation(("a",), "exact", np.ones((1, 1, 1, 1))), "an exact table needs a mapping"),
    (lambda: Correlation(("a",), "float", np.ones((2, 2, 2, 2))),
     "dense table shape does not match the token list"),
    (lambda: build_ns_correlation(cycle(6), two_k3(), dataclasses.replace(
        common_equitable_partition(cycle(6), two_k3()), c=((3,),))),
     "common equitable partition fails verification for this pair"),
    (lambda: parse_correlation(""), "empty correlation file"),
    (lambda: parse_correlation("corr 2 exact\na\n"), "line 2: expected 2 tokens, found 1"),
], ids=["unknown-mode", "non-integer-numerators", "exact-dense-table", "dense-shape",
        "forged-partition", "empty-file", "token-count"])
def test_refusals_name_the_defect(call, message):
    with pytest.raises(GraphError, match=re.escape(message)):
        call()


class TestPrBox:
    def test_defining_entries(self):
        box = pr_box()
        assert box.get(0, 0, 0, 0) == Fraction(1, 2)
        assert box.get(1, 1, 1, 0) == Fraction(1, 2)  # 1 + 0 = 1*1 mod 2
        assert box.get(0, 0, 0, 1) == 0

    def test_normalized(self):
        box = pr_box()
        ok, violation = verify_distribution(box)
        assert ok, violation

    def test_nonsignalling(self):
        ok, violation = verify_nonsignalling(pr_box())
        assert ok, violation


class TestVerifyNonsignalling:
    def test_deterministic_product_strategy(self):
        # both players answer f(x) = x regardless of the other's input
        table = {(x, xp, x, xp): Fraction(1) for x in range(2) for xp in range(2)}
        corr = Correlation(("0", "1"), "exact", table)
        assert verify_nonsignalling(corr)[0]

    def test_echo_correlation_signals(self):
        # Alice outputs Bob's input: her marginal depends on x_B
        table = {(x, xp, xp, 0): Fraction(1) for x in range(2) for xp in range(2)}
        corr = Correlation(("0", "1"), "exact", table)
        ok, violation = verify_nonsignalling(corr)
        assert not ok and violation[0] == "A"

    def test_float_mode(self):
        box = pr_box()
        dense = np.zeros((2, 2, 2, 2))
        for k, v in box.table.items():
            dense[k] = float(v)
        ok, _ = verify_nonsignalling(Correlation(("0", "1"), "float", dense))
        assert ok
        dense[0, 1, 0, 0] += 1e-6
        ok, _ = verify_nonsignalling(Correlation(("0", "1"), "float", dense))
        assert not ok


class TestBuildNsCorrelation:
    def setup_method(self):
        self.g, self.h = cycle(6), two_k3()
        self.cep = common_equitable_partition(self.g, self.h)
        self.corr = build_ns_correlation(self.g, self.h, self.cep)

    def test_edge_entries(self):
        # n = 6, c = 2: p(h, h' | g, g') = 1/12 on (edge, edge) patterns
        g, h = self.g, self.h
        assert self.corr.get(0, 1, 6, 7) == Fraction(1, 12)

    def test_marginal_value(self):
        # sum over y_B is 1/n_i = 1/6 for aligned cells, any x_B
        for x_b in range(12):
            total = sum(
                self.corr.get(0, x_b, 6, y_b) for y_b in range(12)
            )
            assert total == Fraction(1, 6)

    def test_same_input_consistency(self):
        for h1 in range(6, 12):
            for h2 in range(6, 12):
                if h1 != h2:
                    assert self.corr.get(0, 0, h1, h2) == 0

    def test_distribution_nonsignalling_perfect(self):
        assert verify_distribution(self.corr)[0]
        assert verify_nonsignalling(self.corr)[0]
        ok, losing = verify_perfect_iso_strategy(self.corr, self.g, self.h)
        assert ok, losing

    def test_switch_symmetry(self):
        # the four reflected entries agree for every vertex pair
        for gv in range(6):
            for hv in range(6, 12):
                vals = {
                    self.corr.get(gv, gv, hv, hv),
                    self.corr.get(hv, gv, gv, hv),
                    self.corr.get(gv, hv, hv, gv),
                    self.corr.get(hv, hv, gv, gv),
                }
                assert len(vals) == 1

    def test_diagonal_sums_to_one(self):
        for gv in range(6):
            assert sum(self.corr.get(gv, gv, hv, hv) for hv in range(6, 12)) == 1
        for hv in range(6, 12):
            assert sum(self.corr.get(hv, hv, gv, gv) for gv in range(6)) == 1

    def test_extracted_witness_is_doubly_stochastic(self):
        D = correlation_to_ds_witness(self.corr, self.g, self.h)
        ok, violation = verify_ds_witness(self.g, self.h, D)
        assert ok, violation

    def test_float_correlation_gives_the_same_witness(self):
        table = self.corr.table
        floats = Correlation(self.corr.inputs, "float",
                             (table.coords, table.data / table.denominator))
        D = correlation_to_ds_witness(floats, self.g, self.h)
        assert D[1] == 6 and ds_rows(D) == ds_rows(correlation_to_ds_witness(
            self.corr, self.g, self.h))

    @pytest.mark.parametrize("n", [3, 8])
    def test_witness_of_graphs_of_another_order_raises(self, n):
        # 12 tokens read against two C3s (6) or two C8s (16)
        with pytest.raises(GraphError, match=re.escape(
                "correlation token count does not match V(G) + V(H)")):
            correlation_to_ds_witness(self.corr, cycle(n), cycle(n))


class TestGeneratedPairs:
    def test_full_pipeline_on_random_ceps(self, rng):
        for _ in range(6):
            g, h, cep = cep_pair(rng)
            corr = build_ns_correlation(g, h, cep)
            assert verify_distribution(corr)[0]
            assert verify_nonsignalling(corr)[0]
            assert verify_perfect_iso_strategy(corr, g, h)[0]
            D = correlation_to_ds_witness(corr, g, h)
            assert verify_ds_witness(g, h, D)[0]


class TestNsIso:
    def test_c6_2k3_yes(self):
        assert ns_iso(cycle(6), two_k3()) is not None

    def test_star_path_no(self):
        assert ns_iso(star(3), path(4)) is None

    def test_self_yes(self):
        assert ns_iso(cycle(5), cycle(5)) is not None

    def test_empty_pair_and_unequal_orders(self):
        cep, corr = ns_iso(empty(0), empty(0))
        assert cep.k == 0 and len(corr.table) == 0
        assert ns_iso(empty(2), empty(3)) is None
        assert ns_iso(cycle(4), path(5)) is None

    def test_verdicts_match_fractional_iso(self, rng):
        pairs = [cep_pair(rng)[:2] for _ in range(6)]
        pairs += [(random_graph(6, 0.5, rng), random_graph(6, 0.5, rng)) for _ in range(20)]
        for g, h in pairs:
            assert (ns_iso(g, h) is None) == (fractional_iso(g, h) is None)


class TestPerfectStrategyVerifier:
    def test_uniform_correlation_loses(self):
        g, h = cycle(4), cycle(4)
        N = 8
        dense = np.full((N, N, N, N), 1.0 / (N * N))
        corr = Correlation(iso_game_tokens(g, h), "float", dense)
        ok, losing = verify_perfect_iso_strategy(corr, g, h)
        assert not ok and losing[4] > 0

    def test_deterministic_isomorphism_wins(self, rng):
        from conftest import permuted_copy

        g = cycle(5)
        h = permuted_copy(g, rng)
        phi = find_isomorphism(g, h)
        n = g.n
        table = {}
        for a in range(n):
            for b in range(n):
                table[(a, b, phi(a) + n, phi(b) + n)] = Fraction(1)
                table[(phi(a) + n, phi(b) + n, a, b)] = Fraction(1)
                table[(a, phi(b) + n, phi(a) + n, b)] = Fraction(1)
                table[(phi(a) + n, b, a, phi(b) + n)] = Fraction(1)
        corr = Correlation(iso_game_tokens(g, h), "exact", table)
        assert verify_distribution(corr)[0]
        assert verify_nonsignalling(corr)[0]
        assert verify_perfect_iso_strategy(corr, g, h)[0]


class TestSerialization:
    def test_exact_round_trip(self):
        corr = build_ns_correlation(cycle(6), two_k3(), common_equitable_partition(cycle(6), two_k3()))
        back = parse_correlation(format_correlation(corr))
        assert back.mode == "exact" and back.table == corr.table

    def test_float_round_trip(self):
        dense = np.zeros((2, 2, 2, 2))
        for k, v in pr_box().table.items():
            dense[k] = float(v)
        corr = Correlation(("0", "1"), "float", dense)
        back = parse_correlation(format_correlation(corr))
        entries = np.array([back.get(*k) for k in np.ndindex(dense.shape)]).reshape(dense.shape)
        assert np.allclose(entries, dense)


class TestNonFinite:
    """NaN passes every `value > tol` test, so non-finite tables are refused
    before any verifier sees them."""

    def test_all_nan_rejected(self):
        with pytest.raises(GraphError, match="non-finite"):
            Correlation(("0", "1"), "float", np.full((2, 2, 2, 2), np.nan))

    def test_single_inf_rejected(self):
        dense = np.zeros((2, 2, 2, 2))
        for k, v in pr_box().table.items():
            dense[k] = float(v)
        dense[1, 0, 1, 1] = np.inf
        with pytest.raises(GraphError, match="non-finite"):
            Correlation(("0", "1"), "float", dense)

    @pytest.mark.parametrize("tol", [np.nan, np.inf, -1.0])
    @pytest.mark.parametrize("mode", ["float", "exact"])
    def test_bad_tolerance_rejected(self, mode, tol):
        # against a NaN or infinite tol every `value > tol` test is False
        with pytest.raises(GraphError, match="tolerance"):
            Correlation(("0", "1"), mode, {(0, 0, 0, 0): 5}, tol=tol)
        with pytest.raises(GraphError, match="tolerance"):
            parse_correlation(f"corr 2 {mode}\n0 1\n0 0 0 0 5\n", tol=tol)
        # and each verifier refuses one set after construction
        k2 = from_edges(["a", "b"], [("a", "b")])
        unnormalized = Correlation(("0", "1"), mode, {(1, 1, 0, 0): 5})  # inputs (1, 1) sum to 5
        losing = Correlation(iso_game_tokens(k2, k2), mode, {(0, 1, 2, 2): 1})
        checks = (lambda: verify_distribution(unnormalized),
                  lambda: verify_nonsignalling(unnormalized),
                  lambda: verify_perfect_iso_strategy(losing, k2, k2))
        assert not any(check()[0] for check in checks)
        unnormalized.tol = losing.tol = tol
        for check in checks:
            with pytest.raises(GraphError, match="tolerance must be a finite number >= 0"):
                check()


def _pr_box_coordinates():
    box = pr_box()
    return sorted(box.table), [float(v) for _, v in sorted(box.table.items())]


class TestFloatTableValidation:
    """Float tables are checked once, where they enter the library, because the
    vectorised verifiers index with the keys and numpy wraps negative indices."""

    @pytest.mark.parametrize("bad", [(-1, 0, 0, 0), (0, 0, 2, 0)])
    def test_key_out_of_range(self, bad):
        keys, values = _pr_box_coordinates()
        with pytest.raises(GraphError, match="outside"):
            Correlation(("0", "1"), "float", (keys + [bad], values + [0.5]))

    def test_repeated_key(self):
        keys, values = _pr_box_coordinates()
        with pytest.raises(GraphError, match="repeats"):
            Correlation(("0", "1"), "float", (keys + [keys[3]], values + [0.0]))

    @pytest.mark.parametrize("keys", [np.zeros((2, 3), int), np.zeros(4, int), np.zeros((2, 4))])
    def test_malformed_keys(self, keys):
        with pytest.raises(GraphError):
            Correlation(("0", "1"), "float", (keys, [0.5, 0.5]))

    def test_non_finite_value(self):
        keys, values = _pr_box_coordinates()
        values[2] = np.nan
        with pytest.raises(GraphError, match="non-finite"):
            Correlation(("0", "1"), "float", (keys, values))

    def test_keys_sorted_and_get(self):
        keys, values = _pr_box_coordinates()
        order = [5, 0, 7, 2, 1, 6, 3, 4]
        corr = Correlation(("0", "1"), "float",
                           ([keys[i] for i in order], [values[i] + i for i in order]))
        assert corr.table.coords.tolist() == [list(k) for k in keys]
        for i, k in enumerate(keys):
            assert corr.get(*k) == values[i] + i
        assert corr.get(0, 0, 0, 1) == 0.0 and corr.get(1, 1, 1, 1) == 0.0
        with pytest.raises(IndexError):
            corr.get(0, 0, 0, 2)


    @pytest.mark.parametrize("mode", ["float", "exact"])
    def test_shuffled_keys_give_the_sorted_table(self, mode):
        keys = np.indices((6,) * 4).reshape(4, -1).T[::3]
        numerators = np.arange(1, len(keys) + 1)
        inputs = tuple(map(str, range(6)))

        def table(rows):
            if mode == "exact":
                return Correlation(inputs, "exact", (keys[rows], numerators[rows], 7)).table
            return Correlation(inputs, "float", (keys[rows], numerators[rows] / 7)).table

        ordered = table(slice(None))
        shuffled = table(np.random.default_rng(11).permutation(len(keys)))
        for field in ("coords", "data", "index"):
            assert np.array_equal(getattr(shuffled, field), getattr(ordered, field))
        assert np.shares_memory(ordered.coords, keys)  # sorted keys are stored as given

# The dense float verifiers that the coordinate-list ones replaced, kept as
# the oracle for their verdicts.

def _dense_winning_mask(g, h):
    n, N = g.n, g.n + h.n
    rel_g = np.full((n, n), 2, dtype=np.int8)
    rel_g[g.adj] = 1
    np.fill_diagonal(rel_g, 0)
    rel_h = np.full((n, n), 2, dtype=np.int8)
    rel_h[h.adj] = 1
    np.fill_diagonal(rel_h, 0)
    X = np.arange(N)
    is_g = X < n
    valid = is_g[:, None] ^ is_g[None, :]
    g_of = np.where(is_g[:, None], X[:, None], X[None, :])
    h_of = np.where(is_g[:, None], X[None, :] - n, X[:, None] - n)
    g_of = np.clip(g_of, 0, n - 1)
    h_of = np.clip(h_of, 0, n - 1)
    win = rel_g[g_of[:, None, :, None], g_of[None, :, None, :]] == \
        rel_h[h_of[:, None, :, None], h_of[None, :, None, :]]
    win &= valid[:, None, :, None]
    win &= valid[None, :, None, :]
    return win


def _dense_verdicts(table, g, h, t):
    distribution = not (table.min() < -t) and not (
        float(np.abs(table.sum(axis=(2, 3)) - 1.0).max()) > t)
    marg_a = table.sum(axis=3)
    marg_b = table.sum(axis=2)
    nonsignalling = not ((marg_a.max(axis=1) - marg_a.min(axis=1)).max() > t) and not (
        (marg_b.max(axis=0) - marg_b.min(axis=0)).max() > t)
    perfect = None
    if g is not None:
        perfect = not (float(np.abs(np.where(_dense_winning_mask(g, h), 0.0, table)).max()) > t)
    return distribution, nonsignalling, perfect


@st.composite
def _float_tables(draw):
    """A dense table on N <= 4 tokens: a product of local response tables or,
    for N = 2n, a deterministic strategy from an isomorphism of an n-vertex
    graph to itself, then perturbed, with input pairs zeroed or mass moved."""
    N = draw(st.integers(1, 4))
    g = None
    if N % 2 == 0:
        n = N // 2
        g = graph_from_bits(n, draw(st.integers(0, 2 ** (n * (n - 1) // 2) - 1)))
    if g is not None and draw(st.booleans()):
        phi = draw(st.permutations(range(n)))
        table = np.zeros((N,) * 4)
        for a in range(n):
            for b in range(n):
                table[a, b, phi[a] + n, phi[b] + n] = 1.0
                table[phi[a] + n, phi[b] + n, a, b] = 1.0
                table[a, phi[b] + n, phi[a] + n, b] = 1.0
                table[phi[a] + n, b, a, phi[b] + n] = 1.0
    else:
        local = []
        for _ in range(2):
            w = np.array(draw(st.lists(st.integers(0, 3), min_size=N * N, max_size=N * N)),
                         dtype=float).reshape(N, N)
            w[w.sum(axis=1) == 0, 0] = 1.0
            local.append(w / w.sum(axis=1, keepdims=True))
        table = np.einsum("ay,bz->abyz", *local)
    index = st.tuples(*[st.integers(0, N - 1)] * 4)
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["add", "drop", "move"]))
        x_a, x_b, y_a, y_b = draw(index)
        if kind == "add":
            table[x_a, x_b, y_a, y_b] += draw(st.sampled_from([1e-12, -1e-12, 1e-6, -1e-6, 0.5]))
        elif kind == "drop":
            table[x_a, x_b] = 0.0
        else:
            _, _, z_a, z_b = draw(index)
            table[x_a, x_b, z_a, z_b] += table[x_a, x_b, y_a, y_b]
            table[x_a, x_b, y_a, y_b] = 0.0
    return table, g


class TestCoordinateVerifiersMatchDense:
    @settings(max_examples=400, deadline=None)
    @given(case=_float_tables(), data=st.data())
    def test_same_verdicts(self, case, data):
        table, g = case
        N = table.shape[0]
        keys = np.argwhere(table != 0)
        perm = data.draw(st.permutations(range(len(keys))))
        corr = Correlation(tuple(str(i) for i in range(N)), "float",
                           (keys[perm], table[tuple(keys[perm].T)]))
        distribution, nonsignalling, perfect = _dense_verdicts(table, g, g, corr.tol)
        assert verify_distribution(corr)[0] == distribution
        assert verify_nonsignalling(corr)[0] == nonsignalling
        if g is not None:
            assert verify_perfect_iso_strategy(corr, g, g)[0] == perfect


class TestExactTableValidation:
    """Exact tables go through the same key and value checks as float ones."""

    @pytest.mark.parametrize("table", [
        {(0, 0, 5, -1): Fraction(1)},
        {(0, 0, 2, 0): Fraction(1)},
        {(0.5, 0, 0, 0): Fraction(1)},
        {("0", 0, 0, 0): Fraction(1)},
        {(0, 0, 0): Fraction(1)},
    ], ids=["negative", "past-N", "float-key", "string-key", "short-key"])
    def test_bad_key(self, table):
        with pytest.raises(GraphError):
            Correlation(("0", "1"), "exact", table)

    def test_repeated_key(self):
        keys, values = map(list, zip(*sorted(pr_box().table.items())))
        with pytest.raises(GraphError, match="repeats"):
            Correlation(("0", "1"), "exact", (keys + [keys[3]], values + [Fraction(0)]))

    @pytest.mark.parametrize("numerators", [[1, 2 ** 63], [-1, 2 ** 63]])
    def test_plain_int_numerators_past_int64(self, numerators):
        # numpy infers float64 for both lists
        corr = Correlation(("a", "b"), "exact", ([(0, 0, 0, 0), (0, 1, 0, 1)], numerators, 2 ** 64))
        assert corr.table.data.dtype == object
        assert dict(corr.table) == {(0, 0, 0, 0): Fraction(numerators[0], 2 ** 64),
                                    (0, 1, 0, 1): Fraction(1, 2)}

    @pytest.mark.parametrize("numerators", [[1.0, 2 ** 63], [True, 2 ** 63], [True, 1],
                                            [Fraction(1), 2 ** 63], [-1.5, 2 ** 63]])
    def test_other_numerators_in_a_list_are_refused(self, numerators):
        with pytest.raises(GraphError, match="integer numerators"):
            Correlation(("a", "b"), "exact", ([(0, 0, 0, 0), (0, 1, 0, 1)], numerators, 2 ** 64))

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), "1/2", None, 1j])
    def test_bad_value(self, value):
        with pytest.raises(GraphError):
            Correlation(("0", "1"), "exact", {(0, 0, 0, 0): value})

    def test_common_denominator(self):
        corr = Correlation(("0", "1"), "exact",
                           {(0, 0, 0, 0): Fraction(1, 6), (1, 0, 1, 1): Fraction(3, 4),
                            (0, 1, 1, 0): 2, (1, 1, 0, 1): 0.5})
        assert corr.table.denominator == 12 and corr.table.data.dtype == np.int64
        assert corr.table.data.tolist() == [2, 24, 9, 6]
        assert dict(corr.table) == {(0, 0, 0, 0): Fraction(1, 6), (0, 1, 1, 0): 2,
                                    (1, 0, 1, 1): Fraction(3, 4), (1, 1, 0, 1): Fraction(1, 2)}
        assert corr.get(1, 1, 0, 1) == Fraction(1, 2) and corr.get(1, 1, 1, 1) == 0

    def test_mapping_view(self):
        table = pr_box().table
        assert len(table) == 8 and table[(1, 1, 1, 0)] == Fraction(1, 2)
        assert (0, 1, 0, 0) in table and (0.5, 0, 0, 0) not in table  # 0.5 would alias
        assert (0, 0, 0, 1) not in table and (0, 0, 0, 2) not in table
        with pytest.raises(TypeError):
            table[(0, 0, 0, 1)] = Fraction(1)

    def test_overflow_guard_falls_back_to_python_ints(self):
        p, q = 2 ** 61 - 1, 2 ** 31 - 1  # primes, so the lcm is p q > 2^62
        table = {(0, 0, 0, 0): Fraction(1, p), (0, 0, 1, 0): Fraction(p - 1, p),
                 (0, 1, 0, 0): Fraction(1, q), (0, 1, 1, 1): Fraction(q - 1, q),
                 (1, 0, 0, 0): Fraction(1), (1, 1, 0, 0): Fraction(1)}
        corr = Correlation(("0", "1"), "exact", table)
        assert corr.table.data.dtype == object and corr.table.denominator == p * q
        assert dict(corr.table) == table
        assert verify_distribution(corr) == (True, None)
        ok, violation = verify_nonsignalling(corr)
        assert not ok and violation == ("A", 0, 0, 0, 1, Fraction(1, p), Fraction(1, q))


def _assert_real_violation(corr, table, g):
    """Re-check each reported violation against the Fraction table."""
    N = corr.size
    ok, why = verify_distribution(corr)
    if not ok:
        if why.startswith("negative entry at "):
            assert table[tuple(int(t) for t in why[19:-1].split(", "))] < 0
        else:
            pair, total = why[len("inputs ("):].split(") sum to ")
            x_a, x_b = (int(t) for t in pair.split(", "))
            s = sum((v for k, v in table.items() if k[:2] == (x_a, x_b)), Fraction(0))
            assert s == Fraction(total) and s != 1
    ok, why = verify_nonsignalling(corr)
    if not ok:
        side, x, y, o1, o2, v1, v2 = why
        def marginal(o):
            keys = [(x, o, y, z) if side == "A" else (o, x, z, y) for z in range(N)]
            return sum((table.get(k, Fraction(0)) for k in keys), Fraction(0))
        assert (marginal(o1), marginal(o2)) == (v1, v2) and v1 != v2
    if g is not None:
        ok, why = verify_perfect_iso_strategy(corr, g, g)
        if not ok:
            from conftest import iso_game_predicate

            assert why[4] != 0 and table.get(why[:4], Fraction(0)) == why[4]
            assert not iso_game_predicate(g, g, *why[:4])


@st.composite
def _exact_tables(draw):
    """A {key: Fraction} table on N <= 4 tokens, built like ``_float_tables``,
    then perturbed: mass moved, an entry scaled, a negative entry added or
    an input pair dropped.  With ``huge`` the local rows get denominators
    near 2^61, so the common denominator overflows int64."""
    N = draw(st.integers(1, 4))
    g = None
    if N % 2 == 0:
        n = N // 2
        g = graph_from_bits(n, draw(st.integers(0, 2 ** (n * (n - 1) // 2) - 1)))
    table = {}
    if g is not None and draw(st.booleans()):
        phi = draw(st.permutations(range(n)))
        for a in range(n):
            for b in range(n):
                for key in ((a, b, phi[a] + n, phi[b] + n), (phi[a] + n, phi[b] + n, a, b),
                            (a, phi[b] + n, phi[a] + n, b), (phi[a] + n, b, a, phi[b] + n)):
                    table[key] = Fraction(1)
    else:
        huge = draw(st.booleans())
        local = []
        for _ in range(2):
            w = [draw(st.lists(st.integers(0, 3), min_size=N, max_size=N)) for _ in range(N)]
            for row in w:
                if huge:
                    row[0] += 2 ** 61 + draw(st.integers(0, 99))
                elif not any(row):
                    row[0] = 1
            local.append([[Fraction(v, sum(row)) for v in row] for row in w])
        for a, b, y, z in np.ndindex(N, N, N, N):
            if local[0][a][y] * local[1][b][z]:
                table[(a, b, y, z)] = local[0][a][y] * local[1][b][z]
    index = st.tuples(*[st.integers(0, N - 1)] * 4)
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["move", "scale", "negative", "drop"]))
        key = draw(index)
        if kind == "move" and table.get(key):
            other = key[:2] + draw(index)[2:]
            table[other] = table.get(other, Fraction(0)) + table[key] / 2
            table[key] /= 2
        elif kind == "scale" and table.get(key):
            table[key] *= draw(st.sampled_from([Fraction(3, 2), Fraction(1, 3), Fraction(0)]))
        elif kind == "negative":
            table[key] = table.get(key, Fraction(0)) - Fraction(1, draw(st.integers(1, 7)))
        elif kind == "drop":
            table = {k: v for k, v in table.items() if k[:2] != key[:2]}
    return table, N, g


class TestExactVerifiersMatchFractionLoops:
    @settings(max_examples=400, deadline=None)
    @given(case=_exact_tables(), data=st.data())
    def test_same_verdicts(self, case, data):
        table, N, g = case
        items = list(table.items())
        items = [items[i] for i in data.draw(st.permutations(range(len(items))))]
        corr = Correlation(tuple(str(i) for i in range(N)), "exact", dict(items))
        assert dict(corr.table) == table
        assert verify_distribution(corr)[0] == oracle_distribution(table, N)
        assert verify_nonsignalling(corr)[0] == oracle_nonsignalling(table, N)
        if g is not None:
            assert verify_perfect_iso_strategy(corr, g, g)[0] == oracle_perfect(table, g, g)
        _assert_real_violation(corr, table, g)

    def test_object_fallback_is_reached(self):
        w = 2 ** 61
        local = [[Fraction(w + 1, w + 3), Fraction(2, w + 3)],
                 [Fraction(w, w + 7), Fraction(7, w + 7)]]
        table = {(a, b, y, z): local[a][y] * local[b][z] for a, b, y, z in np.ndindex(2, 2, 2, 2)}
        corr = Correlation(("0", "1"), "exact", table)
        assert corr.table.data.dtype == object
        assert verify_distribution(corr)[0] and verify_nonsignalling(corr)[0]
        table[(1, 1, 0, 0)] += Fraction(1, w + 5)
        corr = Correlation(("0", "1"), "exact", table)
        assert not verify_distribution(corr)[0] and not verify_nonsignalling(corr)[0]
        _assert_real_violation(corr, table, None)


def _regular_pairs():
    from qgiso.graphs import Graph

    def circulant(n, offsets, prefix):
        adj = np.zeros((n, n), dtype=bool)
        for a in range(n):
            for o in offsets:
                adj[a, (a + o) % n] = adj[(a + o) % n, a] = True
        return Graph(tuple(f"{prefix}{i}" for i in range(n)), adj)

    yield cycle(6), two_k3()
    yield circulant(8, (1, 4), "g"), circulant(8, (2, 4), "h")  # 3-regular, 8 vertices
    yield circulant(10, (1, 2), "g"), circulant(10, (1, 3), "h")
    yield circulant(12, (1, 6), "g"), circulant(12, (3, 6), "h")


class TestBuilderMatchesSixLoops:
    def _check(self, g, h):
        cep = common_equitable_partition(g, h)
        corr = build_ns_correlation(g, h, cep)
        oracle = oracle_ns_table(g, h, cep)
        assert corr.table.data.dtype == np.int64
        assert len(corr.table) == len(oracle) and dict(corr.table) == oracle
        assert format_correlation(corr) == oracle_format_exact(corr.inputs, oracle)
        floats = Correlation(corr.inputs, "float",
                             (corr.table.coords, corr.table.data / corr.table.denominator))
        for table in (corr, floats):
            text = format_correlation(table)
            assert _parsed(parse_correlation, text) == _parsed(oracle_parse_correlation, text)
            assert parse_correlation(text).table == table.table
        n = g.n
        assert ds_rows(correlation_to_ds_witness(corr, g, h)) == [
            [oracle.get((a, a, b + n, b + n), 0) for b in range(h.n)] for a in range(n)]

    def test_regular_pairs(self):
        for g, h in _regular_pairs():
            self._check(g, h)

    def test_cep_pairs(self, rng):
        for _ in range(8):
            g, h, _ = cep_pair(rng)
            self._check(g, h)


# --- the one-pass parser against the line loop it replaced ------------------

_VALUES = ("1/8", "+1/2", "-3", "0.125", "1e-3", "0", "3/9", str(2 ** 70), f"1/{3 ** 41}")
_MUTATIONS = {  # one bad line, given N and the key of an earlier line
    "4 fields": lambda N, key: "0 0 0 0",
    "6 fields": lambda N, key: "0 0 0 0 1 1",
    "non-integer key": lambda N, key: "0 1.0 0 0 1/2",
    "key past int64": lambda N, key: f"0 0 {2 ** 64} 0 1",
    "negative key": lambda N, key: "0 0 0 -1 1",
    "key too large": lambda N, key: f"{N} 0 0 0 1",
    "zero division": lambda N, key: "0 0 0 0 1/0",
    "nan": lambda N, key: "0 0 0 0 nan",
    "repeated key": lambda N, key: " ".join(map(str, key)) + " 1/4",
}


def _parsed(parse, text, tol=1e-9):
    """The table a parser builds, or the error it raises with its line."""
    try:
        corr = parse(text, tol=tol)
    except GraphError as e:
        return type(e), str(e), getattr(e, "line", None)
    table = corr.table
    return (corr.inputs, corr.mode, table.coords.tolist(), table.data.tolist(),
            table.data.dtype, table.denominator)


@st.composite
def _correlation_files(draw):
    N, mode = draw(st.integers(1, 4)), draw(st.sampled_from(["exact", "float"]))
    keys = draw(st.lists(st.tuples(*[st.integers(0, N - 1)] * 4), unique=True, max_size=10))
    body = [" ".join(map(str, key)) + " " + draw(st.sampled_from(_VALUES)) for key in keys]
    for name in draw(st.lists(st.sampled_from(sorted(_MUTATIONS)), max_size=2)):
        at = draw(st.integers(0, len(body)))
        key = keys[draw(st.integers(0, len(keys) - 1))] if keys else (0, 0, 0, 0)
        body.insert(at, _MUTATIONS[name](N, key))
    for filler in draw(st.lists(st.sampled_from(["# a comment", "", "   ", "#0 0 0 0 1"]),
                                max_size=3)):
        body.insert(draw(st.integers(0, len(body))), filler)
    lines = [f"corr {N} {mode}", " ".join(f"t{i}" for i in range(N)), *body]
    return "\n".join(lines) + "\n"


class TestParserMatchesLineLoop:
    """Same table (coords, data, dtype, denominator), or the same error and
    line: the first bad line in file order, malformed before out of range
    before repeated on one line."""

    @settings(max_examples=600, deadline=None)
    @given(text=_correlation_files(), tol=st.sampled_from([1e-9, float("nan")]))
    def test_generated_files(self, text, tol):
        assert _parsed(parse_correlation, text, tol) == _parsed(oracle_parse_correlation, text, tol)

    @pytest.mark.parametrize("first, second", [("key too large", "6 fields"),
                                               ("6 fields", "key too large"),
                                               ("repeated key", "nan"),
                                               ("nan", "repeated key")])
    def test_first_of_two_bad_lines_is_named(self, first, second):
        bad = [_MUTATIONS[name](4, (0, 1, 2, 3)) for name in (first, second)]
        text = f"corr 4 exact\na b c d\n0 1 2 3 1/2\n{bad[0]}\n# note\n{bad[1]}\n"
        err = _parsed(parse_correlation, text)
        assert err == _parsed(oracle_parse_correlation, text) and err[2] == 4

    @pytest.mark.parametrize("N", ["55109", "060000", "9" * 5000])
    def test_token_count_past_int64_names_the_header(self, N):
        # keys are flattened to one int64 in [0, N^4); the token line is never read
        text = f"# big\ncorr {N} float\nt0\n0 0 0 0 1\n"
        assert _parsed(parse_correlation, text) == (
            ParseError, "line 2: too many tokens: N^4 must stay below 2^63", 2)
        if len(N) < 10:
            with pytest.raises(GraphError, match=r"too many tokens \(\d+\)"):
                Correlation(tuple(map(str, range(int(N)))), "float", {})

    def test_largest_token_count_is_accepted(self):
        assert len(Correlation(tuple(map(str, range(55_108))), "exact", {}).table) == 0
        text = "corr 0055108 exact\n" + " ".join(f"t{i}" for i in range(55_108)) + "\n"
        assert parse_correlation(text).size == 55_108
        for text in ("corr 0002 exact\na b\n0 0 0 0 1\n", "corr 000 float\n"):
            assert _parsed(parse_correlation, text) == _parsed(oracle_parse_correlation, text)

    @pytest.mark.parametrize("brk", ["\x85", "\u2028", "\u2029"])
    def test_breaks_past_ascii_are_counted(self, brk):
        # the row capacity counts these breaks only in a text that is not ASCII
        lines = format_correlation(ns_iso(cycle(6), two_k3())[1]).splitlines()
        want = _parsed(parse_correlation, "\n".join(lines) + "\n")
        for text in (brk.join(lines) + brk, "\n".join(lines[:300]) + brk + "\n".join(lines[300:])):
            assert _parsed(parse_correlation, text) == want

    def test_numerators_past_int64_take_the_object_path(self):
        text = f"corr 2 exact\na b\n0 0 0 0 {2 ** 70}\n0 1 0 0 1/{3 ** 41}\n"
        assert _parsed(parse_correlation, text)[4] == object
        assert _parsed(parse_correlation, text) == _parsed(oracle_parse_correlation, text)


class TestParserMatchesLineLoopInSmallChunks(TestParserMatchesLineLoop):
    """The same cases with the reader's chunks of 7 lines and text slices of
    112 characters, so that most generated files cross both."""

    @pytest.fixture(autouse=True, scope="class")
    def small_chunks(self):
        saved, correlations.CHUNK_ENTRIES = correlations.CHUNK_ENTRIES, 7
        yield
        correlations.CHUNK_ENTRIES = saved

    # hypothesis refuses one test function run from two classes
    @settings(max_examples=600, deadline=None)
    @given(text=_correlation_files(), tol=st.sampled_from([1e-9, float("nan")]))
    def test_generated_files(self, text, tol):
        assert _parsed(parse_correlation, text, tol) == _parsed(oracle_parse_correlation, text, tol)


_SPELLINGS = (  # a key k as int() reads it and a C read may not: +3, 03, 1_0, ٣
    lambda k: f"+{k}", lambda k: f"0{k}", lambda k: f"0_{k}", lambda k: f"1_{k}",
    lambda k: "".join(chr(0x660 + int(c)) for c in str(k)))
_SEPARATORS = ("\xa0", "\x1f", "\u3000")  # whitespace to str.split


@st.composite
def _respelled_files(draw):
    """Generated files with some data lines respelt: a key in another
    spelling, fields parted by other whitespace, a trailing \u3000 or a
    trailing comment, which the line loop refuses."""
    head, tokens, *body = draw(_correlation_files()).splitlines()
    for _ in range(draw(st.integers(1, 4))):
        data = [r for r, line in enumerate(body) if len(line.split(" ")) == 5]
        if not data:
            break
        r = draw(st.sampled_from(data))
        fields = body[r].split(" ")
        change = draw(st.sampled_from(["key", "gap", "trailing", "comment"]))
        if change == "key" and fields[c := draw(st.integers(0, 3))].isdigit():
            fields[c] = draw(st.sampled_from(_SPELLINGS))(int(fields[c]))
        gaps = [draw(st.sampled_from([" ", *_SEPARATORS]) if change == "gap" else st.just(" "))
                for _ in range(4)]
        body[r] = "".join(f + g for f, g in zip(fields, gaps + [""]))
        body[r] += {"trailing": "\u3000", "comment": " # note"}.get(change, "")
    return "\n".join([head, tokens, *body]) + "\n"


class TestRespelledLines:
    """Lines that ``int`` and ``str.split`` read but the C read may refuse give
    the line loop's table, or its error and line, at both chunk sizes."""

    @settings(max_examples=200, deadline=None)
    @given(text=_respelled_files(), tol=st.sampled_from([1e-9, float("nan")]))
    def test_generated_files(self, text, tol):
        expected = _parsed(oracle_parse_correlation, text, tol)
        assert _parsed(parse_correlation, text, tol) == expected
        with mock.patch.object(correlations, "CHUNK_ENTRIES", 7):
            assert _parsed(parse_correlation, text, tol) == expected

    @pytest.mark.parametrize("key", ["1_0", "\u0663"])
    def test_refused_keys_take_the_line_loop(self, key):
        text = f"corr 11 exact\n{' '.join('abcdefghijk')}\n0 0 0 0 1/2\n{key} 0 0 0 1/2\n"
        with mock.patch.object(correlations, "_read_lines", wraps=correlations._read_lines) as loop:
            assert _parsed(parse_correlation, text) == _parsed(oracle_parse_correlation, text)
        assert loop.call_count == 1
        assert dict(parse_correlation(text).table) == {(0, 0, 0, 0): Fraction(1, 2),
                                                       (int(key), 0, 0, 0): Fraction(1, 2)}

    @pytest.mark.parametrize("chunk", [1 << 16, 7])
    def test_comments_and_a_late_token_line_skip_the_line_loop(self, chunk):
        # with 7, the 20 comment lines put the header and token line in a later slice
        head, tokens, *body = format_correlation(ns_iso(cycle(6), two_k3())[1]).splitlines()
        body[5:5] = ["# a comment", "", "  "]
        text = "\r\n".join(["# note"] * 20 + [head, "", tokens, *body]) + "\r\n"
        with mock.patch.object(correlations, "CHUNK_ENTRIES", chunk), mock.patch.object(
                correlations, "_read_lines", wraps=correlations._read_lines) as loop:
            assert _parsed(parse_correlation, text) == _parsed(oracle_parse_correlation, text)
        assert loop.call_count == 0

    @pytest.mark.parametrize("mode", ["float", "exact"])
    def test_bad_tolerance_skips_the_line_loop(self, mode):
        # the C read accepts the file: only the tolerance is refused, once read
        text = f"corr 2 {mode}\n0 1\n0 0 0 0 0.5\n1 0 1 1 0.5\n"
        with pytest.raises(GraphError) as direct:
            Correlation(("0", "1"), mode, {(0, 0, 0, 0): 0.5}, tol=float("nan"))
        with mock.patch.object(correlations, "_read_lines", wraps=correlations._read_lines) as loop:
            with pytest.raises(GraphError) as parsed:
                parse_correlation(text, tol=float("nan"))
        assert str(parsed.value) == str(direct.value) == "tolerance must be a finite number >= 0, got nan"
        assert loop.call_count == 0

    @pytest.mark.parametrize("body", ["", "# only a comment\n", "\n   \n\x1f\n#0 0 0 0 1\n"])
    @pytest.mark.parametrize("chunk", [1 << 16, 7])
    def test_no_data_raises_no_warning(self, body, chunk):
        text = f"corr 2 float\na b\n{body}"
        with warnings.catch_warnings(), mock.patch.object(correlations, "CHUNK_ENTRIES", chunk):
            warnings.simplefilter("error")
            assert len(parse_correlation(text).table) == 0

    def test_slice_without_data_raises_no_warning(self, small_chunks):
        data = format_correlation(pr_box()).splitlines()
        text = "\n".join(data[:4] + ["# a comment line of forty characters .."] * 8 + data[4:])
        assert any(not [s for s in piece.splitlines() if s[:1] != "#"]
                   for piece in correlations._slices(text))  # one slice holds comments only
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert dict(parse_correlation(text).table) == dict(pr_box().table)


# --- chunked passes and sorted input ------------------------------------------

@pytest.fixture
def small_chunks(monkeypatch):
    monkeypatch.setattr(correlations, "CHUNK_ENTRIES", 7)


def _worst_losing(table, g, h):
    """The losing tuple of largest |p|, the first in key order, by the scalar rule."""
    losing = [(*k, v) for k, v in sorted(table.items()) if v and not iso_game_predicate(g, h, *k)]
    return max(losing, key=lambda t: abs(t[4]), default=None)


class TestChunkBoundaries:
    """Every pass over a table works CHUNK_ENTRIES entries at a time; with 7,
    the C6 / 2K3 table (2,016 entries) spans 288 chunks."""

    def test_build_write_read_match_the_loop_oracles(self, small_chunks):
        TestBuilderMatchesSixLoops()._check(cycle(6), two_k3())

    def test_writer_skips_zeros_across_chunks(self, small_chunks):
        corr = ns_iso(cycle(6), two_k3())[1]
        numerators = corr.table.data.copy()
        numerators[[3, 9, 10, 30]] = 0
        zeroed = Correlation(corr.inputs, "exact", (corr.table.coords, numerators, 36))
        table = dict(zeroed.table)
        assert format_correlation(zeroed) == oracle_format_exact(corr.inputs, table)
        assert dict(parse_correlation(format_correlation(zeroed)).table) == {
            k: v for k, v in table.items() if v}

    @pytest.mark.parametrize("name", sorted(_MUTATIONS))
    def test_bad_line_in_the_second_chunk(self, small_chunks, name):
        lines = format_correlation(ns_iso(cycle(6), two_k3())[1]).splitlines()
        # data line 11 (file line 13) is the fourth of the second chunk; a
        # repeated key repeats line 5's, in the first chunk
        lines[12] = _MUTATIONS[name](12, tuple(map(int, lines[4].split()[:4])))
        text = "\n".join(lines) + "\n"
        err = _parsed(parse_correlation, text)
        assert err == _parsed(oracle_parse_correlation, text) and err[2] == 13

    @pytest.mark.parametrize("first, second", [("key past int64", "6 fields"),
                                               ("6 fields", "key past int64"),
                                               ("key past int64", "repeated key")])
    def test_first_bad_line_across_chunks(self, small_chunks, first, second):
        # a key past int64 fails when its chunk is stored, after later lines
        # of the same chunk were read
        lines = format_correlation(ns_iso(cycle(6), two_k3())[1]).splitlines()
        lines[12] = _MUTATIONS[first](12, tuple(map(int, lines[4].split()[:4])))
        lines[20] = _MUTATIONS[second](12, tuple(map(int, lines[4].split()[:4])))
        text = "\n".join(lines) + "\n"
        err = _parsed(parse_correlation, text)
        assert err == _parsed(oracle_parse_correlation, text) and err[2] == 13

    @pytest.mark.parametrize("brk", ["\r", "\r\n", "\v", "\f", "\x1c", "\x85", "\u2028"])
    def test_every_line_break_of_splitlines(self, small_chunks, brk):
        # each slice ends at a break and holds 16 CHUNK_ENTRIES characters plus
        # at most one line; the table and a bad line's number are the "\n" file's
        lines = format_correlation(ns_iso(cycle(6), two_k3())[1]).splitlines()
        for each in (lines, lines[:300] + ["0 0 0 0 x"] + lines[301:]):
            text = brk.join(each) + brk
            pieces = list(correlations._slices(text))
            assert "".join(pieces) == text and all(piece.endswith(brk) for piece in pieces)
            assert max(map(len, pieces)) <= 16 * 7 + max(map(len, each)) + len(brk)
            got = _parsed(parse_correlation, text)
            assert got == _parsed(oracle_parse_correlation, text)
            assert got == _parsed(parse_correlation, "\n".join(each) + "\n")
        assert got[1].startswith("line 301: malformed") and got[2] == 301
        assert len(parse_correlation(brk.join(lines) + brk).table) == 2016

    def test_key_repeated_across_two_chunks(self, small_chunks):
        lines = format_correlation(ns_iso(cycle(6), two_k3())[1]).splitlines()
        text = "\n".join(lines[:20] + lines[4:5] + lines[20:]) + "\n"
        err = _parsed(parse_correlation, text)
        assert err == _parsed(oracle_parse_correlation, text)
        assert err[1].startswith("line 21: repeated index") and err[2] == 21

    @pytest.mark.parametrize("later", [Fraction(1, 4), Fraction(1, 3)], ids=["tie", "larger"])
    def test_worst_losing_tuple_across_chunks(self, small_chunks, later):
        g, h = cycle(6), two_k3()
        table = dict(ns_iso(g, h)[1].table)
        losing = [k for k in np.ndindex((12,) * 4)
                  if k not in table and not iso_game_predicate(g, h, *k)]
        table[losing[40]], table[losing[500]] = Fraction(-1, 4), later
        table[losing[41]] = Fraction(1, 5)
        corr = Correlation(iso_game_tokens(g, h), "exact", table)
        rows = np.searchsorted(corr.table.index, [np.ravel_multi_index(losing[i], (12,) * 4)
                                                  for i in (40, 500)])
        assert rows[0] // 7 != rows[1] // 7  # the two largest lie in different chunks
        got = verify_perfect_iso_strategy(corr, g, h)
        assert got == (False, _worst_losing(table, g, h)) and not oracle_perfect(table, g, h)
        assert got[1][:4] == (losing[40] if later == Fraction(1, 4) else losing[500])

    def test_verifiers_match_the_loop_oracles(self, small_chunks):
        g, h = cycle(6), two_k3()
        table = dict(ns_iso(g, h)[1].table)
        key = sorted(table)[100]
        for change in (Fraction(0), Fraction(1, 7), -table[key]):
            changed = {**table, key: table[key] + change}
            corr = Correlation(iso_game_tokens(g, h), "exact", changed)
            assert dict(corr.table) == changed
            assert verify_distribution(corr)[0] == oracle_distribution(changed, 12)
            assert verify_nonsignalling(corr)[0] == oracle_nonsignalling(changed, 12)
            assert verify_perfect_iso_strategy(corr, g, h)[0] == oracle_perfect(changed, g, h)
            _assert_real_violation(corr, changed, None)


class TestSortedAndUnsortedKeys:
    """Keys that come sorted are stored as given, others sorted once; a
    repeated key is refused either way."""

    @pytest.mark.parametrize("mode", ["exact", "float"])
    @pytest.mark.parametrize("rows", [[*range(4), 3, *range(4, 30)], [*range(30), 3]],
                             ids=["adjacent in sorted keys", "unsorted"])
    def test_repeated_key_is_refused(self, mode, rows):
        keys = np.indices((5,) * 4).reshape(4, -1).T[::4][rows]
        values = (np.ones(len(rows), int), 7) if mode == "exact" else (np.ones(len(rows)) / 7,)
        with pytest.raises(GraphError, match="repeats a key"):
            Correlation(tuple(map(str, range(5))), mode, (keys, *values))

    def test_stored_arrays_are_read_only(self):
        keys = np.indices((5,) * 4).reshape(4, -1).T[::4]
        given = Correlation(tuple(map(str, range(5))), "exact", (keys, np.ones(len(keys), int), 7))
        assert keys.flags.writeable  # the caller's array is not frozen
        for table in (given.table, ns_iso(cycle(6), two_k3())[1].table,
                      parse_correlation(format_correlation(pr_box())).table):
            for field in ("coords", "data", "index"):
                array = getattr(table, field)
                assert not array.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = array[0]
