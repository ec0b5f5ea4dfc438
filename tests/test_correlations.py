from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    cep_pair,
    cycle,
    graph_from_bits,
    oracle_distribution,
    oracle_format_exact,
    oracle_nonsignalling,
    oracle_ns_table,
    oracle_perfect,
    path,
    star,
    two_k3,
)
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
from qgiso.equitable import common_equitable_partition, verify_ds_witness
from qgiso.graphs import GraphError, find_isomorphism


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
        n = g.n
        assert correlation_to_ds_witness(corr, g, h) == [
            [oracle.get((a, a, b + n, b + n), 0) for b in range(h.n)] for a in range(n)]

    def test_regular_pairs(self):
        for g, h in _regular_pairs():
            self._check(g, h)

    def test_cep_pairs(self, rng):
        for _ in range(8):
            g, h, _ = cep_pair(rng)
            self._check(g, h)
