from fractions import Fraction

import numpy as np
import pytest

from conftest import cep_pair, cycle, path, star, two_k3
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
        assert np.allclose(back.table, dense)


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
