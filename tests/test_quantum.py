import dataclasses
import hashlib
import json
import random
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (PENTAGRAM, classical_bcs_strategy, classical_certificate, complete, cycle,
                      oracle_block_components, oracle_blocks_from_json, oracle_observable_strategy,
                      oracle_ppm, oracle_qiso_certificate,
                      pentagram_observables, permuted_copy, random_graph, rel)
from qgiso import bcs as bcsmod
from qgiso import quantum as qmod
from qgiso.bcs import (
    LinBCS,
    bcs_graph,
    homogenize,
    magic_square,
    parse_bcs,
    solve_or_refute,
)
from qgiso.correlations import Correlation, verify_nonsignalling, verify_perfect_iso_strategy
from qgiso.cli import main
from qgiso.graphs import GraphError, find_isomorphism, format_graph, from_edges
from qgiso.quantum import (
    BCSQuantumStrategy,
    ProjectivePacking,
    QuantumIsoCertificate,
    certificate_correlation,
    certificate_from_json,
    certificate_to_json,
    magic_square_observables,
    mermin_bcs_strategy,
    observable_strategy,
    packing_from_json,
    packing_to_json,
    quantum_reduction_report,
    strategy_packing,
    strategy_to_certificate,
    verify_bcs_strategy,
    verify_certificate_correlation,
    verify_packing,
    verify_ppm,
    verify_qiso_certificate,
)


@pytest.fixture(scope="module")
def mermin():
    bcs = magic_square()
    strat = mermin_bcs_strategy()
    bg, bg0, cert = strategy_to_certificate(bcs, strat)
    return bcs, strat, bg, bg0, cert


@pytest.fixture(scope="module")
def pentagram():
    strat = observable_strategy(PENTAGRAM, pentagram_observables())
    bg, bg0, cert = strategy_to_certificate(PENTAGRAM, strat)
    return PENTAGRAM, strat, bg, bg0, cert


class TestVerifyPpm:
    def test_permutation_matrix_d1(self):
        perm = np.zeros((3, 3, 1, 1))
        for i, j in enumerate([2, 0, 1]):
            perm[i, j, 0, 0] = 1.0
        assert verify_ppm(QuantumIsoCertificate(1, perm))["ok"]

    def test_diagonal_blocks(self):
        d0, d1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
        blocks = np.array([[d0, d1], [d1, d0]])
        report = verify_ppm(QuantumIsoCertificate(2, blocks))
        assert report["ok"] and report["consistent"]

    def test_all_identity_blocks_fail(self):
        blocks = np.array([[np.eye(2)] * 2] * 2)
        report = verify_ppm(QuantumIsoCertificate(2, blocks))
        assert not report["ok"] and report["residuals"]["row_sum"] > 0.5

    def test_non_projector_block_fails(self):
        blocks = np.zeros((1, 1, 2, 2), dtype=complex)
        blocks[0, 0] = [[0.5, 0], [0, 0.5]]
        assert not verify_ppm(QuantumIsoCertificate(2, blocks))["ok"]

    def test_non_square_grid_raises(self):
        with pytest.raises(GraphError, match="square"):
            verify_ppm(QuantumIsoCertificate(1, np.zeros((2, 3, 1, 1))))

    @pytest.mark.parametrize("blocks, message", [
        (np.zeros((2, 2, 1)), "expected an n x m array of square blocks"),
        (np.zeros((1, 1, 65, 65)), "block dimension 65 exceeds cap 64"),
    ], ids=["three-axes", "d=65"])
    def test_block_shape_refusals(self, blocks, message):
        with pytest.raises(GraphError, match=message):
            QuantumIsoCertificate(blocks.shape[-1], blocks)

    def test_certificate_refuses_blocks_of_another_dimension(self):
        with pytest.raises(GraphError, match="block dimension does not match d"):
            QuantumIsoCertificate(3, np.zeros((2, 2, 4, 4)))

    def test_block_components_match_row_column_loop(self, monkeypatch):
        # unitarity takes one product per component of the block support:
        # rows are kernel nodes 0..n-1, columns n..2n-1
        seen = []
        kernel = qmod._component_labels

        def spy(a, b, nodes):
            seen.append(kernel(a, b, nodes))
            return seen[-1]

        monkeypatch.setattr(qmod, "_component_labels", spy)
        rng = np.random.default_rng(27)
        for _ in range(300):
            n, d = int(rng.integers(1, 10)), int(rng.integers(1, 3))
            mask = rng.random((n, n)) < rng.uniform(0.0, 0.5)
            mask[int(rng.integers(n))] = False  # an empty row
            mask[:, int(rng.integers(n))] = False  # and an empty column
            blocks = mask[:, :, None, None] * (rng.normal(size=(n, n, d, d))
                                               + 1j * rng.normal(size=(n, n, d, d)))
            cert = QuantumIsoCertificate(d, blocks)
            _assert_matches_oracle(verify_ppm(cert), oracle_ppm(blocks))
            row_label, col_label = oracle_block_components(*np.nonzero(mask), n)
            label = seen.pop()
            assert label.tolist()[:n] == row_label.tolist()
            occupied = mask.any(axis=0)
            assert label[n:][occupied].tolist() == col_label[occupied].tolist()
            assert (label[n:][~occupied] >= n).all()


class TestSumResidual:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_add_at_oracle(self, seed):
        # groups in random order, some empty, and a NaN in one op (odd seeds)
        rng = np.random.default_rng(seed)
        k, count, d = int(rng.integers(0, 30)), int(rng.integers(1, 8)), int(rng.integers(1, 5))
        ops = rng.normal(size=(k, d, d)) + 1j * rng.normal(size=(k, d, d))
        if seed % 2 and k:
            ops[int(rng.integers(k)), 0, 0] = np.nan
        group = rng.integers(0, count, size=k)
        sums = np.zeros((count, d, d), dtype=complex)
        np.add.at(sums, group, ops)
        want = float(np.linalg.norm(sums - np.eye(d), axis=(-2, -1)).max())
        got = qmod._sum_residual(ops, group, count)
        assert got == want or np.isnan(got) and np.isnan(want)
        assert np.isnan(got) == bool(seed % 2 and k)

    def test_empty_group_reads_sqrt_d(self):
        assert qmod._sum_residual(np.zeros((0, 3, 3)), [], 2) == np.sqrt(3)


def _assert_matches_oracle(report, oracle):
    assert (report["ok"], report["consistent"]) == (oracle["ok"], oracle["consistent"])
    assert report["residuals"].keys() == oracle["residuals"].keys()
    for key, expected in oracle["residuals"].items():
        got = report["residuals"][key]
        if expected == 0.0 or not np.isfinite(expected):
            assert got == expected or np.isnan(got) and np.isnan(expected), key
        else:
            assert abs(got - expected) <= 1e-12 * max(1.0, abs(expected)), key


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestBlockwiseChecksMatchDenseOracle:
    """The blockwise checks against the (n d) x (n d) dense ones they
    replaced, on valid, perturbed and non-finite certificates."""

    @staticmethod
    def check(g, h, d, blocks):
        cert = QuantumIsoCertificate(d, blocks)
        _assert_matches_oracle(verify_qiso_certificate(g, h, cert),
                               oracle_qiso_certificate(g, h, cert))
        _assert_matches_oracle(verify_ppm(cert), oracle_ppm(blocks))

    @staticmethod
    def variants(blocks, trials, seed):
        """The blocks, then single-entry perturbations (the first on a zero
        block), non-finite entries on a non-zero and on a zero block, and a
        block row of zeros."""
        rng = np.random.default_rng(seed)
        yield blocks
        zero_block = tuple(np.argwhere(~np.any(blocks, axis=(2, 3)))[0])
        for t in range(trials):
            out = blocks.copy()
            idx = tuple(int(rng.integers(0, s)) for s in blocks.shape)
            if t == 0:
                idx = zero_block + idx[2:]
            out[idx] += rng.uniform(1e-3, 1.0) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
            yield out
        for value in (np.nan, np.inf, complex(-np.inf, 1.0)):
            for block in ((0, 0), zero_block):
                out = blocks.copy()
                out[block][0, 0] = value
                yield out
        out = blocks.copy()
        out[3] = 0
        yield out

    @pytest.mark.parametrize("system, trials", [("mermin", 40), ("pentagram", 12)])
    def test_bcs_certificates(self, request, system, trials):
        _, _, bg, bg0, cert = request.getfixturevalue(system)
        for blocks in self.variants(cert.blocks, trials, seed=8):
            self.check(bg.graph, bg0.graph, cert.d, blocks)

    def test_classical_certificates(self, rng):
        for _ in range(10):
            g = random_graph(7, 0.4, rng)
            h = permuted_copy(g, rng)
            cert = classical_certificate(g, h, find_isomorphism(g, h))
            for blocks in self.variants(cert.blocks, 5, seed=rng.randrange(1 << 30)):
                self.check(g, h, 1, blocks)


def test_verify_ppm_is_the_reports_check(monkeypatch, mermin, pentagram, rng):
    """On the built certificates and 200 perturbed copies, each moved in one
    block entry as perfbench's cli-verify certificates are, verify_ppm
    matches the dense oracle, and verify_qiso_certificate calls it and
    reports its residuals."""
    g = random_graph(7, 0.4, rng)
    h = permuted_copy(g, rng)
    pairs = [(bg.graph, bg0.graph, cert) for _, _, bg, bg0, cert in (mermin, pentagram)]
    pairs.append((g, h, classical_certificate(g, h, find_isomorphism(g, h))))
    calls = []

    def spy(cert, *args):
        calls.append(cert)
        return verify_ppm(cert, *args)

    monkeypatch.setattr(qmod, "verify_ppm", spy)
    perturb = np.random.default_rng(29)
    for t in range(len(pairs) + 200):
        g, h, cert = pairs[t % len(pairs)]
        if t >= len(pairs):
            blocks = cert.blocks.copy()
            idx = tuple(int(perturb.integers(s)) for s in blocks.shape)
            blocks[idx] += perturb.uniform(1e-3, 1.0) * np.exp(1j * perturb.uniform(0, 2 * np.pi))
            cert = QuantumIsoCertificate(cert.d, blocks)
        ppm = verify_ppm(cert)
        _assert_matches_oracle(ppm, oracle_ppm(cert.blocks))
        assert ppm["ok"] == (t < len(pairs))
        report = verify_qiso_certificate(g, h, cert)
        assert calls == [cert] and report["ok"] == ppm["ok"]
        assert {key: report["residuals"][key] for key in ppm["residuals"]} == ppm["residuals"]
        calls.clear()


class TestVerifyCertificate:
    def test_classical_certificate_accepted(self, rng):
        g = random_graph(6, 0.5, rng)
        h = permuted_copy(g, rng)
        phi = find_isomorphism(g, h)
        cert = classical_certificate(g, h, phi)
        report = verify_qiso_certificate(g, h, cert)
        assert report["ok"] and report["consistent"]
        assert max(report["residuals"].values()) == 0.0

    def test_flipped_entry_rejected(self, rng):
        g = random_graph(6, 0.5, rng)
        h = permuted_copy(g, rng)
        blocks = classical_certificate(g, h, find_isomorphism(g, h)).blocks.copy()
        blocks[0, (int(np.argmax(blocks[0])) + 1) % g.n] = 1.0
        assert not verify_qiso_certificate(g, h, QuantumIsoCertificate(1, blocks))["ok"]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_rejected_whatever_residual_carries_it(self, monkeypatch, mermin):
        # with the projector residuals forced finite, the NaN of a block shows
        # only in later residuals; Python's max(0.0, nan) would drop it
        _, _, bg, bg0, cert = mermin
        blocks = cert.blocks.copy()
        blocks[0, 0, 0, 0] = np.nan
        monkeypatch.setattr(qmod, "projector_residuals", lambda a: (0.0, 0.0))
        nan_cert = QuantumIsoCertificate(4, blocks)
        assert not verify_ppm(nan_cert)["ok"]
        report = verify_qiso_certificate(bg.graph, bg0.graph, nan_cert)
        assert not report["ok"] and np.isnan(report["residuals"]["row_sum"])

    def test_size_mismatch(self):
        cert = QuantumIsoCertificate(1, np.zeros((3, 3, 1, 1)))
        report = verify_qiso_certificate(cycle(3), cycle(4), cert)
        assert not report["ok"]

    def test_mermin_certificate_tiny_residuals(self, mermin):
        _, _, bg, bg0, cert = mermin
        report = verify_qiso_certificate(bg.graph, bg0.graph, cert)
        assert report["ok"] and report["consistent"]
        assert max(report["residuals"].values()) <= 1e-12

    @pytest.mark.parametrize("fixture", ["mermin", "pentagram"])
    def test_rotated_certificate_accepted(self, request, fixture):
        # a unitary change of basis keeps a certificate valid and its entries
        # no longer dyadic: orthogonality must stay at rounding level, which
        # ||AB||^2 = tr(A^dag A B B^dag) would turn into ~1e-8
        _, _, bg, bg0, cert = request.getfixturevalue(fixture)
        report = verify_qiso_certificate(bg.graph, bg0.graph,
                                         QuantumIsoCertificate(cert.d, rotated(cert.blocks)))
        assert report["ok"] and report["consistent"]
        assert report["residuals"]["orthogonality"] <= 1e-14

    @pytest.mark.parametrize("fixture", ["mermin", "pentagram"])
    def test_chunked_products_equal_unchunked(self, monkeypatch, request, fixture):
        _, strat, bg, bg0, cert = request.getfixturevalue(fixture)
        rotated_cert = QuantumIsoCertificate(cert.d, rotated(cert.blocks))
        packing = ProjectivePacking(cert.d, rotated(strategy_packing(strat, bg).blocks))

        def residuals():
            return (verify_qiso_certificate(bg.graph, bg0.graph, rotated_cert)["residuals"],
                    verify_packing(bg.graph, packing)["residuals"])

        whole = residuals()
        assert whole[0]["orthogonality"] > 0 and whole[1]["orthogonality"] > 0
        monkeypatch.setattr(qmod, "PRODUCT_CHUNK_BYTES", 1)  # one pair per chunk
        assert residuals() == whole


def rotated(blocks):
    """The (..., d, d) blocks, each conjugated by one seeded random unitary."""
    d = blocks.shape[-1]
    rng = np.random.default_rng(1)
    u = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]
    return u @ blocks @ u.conj().T


class TestCertificateCorrelation:
    def test_synchronous(self, mermin):
        _, _, bg, bg0, cert = mermin
        corr = certificate_correlation(cert, bg.graph, bg0.graph)
        N = 48
        for x in range(0, N, 7):
            for y1 in range(0, N, 5):
                for y2 in range(0, N, 5):
                    if y1 != y2:
                        assert corr.get(x, x, y1, y2) <= 1e-12

    def test_rank_one_diagonal_value(self, mermin):
        _, _, bg, bg0, cert = mermin
        corr = certificate_correlation(cert, bg.graph, bg0.graph)
        # every nonzero block is a rank-1 projector in dimension 4
        i, j = next(
            (a, b) for a in range(24) for b in range(24) if np.any(cert.blocks[a, b])
        )
        assert corr.get(i, 24 + j, 24 + j, i) == pytest.approx(0.25)
        assert corr.get(i, i, 24 + j, 24 + j) == pytest.approx(0.25)

    def test_d1_reproduces_deterministic_strategy(self, rng):
        g = random_graph(5, 0.5, rng)
        h = permuted_copy(g, rng)
        phi = find_isomorphism(g, h)
        cert = classical_certificate(g, h, phi)
        corr = certificate_correlation(cert, g, h)
        for a in range(g.n):
            for b in range(g.n):
                assert corr.get(a, b, phi(a) + g.n, phi(b) + g.n) == pytest.approx(1.0)

    def test_passes_game_verifiers(self, mermin):
        _, _, bg, bg0, cert = mermin
        corr = certificate_correlation(cert, bg.graph, bg0.graph, tol=1e-8)
        assert verify_nonsignalling(corr)[0]
        assert verify_perfect_iso_strategy(corr, bg.graph, bg0.graph)[0]

    def test_homomorphism_restriction(self, mermin):
        # restricted to questions from the first graph, adjacency must map
        # to adjacency whenever the answer probability is positive
        _, _, bg, bg0, cert = mermin
        corr = certificate_correlation(cert, bg.graph, bg0.graph)
        g, h = bg.graph, bg0.graph
        positive = corr.table.coords[corr.table.data > 1e-8].tolist()
        for ga, gb, ha, hb in positive:
            if ga < 24 and gb < 24 and ha >= 24 and hb >= 24 and g.adj[ga, gb]:
                assert h.adj[ha - 24, hb - 24]


    def test_matches_dense_einsum(self, mermin):
        _, _, bg, bg0, cert = mermin
        corr = certificate_correlation(cert, bg.graph, bg0.graph)
        n, N, d = 24, 48, cert.d
        ext = np.zeros((N, N, d, d), dtype=complex)
        ext[:n, n:] = cert.blocks
        ext[n:, :n] = cert.blocks.transpose(1, 0, 2, 3)
        dense = (np.einsum("XYij,ABji->XAYB", ext, ext) / d).real
        assert np.array_equal(corr.table.coords, np.argwhere(dense != 0))
        assert np.array_equal(corr.table.data, dense[dense != 0])

    def test_pentagram_entries_lie_on_nonzero_blocks(self):
        system = PENTAGRAM
        strat = observable_strategy(system, pentagram_observables())
        assert strat.d == 8 and verify_bcs_strategy(system, strat)["ok"]
        bg, bg0, cert = strategy_to_certificate(system, strat)
        g, h = bg.graph, bg0.graph
        corr = certificate_correlation(cert, g, h)
        assert len(corr.table.coords) == 174_080
        nonzero = np.any(cert.blocks != 0, axis=(2, 3))
        n = g.n
        for x_a, x_b, y_a, y_b in corr.table.coords.tolist():
            for q, a in ((x_a, y_a), (x_b, y_b)):
                assert (q < n) != (a < n)
                assert nonzero[min(q, a), max(q, a) - n]
        assert verify_perfect_iso_strategy(corr, g, h)[0]
        assert verify_nonsignalling(corr)[0]


def _outcome(check, *args):
    """The value a check returns, or the type and message of what it raises."""
    try:
        return check(*args)
    except (AssertionError, GraphError) as exc:
        return type(exc), str(exc)


def _table_marginal(corr, side, x, y, x_other):
    """One player's marginal p(y | x, x_other) summed from the table's entries."""
    keys, data = corr.table.coords, corr.table.data
    own, answer, other = (0, 2, 1) if side == "A" else (1, 3, 0)
    hit = (keys[:, own] == x) & (keys[:, answer] == y) & (keys[:, other] == x_other)
    return float(data[hit].sum())


def assert_matches_table(cert, g, h, tol=1e-9):
    """verify_certificate_correlation against the generic verifiers on
    certificate_correlation's table: the same verdicts, and each violation
    one the table confirms."""
    result = _outcome(verify_certificate_correlation, cert, g, h, tol)
    corr = _outcome(certificate_correlation, cert, g, h, tol)
    if not isinstance(corr, Correlation):
        assert result == corr
        return result
    (ns_ok, ns_violation), (perfect_ok, losing) = result
    oracle_ns, oracle_perfect = verify_nonsignalling(corr), verify_perfect_iso_strategy(corr, g, h)
    assert (ns_ok, perfect_ok) == (oracle_ns[0], oracle_perfect[0])
    if not ns_ok:
        side, x, y, lo, hi, v_lo, v_hi = ns_violation
        assert side == oracle_ns[1][0]
        assert abs(_table_marginal(corr, side, x, y, lo) - v_lo) <= 1e-12
        assert abs(_table_marginal(corr, side, x, y, hi) - v_hi) <= 1e-12
        # the row of largest spread, up to rounding of the sums
        worst = oracle_ns[1][6] - oracle_ns[1][5]
        assert worst - 1e-12 <= v_hi - v_lo and v_hi - v_lo > tol
    if not perfect_ok:
        assert losing[:4] == oracle_perfect[1][:4]
        assert abs(corr.get(*losing[:4]) - losing[4]) <= 1e-12 and abs(losing[4]) > tol
    return result


def _hermitian(rng, d, size):
    x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return size * (x + x.conj().T) / 2


class TestVerifyCertificateCorrelation:
    @pytest.mark.parametrize("fixture", ["mermin", "pentagram"])
    def test_built_certificates_pass(self, request, fixture):
        _, _, bg, bg0, cert = request.getfixturevalue(fixture)
        result = assert_matches_table(cert, bg.graph, bg0.graph, tol=1e-8)
        assert result == ((True, None), (True, None))

    @pytest.mark.parametrize("seed", range(4))
    def test_classical_certificates(self, seed):
        rng = random.Random(seed)
        g = random_graph(7, 0.5, rng)
        h = permuted_copy(g, rng)
        phi = find_isomorphism(g, h)
        assert assert_matches_table(classical_certificate(g, h, phi), g, h) == (
            (True, None), (True, None))
        # a bijection that is not an isomorphism: deterministic, so non-signalling,
        # but losing with probability 1 on many tied tuples
        wrong = classical_certificate(g, h, lambda v: phi((v + 1) % g.n))
        (ns_ok, _), (perfect_ok, losing) = assert_matches_table(wrong, g, h)
        assert ns_ok and not perfect_ok and losing[4] == 1.0

    def test_all_zero_certificate_and_empty_graphs(self):
        zero = QuantumIsoCertificate(2, np.zeros((5, 5, 2, 2)))
        assert assert_matches_table(zero, cycle(5), cycle(5)) == ((True, None), (True, None))
        none = from_edges([], [])
        empty_cert = QuantumIsoCertificate(1, np.zeros((0, 0, 1, 1)))
        assert assert_matches_table(empty_cert, none, none) == ((True, None), (True, None))

    @pytest.mark.parametrize("size", [1e-9, 1e-7, 1e-5, 1e-3, 1e-1, 1.0])
    @pytest.mark.parametrize("fixture", ["mermin", "pentagram"])
    def test_hermitian_perturbations(self, request, fixture, size):
        _, _, bg, bg0, cert = request.getfixturevalue(fixture)
        rng = np.random.default_rng(int(-np.log10(size)) + 17 * len(fixture))
        for _ in range(4):
            blocks = cert.blocks.copy()
            nz = np.argwhere(np.any(blocks != 0, axis=(2, 3)))
            zero = np.argwhere(~np.any(blocks != 0, axis=(2, 3)))
            for i, j in rng.permutation(np.concatenate([nz[:2], zero[:1]]))[:rng.integers(1, 4)]:
                blocks[i, j] += _hermitian(rng, cert.d, size)
            assert_matches_table(QuantumIsoCertificate(cert.d, blocks), bg.graph, bg0.graph)

    @pytest.mark.parametrize("fixture", ["mermin", "pentagram"])
    def test_zeroed_block_and_swapped_rows(self, request, fixture):
        _, _, bg, bg0, cert = request.getfixturevalue(fixture)
        i, j = np.argwhere(np.any(cert.blocks != 0, axis=(2, 3)))[5]
        zeroed = cert.blocks.copy()
        zeroed[i, j] = 0
        (ns_ok, _), _ = assert_matches_table(QuantumIsoCertificate(cert.d, zeroed),
                                             bg.graph, bg0.graph)
        assert not ns_ok
        swapped = cert.blocks.copy()
        swapped[[0, 7]] = swapped[[7, 0]]
        assert_matches_table(QuantumIsoCertificate(cert.d, swapped), bg.graph, bg0.graph)

    def test_bob_side_on_an_asymmetric_trace_matrix(self, monkeypatch, mermin):
        # tr(AB) = tr(BA) makes T symmetric for every certificate, so only a
        # patched T, fed to both paths, reaches Bob's side alone: raising the
        # rows of every block equal to block 3 by the same amount everywhere
        # shifts Alice's marginals of those rows evenly (every question has
        # four blocks), but moves Bob's at the questions of those blocks only
        _, _, bg, bg0, cert = mermin
        traces = qmod._trace_matrix
        block3 = cert.blocks[tuple(np.argwhere(np.any(cert.blocks != 0, axis=(2, 3)))[3])]

        def skewed(blocks, *args):
            T = traces(blocks, *args).copy()
            T[np.all(blocks == block3, axis=(1, 2))] += 0.01
            return T

        monkeypatch.setattr(qmod, "_trace_matrix", skewed)
        (ns_ok, violation), _ = assert_matches_table(cert, bg.graph, bg0.graph)
        assert not ns_ok and violation[0] == "B"

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf + 1j, 1e-3j])
    @pytest.mark.parametrize("on_zero_block", [False, True])
    def test_bad_entries_raise_as_the_table_does(self, mermin, value, on_zero_block):
        _, _, bg, bg0, cert = mermin
        i, j = np.argwhere(np.any(cert.blocks != 0, axis=(2, 3)) != on_zero_block)[0]
        blocks = cert.blocks.copy()
        blocks[i, j, 1, 1] += value
        result = assert_matches_table(QuantumIsoCertificate(cert.d, blocks), bg.graph, bg0.graph)
        assert result[0] in (AssertionError, GraphError)

    @pytest.mark.parametrize("n", [20, 25])
    def test_certificate_on_the_wrong_graphs(self, mermin, n):
        cert = mermin[4]
        for check in (certificate_correlation, verify_certificate_correlation):
            with pytest.raises(GraphError, match="certificate block grid does not match"):
                check(cert, cycle(n), cycle(n))

    def test_report_builds_no_table(self, monkeypatch, mermin, pentagram):
        def refuse(*args, **kwargs):
            raise AssertionError("the report built the correlation table")

        monkeypatch.setattr(qmod, "certificate_correlation", refuse)
        for bcs, strat, *_ in (mermin, pentagram):
            report = quantum_reduction_report(bcs, strat)
            assert report["ok"]
            assert report["correlation_nonsignalling"] and report["correlation_perfect"]


@pytest.mark.parametrize("tol", [np.nan, np.inf, -1.0])
@pytest.mark.parametrize("check", [
    lambda bcs, strat, bg, bg0, cert, tol: verify_ppm(cert, tol),
    lambda bcs, strat, bg, bg0, cert, tol: verify_qiso_certificate(bg.graph, bg0.graph, cert, tol),
    lambda bcs, strat, bg, bg0, cert, tol: certificate_correlation(cert, bg.graph, bg0.graph, tol),
    lambda bcs, strat, bg, bg0, cert, tol: verify_certificate_correlation(cert, bg.graph,
                                                                          bg0.graph, tol),
    lambda bcs, strat, bg, bg0, cert, tol: verify_packing(bg.graph, strategy_packing(strat, bg),
                                                          tol),
    lambda bcs, strat, bg, bg0, cert, tol: verify_bcs_strategy(bcs, strat, tol),
    lambda bcs, strat, bg, bg0, cert, tol: quantum_reduction_report(bcs, strat, tol),
], ids=["verify_ppm", "verify_qiso_certificate", "certificate_correlation",
        "verify_certificate_correlation", "verify_packing", "verify_bcs_strategy",
        "quantum_reduction_report"])
def test_public_entry_points_refuse_a_bad_tolerance(mermin, check, tol):
    # against a NaN or infinite tol every `residual > tol` is False: the
    # certificate with block row 0 zeroed passed verify_qiso_certificate and
    # the correlation check
    bcs, strat, bg, bg0, cert = mermin
    blocks = cert.blocks.copy()
    blocks[0] = 0
    broken = QuantumIsoCertificate(cert.d, blocks)
    assert not verify_qiso_certificate(bg.graph, bg0.graph, broken)["ok"]
    with pytest.raises(GraphError, match="tolerance must be a finite number >= 0"):
        check(bcs, strat, bg, bg0, broken, tol)


def _trace_rows(monkeypatch, g, h, cert):
    """The row counts of the trace products that verify_certificate_correlation
    takes on the certificate, after the row count of the stack whose products
    verify_qiso_certificate takes."""
    rows = []
    pair_traces, product_norm = qmod._pair_traces, qmod._product_norm

    def recording(a, b):
        rows.append((len(a), len(b)))
        return pair_traces(a, b)

    def recording_products(a, i, j):
        rows.append(len(a))
        return product_norm(a, i, j)

    with monkeypatch.context() as m:
        m.setattr(qmod, "_pair_traces", recording)
        m.setattr(qmod, "_product_norm", recording_products)
        verify_qiso_certificate(g, h, cert)
        _outcome(verify_certificate_correlation, cert, g, h)
    return rows


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestDistinctBlocks:
    """Both certificate checks take their pair products over the distinct
    non-zero blocks only, blocks being equal when every byte is; each case
    is checked against the dense oracles and the table path."""

    @pytest.mark.parametrize("fixture, distinct", [("mermin", 24), ("pentagram", 40)])
    def test_trace_products_have_one_row_per_distinct_block(self, monkeypatch, request,
                                                            fixture, distinct):
        _, _, bg, bg0, cert = request.getfixturevalue(fixture)
        rows = _trace_rows(monkeypatch, bg.graph, bg0.graph, cert)
        assert rows == [distinct, (distinct, distinct)]

    @staticmethod
    def check(monkeypatch, g, h, d, blocks, distinct):
        """Both checks against their references; returns the trace rows."""
        TestBlockwiseChecksMatchDenseOracle.check(g, h, d, blocks)
        cert = QuantumIsoCertificate(d, blocks)
        assert_matches_table(cert, g, h)
        rows = _trace_rows(monkeypatch, g, h, cert)
        assert rows[:2] == [distinct, (distinct, distinct)]
        return rows

    @staticmethod
    def copies(cert):
        """The first two non-zero blocks of the certificate with the same bytes."""
        nz = [tuple(ij) for ij in np.argwhere(np.any(cert.blocks != 0, axis=(2, 3)))]
        return next((a, b) for i, a in enumerate(nz) for b in nz[i + 1:]
                    if cert.blocks[a].tobytes() == cert.blocks[b].tobytes())

    def test_a_copy_moved_by_one_ulp_is_a_class_of_its_own(self, monkeypatch, mermin):
        _, _, bg, bg0, cert = mermin
        _, b = self.copies(cert)
        blocks = cert.blocks.copy()
        r, c = np.argwhere(blocks[b].real != 0)[0]
        blocks[b][r, c] = complex(np.nextafter(blocks[b][r, c].real, np.inf), blocks[b][r, c].imag)
        self.check(monkeypatch, bg.graph, bg0.graph, cert.d, blocks, 25)

    def test_negative_zero_is_not_zero(self, monkeypatch, mermin):
        _, _, bg, bg0, cert = mermin
        _, b = self.copies(cert)
        blocks = cert.blocks.copy()
        parts = blocks[b].view(float)  # real and imaginary parts side by side
        r, c = np.argwhere(parts == 0)[0]
        parts[r, c] = -parts[r, c]
        self.check(monkeypatch, bg.graph, bg0.graph, cert.d, blocks, 25)

    def test_two_identical_nan_blocks_share_a_class(self, monkeypatch, mermin):
        _, _, bg, bg0, cert = mermin
        blocks = cert.blocks.copy()
        for block in self.copies(cert):
            blocks[block][0, 0] = np.nan
        self.check(monkeypatch, bg.graph, bg0.graph, cert.d, blocks, 25)

    def test_classical_certificate_has_one_class(self, monkeypatch, rng):
        g = random_graph(7, 0.5, rng)
        h = permuted_copy(g, rng)
        phi = find_isomorphism(g, h)
        assert self.check(monkeypatch, g, h, 1, classical_certificate(g, h, phi).blocks, 1) == [
            1, (1, 1)]
        # a failing correlation check names its losing tuple from the K x K traces
        wrong = classical_certificate(g, h, lambda v: phi((v + 1) % g.n))
        assert self.check(monkeypatch, g, h, 1, wrong.blocks, 1) == [1, (1, 1), (7, 7)]

    def test_all_zero_certificate_has_no_class(self, monkeypatch):
        self.check(monkeypatch, cycle(5), cycle(5), 2, np.zeros((5, 5, 2, 2), dtype=complex), 0)

    def test_all_distinct_certificate(self, monkeypatch, mermin):
        _, _, bg, bg0, cert = mermin
        blocks = cert.blocks.copy()
        for k, (i, j) in enumerate(np.argwhere(np.any(blocks != 0, axis=(2, 3)))):
            blocks[i, j] *= 1 + k * 2.0 ** -50
        self.check(monkeypatch, bg.graph, bg0.graph, cert.d, blocks, 96)


class TestCertificateClasses:
    """A certificate splits its blocks into classes once, when it is built,
    and cannot change after."""

    def test_arrays_and_fields_are_read_only(self, mermin):
        cert = mermin[4]
        for array in (cert.blocks, cert.ops, cert.grid):
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] = 0
        for name in ("d", "blocks", "ops", "grid"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(cert, name, getattr(cert, name))

    @pytest.mark.parametrize("fixture, distinct, nonzero", [("mermin", 24, 96),
                                                            ("pentagram", 40, 320)])
    def test_ops_and_grid_rebuild_the_blocks(self, request, fixture, distinct, nonzero):
        cert = request.getfixturevalue(fixture)[4]
        assert len(cert.ops) == distinct and (cert.grid >= 0).sum() == nonzero
        rebuilt = np.zeros_like(cert.blocks)
        on = cert.grid >= 0
        rebuilt[on] = cert.ops[cert.grid[on]]
        assert rebuilt.tobytes() == cert.blocks.tobytes()
        again = QuantumIsoCertificate(cert.d, cert.blocks.copy())
        assert again.ops.tobytes() == cert.ops.tobytes()
        assert np.array_equal(again.grid, cert.grid)


class TestMerminStrategy:
    def test_observable_products(self):
        obs = magic_square_observables()
        eye = np.eye(4)
        for s, b in magic_square().constraints:
            prod = obs[s[0]] @ obs[s[1]] @ obs[s[2]]
            assert np.allclose(prod, (-1.0) ** b * eye)

    def test_four_rank_one_projectors_per_constraint(self):
        strat = mermin_bcs_strategy()
        for family in strat.ops:
            assert len(family) == 4
            for _, op in family:
                assert np.trace(op).real == pytest.approx(1.0)

    def test_measurements_complete(self):
        strat = mermin_bcs_strategy()
        for family in strat.ops:
            total = sum(op for _, op in family)
            assert np.allclose(total, np.eye(4))

    def test_inconsistent_pairs_orthogonal(self):
        bcs = magic_square()
        strat = mermin_bcs_strategy()
        report = verify_bcs_strategy(bcs, strat)
        assert report["ok"]
        assert report["residuals"]["losing_probability"] <= 1e-12


class TestVerifyBcsStrategy:
    def test_d1_strategy_from_classical_assignment(self):
        bcs = homogenize(magic_square())
        strat = classical_bcs_strategy(bcs, solve_or_refute(bcs)[0])
        assert verify_bcs_strategy(bcs, strat)["ok"]

    def test_identity_projector_breaks_sum(self):
        bcs = magic_square()
        strat = mermin_bcs_strategy()
        broken_family = tuple(
            (f, np.eye(4, dtype=complex) if i == 0 else op)
            for i, (f, op) in enumerate(strat.ops[0])
        )
        from qgiso.quantum import BCSQuantumStrategy

        broken = BCSQuantumStrategy(4, (broken_family,) + strat.ops[1:])
        report = verify_bcs_strategy(bcs, broken)
        assert not report["ok"] and report["residuals"]["sum"] > 0.5

    @pytest.mark.parametrize("constraint", [0, 5])
    def test_nan_operator_fails(self, constraint):
        # before, max(worst, nan) kept worst, so the NaN vanished from every residual
        bcs = magic_square()
        strat = mermin_bcs_strategy()
        family = list(strat.ops[constraint])
        f, op = family[1]
        op = op.copy()
        op[0, 1] = np.nan
        family[1] = (f, op)
        ops = strat.ops[:constraint] + (tuple(family),) + strat.ops[constraint + 1:]
        report = verify_bcs_strategy(bcs, BCSQuantumStrategy(4, ops))
        assert not report["ok"]
        assert all(np.isnan(r) for r in report["residuals"].values())

    def test_observable_checks_survive_optimize_flag(self, monkeypatch):
        # explicit raises, not asserts, so the build-time checks run under python -O
        obs = magic_square_observables()
        obs[0], obs[3] = obs[3], obs[0]
        monkeypatch.setattr("qgiso.quantum.magic_square_observables", lambda: obs)
        with pytest.raises(AssertionError, match="constraint 0: observables do not commute"):
            mermin_bcs_strategy()


def _flip_sign(obs):
    obs[0] = -obs[0]


def _swap_anticommuting(obs):
    # X1 <-> Z1 on the square, X1 <-> Y1 on the pentagram: either way the
    # first constraint gains an anticommuting pair
    obs[0], obs[3] = obs[3], obs[0]


class TestObservableStrategy:
    SYSTEMS = [(magic_square(), magic_square_observables, 4), (PENTAGRAM, pentagram_observables, 8)]

    @pytest.mark.parametrize("system, observables, d", SYSTEMS, ids=["K33", "K5"])
    def test_perfect_strategy(self, system, observables, d):
        strat = observable_strategy(system, observables())
        assert strat.d == d and verify_bcs_strategy(system, strat)["ok"]

    @pytest.mark.parametrize("mutate, message", [
        (_flip_sign, "constraint 0: observable product is not \\(-1\\)\\^b I"),
        (_swap_anticommuting, "constraint 0: observables do not commute"),
    ], ids=["sign-flip", "anticommuting-swap"])
    @pytest.mark.parametrize("system, observables, d", SYSTEMS, ids=["K33", "K5"])
    def test_broken_observables_raise(self, system, observables, d, mutate, message):
        obs = observables()
        mutate(obs)
        with pytest.raises(AssertionError, match=message):
            observable_strategy(system, obs)

    def test_non_involution_raises(self):
        obs = magic_square_observables()
        obs[4] = 2 * obs[4]
        with pytest.raises(AssertionError, match="observable 4 is not a hermitian involution"):
            observable_strategy(magic_square(), obs)


def _sign_observables(seed):
    """A seeded random satisfiable system and its d = 1 operator solution,
    x_i as the 1 x 1 observable (-1)^(x_i) of a random assignment x."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 9))
    x = rng.integers(2, size=n)
    supports = [rng.choice(n, int(rng.integers(1, min(n, 5) + 1)), replace=False).tolist()
                for _ in range(int(rng.integers(1, 7)))]
    bcs = LinBCS(n, tuple((s, int(x[s].sum() % 2)) for s in supports))
    return bcs, (-1.0) ** x[:, None, None]


def _rotated_magic_square():
    """U X_i U^dagger for one seeded random unitary U: an operator solution
    with non-dyadic entries, where a reordered product changes the last bit."""
    rng = np.random.default_rng(11)
    u, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    return magic_square(), [u @ x @ u.conj().T for x in magic_square_observables()]


class TestObservableStrategyMatchesLoopOracle:
    @pytest.mark.parametrize("system", ["magic square", "pentagram", "rotated", *range(20)])
    def test_operator_bytes(self, system):
        bcs, obs = {"magic square": lambda: (magic_square(), magic_square_observables()),
                    "pentagram": lambda: (PENTAGRAM, pentagram_observables()),
                    "rotated": _rotated_magic_square}.get(system, lambda: _sign_observables(system))()
        got, want = observable_strategy(bcs, obs), oracle_observable_strategy(bcs, obs)
        assert got.d == want.d
        assert [[f for f, _ in family] for family in got.ops] == [[f for f, _ in family] for family in want.ops]
        assert [[op.tobytes() for _, op in family] for family in got.ops] == \
               [[op.tobytes() for _, op in family] for family in want.ops]


def _with_family(strat, l, family):
    return BCSQuantumStrategy(strat.d, strat.ops[:l] + (family,) + strat.ops[l + 1:])


def _random_layout_strategy(seed):
    """A seeded random system, supports of size 1-4, with a "strategy" of
    distinct random 2 x 2 operators: the builder does not verify, so a
    wrong index shows."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 8))
    bcs = LinBCS(n, tuple((rng.choice(n, int(rng.integers(1, 5)), replace=False).tolist(),
                           int(rng.integers(2))) for _ in range(int(rng.integers(1, 6)))))
    ops = tuple(tuple((f, rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
                      for f in bcsmod.satisfying_assignments(s, b)) for s, b in bcs.constraints)
    return bcs, BCSQuantumStrategy(2, ops)


class TestStrategyToCertificate:
    def test_block_structure(self, mermin):
        _, _, bg, bg0, cert = mermin
        assert cert.d == 4 and cert.blocks.shape == (24, 24, 4, 4)
        nonzero = sum(
            1 for a in range(24) for b in range(24) if np.any(cert.blocks[a, b])
        )
        assert nonzero == 96  # same-constraint blocks only: 6 * 4 * 4

    def test_row_sums_identity(self, mermin):
        _, _, _, _, cert = mermin
        assert np.allclose(cert.blocks.sum(axis=1), np.eye(4))
        assert np.allclose(cert.blocks.sum(axis=0), np.eye(4))

    @pytest.mark.parametrize("system", ["mermin", "pentagram", *range(8)])
    def test_matches_pairwise_lookup(self, request, system):
        if isinstance(system, int):
            bcs, strat = _random_layout_strategy(system)
            bg, bg0, cert = strategy_to_certificate(bcs, strat)
        else:
            bcs, strat, bg, bg0, cert = request.getfixturevalue(system)
        lookup = [{tuple(sorted(f.items())): op for f, op in family} for family in strat.ops]
        expected = np.zeros_like(cert.blocks)
        for a, (l, f) in enumerate(bg.vertex_meta):
            for b, (k, fz) in enumerate(bg0.vertex_meta):
                if l == k:
                    expected[a, b] = lookup[l][tuple(sorted((i, f[i] ^ fz[i]) for i in f))]
        assert np.array_equal(cert.blocks, expected)
        nonzero = np.count_nonzero(np.any(cert.blocks, axis=(2, 3)))
        assert nonzero == {"mermin": 96, "pentagram": 320}.get(
            system, sum(4 ** (len(s) - 1) for s, _ in bcs.constraints))

    @pytest.mark.parametrize("family", [lambda fam: fam[1:], lambda fam: fam[::-1],
                                        lambda fam: (({0: 2, 1: 0, 2: 0}, fam[0][1]),) + fam[1:]])
    def test_malformed_family_raises(self, mermin, family):
        bcs, strat, _, _, _ = mermin
        ops = (family(strat.ops[0]),) + strat.ops[1:]
        with pytest.raises(GraphError, match="constraint 0: assignment family mismatch"):
            strategy_to_certificate(bcs, BCSQuantumStrategy(strat.d, ops))

    def test_packing_of_a_family_missing_an_assignment_raises(self, mermin):
        _, strat, bg, _, _ = mermin
        bad = BCSQuantumStrategy(strat.d, (strat.ops[0][1:],) + strat.ops[1:])
        with pytest.raises(GraphError, match="constraint 0: assignment family mismatch"):
            strategy_packing(bad, bg)

    @pytest.mark.parametrize("families", [lambda ops: ops[:-1], lambda ops: ops + ops[:1]],
                             ids=["short", "long"])
    def test_wrong_family_count_raises(self, mermin, families):
        bcs, strat, bg, _, _ = mermin
        bad = BCSQuantumStrategy(strat.d, families(strat.ops))
        for use in (lambda: strategy_to_certificate(bcs, bad), lambda: strategy_packing(bad, bg),
                    lambda: verify_bcs_strategy(bcs, bad)):
            with pytest.raises(GraphError, match="strategy constraint count does not match"):
                use()

    @pytest.mark.parametrize("strategy, message", [
        (lambda strat: BCSQuantumStrategy(2, strat.ops), "constraint 0: operator is not 2 x 2"),
        (lambda strat: _with_family(strat, 3, strat.ops[3][::-1]),
         "constraint 3: assignment family mismatch"),
        (lambda strat: _with_family(strat, 3, strat.ops[3][:-1]),
         "constraint 3: assignment family mismatch"),
        (lambda strat: _with_family(strat, 3, strat.ops[3] + strat.ops[3][:1]),
         "constraint 3: assignment family mismatch"),
        (lambda strat: _with_family(strat, 3,
                                    strat.ops[3][:-1] + ((strat.ops[3][-1][0], np.eye(2)),)),
         "constraint 3: operator is not 4 x 4"),
    ], ids=["wrong-d", "reordered", "short", "long", "odd-operator"])
    def test_layout_defect_raises_from_every_entry_point(self, mermin, strategy, message):
        bcs, strat, bg, _, _ = mermin
        bad = strategy(strat)
        for use in (lambda: strategy_to_certificate(bcs, bad), lambda: strategy_packing(bad, bg),
                    lambda: verify_bcs_strategy(bcs, bad)):
            with pytest.raises(GraphError, match=message):
                use()

    @pytest.mark.parametrize("seed", range(6))
    def test_d1_certificate_is_the_shift_map(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 6)
        x = [rng.randint(0, 1) for _ in range(n)]
        supports = [rng.sample(range(n), rng.randint(1, min(4, n))) for _ in range(rng.randint(1, 5))]
        bcs = LinBCS(n, tuple((s, sum(x[i] for i in s) % 2) for s in supports))
        report = bcsmod.classical_reduction_report(bcs)
        _, _, cert = strategy_to_certificate(bcs, classical_bcs_strategy(bcs, report["assignment"]))
        perm = np.zeros((report["num_vertices"],) * 2)
        perm[np.arange(len(perm)), report["isomorphism"].image] = 1
        assert np.array_equal(cert.blocks[:, :, 0, 0], perm)

    def test_d1_case_matches_explicit_isomorphism(self):
        bcs = parse_bcs("x1 + x2 = 1\nx2 + x3 = 0\n")
        assignment = solve_or_refute(bcs)[0]
        strat = classical_bcs_strategy(bcs, assignment)
        bg, bg0, cert = strategy_to_certificate(bcs, strat)
        report = verify_qiso_certificate(bg.graph, bg0.graph, cert)
        assert report["ok"]
        # d = 1 certificate is a permutation matrix
        flat = cert.blocks[:, :, 0, 0].real
        assert np.allclose(flat.sum(axis=0), 1) and np.allclose(flat.sum(axis=1), 1)
        assert set(np.unique(flat)) <= {0.0, 1.0}


class TestProjectivePacking:
    def test_independent_set_packing(self):
        g = cycle(5)
        blocks = np.zeros((5, 1, 1), dtype=complex)
        blocks[0, 0, 0] = 1.0
        blocks[2, 0, 0] = 1.0
        report = verify_packing(g, ProjectivePacking(1, blocks))
        assert report["ok"] and report["value"] == 2

    def test_all_zero_packing(self):
        report = verify_packing(cycle(5), ProjectivePacking(2, np.zeros((5, 2, 2))))
        assert report["ok"] and report["value"] == 0

    def test_mermin_packing_value_m(self, mermin):
        bcs, strat, bg, _, _ = mermin
        packing = strategy_packing(strat, bg)
        report = verify_packing(bg.graph, packing)
        assert report["ok"] and report["value"] == 6

    def test_rotated_packing_accepted(self, mermin):
        # a unitary change of basis keeps a packing valid; its residuals must
        # stay at rounding level, which tr(P_i P_j) = ||P_i P_j||^2 would not
        bcs, strat, bg, _, _ = mermin
        packing = strategy_packing(strat, bg)
        report = verify_packing(bg.graph, ProjectivePacking(4, rotated(packing.blocks)))
        assert report["ok"] and report["residuals"]["orthogonality"] < 1e-14

    def test_adjacent_nonorthogonal_rejected(self):
        g = complete(2)
        blocks = np.zeros((2, 1, 1), dtype=complex)
        blocks[:, 0, 0] = 1.0
        report = verify_packing(g, ProjectivePacking(1, blocks))
        assert not report["ok"]

    @pytest.mark.parametrize("vertex", [0, 7])
    def test_nan_block_fails(self, mermin, vertex):
        bcs, strat, bg, _, _ = mermin
        packing = strategy_packing(strat, bg)
        blocks = packing.blocks.copy()
        blocks[vertex] = np.nan
        report = verify_packing(bg.graph, ProjectivePacking(packing.d, blocks))
        assert not report["ok"] and "non-projector" in report["reason"]

    def test_trace_far_from_an_integer_is_named(self):
        # a loose tolerance lets 1/2 pass as a projector; its trace cannot pass
        blocks = np.zeros((3, 1, 1), dtype=complex)
        blocks[0] = 0.5
        report = verify_packing(cycle(3), ProjectivePacking(1, blocks), tol=0.5)
        assert report == {"ok": False, "reason": "trace 0.5 of vertex 0 not near an integer"}

    def test_non_integral_trace_rejected(self):
        g = cycle(3)
        blocks = np.zeros((3, 2, 2), dtype=complex)
        v = np.array([1.0, 1.0]) / np.sqrt(2)
        blocks[0] = np.outer(v, v)
        blocks[0][0, 0] += 0.2  # still small residual? no: breaks projector first
        report = verify_packing(g, ProjectivePacking(2, blocks))
        assert not report["ok"]


class TestQuantumReductionReport:
    def test_magic_square_full_report(self, mermin):
        bcs, strat, _, _, _ = mermin
        report = quantum_reduction_report(bcs, strat)
        assert report["ok"]
        assert not report["satisfiable"] and not report["isomorphic"]
        assert report["cospectral"] and report["complements_cospectral"]
        assert report["packing"]["value"] == 6

    def test_homogenized_magic_square(self):
        report = quantum_reduction_report(homogenize(magic_square()))
        assert report["ok"] and report["satisfiable"] and report["isomorphic"]

    def test_trivial_system(self):
        report = quantum_reduction_report(parse_bcs("x1 = 1\n"))
        assert report["ok"]

    def test_verifies_the_builtin_strategy_once(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return verify_bcs_strategy(*args, **kwargs)

        monkeypatch.setattr(qmod, "verify_bcs_strategy", counted)
        assert quantum_reduction_report(magic_square())["ok"]
        assert len(calls) == 1

    def test_d1_strategy_matches_the_assignment_loop(self, monkeypatch):
        # a satisfiable system's strategy, captured where the report verifies
        # it, against the loop that built it before the report used
        # observable_strategy
        class Built(Exception):
            pass

        def capture(bcs, strat, *args):
            raise Built(strat)

        monkeypatch.setattr(qmod, "verify_bcs_strategy", capture)
        rng = random.Random(120)
        satisfiable = 0
        for _ in range(200):
            n, m = rng.randint(2, 6), rng.randint(1, 5)
            bcs = LinBCS(n, tuple((rng.sample(range(n), rng.randint(1, min(3, n))), rng.randint(0, 1))
                                  for _ in range(m)))
            assignment, _ = solve_or_refute(bcs)
            if assignment is None:
                continue
            satisfiable += 1
            with pytest.raises(Built) as built:
                quantum_reduction_report(bcs)
            strat, oracle = built.value.args[0], classical_bcs_strategy(bcs, assignment)
            assert strat.d == 1 and len(strat.ops) == len(oracle.ops)
            for family, expected in zip(strat.ops, oracle.ops):
                assert [f for f, _ in family] == [f for f, _ in expected]
                assert all(np.array_equal(a, b) for (_, a), (_, b) in zip(family, expected))
        assert satisfiable > 100

    def test_returns_the_verified_certificate(self, mermin):
        bcs, strat, bg, bg0, cert = mermin
        report = quantum_reduction_report(bcs, strat)
        g, h = report["graphs"]
        assert g.adj.tolist() == bg.graph.adj.tolist() and h.adj.tolist() == bg0.graph.adj.tolist()
        assert np.array_equal(report["witness"].blocks, cert.blocks)
        assert verify_qiso_certificate(g, h, report["witness"])["ok"]

    def test_pentagram_certificate_and_residuals(self, pentagram):
        bcs, strat, _, _, cert = pentagram
        report = quantum_reduction_report(bcs, strat)
        assert report["ok"] and not report["isomorphic"]
        assert np.array_equal(report["witness"].blocks, cert.blocks)
        assert set(report["certificate"]["residuals"].values()) == {0.0}

    def test_swapped_operators_report_a_losing_tuple(self):
        # the first two operators of constraint 0 trade places: the correlation
        # stays non-signalling but loses the game on one tuple
        strat = mermin_bcs_strategy()
        (f0, op0), (f1, op1), *rest = strat.ops[0]
        bad = BCSQuantumStrategy(strat.d, (((f0, op1), (f1, op0), *rest), *strat.ops[1:]))
        report = quantum_reduction_report(magic_square(), bad)
        assert not report["ok"] and report["correlation_nonsignalling"]
        assert not report["correlation_perfect"] and "nonsignalling_violation" not in report
        assert report["losing_tuple"] == (0, 16, 24, 42, 0.125)
        g, h = report["graphs"]
        corr = certificate_correlation(report["witness"], g, h)
        assert verify_perfect_iso_strategy(corr, g, h) == (False, report["losing_tuple"])

    def test_doubled_operator_reports_a_signalling_violation(self):
        # twice the first operator of constraint 0: Alice's marginal on one
        # question no longer depends only on her own question
        strat = mermin_bcs_strategy()
        (f0, op0), *rest = strat.ops[0]
        bad = BCSQuantumStrategy(strat.d, (((f0, 2 * op0), *rest), *strat.ops[1:]))
        report = quantum_reduction_report(magic_square(), bad)
        assert not report["ok"] and not report["correlation_nonsignalling"]
        assert report["nonsignalling_violation"] == ("A", 0, 24, 4, 0, 0.5, 1.0)
        g, h = report["graphs"]
        corr = certificate_correlation(report["witness"], g, h, 10 * 1e-9)
        assert verify_nonsignalling(corr) == (False, report["nonsignalling_violation"])

    def test_builds_each_bcs_graph_once(self, monkeypatch):
        calls = []
        original = bcsmod.bcs_graph

        def counted(system):
            calls.append(system)
            return original(system)

        monkeypatch.setattr(bcsmod, "bcs_graph", counted)
        monkeypatch.setattr(qmod, "bcs_graph", counted)
        assert quantum_reduction_report(magic_square())["ok"]
        assert calls == [magic_square(), homogenize(magic_square())]


class TestJsonRoundTrip:
    def test_encoders_byte_identical_on_magic_square(self, mermin):
        # digests of the encoders' output before they shared one family encoder
        bcs, strat, bg, bg0, cert = mermin
        packing = strategy_packing(strat, bg)
        digests = {
            "certificate": certificate_to_json(cert, bg.graph, bg0.graph),
            "packing": packing_to_json(packing, bg.graph),
        }
        assert {k: hashlib.sha256(v.encode()).hexdigest() for k, v in digests.items()} == {
            "certificate": "76d15d757c63b01289c8d1e6ea90aa2bc915ccc160069bee80ee40be75fb0adf",
            "packing": "05e1ebfc42186cb141941e00992f3095af5df6132acd2126322bd85c0af9c767",
        }

    def test_certificate(self, mermin, tmp_path):
        _, _, bg, bg0, cert = mermin
        text = certificate_to_json(cert, bg.graph, bg0.graph)
        back = certificate_from_json(text, bg.graph, bg0.graph)
        before = verify_qiso_certificate(bg.graph, bg0.graph, cert)["residuals"]
        after = verify_qiso_certificate(bg.graph, bg0.graph, back)["residuals"]
        assert all(after[k] - before[k] <= 1e-12 for k in before)

    def test_packing(self, mermin):
        bcs, strat, bg, _, _ = mermin
        packing = strategy_packing(strat, bg)
        back = packing_from_json(packing_to_json(packing, bg.graph), bg.graph)
        assert verify_packing(bg.graph, back)["value"] == 6


# --- the one-array matrix reader against the per-entry loop it replaced --------

_NUMBERS = st.one_of(  # what a JSON number pair may hold: floats with -0.0, ints past int64, bools
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-2 ** 65, 2 ** 65),
    st.sampled_from([-0.0, 2 ** 53 + 1, 2 ** 63 - 1, 2 ** 63, 2 ** 64 - 1, 2 ** 70, True, False]))
_DEFECTS = {  # one change to matrix row 0 of an entry, or to the entry
    "string": lambda m, e: m[0][0].__setitem__(0, "1"),
    "null": lambda m, e: m[0][0].__setitem__(1, None),
    "nan": lambda m, e: m[0][0].__setitem__(0, float("nan")),
    "inf": lambda m, e: m[0][0].__setitem__(1, float("-inf")),
    "past float": lambda m, e: m[0][0].__setitem__(0, 10 ** 400),
    "short row": lambda m, e: m[0].pop(),
    "short pair": lambda m, e: m[0][0].pop(),
    "long pair": lambda m, e: m[0][0].append(0),
    "extra row": lambda m, e: m.append(m[0]),
    "flat row": lambda m, e: m.__setitem__(0, 1.0),
    "no matrix key": lambda m, e: e.pop("matrix"),
}
_LABELS = st.sampled_from(["a", "b", "z"])  # "z" is no vertex of _PAIR


@st.composite
def _matrix_documents(draw, keys):
    d = draw(st.integers(1, 3))
    entries = [{**{key: draw(_LABELS) for key in keys},
                "matrix": [[[draw(_NUMBERS), draw(_NUMBERS)] for _ in range(d)] for _ in range(d)]}
               for _ in range(draw(st.integers(0, 3)))]
    names = draw(st.lists(st.sampled_from(sorted(_DEFECTS)), max_size=2))
    for name, entry in zip(names, draw(st.permutations(entries))):  # one defect an entry
        _DEFECTS[name](entry["matrix"], entry)
    return json.dumps({"d": d, "entries": entries})


_PAIR = from_edges(["a", "b"], [("a", "b")])
_READERS = {  # keys: the public reader, its graphs and what a repeat names
    ("g", "h"): (lambda text: certificate_from_json(text, _PAIR, _PAIR), (_PAIR, _PAIR),
                 "vertex pair"),
    ("vertex",): (lambda text: packing_from_json(text, _PAIR), (_PAIR,), "vertex"),
}


def _read_both(text, keys=("g", "h")):
    """What certificate_from_json (keys g, h) or packing_from_json (key
    vertex) makes of the document, d and the blocks' shape and bytes or the
    ParseError text, checked against the two-layer oracle."""
    read, graphs, what = _READERS[keys]

    def oracle(t):
        return ProjectivePacking(*oracle_blocks_from_json(t, graphs, keys, what))

    outcomes = []
    for reader in (read, oracle):
        try:
            got = reader(text)
            outcomes.append((got.d, got.blocks.shape, got.blocks.tobytes()))
        except GraphError as e:
            outcomes.append(str(e))
    assert outcomes[0] == outcomes[1]
    return outcomes[0]


class TestMatrixReaderMatchesEntryLoop:
    """The same blocks, bit for bit, or the same ParseError naming the same
    entry, as the reader that took each pair by complex(re, im) and then
    placed each entry by its labels."""

    @pytest.mark.parametrize("keys", sorted(_READERS), ids=["certificate", "packing"])
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_generated_documents(self, keys, data):
        _read_both(data.draw(_matrix_documents(keys)), keys)

    @pytest.mark.parametrize("pair", [[-0.0, -0.0], [0, -0.0], [2 ** 70, -1], [True, False],
                                      [2 ** 63, -(2 ** 63)], [5e-324, -1.7976931348623157e308]])
    def test_bit_identical_entries(self, pair):
        text = _certificate_doc(1, {"g": "a", "h": "b", "matrix": [[pair]]})
        _read_both(text)
        assert (certificate_from_json(text, _PAIR, _PAIR).blocks[0, 1].tobytes()
                == np.array(complex(*pair)).tobytes())

    @pytest.mark.parametrize("name", sorted(_DEFECTS))
    def test_defects_name_the_entry(self, name):
        # every entry names the same vertex pair: the matrices are checked first
        entries = [{"g": "a", "h": "b", "matrix": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}
                   for _ in range(3)]
        _DEFECTS[name](entries[1]["matrix"], entries[1])
        assert _read_both(_certificate_doc(2, *entries)).startswith("entry 1: ")

    def test_labels_after_every_matrix(self):
        good = [[[1, 0]]]
        for entries, message in (
                ([{"g": "z", "h": "a", "matrix": good}, {"g": "a", "h": "b", "matrix": [[1]]}],
                 "entry 1: matrix must be rows of [re, im] number pairs"),
                ([{"g": "z", "h": "a", "matrix": good}, {"g": "a", "h": "b", "matrix": good}],
                 "entry 0: unknown vertex label 'z'"),
                ([{"g": "a", "h": "b", "matrix": good}] * 2, "entry 1: repeated vertex pair")):
            assert _read_both(_certificate_doc(1, *entries)) == message
        twice = _certificate_doc(1, *[{"vertex": "b", "matrix": good}] * 2)
        assert _read_both(twice, ("vertex",)) == "entry 1: repeated vertex"

    def test_written_certificates_take_one_array(self, mermin):
        _, _, bg, bg0, cert = mermin
        entries = json.loads(certificate_to_json(cert, bg.graph, bg0.graph))["entries"]
        assert qmod._stacked([e["matrix"] for e in entries], cert.d).shape == (len(entries), 4, 4)

    def test_certify_output_unchanged(self, mermin, tmp_path, capsys, monkeypatch):
        _, _, bg, bg0, cert = mermin
        files = [tmp_path / "g.g", tmp_path / "h.g", tmp_path / "cert.json"]
        files[0].write_text(format_graph(bg.graph))
        files[1].write_text(format_graph(bg0.graph))
        rng = np.random.default_rng(3)
        certs = [cert]
        for _ in range(5):  # one block entry moved, as the cli-verify benchmark does
            blocks = cert.blocks.copy()
            blocks[tuple(rng.integers(s) for s in blocks.shape)] += 0.5 * np.exp(2j * rng.random())
            certs.append(QuantumIsoCertificate(cert.d, blocks))
        for each in certs:
            files[2].write_text(certificate_to_json(each, bg.graph, bg0.graph))
            runs = []
            for reader in (qmod._blocks_from_json, oracle_blocks_from_json):
                monkeypatch.setattr(qmod, "_blocks_from_json", reader)
                runs.append((main(["quantum", "certify", *map(str, files)]), capsys.readouterr()))
            assert runs[0] == runs[1] and runs[0][0] == (0 if each is cert else 1)


def test_report_without_a_strategy_refuses_an_unsatisfiable_system():
    with pytest.raises(GraphError, match="no strategy available"):
        quantum_reduction_report(PENTAGRAM)


def _certificate_doc(d, *entries):
    return json.dumps({"d": d, "entries": list(entries)})


@pytest.mark.parametrize("call, message", [
    (lambda g: certificate_from_json('{"d": 1, "entries": {}}', g, g), '"entries" must be a list'),
    (lambda g: certificate_from_json(_certificate_doc(1, {"g": "a", "matrix": [[[1, 0]]]}), g, g),
     "entry 0: needs the keys g, h and matrix"),
    (lambda g: certificate_from_json(
        _certificate_doc(2, {"g": "a", "h": "a", "matrix": [[[1, 0]]]}), g, g),
     "entry 0: matrix shape (1, 1) does not match dimension 2"),
    (lambda g: certificate_from_json(
        _certificate_doc(1, {"g": "a", "h": "z", "matrix": [[[1, 0]]]}), g, g),
     "entry 0: unknown vertex label 'z'"),
    (lambda g: verify_packing(g, ProjectivePacking(1, np.zeros((3, 1, 1)))),
     "packing shape does not match the graph"),
    (lambda g: observable_strategy(magic_square(), np.zeros((3, 2, 2))),
     "expected one square observable per variable"),
], ids=["entries-not-a-list", "missing-keys", "matrix-shape", "unknown-label", "packing-shape",
        "observable-shape"])
def test_refusals_name_the_defect(call, message):
    with pytest.raises(GraphError, match=re.escape(message)):
        call(from_edges(["a", "b"], [("a", "b")]))


def _zero_dimension_strategy():
    return BCSQuantumStrategy(0, tuple(tuple((f, np.zeros((0, 0))) for f, _ in family)
                                       for family in mermin_bcs_strategy().ops))


class TestDimensionBelowOne:
    """d = 0 is refused where a dimension enters, as the JSON reader refuses it."""

    def test_certificate(self):
        with pytest.raises(GraphError, match="block dimension 0 is below 1"):
            QuantumIsoCertificate(0, np.zeros((3, 3, 0, 0)))

    def test_packing(self):
        with pytest.raises(GraphError, match="block dimension 0 is below 1"):
            verify_packing(complete(3), ProjectivePacking(0, np.zeros((3, 0, 0))))

    @pytest.mark.parametrize("use", [
        lambda bcs, strat: verify_bcs_strategy(bcs, strat),
        lambda bcs, strat: strategy_packing(strat, bcs_graph(bcs)),
        lambda bcs, strat: strategy_to_certificate(bcs, strat),
    ], ids=["verify", "packing", "certificate"])
    def test_strategy_stack(self, use):
        with pytest.raises(GraphError, match="block dimension 0 is below 1"):
            use(magic_square(), _zero_dimension_strategy())

    def test_observable_strategy(self):
        with pytest.raises(GraphError, match="block dimension 0 is below 1"):
            observable_strategy(magic_square(), np.zeros((9, 0, 0)))


@pytest.fixture
def stack_builds(monkeypatch):
    """A list that gets one entry per ``BCSQuantumStrategy.stack`` build."""
    builds, build = [], BCSQuantumStrategy.stack.func
    monkeypatch.setattr(BCSQuantumStrategy.stack, "func",
                        lambda strat: builds.append(strat) or build(strat))
    return builds


class TestBuiltOnce:
    def test_mermin_demo_lists_families_and_stacks_the_strategy_once(self, monkeypatch,
                                                                   stack_builds):
        # one call per constraint each for F, F0 and the strategy's own magic square
        calls, listed = [], bcsmod.satisfying_assignments
        monkeypatch.setattr(bcsmod, "satisfying_assignments",
                            lambda s, b: calls.append(s) or listed(s, b))
        assert main(["--json", "quantum", "mermin-demo"]) == 0
        assert len(calls) == 18 and len(stack_builds) == 1

    def test_stack_is_read_only(self, mermin):
        _, strat, _, _, _ = mermin
        assert strat.stack.shape == (24, 4, 4) and not strat.stack.flags.writeable
        with pytest.raises(ValueError):
            strat.stack[0, 0, 0] = 1

    def test_second_report_builds_no_new_stack(self, stack_builds):
        strat = observable_strategy(PENTAGRAM, pentagram_observables())
        first, second = (quantum_reduction_report(PENTAGRAM, strat) for _ in range(2))
        assert first["ok"] and second["ok"] and len(stack_builds) == 1


class TestRelMismatchOrthogonality:
    def test_explicit_sweep_matches_vectorized(self, mermin):
        # spot check: the reported max orthogonality residual agrees with a
        # direct loop over rel-mismatched pairs
        _, _, bg, bg0, cert = mermin
        g, h = bg.graph, bg0.graph
        worst = 0.0
        rs = np.random.RandomState(7)
        idx = rs.choice(24, size=8, replace=False)
        for ga in idx:
            for gb in idx:
                for ha in idx:
                    for hb in idx:
                        if rel(g, int(ga), int(gb)) != rel(h, int(ha), int(hb)):
                            prod = cert.blocks[ga, ha] @ cert.blocks[gb, hb]
                            worst = max(worst, float(np.linalg.norm(prod)))
        assert worst <= 1e-12
