import hashlib
import json
from fractions import Fraction

import numpy as np
import pytest

from conftest import (PENTAGRAM, complete, cycle, oracle_ppm, oracle_qiso_certificate,
                      pentagram_observables, permuted_copy, random_graph)
from qgiso import quantum as qmod
from qgiso.bcs import (
    bcs_graph,
    homogenize,
    magic_square,
    parse_bcs,
    solve_gf2,
)
from qgiso.correlations import verify_nonsignalling, verify_perfect_iso_strategy
from qgiso.games import Rel, rel
from qgiso.graphs import GraphError, ParseError, find_isomorphism
from qgiso.quantum import (
    BCSQuantumStrategy,
    ProjectivePacking,
    QuantumIsoCertificate,
    certificate_correlation,
    certificate_from_json,
    certificate_to_json,
    classical_bcs_strategy,
    classical_certificate,
    magic_square_observables,
    mermin_bcs_strategy,
    observable_strategy,
    packing_from_json,
    packing_to_json,
    quantum_reduction_report,
    strategy_from_json,
    strategy_packing,
    strategy_to_certificate,
    strategy_to_json,
    verify_bcs_strategy,
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
        assert verify_ppm(perm)["ok"]

    def test_diagonal_blocks(self):
        d0, d1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
        blocks = np.array([[d0, d1], [d1, d0]])
        report = verify_ppm(blocks)
        assert report["ok"] and report["consistent"]

    def test_all_identity_blocks_fail(self):
        blocks = np.array([[np.eye(2)] * 2] * 2)
        report = verify_ppm(blocks)
        assert not report["ok"] and report["residuals"]["row_sum"] > 0.5

    def test_non_projector_block_fails(self):
        blocks = np.zeros((1, 1, 2, 2), dtype=complex)
        blocks[0, 0] = [[0.5, 0], [0, 0.5]]
        assert not verify_ppm(blocks)["ok"]

    def test_non_square_grid_raises(self):
        with pytest.raises(GraphError, match="square"):
            verify_ppm(np.zeros((2, 3, 1, 1)))


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
        _assert_matches_oracle(verify_ppm(blocks), oracle_ppm(blocks))

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
        cert = classical_certificate(g, h, find_isomorphism(g, h))
        cert.blocks[0, (int(np.argmax(cert.blocks[0])) + 1) % g.n] = 1.0
        assert not verify_qiso_certificate(g, h, cert)["ok"]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_rejected_whatever_residual_carries_it(self, monkeypatch, mermin):
        # with the projector residuals forced finite, the NaN of a block shows
        # only in later residuals; Python's max(0.0, nan) would drop it
        _, _, bg, bg0, cert = mermin
        blocks = cert.blocks.copy()
        blocks[0, 0, 0, 0] = np.nan
        monkeypatch.setattr(qmod, "projector_residuals", lambda a: (0.0, 0.0))
        assert not verify_ppm(blocks)["ok"]
        report = verify_qiso_certificate(bg.graph, bg0.graph, QuantumIsoCertificate(4, blocks))
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
        strat = classical_bcs_strategy(bcs, solve_gf2(bcs))
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

    @pytest.mark.parametrize("system", ["mermin", "pentagram"])
    def test_matches_pairwise_lookup(self, request, system):
        bcs, strat, bg, bg0, cert = request.getfixturevalue(system)
        lookup = [{tuple(sorted(f.items())): op for f, op in family} for family in strat.ops]
        expected = np.zeros_like(cert.blocks)
        for a, (l, f) in enumerate(bg.vertex_meta):
            for b, (k, fz) in enumerate(bg0.vertex_meta):
                if l == k:
                    expected[a, b] = lookup[l][tuple(sorted((i, f[i] ^ fz[i]) for i in f))]
        assert np.array_equal(cert.blocks, expected)
        nonzero = np.count_nonzero(np.any(cert.blocks, axis=(2, 3)))
        assert nonzero == {"mermin": 96, "pentagram": 320}[system]

    @pytest.mark.parametrize("family", [lambda fam: fam[1:], lambda fam: fam[::-1],
                                        lambda fam: (({0: 2, 1: 0, 2: 0}, fam[0][1]),) + fam[1:]])
    def test_malformed_family_raises(self, mermin, family):
        bcs, strat, _, _, _ = mermin
        ops = (family(strat.ops[0]),) + strat.ops[1:]
        with pytest.raises(GraphError, match="constraint 0: assignment family mismatch"):
            strategy_to_certificate(bcs, BCSQuantumStrategy(strat.d, ops))

    def test_d1_case_matches_explicit_isomorphism(self):
        bcs = parse_bcs("x1 + x2 = 1\nx2 + x3 = 0\n")
        assignment = solve_gf2(bcs)
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
        _, packing = strategy_packing(bcs, strat)
        report = verify_packing(bg.graph, packing)
        assert report["ok"] and report["value"] == 6

    def test_rotated_packing_accepted(self, mermin):
        # a unitary change of basis keeps a packing valid; its residuals must
        # stay at rounding level, which tr(P_i P_j) = ||P_i P_j||^2 would not
        bcs, strat, bg, _, _ = mermin
        _, packing = strategy_packing(bcs, strat)
        rng = np.random.default_rng(1)
        u, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        report = verify_packing(bg.graph, ProjectivePacking(4, u @ packing.blocks @ u.conj().T))
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
        _, packing = strategy_packing(bcs, strat)
        blocks = packing.blocks.copy()
        blocks[vertex] = np.nan
        report = verify_packing(bg.graph, ProjectivePacking(packing.d, blocks))
        assert not report["ok"] and "non-projector" in report["reason"]

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

    def test_returns_the_verified_certificate(self, mermin):
        bcs, strat, bg, bg0, cert = mermin
        report = quantum_reduction_report(bcs, strat)
        g, h = report["graphs"]
        assert g.adj.tolist() == bg.graph.adj.tolist() and h.adj.tolist() == bg0.graph.adj.tolist()
        assert np.array_equal(report["witness"].blocks, cert.blocks)
        assert verify_qiso_certificate(g, h, report["witness"])["ok"]


class TestJsonRoundTrip:
    def test_encoders_byte_identical_on_magic_square(self, mermin):
        # digests of the encoders' output before they shared one family encoder
        bcs, strat, bg, bg0, cert = mermin
        _, packing = strategy_packing(bcs, strat)
        digests = {
            "certificate": certificate_to_json(cert, bg.graph, bg0.graph),
            "packing": packing_to_json(packing, bg.graph),
            "strategy": strategy_to_json(strat),
        }
        assert {k: hashlib.sha256(v.encode()).hexdigest() for k, v in digests.items()} == {
            "certificate": "76d15d757c63b01289c8d1e6ea90aa2bc915ccc160069bee80ee40be75fb0adf",
            "packing": "05e1ebfc42186cb141941e00992f3095af5df6132acd2126322bd85c0af9c767",
            "strategy": "cf8fd3a87ca8dfd69f34d02df6dbf2ec5ae229eb2d8577a716ce731f21207807",
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
        _, packing = strategy_packing(bcs, strat)
        back = packing_from_json(packing_to_json(packing, bg.graph), bg.graph)
        assert verify_packing(bg.graph, back)["value"] == 6

    def test_strategy(self, mermin):
        bcs, strat, _, _, _ = mermin
        back = strategy_from_json(strategy_to_json(strat), bcs)
        assert verify_bcs_strategy(bcs, back)["ok"]

    @pytest.mark.parametrize("field, value, message", [
        ("constraint", "first", "entry 3: malformed constraint"),
        ("f", ["x1", 0], "entry 3: malformed constraint"),
        ("matrix", [[1, 0]], "entry 3: matrix must be rows"),
    ], ids=["constraint", "assignment", "matrix"])
    def test_malformed_strategy_entry(self, mermin, field, value, message):
        bcs, strat, _, _, _ = mermin
        doc = json.loads(strategy_to_json(strat))
        doc["entries"][3][field] = value
        with pytest.raises(ParseError, match=message):
            strategy_from_json(json.dumps(doc), bcs)


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
