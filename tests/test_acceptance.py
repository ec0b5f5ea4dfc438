"""End-to-end acceptance suite.

Each test checks one headline claim of the package and prints a single
PASS/FAIL line (visible even under capture) so the whole gate can be read
off a plain ``pytest -v`` run.
"""

import itertools
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from conftest import (
    brute_force_alpha,
    brute_force_isomorphic,
    cep_pair,
    cycle,
    graph_from_bits,
    oracle_shift_map,
    permuted_copy,
    random_graph,
    two_k3,
)
from qgiso.bcs import LinBCS, bcs_graph, classical_reduction_report, homogenize, magic_square
from qgiso.correlations import (
    build_ns_correlation,
    correlation_to_ds_witness,
    pr_box,
    verify_distribution,
    verify_nonsignalling,
    verify_perfect_iso_strategy,
)
from qgiso.equitable import (
    color_refinement,
    common_equitable_partition,
    verify_ds_witness,
    verify_equitable,
)
from qgiso.graphs import (Graph, cospectral_mates, find_isomorphism, independence_number,
                          is_isomorphism)
from qgiso import quantum as qmod

TOL = 1e-9


@pytest.fixture
def report(capfd):
    def _report(label, ok):
        with capfd.disabled():
            print(f"acceptance {label}: {'PASS' if ok else 'FAIL'}")
        assert ok, label

    return _report


def test_1_flagship_quantum_separation(report):
    start = time.perf_counter()
    demo = qmod.quantum_reduction_report(magic_square(), tol=TOL)
    elapsed = time.perf_counter() - start
    residuals = demo["certificate"]["residuals"]
    ok = (
        elapsed < 60.0
        and demo["num_vertices"] == 24
        and demo["isomorphic"] is False
        and demo["certificate"]["ok"] is True
        and max(residuals.values()) <= TOL
        and demo["ok"] is True
    )
    report("1 (24-vertex pair: quantum isomorphic, not isomorphic)", ok)


def test_2_independence_numbers(report):
    start = time.perf_counter()
    gf = bcs_graph(magic_square()).graph
    gf0 = bcs_graph(homogenize(magic_square())).graph
    res_f = independence_number(gf)
    res_f0 = independence_number(gf0)
    elapsed = time.perf_counter() - start

    def independent(g, witness):
        return all(not g.adj[a, b] for a, b in itertools.combinations(witness, 2))

    ok = (
        res_f["alpha"] == 5
        and res_f0["alpha"] == 6
        and len(set(res_f["witness"])) == 5
        and len(set(res_f0["witness"])) == 6
        and independent(gf, res_f["witness"])
        and independent(gf0, res_f0["witness"])
        and elapsed < 5.0
    )
    report("2 (alpha = 5 and 6 with verified witnesses)", ok)


def test_3_satisfiability_three_way_agreement(report, rng):
    agreements = 0
    total = 50
    for _ in range(total):
        n = rng.randint(3, 10)
        m = rng.randint(1, 8)
        cons = tuple(
            (tuple(sorted(rng.sample(range(n), 3))), rng.randint(0, 1))
            for _ in range(m)
        )
        system = LinBCS(n, cons)
        r = classical_reduction_report(system)
        bg, bg0 = r["bcs_graphs"]
        searched = find_isomorphism(bg.graph, bg0.graph) is not None
        # a shift map must be the label lookup's and an isomorphism
        shift_ok = r["isomorphism"] is None or (
            r["isomorphism"].image == oracle_shift_map(system, r["assignment"], bg, bg0)
            and is_isomorphism(bg.graph, bg0.graph, r["isomorphism"]))
        if r["satisfiable"] == r["graphs_isomorphic"] == r["alpha_equals_m"] == searched and shift_ok:
            agreements += 1
    report(f"3 (three-way agreement on {agreements}/{total} random systems)", agreements == total)


def test_4_ns_correlation_from_fractional_iso(report, rng):
    pairs = [cep_pair(rng) for _ in range(14)]
    # regular pairs: same degree forces the one-cell common partition
    for n, d in [(8, 3), (10, 3), (8, 4), (10, 4), (12, 3), (10, 6)]:
        import networkx as nx

        def regular(seed):
            gx = nx.random_regular_graph(d, n, seed=seed)
            adj = np.zeros((n, n), dtype=bool)
            for a, b in gx.edges:
                adj[a, b] = adj[b, a] = True
            return Graph(tuple(f"v{i}" for i in range(n)), adj)

        g, h = regular(rng.randrange(10**6)), regular(rng.randrange(10**6))
        cep = common_equitable_partition(g, h)
        assert cep is not None and cep.k == 1
        pairs.append((g, h, cep))

    violations = 0
    for g, h, cep in pairs:
        corr = build_ns_correlation(g, h, cep)
        if not verify_distribution(corr)[0]:
            violations += 1
        if not verify_nonsignalling(corr)[0]:
            violations += 1
        if not verify_perfect_iso_strategy(corr, g, h)[0]:
            violations += 1
        D = correlation_to_ds_witness(corr, g, h)
        if not verify_ds_witness(g, h, D)[0]:
            violations += 1
    report(
        f"4 (perfect non-signalling strategies for {len(pairs)} pairs, {violations} violations)",
        len(pairs) >= 20 and violations == 0,
    )


def test_5_cospectral_mates(report):
    gf = bcs_graph(magic_square()).graph
    gf0 = bcs_graph(homogenize(magic_square())).graph
    mates = cospectral_mates(gf, gf0)
    control = cospectral_mates(cycle(6), two_k3())
    ok = (
        mates["cospectral"] is True
        and mates["complements_cospectral"] is True
        and control["cospectral"] is False
    )
    report("5 (cospectral mates with cospectral complements)", ok)


def test_6_oracle_equivalence_small_graphs(report, rng):
    mismatches = 0
    # exhaustive on <= 6 vertices: independence number and refinement stability
    for n in range(1, 7):
        for bits in range(1 << (n * (n - 1) // 2)):
            g = graph_from_bits(n, bits)
            if independence_number(g)["alpha"] != brute_force_alpha(g):
                mismatches += 1
            part, violation = verify_equitable(g, color_refinement(g).cells)
            if violation is not None:
                mismatches += 1
    # sampled on 7 vertices
    for _ in range(300):
        g = random_graph(7, rng.random(), rng)
        if independence_number(g)["alpha"] != brute_force_alpha(g):
            mismatches += 1
        if verify_equitable(g, color_refinement(g).cells)[1] is not None:
            mismatches += 1
    # isomorphism decision vs permutation search on sampled pairs
    for n in range(2, 8):
        for _ in range(60):
            g = random_graph(n, rng.choice([0.2, 0.5, 0.8]), rng)
            if rng.random() < 0.5:
                h = permuted_copy(g, rng)
            else:
                h = random_graph(n, rng.choice([0.2, 0.5, 0.8]), rng)
            if (find_isomorphism(g, h) is not None) != brute_force_isomorphic(g, h):
                mismatches += 1
    report(f"6 (oracle agreement on small graphs, {mismatches} mismatches)", mismatches == 0)


def test_7_pr_box_nonsignalling(report):
    box = pr_box()
    ok1, _ = verify_distribution(box)
    ok2, _ = verify_nonsignalling(box)
    winning = all(
        box.get(x, xp, a, b) in (0, Fraction(1, 2)) and
        (box.get(x, xp, a, b) == 0 or (a + b) % 2 == x * xp)
        for x in range(2) for xp in range(2) for a in range(2) for b in range(2)
    )
    report("7 (PR box is a non-signalling distribution)", ok1 and ok2 and winning)


def test_8_certificate_soundness_fuzzing(report):
    bg, bg0, cert = qmod.strategy_to_certificate(magic_square(), qmod.mermin_bcs_strategy())
    g, h = bg.graph, bg0.graph
    assert qmod.verify_qiso_certificate(g, h, cert, tol=TOL)["ok"]
    nprng = np.random.default_rng(20240817)
    rejected = 0
    trials = 1000
    for _ in range(trials):
        blocks = cert.blocks.copy()
        idx = tuple(int(nprng.integers(0, s)) for s in blocks.shape)
        magnitude = nprng.uniform(1e-3, 1.0)
        phase = nprng.uniform(0.0, 2.0 * np.pi)
        blocks[idx] += magnitude * np.exp(1j * phase)
        bad = qmod.QuantumIsoCertificate(cert.d, blocks)
        if not qmod.verify_qiso_certificate(g, h, bad, tol=TOL)["ok"]:
            rejected += 1
    report(f"8 (perturbed certificates rejected {rejected}/{trials})", rejected == trials)
