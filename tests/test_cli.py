import argparse
import hashlib
import json
import os
import random
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qgiso

from fractions import Fraction

from conftest import (
    cep_pair,
    cycle,
    oracle_distribution,
    oracle_format_exact,
    oracle_nonsignalling,
    oracle_ns_table,
    oracle_perfect,
    two_k3,
)
from qgiso.cli import COMMANDS, build_parser, main
from qgiso.graphs import Graph, format_graph, from_edges, parse_graph
from qgiso.bcs import MAX_VARIABLES, bcs_graph, format_bcs, homogenize, magic_square
from qgiso import correlations as corrmod
from qgiso import equitable as eqmod
from qgiso import quantum as qmod
from qgiso.correlations import (
    Correlation,
    format_correlation,
    ns_iso,
    parse_correlation,
    verify_nonsignalling,
)
from qgiso.equitable import common_equitable_partition


@pytest.fixture
def graph_files(tmp_path):
    c6 = tmp_path / "c6.g"
    kk = tmp_path / "two-k3.g"
    c6.write_text(format_graph(cycle(6)))
    kk.write_text(format_graph(two_k3()))
    return str(c6), str(kk)


@pytest.fixture
def magic_graph_files(tmp_path):
    gf = tmp_path / "gf.g"
    gf0 = tmp_path / "gf0.g"
    gf.write_text(format_graph(bcs_graph(magic_square()).graph))
    gf0.write_text(format_graph(bcs_graph(homogenize(magic_square())).graph))
    return str(gf), str(gf0)


def test_graph_iso_refuted(magic_graph_files, capsys):
    assert main(["graph", "iso", *magic_graph_files]) == 1
    assert "NOT ISOMORPHIC" in capsys.readouterr().out


_SYMMETRIC_ISO_MAPS = {  # the search's maps, which pin its order of candidates
    "magic": list(range(24)),
    "petersen": [0, 6, 3, 5, 1, 7, 2, 8, 9, 4],
    "cubes": [
        0, 120, 38, 14, 99, 59, 119, 79, 1, 121, 39, 15, 80, 41, 100, 60, 2, 110, 5, 70, 25, 90,
        111, 50, 3, 22, 106, 47, 68, 88, 108, 127, 4, 23, 117, 48, 49, 69, 89, 109, 6, 112, 52, 24,
        13, 26, 91, 71, 7, 72, 93, 33, 27, 92, 113, 53, 8, 54, 94, 29, 28, 74, 114, 34, 9, 75, 96,
        35, 115, 55, 76, 30, 10, 56, 97, 31, 116, 36, 77, 11, 12, 32, 37, 57, 58, 78, 98, 118, 16,
        81, 102, 42, 40, 101, 122, 61, 17, 63, 103, 62, 51, 82, 123, 43, 18, 83, 104, 44, 124, 64,
        85, 73, 19, 65, 125, 45, 105, 84, 86, 20, 21, 95, 46, 66, 67, 87, 107, 126
    ],
}


def _relabelled(g):
    """g under the vertex permutation v -> 7v + 3 mod n, with new labels."""
    perm = [(7 * v + 3) % g.n for v in range(g.n)]
    return Graph(tuple(f"w{i}" for i in range(g.n)), g.adj[np.ix_(perm, perm)])


def _petersen():
    outer = [(f"o{i}", f"o{(i + 1) % 5}") for i in range(5)]
    inner = [(f"i{i}", f"i{(i + 2) % 5}") for i in range(5)]
    spokes = [(f"o{i}", f"i{i}") for i in range(5)]
    return from_edges([f"o{i}" for i in range(5)] + [f"i{i}" for i in range(5)],
                      outer + inner + spokes)


def _cubes(k):
    """k disjoint copies of the 3-cube."""
    labels = [f"q{c}.{i}" for c in range(k) for i in range(8)]
    return from_edges(labels, [(f"q{c}.{i}", f"q{c}.{i ^ b}") for c in range(k)
                               for i in range(8) for b in (1, 2, 4) if i < i ^ b])


@pytest.mark.parametrize("pair", ["magic", "petersen", "cubes"])
def test_graph_iso_maps_on_symmetric_pairs(tmp_path, capsys, pair):
    # the maps pin the search's order: which cell it individualises, which
    # candidate it tries first and which it prunes
    g = {"magic": lambda: bcs_graph(magic_square()).graph, "petersen": _petersen,
         "cubes": lambda: _cubes(16)}[pair]()
    files = []
    for name, graph in (("g", g), ("h", g if pair == "magic" else _relabelled(g))):
        files.append(tmp_path / f"{name}.g")
        files[-1].write_text(format_graph(graph))
    assert main(["--json", "graph", "iso", *map(str, files)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "ISOMORPHIC"
    assert doc["witnesses"]["map"] == _SYMMETRIC_ISO_MAPS[pair]


def test_graph_fractional_iso(graph_files, tmp_path, capsys):
    out = tmp_path / "witness.ds"
    assert main(["--out", str(out), "graph", "fractional-iso", *graph_files]) == 0
    assert "FRACTIONALLY ISOMORPHIC" in capsys.readouterr().out
    assert out.read_text().startswith("ds 6 6")


def test_graph_fractional_iso_witness_file_is_pinned(magic_graph_files, tmp_path):
    out = tmp_path / "d.ds"
    assert main(["--out", str(out), "graph", "fractional-iso", *magic_graph_files]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "44e5fae49146ac52a94c95667c6b521dbf0a4d58451d858a0f66795c2822729b")


def test_ns_build_correlation_file_is_pinned(magic_graph_files, tmp_path):
    # 640,512 entries, about ten chunks of the writer
    out = tmp_path / "p.corr"
    assert main(["--out", str(out), "ns", "build", *magic_graph_files]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "b50ecb0ba704cab03a16a0c56e0a0cbf4c731695174e43b29e59d26ba1055dd7")


def test_graph_cospectral(magic_graph_files):
    assert main(["graph", "cospectral", *magic_graph_files]) == 0


def test_graph_cospectral_refuted(graph_files):
    assert main(["graph", "cospectral", *graph_files]) == 1


def test_graph_cospectral_of_different_orders(tmp_path, capsys):
    c5, c6 = tmp_path / "c5.g", tmp_path / "c6.g"
    c5.write_text(format_graph(cycle(5)))
    c6.write_text(format_graph(cycle(6)))
    assert main(["graph", "cospectral", str(c5), str(c6)]) == 1
    captured = capsys.readouterr()
    assert "NOT COSPECTRAL MATES" in captured.out and "Traceback" not in captured.err


def test_graph_alpha(graph_files, capsys):
    assert main(["graph", "alpha", graph_files[0]]) == 0
    assert "graph alpha: 3" in capsys.readouterr().out


def test_ns_build_and_verify(graph_files, tmp_path, capsys):
    corr = tmp_path / "c.corr"
    assert main(["--out", str(corr), "ns", "build", *graph_files]) == 0
    assert main(["ns", "verify", *graph_files, str(corr)]) == 0
    assert "PASS" in capsys.readouterr().out


def test_bcs_roundtrip(tmp_path, capsys):
    bcs_file = tmp_path / "ms.bcs"
    assert main(["--out", str(bcs_file), "bcs", "magic-square"]) == 0
    assert bcs_file.read_text() == format_bcs(magic_square())
    assert main(["bcs", "check", str(bcs_file)]) == 1  # unsatisfiable
    assert main(["bcs", "report", str(bcs_file)]) == 1
    out = capsys.readouterr().out
    assert "alpha: 5" in out


def test_bcs_report_json_carries_the_refutation(tmp_path, capsys):
    unsat, sat = tmp_path / "ms.bcs", tmp_path / "ms0.bcs"
    unsat.write_text(format_bcs(magic_square()))
    sat.write_text(format_bcs(homogenize(magic_square())))
    assert main(["--json", "bcs", "report", str(unsat)]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "UNSATISFIABLE" and doc["graphs_isomorphic"] is False
    assert doc["witnesses"] == {"refutation": [1, 1, 1, 1, 1, 1]}
    assert main(["--json", "bcs", "report", str(sat)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "SATISFIABLE" and "witnesses" not in doc
    # the quantum report builds on the classical one; its output is unchanged
    assert main(["--json", "quantum", "mermin-demo"]) == 0
    assert capsys.readouterr().out == MERMIN_DEMO_JSON


@pytest.mark.parametrize("index, code", [(MAX_VARIABLES, 1), (MAX_VARIABLES + 1, 2)])
def test_bcs_check_variable_cap(tmp_path, capsys, index, code):
    bcs_file = tmp_path / "wide.bcs"
    bcs_file.write_text(f"x1 + x{index} = 1\nx1 + x{index} = 0\n")
    assert main(["bcs", "check", str(bcs_file)]) == code
    err = capsys.readouterr().err
    assert ("line 1" in err) == (code == 2) and "Traceback" not in err


@pytest.mark.parametrize("text, code, out, err", [
    ("x1 + x2\n", 2, "", "error: line 1: missing '='\n"),
    ("# a comment\n   # and another\n", 2, "", "error: no constraints found\n"),
    ("x1 + x2 = 1\n", 0, "bcs check: SATISFIABLE\n  witnesses: {'assignment': [1, 0]}\n", ""),
], ids=["missing-equals", "comments-only", "satisfiable"])
def test_bcs_check_outcomes(tmp_path, capsys, text, code, out, err):
    bcs_file = tmp_path / "f.bcs"
    bcs_file.write_text(text)
    assert main(["bcs", "check", str(bcs_file)]) == code
    assert capsys.readouterr() == (out, err)


def test_ns_build_past_the_table_cap_exits_2(tmp_path, capsys):
    g = tmp_path / "c33.g"
    g.write_text(format_graph(cycle(33)))
    assert main(["ns", "build", str(g), str(g)]) == 2
    assert capsys.readouterr() == ("", "error: exhaustive correlation table capped at 32 vertices\n")


@pytest.mark.parametrize("command, verdict", [("graph fractional-iso", "NOT FRACTIONALLY ISOMORPHIC"),
                                              ("ns build", "NOT NON-SIGNALLING ISOMORPHIC")])
def test_different_edge_counts_are_refuted(tmp_path, capsys, command, verdict):
    files = [tmp_path / "p2k1.g", tmp_path / "3k1.g"]
    files[0].write_text(format_graph(from_edges(["a", "b", "c"], [("a", "b")])))
    files[1].write_text(format_graph(from_edges(["a", "b", "c"], [])))
    assert main([*command.split(), *map(str, files)]) == 1
    assert capsys.readouterr().out == f"{command}: {verdict}\n"


def test_bcs_check_unicode_digit_exits_2(tmp_path, capsys):
    # str.isdigit accepts the superscript, int does not
    bcs_file = tmp_path / "super.bcs"
    bcs_file.write_text("x1 + x\u00b2 = 1\n")
    assert main(["bcs", "check", str(bcs_file)]) == 2
    err = capsys.readouterr().err
    assert "line 1" in err and "Traceback" not in err


def test_bcs_to_graph(tmp_path):
    bcs_file = tmp_path / "ms.bcs"
    main(["--out", str(bcs_file), "bcs", "magic-square"])
    g_file = tmp_path / "gf.g"
    assert main(["--out", str(g_file), "bcs", "to-graph", str(bcs_file)]) == 0
    assert g_file.read_text() == format_graph(bcs_graph(magic_square()).graph)


def test_quantum_certify(magic_graph_files, tmp_path):
    bg, bg0, cert = qmod.strategy_to_certificate(magic_square(), qmod.mermin_bcs_strategy())
    cert_file = tmp_path / "cert.json"
    cert_file.write_text(qmod.certificate_to_json(cert, bg.graph, bg0.graph))
    assert main(["quantum", "certify", *magic_graph_files, str(cert_file)]) == 0
    assert main(["quantum", "correlation", *magic_graph_files, str(cert_file)]) == 0


def test_quantum_correlation_file_is_pinned(magic_graph_files, tmp_path):
    # the exported table keeps its bytes now that the report checks the
    # correlation without building it
    bg, bg0, cert = qmod.strategy_to_certificate(magic_square(), qmod.mermin_bcs_strategy())
    cert_file, out = tmp_path / "cert.json", tmp_path / "corr.txt"
    cert_file.write_text(qmod.certificate_to_json(cert, bg.graph, bg0.graph))
    argv = ["--out", str(out), "quantum", "correlation", *magic_graph_files, str(cert_file)]
    assert main(argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "c062f34441af341239226afe5e545bd98732e03a96e7125ec72d20faf796f5e5")


def test_quantum_correlation_builds_no_table_without_out(magic_graph_files, tmp_path, capsys,
                                                         monkeypatch):
    bg, bg0, cert = qmod.strategy_to_certificate(magic_square(), qmod.mermin_bcs_strategy())
    cert_file = tmp_path / "cert.json"
    cert_file.write_text(qmod.certificate_to_json(cert, bg.graph, bg0.graph))

    def no_table(*args, **kwargs):
        raise AssertionError("certificate_correlation called without --out")

    monkeypatch.setattr(qmod, "certificate_correlation", no_table)
    assert main(["quantum", "correlation", *magic_graph_files, str(cert_file)]) == 0
    assert capsys.readouterr().out == (
        "quantum correlation: PASS\n  nonsignalling: True\n  perfect: True\n")


def test_quantum_packing(magic_graph_files, tmp_path, capsys):
    bg = bcs_graph(magic_square())
    packing = qmod.strategy_packing(qmod.mermin_bcs_strategy(), bg)
    pack_file = tmp_path / "pack.json"
    pack_file.write_text(qmod.packing_to_json(packing, bg.graph))
    assert main(["quantum", "packing", magic_graph_files[0], str(pack_file)]) == 0
    assert "6/1" in capsys.readouterr().out


MERMIN_DEMO_JSON = """{
 "command": "quantum mermin-demo",
 "verdict": "QUANTUM ISOMORPHIC, NOT ISOMORPHIC",
 "num_vertices": 24,
 "satisfiable": false,
 "isomorphic": false,
 "alpha": 5,
 "alpha_homogenized": 6,
 "cospectral": true,
 "complements_cospectral": true,
 "certificate_ok": true,
 "residuals": {
  "projector": 0.0,
  "hermitian": 0.0,
  "row_sum": 0.0,
  "col_sum": 0.0,
  "orthogonality": 0.0,
  "intertwining": 0.0,
  "unitarity": 0.0
 },
 "correlation_nonsignalling": true,
 "correlation_perfect": true,
 "packing_value": "6/1"
}
"""


def test_mermin_demo_json(capsys):
    assert main(["--json", "quantum", "mermin-demo"]) == 0
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert doc["command"] == "quantum mermin-demo"
    assert doc["num_vertices"] == 24
    assert doc["isomorphic"] is False
    assert doc["certificate_ok"] is True
    assert out == MERMIN_DEMO_JSON


def test_mermin_demo_out_writes_the_verified_certificate(magic_graph_files, tmp_path):
    cert_file = tmp_path / "cert.json"
    assert main(["--out", str(cert_file), "quantum", "mermin-demo"]) == 0
    report = qmod.quantum_reduction_report(magic_square())
    assert cert_file.read_text() == qmod.certificate_to_json(report["witness"], *report["graphs"])
    assert main(["quantum", "certify", *magic_graph_files, str(cert_file)]) == 0


def test_parse_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.g"
    bad.write_text("v a\ne a a\n")
    assert main(["graph", "alpha", str(bad)]) == 2


def test_missing_file_exits_2(tmp_path):
    assert main(["graph", "alpha", str(tmp_path / "nope.g")]) == 2


def test_unknown_subcommand_exits_2():
    assert main(["frobnicate"]) == 2


def test_deterministic_reports(graph_files, capsys):
    main(["--json", "graph", "fractional-iso", *graph_files])
    first = capsys.readouterr().out
    main(["--json", "graph", "fractional-iso", *graph_files])
    assert capsys.readouterr().out == first


@pytest.mark.parametrize("mode, entry", [
    ("float", "-1 0 1 1 1/2"),
    ("float", "0 0 0 4 1/2"),
    ("exact", "0 9 0 0 1/2"),
    ("exact", "0 0 -3 0 1/2"),
])
def test_ns_verify_index_out_of_range_exits_2(tmp_path, capsys, mode, entry):
    g = tmp_path / "k2.g"
    g.write_text("v a\nv b\ne a b\n")
    corr = tmp_path / "bad.corr"
    corr.write_text(f"corr 4 {mode}\nG:a G:b H:a H:b\n0 0 2 2 1\n{entry}\n")
    assert main(["ns", "verify", str(g), str(g), str(corr)]) == 2
    err = capsys.readouterr().err
    assert "line 4" in err and "out of range" in err and "Traceback" not in err


@pytest.mark.parametrize("text, line", [
    ("corr 4 float\nG:a G:b H:a H:b\n0 0 2 2 1/0\n", 3),
    ("corr 4 exact\nG:a G:b H:a H:b\n0 0 2 2 1/0\n", 3),
    ("corr 4 sparse\nG:a G:b H:a H:b\n0 0 2 2 1\n", 1),
    ("corr 4 exact\n", 1),
    ("corr 4 float\nG:a G:b H:a H:b\n0 0 2 2 1/2\n0 0 2 2 1/2\n", 4),
    ("corr 4 exact\nG:a G:b H:a H:b\n0 0 2 2 1/2\n0 0 2 2 1/2\n", 4),
], ids=["float-zero-division", "exact-zero-division", "unknown-mode", "no-token-line",
        "float-repeated-index", "exact-repeated-index"])
def test_ns_verify_malformed_correlation_exits_2(tmp_path, capsys, text, line):
    g = tmp_path / "k2.g"
    g.write_text("v a\nv b\ne a b\n")
    corr = tmp_path / "bad.corr"
    corr.write_text(text)
    assert main(["ns", "verify", str(g), str(g), str(corr)]) == 2
    err = capsys.readouterr().err
    assert f"line {line}" in err and "Traceback" not in err


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_non_finite_or_negative_tol_exits_2(tmp_path, capsys, tol):
    # a float table whose only entry is 5.0 passed every check under --tol nan or inf
    g, h, corr = tmp_path / "k2.g", tmp_path / "2k1.g", tmp_path / "bad.corr"
    g.write_text("v a\nv b\ne a b\n")
    h.write_text("v a\nv b\n")
    corr.write_text("corr 4 float\nG:a G:b H:a H:b\n0 0 2 2 5\n")
    assert main(["--tol", tol, "ns", "verify", str(g), str(h), str(corr)]) == 2
    err = capsys.readouterr().err
    assert "--tol" in err and "Traceback" not in err
    assert main(["ns", "verify", str(g), str(h), str(corr)]) == 1


def test_ns_verify_unicode_digit_header_exits_2(tmp_path, capsys):
    g = tmp_path / "k2.g"
    g.write_text("v a\nv b\ne a b\n")
    corr = tmp_path / "super.corr"
    corr.write_text("corr \u00b2 exact\nG:a G:b H:a H:b\n0 0 2 2 1\n")
    assert main(["ns", "verify", str(g), str(g), str(corr)]) == 2
    err = capsys.readouterr().err
    assert "line 1" in err and "Traceback" not in err


def test_ns_verify_checks_the_token_count_before_the_marginals(tmp_path, capsys, monkeypatch):
    # the marginal check allocates a dense N^3 array, so a table whose token
    # count does not match the graphs is refused before it runs
    def no_marginals(corr):
        raise AssertionError("verify_nonsignalling called on a mismatched table")

    monkeypatch.setattr(corrmod, "verify_nonsignalling", no_marginals)
    g, corr = tmp_path / "k2.g", tmp_path / "wide.corr"
    g.write_text("v a\nv b\ne a b\n")
    corr.write_text("corr 6 exact\nt0 t1 t2 t3 t4 t5\n0 0 5 5 1\n")
    assert main(["ns", "verify", str(g), str(g), str(corr)]) == 2
    err = capsys.readouterr().err
    assert "token count does not match" in err and "Traceback" not in err


@pytest.mark.parametrize("N", ["60000", "9" * 5000])
def test_ns_verify_token_count_past_int64_exits_2(tmp_path, capsys, N):
    g, corr = tmp_path / "k2.g", tmp_path / "huge.corr"
    g.write_text("v a\nv b\ne a b\n")
    corr.write_text(f"corr {N} float\nt0\n0 0 0 0 1\n")
    assert main(["ns", "verify", str(g), str(g), str(corr)]) == 2
    err = capsys.readouterr().err
    assert "line 1" in err and "too many" in err and "Traceback" not in err


def _ns_pairs():
    yield cycle(6), two_k3()
    rng = random.Random(6)
    while True:  # a three-cell pair, as the benchmark's equitable-cell pairs
        g, h, cep = cep_pair(rng)
        if cep.k == 3:
            yield g, h
            return


def test_ns_build_writes_the_six_loop_table(tmp_path):
    for g, h in _ns_pairs():
        gf, hf, out = tmp_path / "g.g", tmp_path / "h.g", tmp_path / "out.corr"
        gf.write_text(format_graph(g))
        hf.write_text(format_graph(h))
        assert main(["--out", str(out), "ns", "build", str(gf), str(hf)]) == 0
        g, h = parse_graph(gf.read_text()), parse_graph(hf.read_text())
        table = oracle_ns_table(g, h, common_equitable_partition(g, h))
        tokens = tuple("G:" + l for l in g.labels) + tuple("H:" + l for l in h.labels)
        assert out.read_text() == oracle_format_exact(tokens, table)


def test_ns_verify_exit_codes_on_perturbed_files(tmp_path):
    """Half an entry moved to another output, or an entry scaled by 3/2, as
    the benchmark's perturbed files do; the exit code follows the oracles."""
    for (g, h), kind in zip(_ns_pairs(), ("move", "scale")):
        gf, hf = tmp_path / "g.g", tmp_path / "h.g"
        gf.write_text(format_graph(g))
        hf.write_text(format_graph(h))
        g, h = parse_graph(gf.read_text()), parse_graph(hf.read_text())
        _, corr = ns_iso(g, h)
        table = dict(corr.table)
        key = sorted(table)[len(table) // 3]
        if kind == "move":
            other = key[:2] + ((key[2] + 1) % corr.size, key[3])
            table[other] = table.get(other, Fraction(0)) + table[key] / 2
            table[key] /= 2
        else:
            table[key] *= Fraction(3, 2)
        for t, code in ((dict(corr.table), 0), (table, 1)):
            path = tmp_path / "p.corr"
            path.write_text(format_correlation(Correlation(corr.inputs, "exact", t)))
            oracle = (oracle_distribution(t, corr.size) and oracle_nonsignalling(t, corr.size)
                      and oracle_perfect(t, g, h))
            assert code == (0 if oracle else 1)
            assert main(["ns", "verify", str(gf), str(hf), str(path)]) == code


@pytest.mark.parametrize("entry", ["0 0 2.0 2 1/2", "0 0 2 two 1/2", "0 0 2 2 nan",
                                   "0 0 2 2 1/2 7", "0 0 5 2 1/2"])
def test_ns_verify_malformed_exact_key_exits_2(tmp_path, capsys, entry):
    g = tmp_path / "k2.g"
    g.write_text("v a\nv b\ne a b\n")
    corr = tmp_path / "bad.corr"
    corr.write_text(f"corr 4 exact\nG:a G:b H:a H:b\n0 0 2 2 1/2\n{entry}\n")
    assert main(["ns", "verify", str(g), str(g), str(corr)]) == 2
    err = capsys.readouterr().err
    assert "line 4" in err and "Traceback" not in err


def test_ns_verify_exact_file_past_int64(tmp_path):
    """A parsed file whose common denominator times nnz overflows int64 is
    checked with Python ints."""
    p = 2 ** 61 - 1
    text = ("corr 2 exact\n0 1\n"
            f"0 0 0 0 1/{p}\n0 0 1 0 {p - 1}/{p}\n0 1 0 0 1/1\n1 0 0 0 1/1\n1 1 0 0 1/1\n")
    corr = parse_correlation(text)
    assert corr.table.data.dtype == object
    ok, violation = verify_nonsignalling(corr)
    assert not ok and violation[5:] == (Fraction(1, p), Fraction(1))
    assert format_correlation(corr) == text


@pytest.fixture(scope="module")
def witness_docs():
    bcs, strat = magic_square(), qmod.mermin_bcs_strategy()
    bg, bg0, cert = qmod.strategy_to_certificate(bcs, strat)
    packing = qmod.strategy_packing(strat, bg)
    return {"certify": qmod.certificate_to_json(cert, bg.graph, bg0.graph),
            "packing": qmod.packing_to_json(packing, bg.graph)}


def _set_entry(doc, value):
    doc["entries"][2]["matrix"][1][0] = value


@pytest.mark.parametrize("command", ["certify", "packing"])
@pytest.mark.parametrize("defect, named", [
    (lambda doc: doc.pop("d"), '"d"'),
    (lambda doc: doc.update(d="x"), '"d"'),
    (lambda doc: _set_entry(doc, ["NaN", 0]), "entry 2"),
    (lambda doc: _set_entry(doc, [float("nan"), 0]), "entry 2"),
    (lambda doc: _set_entry(doc, [0, float("inf")]), "entry 2"),
    (lambda doc: doc["entries"].insert(3, doc["entries"][2]), "entry 3: repeated"),
], ids=["missing-d", "string-d", "string-value", "nan-literal", "infinity-literal",
        "repeated-entry"])
def test_quantum_malformed_witness_exits_2(magic_graph_files, witness_docs, tmp_path, capsys,
                                           command, defect, named):
    doc = json.loads(witness_docs[command])
    defect(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    graphs = magic_graph_files if command == "certify" else magic_graph_files[:1]
    assert main(["--json", "quantum", command, *graphs, str(path)]) == 2
    captured = capsys.readouterr()
    assert named in captured.err and "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command", ["certify", "correlation", "packing"])
def test_quantum_entry_past_float_range_exits_2(magic_graph_files, witness_docs, tmp_path, capsys,
                                                command):
    doc = json.loads(witness_docs["packing" if command == "packing" else "certify"])
    _set_entry(doc, [10 ** 400, 0])
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    graphs = magic_graph_files[:1] if command == "packing" else magic_graph_files
    assert main(["quantum", command, *graphs, str(path)]) == 2
    captured = capsys.readouterr()
    assert "entry 2" in captured.err and "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command", ["certify", "correlation", "packing"])
def test_quantum_huge_finite_entry_fails_quietly(magic_graph_files, witness_docs, tmp_path, capsys,
                                                 command):
    # overflowing residuals become inf or NaN, which fail the check; numpy stays silent
    doc = json.loads(witness_docs["packing" if command == "packing" else "certify"])
    _set_entry(doc, [1e200, 0])
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    graphs = magic_graph_files[:1] if command == "packing" else magic_graph_files
    assert main(["quantum", command, *graphs, str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "" and "FAIL" in captured.out


def test_quantum_certify_json_stays_valid_on_overflow(magic_graph_files, tmp_path, capsys):
    # finite but huge blocks overflow every residual to inf or NaN
    bg, bg0, cert = qmod.strategy_to_certificate(magic_square(), qmod.mermin_bcs_strategy())
    blocks = cert.blocks.copy()
    blocks[0] *= 1e300
    blocks[1] *= -1e300
    path = tmp_path / "huge.json"
    path.write_text(qmod.certificate_to_json(qmod.QuantumIsoCertificate(4, blocks),
                                             bg.graph, bg0.graph))
    assert main(["--json", "quantum", "certify", *magic_graph_files, str(path)]) == 1

    def no_bare_constant(name):
        raise AssertionError(f"bare {name} in --json output")

    doc = json.loads(capsys.readouterr().out, parse_constant=no_bare_constant)
    assert doc["verdict"] == "FAIL" and doc["residuals"]["projector"] == "nan"


@pytest.mark.parametrize("reader", ["graph", "bcs", "correlation", "certificate"])
def test_input_that_is_not_utf8_exits_2(magic_graph_files, witness_docs, tmp_path, capsys, reader):
    argv, text = {
        "graph": (["graph", "alpha"], "v a\nv b\n"),
        "bcs": (["bcs", "check"], "x1 = 1\n"),
        "correlation": (["ns", "verify", *magic_graph_files], "corr 48 exact\n"),
        "certificate": (["quantum", "certify", *magic_graph_files], witness_docs["certify"]),
    }[reader]
    path = tmp_path / "latin1.txt"
    path.write_bytes(text.encode() + b"\xff\n")
    assert main([*argv, str(path)]) == 2
    err = capsys.readouterr().err
    assert f"{path}: not UTF-8 text" in err


def _run_qiso(*args, flags=()):
    """``python [flags] -m qgiso.cli args`` in a fresh interpreter."""
    src = str(Path(qgiso.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *flags, "-m", "qgiso.cli", *args],
                          capture_output=True, text=True, env=env, timeout=300)


@pytest.mark.parametrize("command", ["certify", "correlation", "packing"])
def test_integer_literal_past_int_digits_exits_2(magic_graph_files, witness_docs, tmp_path,
                                                 capsys, command):
    text = witness_docs["packing" if command == "packing" else "certify"]
    path = tmp_path / "long.json"
    path.write_text(text.replace('"d": 4', '"d": ' + "1" * 5000, 1))
    graphs = magic_graph_files[:1] if command == "packing" else magic_graph_files
    assert main(["quantum", command, *graphs, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""


def test_bcs_suffix_past_int_digits_exits_2(tmp_path, capsys):
    path = tmp_path / "long.bcs"
    path.write_text("x" + "1" * 5000 + " = 1\n")
    assert main(["bcs", "check", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: line 1: variable x1") and "exceeds cap" in err


@pytest.mark.parametrize("command", ["certify", "correlation", "packing"])
def test_deeply_nested_json_exits_2(magic_graph_files, tmp_path, command):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    graphs = magic_graph_files[:1] if command == "packing" else magic_graph_files
    proc = _run_qiso("quantum", command, *graphs, str(path))
    assert proc.returncode == 2 and "Traceback" not in proc.stderr
    assert "nested too deeply" in proc.stderr


def test_deeply_nested_json_exits_2_in_process(magic_graph_files, tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000)
    assert main(["quantum", "certify", *magic_graph_files, str(path)]) == 2
    assert capsys.readouterr() == ("", "error: JSON nested too deeply\n")


def test_mermin_demo_under_optimize_flag(capsys):
    proc = _run_qiso("--json", "quantum", "mermin-demo", flags=["-O"])
    assert proc.returncode == 0, proc.stderr
    assert main(["--json", "quantum", "mermin-demo"]) == 0
    assert json.loads(proc.stdout) == json.loads(capsys.readouterr().out)


def _readme_cli_lines():
    """The arguments of each `qiso` line in the README's CLI block."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```")[1]
    return [shlex.split(line.split("#")[0])[1:]
            for line in block.splitlines() if line.startswith("qiso ")]


def test_readme_cli_lines_parse():
    commands = set()
    for argv in _readme_cli_lines():
        args = build_parser().parse_args(argv)
        assert args.command == " ".join(argv[:2])
        assert ("--out" in argv) == (args.out is not None)
        commands.add(args.command)
    assert commands == {name for name, *_ in COMMANDS}


@pytest.mark.parametrize("argv", [["bcs", "magic-square"], ["quantum", "mermin-demo"],
                                  ["bcs", "to-graph", "--homogenize"]])
def test_options_before_or_after_the_command_agree(tmp_path, capsys, argv):
    bcs_file = tmp_path / "ms.bcs"
    bcs_file.write_text(format_bcs(magic_square()))
    argv = [*argv, str(bcs_file)] if "to-graph" in argv else argv
    before, after = tmp_path / "before", tmp_path / "after"
    assert main(["--json", "--out", str(before), *argv]) == 0
    first = capsys.readouterr().out
    assert main([*argv, "--out", str(after), "--json"]) == 0
    assert capsys.readouterr().out == first
    assert before.read_bytes() == after.read_bytes()


def test_parser_is_built_once_per_process(monkeypatch, capsys):
    main(["bcs", "magic-square"])  # builds the parser, if no earlier call has
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    for argv in (["bcs", "magic-square"], ["--json", "quantum", "mermin-demo"], ["frobnicate"],
                 ["quantum", "-h"]):
        main(argv)
    assert built == []


def test_consecutive_calls_share_no_option(tmp_path, capsys):
    bcs_file, out = tmp_path / "ms.bcs", tmp_path / "gf0.g"
    bcs_file.write_text(format_bcs(magic_square()))
    argv = ["--out", str(out), "--json", "bcs", "to-graph", "--homogenize", str(bcs_file)]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["command"] == "bcs to-graph"
    assert out.read_text() == format_graph(bcs_graph(homogenize(magic_square())).graph)
    assert main(["bcs", "to-graph", str(bcs_file)]) == 0
    assert capsys.readouterr().out == format_graph(bcs_graph(magic_square()).graph)


def test_artifacts_are_built_only_for_out(graph_files, magic_graph_files, tmp_path, capsys,
                                          monkeypatch):
    bg, bg0, cert = qmod.strategy_to_certificate(magic_square(), qmod.mermin_bcs_strategy())
    cert_file = tmp_path / "cert.json"
    cert_file.write_text(qmod.certificate_to_json(cert, bg.graph, bg0.graph))
    built = []
    for module, name in ((eqmod, "format_ds_witness"), (corrmod, "format_correlation"),
                         (qmod, "certificate_to_json")):
        def counted(*args, _format=getattr(module, name), _name=name):
            built.append(_name)
            return _format(*args)

        monkeypatch.setattr(module, name, counted)
    commands = (["graph", "fractional-iso", *graph_files], ["ns", "build", *graph_files],
                ["quantum", "correlation", *magic_graph_files, str(cert_file)],
                ["quantum", "mermin-demo"])
    for argv in commands:
        assert main(argv) == 0
    assert built == []
    for i, argv in enumerate(commands):
        assert main(["--out", str(tmp_path / f"out{i}"), *argv]) == 0
    assert built == ["format_ds_witness", "format_correlation", "format_correlation",
                     "certificate_to_json"]


class _ClosedStdout:
    """Standard output whose reader has gone: writing raises BrokenPipeError."""

    def __init__(self, fd):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        raise BrokenPipeError(32, "Broken pipe")

    def fileno(self):
        return self.fd


@pytest.mark.parametrize("argv, code", [
    (["--json", "quantum", "mermin-demo"], 0), (["graph", "iso"], 1), (["bcs", "magic-square"], 0),
], ids=["mermin-demo", "refuted", "raw text"])
def test_closed_stdout_keeps_the_verdict(magic_graph_files, tmp_path, capsys, monkeypatch,
                                         argv, code):
    argv = [*argv, *magic_graph_files] if "iso" in argv else argv
    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
    try:
        monkeypatch.setattr(sys, "stdout", _ClosedStdout(fd))
        assert main(argv) == code
        # the descriptor now points at os.devnull, so the flush at exit cannot fail
        assert os.path.samestat(os.fstat(fd), os.stat(os.devnull))
    finally:
        os.close(fd)
    assert capsys.readouterr().err == ""


def test_unwritable_out_exits_2(tmp_path, capsys):
    assert main(["--out", str(tmp_path), "bcs", "magic-square"]) == 2
    assert capsys.readouterr().err.startswith("error: ")
