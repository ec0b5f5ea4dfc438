import json

import pytest

from conftest import cycle, two_k3
from qgiso.cli import main
from qgiso.graphs import format_graph
from qgiso.bcs import bcs_graph, format_bcs, homogenize, magic_square
from qgiso import quantum as qmod


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


def test_graph_fractional_iso(graph_files, tmp_path, capsys):
    out = tmp_path / "witness.ds"
    assert main(["--out", str(out), "graph", "fractional-iso", *graph_files]) == 0
    assert "FRACTIONALLY ISOMORPHIC" in capsys.readouterr().out
    assert out.read_text().startswith("ds 6 6")


def test_graph_cospectral(magic_graph_files):
    assert main(["graph", "cospectral", *magic_graph_files]) == 0


def test_graph_cospectral_refuted(graph_files):
    assert main(["graph", "cospectral", *graph_files]) == 1


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


def test_quantum_packing(magic_graph_files, tmp_path, capsys):
    bg, packing = qmod.strategy_packing(magic_square(), qmod.mermin_bcs_strategy())
    pack_file = tmp_path / "pack.json"
    pack_file.write_text(qmod.packing_to_json(packing, bg.graph))
    assert main(["quantum", "packing", magic_graph_files[0], str(pack_file)]) == 0
    assert "6/1" in capsys.readouterr().out


def test_mermin_demo_json(capsys):
    assert main(["--json", "quantum", "mermin-demo"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["command"] == "quantum mermin-demo"
    assert doc["num_vertices"] == 24
    assert doc["isomorphic"] is False
    assert doc["certificate_ok"] is True


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
