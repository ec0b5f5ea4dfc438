"""Command-line driver.

Exit codes: 0 the property holds / verification passed, 1 the property is
refuted / verification failed, 2 usage, parse, or size-limit errors.
Reports are deterministic; ``--json`` switches to a stable JSON schema with
keys command, verdict, residuals, witnesses.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import bcs as bcsmod
from . import correlations as corrmod
from . import equitable as eqmod
from . import graphs as gmod
from . import quantum as qmod

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_ERROR = 2


def _jsonable(x):
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, gmod.CharPoly):
        return str(x)
    if isinstance(x, gmod.VertexMap):
        return list(x.image)
    if isinstance(x, (np.integer,)):
        return int(x)
    if isinstance(x, (float, np.floating)):
        x = float(x)
        return x if math.isfinite(x) else str(x)  # JSON has no NaN or infinity literal
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return x


def _emit(args, command, verdict, payload):
    if args.json:
        doc = {"command": command, "verdict": verdict}
        doc.update(_jsonable(payload))
        print(json.dumps(doc, indent=1))
    else:
        print(f"{command}: {verdict}")
        for k, v in payload.items():
            print(f"  {k}: {_jsonable(v)}")


def _read(path):
    """A file's text, decoded as UTF-8; other bytes raise ParseError naming the file."""
    try:
        return Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise gmod.ParseError(f"{path}: not UTF-8 text (byte {exc.start})") from None


def _read_graph(path):
    return gmod.parse_graph(_read(path))


def _write_out(args, text):
    if args.out:
        Path(args.out).write_text(text)


def cmd_graph_iso(args):
    g, h = _read_graph(args.g), _read_graph(args.h)
    phi = gmod.find_isomorphism(g, h)
    if phi is None:
        _emit(args, "graph iso", "NOT ISOMORPHIC", {})
        return EXIT_REFUTED
    _emit(args, "graph iso", "ISOMORPHIC", {"witnesses": {"map": list(phi.image)}})
    return EXIT_OK


def cmd_graph_fractional_iso(args):
    g, h = _read_graph(args.g), _read_graph(args.h)
    result = eqmod.fractional_iso(g, h)
    if result is None:
        _emit(args, "graph fractional-iso", "NOT FRACTIONALLY ISOMORPHIC", {})
        return EXIT_REFUTED
    cep, D = result
    _write_out(args, eqmod.format_ds_witness(D))
    _emit(args, "graph fractional-iso", "FRACTIONALLY ISOMORPHIC", {
        "witnesses": {"cells": len(cep.cells_g), "sizes": list(cep.sizes())},
    })
    return EXIT_OK


def cmd_graph_cospectral(args):
    g, h = _read_graph(args.g), _read_graph(args.h)
    report = gmod.cospectral_mates(g, h)
    both = report["cospectral"] and report["complements_cospectral"]
    verdict = "COSPECTRAL WITH COSPECTRAL COMPLEMENTS" if both else "NOT COSPECTRAL MATES"
    _emit(args, "graph cospectral", verdict, {
        "cospectral": report["cospectral"],
        "complements_cospectral": report["complements_cospectral"],
        "char_poly_g": str(report["char_poly_g"]),
        "char_poly_h": str(report["char_poly_h"]),
    })
    return EXIT_OK if both else EXIT_REFUTED


def cmd_graph_alpha(args):
    g = _read_graph(args.g)
    result = gmod.independence_number(g)
    _emit(args, "graph alpha", str(result["alpha"]), {
        "witnesses": {"vertices": [g.labels[v] for v in result["witness"]]},
    })
    return EXIT_OK


def cmd_ns_build(args):
    g, h = _read_graph(args.g), _read_graph(args.h)
    result = corrmod.ns_iso(g, h)
    if result is None:
        _emit(args, "ns build", "NOT NON-SIGNALLING ISOMORPHIC", {})
        return EXIT_REFUTED
    _, corr = result
    _write_out(args, corrmod.format_correlation(corr))
    _emit(args, "ns build", "NON-SIGNALLING ISOMORPHIC", {
        "witnesses": {"nonzero_entries": len(corr.table)},
    })
    return EXIT_OK


def cmd_ns_verify(args):
    g, h = _read_graph(args.g), _read_graph(args.h)
    corr = corrmod.parse_correlation(_read(args.correlation), tol=args.tol)
    checks = {}
    ok, why = corrmod.verify_distribution(corr)
    checks["distribution"] = ok if ok else str(why)
    all_ok = ok
    ok, why = corrmod.verify_nonsignalling(corr)
    checks["nonsignalling"] = ok if ok else str(why)
    all_ok = all_ok and ok
    ok, why = corrmod.verify_perfect_iso_strategy(corr, g, h)
    checks["perfect"] = ok if ok else str(why)
    all_ok = all_ok and ok
    _emit(args, "ns verify", "PASS" if all_ok else "FAIL", checks)
    return EXIT_OK if all_ok else EXIT_REFUTED


def _read_bcs(path):
    return bcsmod.parse_bcs(_read(path))


def cmd_bcs_check(args):
    system = _read_bcs(args.bcs)
    assignment, _ = bcsmod.solve_or_refute(system)
    if assignment is None:
        _emit(args, "bcs check", "UNSATISFIABLE", {})
        return EXIT_REFUTED
    _emit(args, "bcs check", "SATISFIABLE", {"witnesses": {"assignment": list(assignment)}})
    return EXIT_OK


def cmd_bcs_to_graph(args):
    system = _read_bcs(args.bcs)
    if args.homogenize:
        system = bcsmod.homogenize(system)
    bg = bcsmod.bcs_graph(system)
    text = gmod.format_graph(bg.graph)
    _write_out(args, text)
    if not args.out:
        sys.stdout.write(text)
    else:
        _emit(args, "bcs to-graph", "OK", {"vertices": bg.graph.n, "edges": bg.graph.num_edges()})
    return EXIT_OK


def cmd_bcs_report(args):
    system = _read_bcs(args.bcs)
    report = bcsmod.classical_reduction_report(system)
    verdict = "SATISFIABLE" if report["satisfiable"] else "UNSATISFIABLE"
    payload = {
        "satisfiable": report["satisfiable"],
        "graphs_isomorphic": report["graphs_isomorphic"],
        "alpha": report["alpha"],
        "alpha_equals_m": report["alpha_equals_m"],
        "m": report["m"],
        "num_vertices": report["num_vertices"],
    }
    if not report["satisfiable"]:
        payload["witnesses"] = {"refutation": list(report["refutation"])}
    _emit(args, "bcs report", verdict, payload)
    return EXIT_OK if report["satisfiable"] else EXIT_REFUTED


def cmd_bcs_magic_square(args):
    text = bcsmod.format_bcs(bcsmod.magic_square())
    _write_out(args, text)
    if not args.out:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_quantum_certify(args):
    g, h = _read_graph(args.g), _read_graph(args.h)
    cert = qmod.certificate_from_json(_read(args.certificate), g, h)
    report = qmod.verify_qiso_certificate(g, h, cert, tol=args.tol)
    _emit(args, "quantum certify", "PASS" if report["ok"] else "FAIL", {
        "residuals": report.get("residuals", {}),
    })
    return EXIT_OK if report["ok"] else EXIT_REFUTED


def cmd_quantum_correlation(args):
    g, h = _read_graph(args.g), _read_graph(args.h)
    cert = qmod.certificate_from_json(_read(args.certificate), g, h)
    report = qmod.verify_qiso_certificate(g, h, cert, tol=args.tol)
    if not report["ok"]:
        _emit(args, "quantum correlation", "FAIL", {"residuals": report["residuals"]})
        return EXIT_REFUTED
    if args.out:  # the table is built only to be written
        corr = qmod.certificate_correlation(cert, g, h, tol=args.tol)
        _write_out(args, corrmod.format_correlation(corr))
    (ns_ok, _), (perfect_ok, _) = qmod.verify_certificate_correlation(cert, g, h, tol=args.tol)
    ok = ns_ok and perfect_ok
    _emit(args, "quantum correlation", "PASS" if ok else "FAIL", {
        "nonsignalling": ns_ok, "perfect": perfect_ok,
    })
    return EXIT_OK if ok else EXIT_REFUTED


def cmd_quantum_packing(args):
    g = _read_graph(args.g)
    pack = qmod.packing_from_json(_read(args.packing), g)
    report = qmod.verify_packing(g, pack, tol=args.tol)
    if not report["ok"]:
        _emit(args, "quantum packing", "FAIL", {"reason": report.get("reason", "")})
        return EXIT_REFUTED
    _emit(args, "quantum packing", "PASS", {
        "value": report["value"], "residuals": report["residuals"],
    })
    return EXIT_OK


def cmd_quantum_mermin_demo(args):
    report = qmod.quantum_reduction_report(bcsmod.magic_square(), tol=args.tol)
    payload = {
        "num_vertices": report["num_vertices"],
        "satisfiable": report["satisfiable"],
        "isomorphic": report["isomorphic"],
        "alpha": report["alpha"],
        "alpha_homogenized": report["alpha_homogenized"],
        "cospectral": report["cospectral"],
        "complements_cospectral": report["complements_cospectral"],
        "certificate_ok": report["certificate"]["ok"],
        "residuals": report["certificate"]["residuals"],
        "correlation_nonsignalling": report["correlation_nonsignalling"],
        "correlation_perfect": report["correlation_perfect"],
        "packing_value": report["packing"].get("value"),
    }
    if not report["ok"]:
        _emit(args, "quantum mermin-demo", "FAIL", payload)
        return EXIT_REFUTED
    if args.out:
        Path(args.out).write_text(qmod.certificate_to_json(report["witness"], *report["graphs"]))
    _emit(args, "quantum mermin-demo", "QUANTUM ISOMORPHIC, NOT ISOMORPHIC", payload)
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(prog="qiso", description=__doc__)
    parser.add_argument("--tol", type=float, default=1e-9)
    parser.add_argument("--json", action="store_true")
    parser.add_argument("--out", type=str, default=None)
    top = parser.add_subparsers(dest="group", required=True)

    graph = top.add_parser("graph").add_subparsers(dest="sub", required=True)
    p = graph.add_parser("iso")
    p.add_argument("g")
    p.add_argument("h")
    p.set_defaults(func=cmd_graph_iso)
    p = graph.add_parser("fractional-iso")
    p.add_argument("g")
    p.add_argument("h")
    p.set_defaults(func=cmd_graph_fractional_iso)
    p = graph.add_parser("cospectral")
    p.add_argument("g")
    p.add_argument("h")
    p.set_defaults(func=cmd_graph_cospectral)
    p = graph.add_parser("alpha")
    p.add_argument("g")
    p.set_defaults(func=cmd_graph_alpha)

    ns = top.add_parser("ns").add_subparsers(dest="sub", required=True)
    p = ns.add_parser("build")
    p.add_argument("g")
    p.add_argument("h")
    p.set_defaults(func=cmd_ns_build)
    p = ns.add_parser("verify")
    p.add_argument("g")
    p.add_argument("h")
    p.add_argument("correlation")
    p.set_defaults(func=cmd_ns_verify)

    b = top.add_parser("bcs").add_subparsers(dest="sub", required=True)
    p = b.add_parser("check")
    p.add_argument("bcs")
    p.set_defaults(func=cmd_bcs_check)
    p = b.add_parser("to-graph")
    p.add_argument("bcs")
    p.add_argument("--homogenize", action="store_true")
    p.set_defaults(func=cmd_bcs_to_graph)
    p = b.add_parser("report")
    p.add_argument("bcs")
    p.set_defaults(func=cmd_bcs_report)
    p = b.add_parser("magic-square")
    p.set_defaults(func=cmd_bcs_magic_square)

    q = top.add_parser("quantum").add_subparsers(dest="sub", required=True)
    p = q.add_parser("certify")
    p.add_argument("g")
    p.add_argument("h")
    p.add_argument("certificate")
    p.set_defaults(func=cmd_quantum_certify)
    p = q.add_parser("correlation")
    p.add_argument("g")
    p.add_argument("h")
    p.add_argument("certificate")
    p.set_defaults(func=cmd_quantum_correlation)
    p = q.add_parser("packing")
    p.add_argument("g")
    p.add_argument("packing")
    p.set_defaults(func=cmd_quantum_packing)
    p = q.add_parser("mermin-demo")
    p.set_defaults(func=cmd_quantum_mermin_demo)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_ERROR if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (gmod.GraphError, bcsmod.BCSError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
