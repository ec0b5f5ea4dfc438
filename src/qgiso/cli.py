"""Command-line driver.

Exit codes: 0 the property holds / verification passed, 1 the property is
refuted / verification failed, 2 usage, parse, or size-limit errors.
Reports are deterministic; ``--json`` switches to a stable JSON schema with
keys command, verdict, residuals, witnesses.  Each command is declared
once, as a row of ``COMMANDS``; the options --tol, --json and --out may
come before or after it.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
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
    if isinstance(x, (float, np.floating)):
        x = float(x)
        return x if math.isfinite(x) else str(x)  # JSON has no NaN or infinity literal
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return x


def _emit(args, verdict, payload):
    if verdict is None:  # the command's artifact, as raw text
        sys.stdout.write(payload)
    elif args.json:
        doc = {"command": args.command, "verdict": verdict}
        doc.update(_jsonable(payload))
        print(json.dumps(doc, indent=1))
    else:
        print(f"{args.command}: {verdict}")
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


def _read_graphs(args):
    return _read_graph(args.g), _read_graph(args.h)


def _write_out(args, build, echo=False):
    """Writes ``build()``'s text to --out, building it only then; returns
    it instead with ``echo`` and no --out, else ""."""
    if args.out:
        Path(args.out).write_text(build())
        return ""
    return build() if echo else ""


# A command handler returns (ok, verdict, payload), which ``main`` reports
# under the command's name with exit code 0 or 1; with verdict None, the
# payload is the raw text of its artifact.

def cmd_graph_iso(args):
    phi = gmod.find_isomorphism(*_read_graphs(args))
    if phi is None:
        return False, "NOT ISOMORPHIC", {}
    return True, "ISOMORPHIC", {"witnesses": {"map": list(phi.image)}}


def cmd_graph_fractional_iso(args):
    result = eqmod.fractional_iso(*_read_graphs(args))
    if result is None:
        return False, "NOT FRACTIONALLY ISOMORPHIC", {}
    cep, D = result
    _write_out(args, lambda: eqmod.format_ds_witness(D))
    return True, "FRACTIONALLY ISOMORPHIC", {
        "witnesses": {"cells": len(cep.cells_g), "sizes": list(cep.sizes())},
    }


def cmd_graph_cospectral(args):
    report = gmod.cospectral_mates(*_read_graphs(args))
    both = report["cospectral"] and report["complements_cospectral"]
    return both, "COSPECTRAL WITH COSPECTRAL COMPLEMENTS" if both else "NOT COSPECTRAL MATES", {
        "cospectral": report["cospectral"],
        "complements_cospectral": report["complements_cospectral"],
        "char_poly_g": str(report["char_poly_g"]),
        "char_poly_h": str(report["char_poly_h"]),
    }


def cmd_graph_alpha(args):
    g = _read_graph(args.g)
    result = gmod.independence_number(g)
    return True, str(result["alpha"]), {
        "witnesses": {"vertices": [g.labels[v] for v in result["witness"]]},
    }


def cmd_ns_build(args):
    result = corrmod.ns_iso(*_read_graphs(args))
    if result is None:
        return False, "NOT NON-SIGNALLING ISOMORPHIC", {}
    _, corr = result
    _write_out(args, lambda: corrmod.format_correlation(corr))
    return True, "NON-SIGNALLING ISOMORPHIC", {"witnesses": {"nonzero_entries": len(corr.table)}}


def cmd_ns_verify(args):
    g, h = _read_graphs(args)
    corr = corrmod.parse_correlation(_read(args.correlation), tol=args.tol)
    perfect = corrmod.verify_perfect_iso_strategy(corr, g, h)  # refuses a wrong token count first
    checks = {
        "distribution": corrmod.verify_distribution(corr),
        "nonsignalling": corrmod.verify_nonsignalling(corr),
        "perfect": perfect,
    }
    ok = all(passed for passed, _ in checks.values())
    return ok, "PASS" if ok else "FAIL", {
        name: passed or str(why) for name, (passed, why) in checks.items()}


def _read_bcs(path):
    return bcsmod.parse_bcs(_read(path))


def cmd_bcs_check(args):
    assignment, _ = bcsmod.solve_or_refute(_read_bcs(args.bcs))
    if assignment is None:
        return False, "UNSATISFIABLE", {}
    return True, "SATISFIABLE", {"witnesses": {"assignment": list(assignment)}}


def cmd_bcs_to_graph(args):
    system = _read_bcs(args.bcs)
    bg = bcsmod.bcs_graph(bcsmod.homogenize(system) if args.homogenize else system)
    text = _write_out(args, lambda: gmod.format_graph(bg.graph), echo=True)
    if not args.out:
        return True, None, text
    return True, "OK", {"vertices": bg.graph.n, "edges": bg.graph.num_edges()}


def cmd_bcs_report(args):
    report = bcsmod.classical_reduction_report(_read_bcs(args.bcs))
    payload = {k: report[k] for k in ("satisfiable", "graphs_isomorphic", "alpha",
                                      "alpha_equals_m", "m", "num_vertices")}
    if not report["satisfiable"]:
        payload["witnesses"] = {"refutation": list(report["refutation"])}
    sat = report["satisfiable"]
    return sat, "SATISFIABLE" if sat else "UNSATISFIABLE", payload


def cmd_bcs_magic_square(args):
    return True, None, _write_out(args, lambda: bcsmod.format_bcs(bcsmod.magic_square()), echo=True)


def _certify(args):
    """The graphs, the certificate and its ``verify_qiso_certificate`` report."""
    g, h = _read_graphs(args)
    cert = qmod.certificate_from_json(_read(args.certificate), g, h)
    return g, h, cert, qmod.verify_qiso_certificate(g, h, cert, tol=args.tol)


def cmd_quantum_certify(args):
    report = _certify(args)[3]
    return report["ok"], "PASS" if report["ok"] else "FAIL", {
        "residuals": report.get("residuals", {})}


def cmd_quantum_correlation(args):
    g, h, cert, report = _certify(args)
    if not report["ok"]:
        return False, "FAIL", {"residuals": report["residuals"]}
    _write_out(args, lambda: corrmod.format_correlation(
        qmod.certificate_correlation(cert, g, h, tol=args.tol)))
    (ns_ok, _), (perfect_ok, _) = qmod.verify_certificate_correlation(cert, g, h, tol=args.tol)
    ok = ns_ok and perfect_ok
    return ok, "PASS" if ok else "FAIL", {"nonsignalling": ns_ok, "perfect": perfect_ok}


def cmd_quantum_packing(args):
    g = _read_graph(args.g)
    report = qmod.verify_packing(g, qmod.packing_from_json(_read(args.packing), g), tol=args.tol)
    if not report["ok"]:
        return False, "FAIL", {"reason": report.get("reason", "")}
    return True, "PASS", {"value": report["value"], "residuals": report["residuals"]}


def cmd_quantum_mermin_demo(args):
    report = qmod.quantum_reduction_report(bcsmod.magic_square(), tol=args.tol)
    payload = {k: report[k] for k in ("num_vertices", "satisfiable", "isomorphic", "alpha",
                                      "alpha_homogenized", "cospectral", "complements_cospectral")}
    payload.update({
        "certificate_ok": report["certificate"]["ok"],
        "residuals": report["certificate"]["residuals"],
        "correlation_nonsignalling": report["correlation_nonsignalling"],
        "correlation_perfect": report["correlation_perfect"],
        "packing_value": report["packing"].get("value"),
    })
    if not report["ok"]:
        return False, "FAIL", payload
    _write_out(args, lambda: qmod.certificate_to_json(report["witness"], *report["graphs"]))
    return True, "QUANTUM ISOMORPHIC, NOT ISOMORPHIC", payload


# One row per command: its "group sub" name, handler, positional arguments
# and store-true flags.
COMMANDS = (
    ("graph iso", cmd_graph_iso, ("g", "h"), ()),
    ("graph fractional-iso", cmd_graph_fractional_iso, ("g", "h"), ()),
    ("graph cospectral", cmd_graph_cospectral, ("g", "h"), ()),
    ("graph alpha", cmd_graph_alpha, ("g",), ()),
    ("ns build", cmd_ns_build, ("g", "h"), ()),
    ("ns verify", cmd_ns_verify, ("g", "h", "correlation"), ()),
    ("bcs check", cmd_bcs_check, ("bcs",), ()),
    ("bcs to-graph", cmd_bcs_to_graph, ("bcs",), ("--homogenize",)),
    ("bcs report", cmd_bcs_report, ("bcs",), ()),
    ("bcs magic-square", cmd_bcs_magic_square, (), ()),
    ("quantum certify", cmd_quantum_certify, ("g", "h", "certificate"), ()),
    ("quantum correlation", cmd_quantum_correlation, ("g", "h", "certificate"), ()),
    ("quantum packing", cmd_quantum_packing, ("g", "packing"), ()),
    ("quantum mermin-demo", cmd_quantum_mermin_demo, (), ()),
)


def _tolerance(text):
    try:
        return corrmod.check_tolerance(float(text))
    except ValueError:  # GraphError is one too
        raise argparse.ArgumentTypeError(f"expected a finite number >= 0, got {text!r}") from None


def _add_options(parser, tol, json_, out):
    parser.add_argument("--tol", type=_tolerance, default=tol)
    parser.add_argument("--json", action="store_true", default=json_)
    parser.add_argument("--out", default=out)


@functools.cache
def build_parser():
    """The argparse tree of ``COMMANDS``, built once: parsing leaves it as it was.

    Every command parser takes the root's options again, with no default,
    so a value given before the command stands unless it is given after."""
    parser = argparse.ArgumentParser(prog="qiso", description=__doc__)
    _add_options(parser, corrmod.DEFAULT_TOL, False, None)
    top = parser.add_subparsers(dest="group", required=True)
    groups = {}
    for name, handler, positionals, flags in COMMANDS:
        group, sub = name.split()
        if group not in groups:
            groups[group] = top.add_parser(group).add_subparsers(dest="sub", required=True)
        p = groups[group].add_parser(sub)
        _add_options(p, *[argparse.SUPPRESS] * 3)
        for arg in positionals:
            p.add_argument(arg)
        for flag in flags:
            p.add_argument(flag, action="store_true")
        p.set_defaults(func=handler, command=name)
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_ERROR if exc.code not in (0, None) else 0
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # an inf or NaN residual fails
            ok, verdict, payload = args.func(args)
    except (gmod.GraphError, bcsmod.BCSError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    try:
        _emit(args, verdict, payload)
        sys.stdout.flush()
    except BrokenPipeError:  # the reader closed stdout early, as head does: the verdict stands
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # so the exit flush cannot fail
    return EXIT_OK if ok else EXIT_REFUTED


if __name__ == "__main__":
    sys.exit(main())
