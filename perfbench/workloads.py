"""The four benchmark workloads and the inputs they are built from.

``build(name, seed, workdir)`` returns the decisions of one pass of a
workload.  Each decision calls qgiso through module attributes looked up at
call time, so the span recorder's wrappers see the calls, and returns an
observation that the runner compares with the decision's expected value.

The expected values are written down here from the mathematics of each
input, never computed by qgiso:

- a permuted copy is isomorphic and fractionally isomorphic;
- two regular graphs of equal size and degree are fractionally (hence
  non-signalling) isomorphic;
- a pair built on one equitable cell structure is fractionally isomorphic;
- a pair whose (degree, neighbour-degree multiset) profiles differ is
  separated by two rounds of colour refinement, so it is neither
  fractionally isomorphic nor isomorphic;
- a connected cycle is not isomorphic to two disjoint cycles;
- a single-entry change of a valid certificate breaks a block row sum,
  moving half of one correlation entry to another output breaks
  non-signalling, and scaling one entry breaks normalisation, so every
  perturbed witness must be rejected.

Every cost that sets a median depends only on the fixed structure of an
input (sizes, degrees, cell structure), not on the seed, so runs with
different seeds measure the same work on different inputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

from qgiso import bcs as bmod
from qgiso import cli as climod
from qgiso import correlations as cmod
from qgiso import equitable as emod
from qgiso import graphs as gmod
from qgiso import quantum as qmod

TOL = 1e-9


@dataclass
class Decision:
    label: str
    run: Callable[[], object]
    expect: object


# --- graph generators (plain adjacency sets, seeded) -------------------------

def _to_graph(adj, prefix, rng):
    """Graph on randomly permuted vertices, so labels carry no structure."""
    n = len(adj)
    perm = list(range(n))
    rng.shuffle(perm)
    a = np.zeros((n, n), dtype=bool)
    for v, nbrs in enumerate(adj):
        for u in nbrs:
            a[perm[v], perm[u]] = True
    return gmod.Graph(tuple(f"{prefix}{i}" for i in range(n)), a)


def _add_edge(adj, a, b):
    adj[a].add(b)
    adj[b].add(a)


def _random_regular(n, d, rng):
    """Uniform d-regular graph by the pairing model with rejection."""
    while True:
        points = [v for v in range(n) for _ in range(d)]
        rng.shuffle(points)
        adj = [set() for _ in range(n)]
        for a, b in zip(points[::2], points[1::2]):
            if a == b or b in adj[a]:
                break
            _add_edge(adj, a, b)
        else:
            return adj


def _random_graph(n, m, rng):
    """Uniform graph with n vertices and exactly m edges."""
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    adj = [set() for _ in range(n)]
    for a, b in rng.sample(pairs, m):
        _add_edge(adj, a, b)
    return adj


def _cycles(lengths):
    adj = [set() for _ in range(sum(lengths))]
    start = 0
    for k in lengths:
        for i in range(k):
            _add_edge(adj, start + i, start + (i + 1) % k)
        start += k
    return adj


def _circulant_offsets(size, degree, rng):
    """A random symmetric offset set of the given degree on Z_size."""
    offs = [size // 2] if degree % 2 else []
    half = list(range(1, (size + 1) // 2))
    rng.shuffle(half)
    return offs + half[: degree // 2]


def _equitable_graph(sizes, c, rng):
    """A random graph with the equitable cell structure (sizes, c).

    Cells are circulants of degree c[i][i]; cross blocks send vertex a of
    cell i to the c[i][j] consecutive residues after a*c[i][j] + shift in
    cell j, which hits every vertex of cell j exactly c[j][i] times.
    """
    starts = [sum(sizes[:i]) for i in range(len(sizes))]
    adj = [set() for _ in range(sum(sizes))]
    for i, s in enumerate(sizes):
        for o in _circulant_offsets(s, c[i][i], rng):
            for a in range(s):
                _add_edge(adj, starts[i] + a, starts[i] + (a + o) % s)
    for i in range(len(sizes)):
        for j in range(i + 1, len(sizes)):
            shift = rng.randrange(sizes[j])
            for a in range(sizes[i]):
                for t in range(c[i][j]):
                    _add_edge(adj, starts[i] + a, starts[j] + (a * c[i][j] + t + shift) % sizes[j])
    for i in range(len(sizes)):
        for v in range(starts[i], starts[i] + sizes[i]):
            for j in range(len(sizes)):
                hits = sum(starts[j] <= u < starts[j] + sizes[j] for u in adj[v])
                if hits != c[i][j]:
                    raise RuntimeError(f"cell structure {sizes} {c} is not realisable")
    return adj


def _profile(adj):
    """Sorted (degree, neighbour-degree multiset) per vertex: two rounds of
    colour refinement."""
    deg = [len(s) for s in adj]
    return sorted((deg[v], tuple(sorted(deg[u] for u in adj[v]))) for v in range(len(adj)))


def _profile_changing_switch(adj, rng):
    """A degree-preserving 2-switch of adj whose refinement profile differs,
    or None if random tries find none."""
    edges = [(a, b) for a in range(len(adj)) for b in adj[a] if a < b]
    for _ in range(500 if len(edges) >= 2 else 0):
        (a, b), (c, d) = rng.sample(edges, 2)
        if rng.random() < 0.5:
            c, d = d, c
        if len({a, b, c, d}) < 4 or c in adj[a] or d in adj[b]:
            continue
        new = [set(s) for s in adj]
        for x, y in ((a, b), (c, d)):
            new[x].discard(y)
            new[y].discard(x)
        _add_edge(new, a, c)
        _add_edge(new, b, d)
        if _profile(new) != _profile(adj):
            return new
    return None


def _separable_pair(n, m, rng):
    """Equal degree sequences, different refinement profiles."""
    while True:
        adj = _random_graph(n, m, rng)
        switched = _profile_changing_switch(adj, rng)
        if switched is not None:
            return adj, switched


def _discrete_graph(n, m, rng):
    """A random graph on which colour refinement alone is discrete, so an
    isomorphism search on a permuted copy never branches."""
    while True:
        adj = _random_graph(n, m, rng)
        g = _to_graph(adj, "v", rng)
        if emod.color_refinement(g).k == n:
            return adj


# --- workload: mermin-demo ----------------------------------------------------

def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = climod.main(argv)
    return code, out.getvalue()


def _mermin_demo():
    code, out = _run_cli(["--json", "quantum", "mermin-demo"])
    doc = json.loads(out)
    keys = ("verdict", "num_vertices", "satisfiable", "isomorphic", "alpha",
            "alpha_homogenized", "cospectral", "complements_cospectral", "certificate_ok",
            "correlation_nonsignalling", "correlation_perfect", "packing_value")
    observed = {k: doc.get(k) for k in keys}
    observed["exit"] = code
    observed["residuals_within_tol"] = max(doc["residuals"].values()) <= TOL
    return observed


MERMIN_EXPECT = {
    "exit": 0,
    "verdict": "QUANTUM ISOMORPHIC, NOT ISOMORPHIC",
    "num_vertices": 24,
    "satisfiable": False,
    "isomorphic": False,
    "alpha": 5,
    "alpha_homogenized": 6,
    "cospectral": True,
    "complements_cospectral": True,
    "certificate_ok": True,
    "residuals_within_tol": True,
    "correlation_nonsignalling": True,
    "correlation_perfect": True,
    "packing_value": "6/1",
}


def _build_mermin_demo(rng, workdir):
    return [Decision("quantum mermin-demo", _mermin_demo, MERMIN_EXPECT)]


# --- workload: pentagram ------------------------------------------------------

_I2 = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)


def _three_qubit(a, b, c):
    return np.kron(np.kron(a, b), c)


def pentagram():
    """Mermin's pentagram and its dimension-8 perfect strategy.

    Variables are the observables X1, X2, X3, Y1, Y2, Y3, XXX, YYX, YXY,
    XYY.  The four lines through single-qubit observables multiply to +I
    (right-hand side 0) and the line of the four three-qubit observables
    multiplies to -I (right-hand side 1), so the system has no classical
    solution.  Projectors are built as ``mermin_bcs_strategy`` builds them
    and must pass ``verify_bcs_strategy``.
    """
    obs = [
        _three_qubit(_X, _I2, _I2), _three_qubit(_I2, _X, _I2), _three_qubit(_I2, _I2, _X),
        _three_qubit(_Y, _I2, _I2), _three_qubit(_I2, _Y, _I2), _three_qubit(_I2, _I2, _Y),
        _three_qubit(_X, _X, _X), _three_qubit(_Y, _Y, _X),
        _three_qubit(_Y, _X, _Y), _three_qubit(_X, _Y, _Y),
    ]
    system = bmod.LinBCS(10, (
        ((0, 1, 2, 6), 0),
        ((3, 4, 2, 7), 0),
        ((3, 1, 5, 8), 0),
        ((0, 4, 5, 9), 0),
        ((6, 7, 8, 9), 1),
    ))
    eye = np.eye(8, dtype=complex)
    ops = []
    for s, b in system.constraints:
        family = []
        for f in bmod.satisfying_assignments(s, b):
            proj = eye
            for i in s:
                proj = proj @ (eye + (-1.0) ** f[i] * obs[i]) / 2
            family.append((f, proj))
        ops.append(tuple(family))
    strat = qmod.BCSQuantumStrategy(8, tuple(ops))
    report = qmod.verify_bcs_strategy(system, strat, TOL)
    if not report["ok"]:
        raise RuntimeError(f"pentagram strategy rejected: {report['residuals']}")
    return system, strat


PENTAGRAM_EXPECT = {
    "ok": True,
    "num_vertices": 40,
    "m": 5,
    "satisfiable": False,
    "isomorphic": False,
    "alpha": 4,
    "alpha_homogenized": 5,
    "cospectral": True,
    "complements_cospectral": True,
    "certificate_ok": True,
    "residuals_within_tol": True,
    "correlation_nonsignalling": True,
    "correlation_perfect": True,
    "packing_value": Fraction(5),
}


def _build_pentagram(rng, workdir):
    system, strat = pentagram()

    def run():
        report = qmod.quantum_reduction_report(system, strat=strat, tol=TOL)
        observed = {k: report[k] for k in PENTAGRAM_EXPECT if k in report}
        observed["certificate_ok"] = report["certificate"]["ok"]
        observed["residuals_within_tol"] = max(report["certificate"]["residuals"].values()) <= TOL
        observed["packing_value"] = report["packing"].get("value")
        return observed

    return [Decision("pentagram reduction report", run, PENTAGRAM_EXPECT)]


# --- workload: ns-batch -------------------------------------------------------

# (n, d): two independent random d-regular graphs on n vertices.
NS_REGULAR = ((8, 3), (10, 3), (10, 4), (12, 3))
# (sizes, c): equitable cell structures whose cells refinement separates, so
# the coarsest common partition, and with it the cost, is fixed.
NS_CELLS = (
    ((6, 4), ((2, 2), (3, 0))),
    ((6, 6), ((2, 1), (1, 3))),
    ((2, 4, 6), ((1, 2, 3), (1, 0, 3), (1, 2, 2))),
    ((4, 4, 6), ((1, 2, 3), (2, 2, 3), (2, 2, 1))),
    ((4, 6, 6), ((1, 3, 0), (2, 2, 1), (0, 1, 3))),
)
# (n, m): equal degree sequences that refinement separates.
NS_SEPARABLE = ((8, 8), (10, 14), (12, 20), (16, 36))


def _ns_decision(g, h):
    def run():
        result = cmod.ns_iso(g, h)
        if result is None:
            return {"verdict": "NO"}
        _, corr = result
        D = cmod.correlation_to_ds_witness(corr, g, h)
        return {
            "verdict": "YES",
            "mode": corr.mode,
            "distribution": cmod.verify_distribution(corr)[0],
            "nonsignalling": cmod.verify_nonsignalling(corr)[0],
            "perfect": cmod.verify_perfect_iso_strategy(corr, g, h)[0],
            "ds_witness": emod.verify_ds_witness(g, h, D)[0],
        }

    return run


NS_YES = {"verdict": "YES", "mode": "exact", "distribution": True, "nonsignalling": True,
          "perfect": True, "ds_witness": True}
NS_NO = {"verdict": "NO"}


def _regular_pair(n, d, rng):
    return (_to_graph(_random_regular(n, d, rng), "g", rng),
            _to_graph(_random_regular(n, d, rng), "h", rng))


def _cell_pair(sizes, c, rng):
    return (_to_graph(_equitable_graph(sizes, c, rng), "g", rng),
            _to_graph(_equitable_graph(sizes, c, rng), "h", rng))


def _build_ns_batch(rng, workdir):
    decisions = []
    for n, d in NS_REGULAR:
        g, h = _regular_pair(n, d, rng)
        decisions.append(Decision(f"ns regular n={n} d={d}", _ns_decision(g, h), NS_YES))
    for sizes, c in NS_CELLS:
        g, h = _cell_pair(sizes, c, rng)
        decisions.append(Decision(f"ns cells {sizes}", _ns_decision(g, h), NS_YES))
    for n, m in NS_SEPARABLE:
        a, b = _separable_pair(n, m, rng)
        g, h = _to_graph(a, "g", rng), _to_graph(b, "h", rng)
        decisions.append(Decision(f"ns separable n={n}", _ns_decision(g, h), NS_NO))
    return decisions


# --- workload: cli-verify -----------------------------------------------------

CERT_PERTURBATIONS = 5


def _cli_decision(argv):
    def run():
        return _run_cli(argv)[0]

    return run


def _perturbed_certificate(cert, rng):
    """One block entry moved by a random complex number of modulus >= 1e-3."""
    blocks = cert.blocks.copy()
    idx = tuple(rng.randrange(s) for s in blocks.shape)
    blocks[idx] += rng.uniform(1e-3, 1.0) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
    return qmod.QuantumIsoCertificate(cert.d, blocks)


def _perturbed_correlation(corr, rng, kind):
    table = dict(corr.table)
    key = rng.choice(sorted(table))
    value = table[key]
    if kind == "move":
        x_a, x_b, y_a, y_b = key
        other = (x_a, x_b, rng.choice([y for y in range(corr.size) if y != y_a]), y_b)
        table[key] = value / 2
        table[other] = table.get(other, Fraction(0)) + value / 2
    else:
        table[key] = value * Fraction(3, 2)
    return cmod.Correlation(corr.inputs, "exact", table)


def _build_cli_verify(rng, workdir):
    workdir = Path(workdir)
    decisions = []

    def write(name, text):
        path = workdir / name
        path.write_text(text)
        return str(path)

    def add(label, argv, code):
        decisions.append(Decision(label, _cli_decision(argv), code))

    # quantum certify: the magic-square certificate and perturbed copies
    bg, bg0, cert = qmod.strategy_to_certificate(bmod.magic_square(), qmod.mermin_bcs_strategy())
    g, h = bg.graph, bg0.graph
    gf, hf = write("ms_g.g", gmod.format_graph(g)), write("ms_h.g", gmod.format_graph(h))
    good = write("ms_cert.json", qmod.certificate_to_json(cert, g, h))
    add("quantum certify", ["quantum", "certify", gf, hf, good], 0)
    for k in range(CERT_PERTURBATIONS):
        bad = write(f"ms_bad{k}.json",
                    qmod.certificate_to_json(_perturbed_certificate(cert, rng), g, h))
        add(f"quantum certify perturbed {k}", ["quantum", "certify", gf, hf, bad], 1)

    # ns verify: exact correlations and perturbed copies
    ns_pairs = (("regular", _regular_pair(8, 3, rng), "move"),
                ("cells", _cell_pair(*NS_CELLS[0], rng), "scale"))
    for name, (g, h), kind in ns_pairs:
        _, corr = cmod.ns_iso(g, h)
        gf = write(f"ns_{name}_g.g", gmod.format_graph(g))
        hf = write(f"ns_{name}_h.g", gmod.format_graph(h))
        good = write(f"ns_{name}.corr", cmod.format_correlation(corr))
        bad = write(f"ns_{name}_bad.corr",
                    cmod.format_correlation(_perturbed_correlation(corr, rng, kind)))
        add(f"ns verify {name}", ["ns", "verify", gf, hf, good], 0)
        add(f"ns verify {name} perturbed ({kind})", ["ns", "verify", gf, hf, bad], 1)

    # graph iso / fractional-iso on 64 to 128 vertices
    pairs = []  # (name, adj_g, adj_h, iso exit, fractional-iso exit)
    for n in (64, 96, 128):
        base = _discrete_graph(n, 4 * n, rng)
        pairs.append((f"permuted n={n}", base, base, 0, 0))
        a, b = _separable_pair(n, 4 * n, rng)
        pairs.append((f"switched n={n}", a, b, 1, 1))
    pairs.append(("C64 vs 2C32", _cycles([64]), _cycles([32, 32]), 1, 0))
    pairs.append(("C128 vs 2C64", _cycles([128]), _cycles([64, 64]), None, 0))
    for k, (name, a, b, iso_code, frac_code) in enumerate(pairs):
        gf = write(f"pair{k}_g.g", gmod.format_graph(_to_graph(a, "g", rng)))
        hf = write(f"pair{k}_h.g", gmod.format_graph(_to_graph(b, "h", rng)))
        if iso_code is not None:
            add(f"graph iso {name}", ["graph", "iso", gf, hf], iso_code)
        add(f"graph fractional-iso {name}", ["graph", "fractional-iso", gf, hf], frac_code)
    return decisions


_PASS_FACTORIES = {
    "mermin-demo": _build_mermin_demo,
    "pentagram": _build_pentagram,
    "ns-batch": _build_ns_batch,
    "cli-verify": _build_cli_verify,
}


def build(name, seed, workdir):
    """The decisions of one pass of workload ``name``, made from ``seed``.

    ``workdir`` is an existing directory for witness files.
    """
    return _PASS_FACTORIES[name](random.Random(f"{name}:{seed}"), workdir)
