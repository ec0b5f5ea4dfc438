"""Per-layer spans, recorded from outside qgiso.

``SpanRecorder.install()`` replaces each public function of the qgiso
layers with a timing wrapper, at every ``qgiso`` module attribute that binds
it (``bcs`` and ``quantum`` import names at module top, so
``qgiso.bcs.find_isomorphism`` is wrapped as well as
``qgiso.graphs.find_isomorphism``).  ``uninstall()`` puts the originals back.
Spans are kept in memory; ``summary()`` turns them into per-function and
per-layer self times.

A layer's self time is a span's duration minus the part its child spans
cover.  Each traced decision has a root span named ``decision``; its self
time is the time spent outside every wrapped function, reported as
``unattributed_s``, so the layers' self times plus ``unattributed_s`` sum
to the traced decision time.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("graphs", "equitable", "correlations", "bcs", "quantum", "cli")
# The games predicates run once per table entry and quantum.frob once per
# block, so a wrapper would mostly time itself; their cost stays in the
# callers' self time.
UNWRAPPED = frozenset({"quantum.frob"})


def _exact_entries(corr):
    return len(corr.table) if corr.mode == "exact" else 0


def _nonzero_blocks(cert):
    return int((abs(cert.blocks).sum(axis=(2, 3)) != 0).sum())


# Work counts read from return values: wrapped function -> (counter, count).
COUNTERS = {
    "quantum.certificate_correlation": ("quantum.correlation_table_bytes",
                                        lambda corr: corr.table.nbytes),
    "correlations.build_ns_correlation": ("correlations.exact_entries", _exact_entries),
    "correlations.parse_correlation": ("correlations.exact_entries", _exact_entries),
    "quantum.strategy_to_certificate": ("quantum.certificate_nonzero_blocks",
                                        lambda result: _nonzero_blocks(result[2])),
    "quantum.certificate_from_json": ("quantum.certificate_nonzero_blocks", _nonzero_blocks),
}

# The functions whose calls, inclusive and self time the benchmark reports
# as per-layer metrics; every wrapped function is in the trace file.
KEY_FUNCTIONS = (
    "graphs.find_isomorphism", "graphs.is_isomorphism", "graphs.cospectral_mates",
    "graphs.char_poly", "graphs.independence_number", "graphs.parse_graph",
    "equitable.common_equitable_partition", "equitable.fractional_iso",
    "equitable.verify_ds_witness", "equitable.verify_equitable",
    "correlations.ns_iso", "correlations.build_ns_correlation",
    "correlations.verify_distribution", "correlations.verify_nonsignalling",
    "correlations.verify_perfect_iso_strategy", "correlations.winning_mask",
    "correlations.correlation_to_ds_witness", "correlations.parse_correlation",
    "bcs.bcs_graph", "bcs.solve_gf2",
    "quantum.quantum_reduction_report", "quantum.verify_bcs_strategy",
    "quantum.strategy_to_certificate", "quantum.verify_qiso_certificate",
    "quantum.verify_ppm", "quantum.certificate_correlation", "quantum.verify_packing",
    "quantum.strategy_packing", "quantum.mermin_bcs_strategy",
    "quantum.certificate_from_json",
    "cli.main",
)


def per_layer_units():
    """Every per-layer metric name, in report order, with its unit."""
    units = {}
    for name in KEY_FUNCTIONS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.s"] = "s"
        units[f"{name}.self_s"] = "s"
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
    units["unattributed_s"] = "s"
    units["trace_overhead_ratio"] = "ratio"
    units["quantum.correlation_table_bytes"] = "bytes"
    units["correlations.exact_entries"] = "count"
    units["quantum.certificate_nonzero_blocks"] = "count"
    return units


class SpanRecorder:
    """Collects [name, start, end, parent index, decision id] spans."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self._stack = []
        self._decision = None
        self._patched = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self._decision]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if counter is not None:
                self.counts[counter[0]] += counter[1](result)
            return result

        return timed

    def install(self):
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"qgiso.{layer}"]
            for attr, fn in vars(module).items():
                name = f"{layer}.{attr}"
                if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                        and not attr.startswith("_") and name not in UNWRAPPED):
                    wrappers[id(fn)] = (fn, self._wrap(name, fn))
        modules = [m for n, m in sys.modules.items() if n == "qgiso" or n.startswith("qgiso.")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                original, wrapper = wrappers.get(id(value), (None, None))
                if original is value:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, value))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    @contextmanager
    def decision(self, ident):
        """Root span of one traced decision."""
        self._decision = ident
        span = ["decision", 0.0, 0.0, None, ident]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter()
        try:
            yield
        finally:
            span[2] = perf_counter()
            self._stack.pop()
            self._decision = None

    def summary(self):
        """Per-function totals and per-layer self times over all traced
        decisions: {"decisions", "decision_s", "functions", "layers",
        "unattributed_s", "counts"}."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        functions = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        decision_s = []
        unattributed = 0.0
        for i, (name, start, end, _, _) in enumerate(self.spans):
            own = end - start - covered[i]
            if name == "decision":
                decision_s.append(end - start)
                unattributed += own
                continue
            row = functions[name]
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += own
        layers = {layer: 0.0 for layer in LAYERS}
        for name, row in functions.items():
            layers[name.split(".")[0]] += row["self_s"]
        return {
            "decisions": len(decision_s),
            "decision_s": decision_s,
            "functions": dict(functions),
            "layers": layers,
            "unattributed_s": unattributed,
            "counts": dict(self.counts),
        }
