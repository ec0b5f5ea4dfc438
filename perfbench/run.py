"""Benchmark runner for qgiso.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0

One process runs one workload (see ``workloads.py``) as a closed loop with
one client: the next decision starts when the previous one returns.  The
loop makes whole passes over the workload's decisions for ``--seconds``,
checks every decision against its expected verdict, and prints every metric
by name and unit.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones, measured with no
tracing.  With ``--trace 1`` passes alternate between untraced and traced
(see ``spans.py``); the metrics are the per-layer ones, averaged per traced
decision, and the spans are written to ``.perfbench/`` when the run ends.

``--workload all`` runs each workload in its own process, one after the
other, and exits non-zero if any of them fails a verdict.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter, process_time

from spans import KEY_FUNCTIONS, LAYERS, SpanRecorder, per_layer_units

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
WORKLOADS = ("mermin-demo", "pentagram", "ns-batch", "cli-verify")
SETUP_REPEATS = 5
REFERENCE_SLICES = 5
TAIL_BEYOND = 10
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# The timing metrics in BENCHMARK.json are in units of the reference work
# (see reference_slice), so that a run in a slow phase of a shared machine
# reads the same as one in a fast phase; the seconds are printed beside them.
END_TO_END_UNITS = {
    "decision_ref_p50": "ref",
    "decisions_per_ref": "1/ref",
    "cpu_ref_per_decision": "ref",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}
SECONDS_UNITS = {
    "decision_s_p50": "s",
    "decisions_per_s": "1/s",
    "cpu_s_per_decision": "s",
    "reference_s": "s",
}


def pin_blas_threads():
    """Run BLAS on one thread, which is never above nproc; return nproc.

    qgiso's BLAS calls multiply matrices of a few hundred rows at most.  On
    a 2-vCPU machine a second OpenBLAS thread does not speed them up but
    makes them bimodal (``quantum certify`` on the magic square took 36 ms
    or 120 ms, depending on the run).  Must run before numpy is imported.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def environment(seed, nproc):
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = None
    return {
        "seed": seed,
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "git_commit": git_commit(),
    }


def import_seconds():
    """Median time to import qgiso in SETUP_REPEATS fresh interpreters."""
    probe = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
             "t = time.perf_counter(); import qgiso; print(time.perf_counter() - t)")
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, "-c", probe, str(ROOT / "src")],
                             capture_output=True, text=True, check=True, timeout=120)
        times.append(float(out.stdout))
    return statistics.median(times)


def reference_slice():
    """Seconds taken by a fixed piece of work that does not use qgiso.

    It mixes what qgiso spends its time on: Fraction arithmetic in a dict
    with tuple keys, a Python loop over small integers, and numpy products
    of dense matrices.  On a shared machine it slows down with qgiso when
    other tenants are busy, so timings divided by it vary much less between
    runs than the seconds do.
    """
    import numpy as np

    start = perf_counter()
    table = {}
    for i in range(3000):
        table[(i % 61, i % 67, i)] = Fraction(i, 61) + Fraction(1, 67)
    sum(a * b for a, b, _ in table)
    m = np.linspace(-1.0, 1.0, 160 * 160).reshape(160, 160)
    for _ in range(4):
        m = np.tanh(m @ m.T / 160)
    return perf_counter() - start


def _execute(decision):
    start = perf_counter()
    try:
        observed = decision.run()
    except Exception:  # a decision that raises is a failed decision, not a failed run
        observed = traceback.format_exc()
    return perf_counter() - start, observed


def measure(decisions, seconds, recorder=None):
    """Whole passes over ``decisions`` for ``seconds``.

    A pass starts only if one more pass as long as the last one would end
    within ``seconds``, so a run never measures longer than ``seconds``
    unless its first pass does.  REFERENCE_SLICES reference slices run
    before every pass and after the last.  With a recorder, passes alternate
    untraced and traced, starting untraced, and at least one of each runs.
    Returns (samples, failures, CPU seconds of the untraced passes, median
    reference slice seconds); a sample is (wall, ok, traced).
    """
    samples, failures, refs = [], [], []
    start = perf_counter()
    busy_cpu = 0.0
    passes = 0
    while True:
        refs.extend(reference_slice() for _ in range(REFERENCE_SLICES))
        pass_start, pass_cpu = perf_counter(), process_time()
        traced = recorder is not None and passes % 2 == 1
        if traced:
            recorder.install()
        try:
            for decision in decisions:
                if traced:
                    with recorder.decision(len(samples)):
                        wall, observed = _execute(decision)
                else:
                    wall, observed = _execute(decision)
                ok = observed == decision.expect
                samples.append((wall, ok, traced))
                if not ok:
                    failures.append({"decision": decision.label, "observed": repr(observed),
                                     "expected": repr(decision.expect)})
        finally:
            if traced:
                recorder.uninstall()
        if not traced:
            busy_cpu += process_time() - pass_cpu
        passes += 1
        now = perf_counter()
        if (now - start + (now - pass_start) > seconds
                and (recorder is None or passes >= 2)):
            refs.extend(reference_slice() for _ in range(REFERENCE_SLICES))
            return samples, failures, busy_cpu, statistics.median(refs)


def tail(walls):
    """The highest percentile with TAIL_BEYOND samples beyond it, reported
    only when that percentile is at least the median."""
    n = len(walls)
    if n < 2 * TAIL_BEYOND:
        return None
    return {"value": sorted(walls)[n - TAIL_BEYOND - 1],
            "percentile": 100.0 * (n - TAIL_BEYOND) / n, "samples": n}


def end_to_end(samples, cpu, ref, setup_s):
    walls = [w for w, _, _ in samples]
    values = {
        "decision_ref_p50": statistics.median(walls) / ref,
        "decisions_per_ref": len(walls) * ref / sum(walls),
        "cpu_ref_per_decision": cpu / len(walls) / ref,
        "decision_s_p50": statistics.median(walls),
        "decisions_per_s": len(walls) / sum(walls),
        "cpu_s_per_decision": cpu / len(walls),
        "reference_s": ref,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup_s,
    }
    return values, tail(walls)


def per_layer(summary, untraced_walls):
    n = summary["decisions"]
    values = {}
    for name in KEY_FUNCTIONS:
        row = summary["functions"].get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        for key in ("calls", "s", "self_s"):
            values[f"{name}.{key}"] = row[key] / n
    for layer in LAYERS:
        values[f"{layer}.self_s"] = summary["layers"][layer] / n
    values["unattributed_s"] = summary["unattributed_s"] / n
    values["trace_overhead_ratio"] = (statistics.median(summary["decision_s"])
                                      / statistics.median(untraced_walls))
    for counter in ("quantum.correlation_table_bytes", "correlations.exact_entries",
                    "quantum.certificate_nonzero_blocks"):
        values[counter] = summary["counts"].get(counter, 0) / n
    units = per_layer_units()
    if set(values) != set(units):
        raise RuntimeError("per-layer metric names and units disagree")
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def run_one(args):
    nproc = pin_blas_threads()
    if not (ROOT / "src" / "qgiso" / "__init__.py").is_file():
        print(f"error: no qgiso sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    env = environment(args.seed, nproc)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        builds = []
        for _ in range(SETUP_REPEATS):
            start = perf_counter()
            decisions = workloads.build(args.workload, args.seed, workdir)
            builds.append(perf_counter() - start)
        setup_s = import_seconds() + statistics.median(builds)
        recorder = SpanRecorder() if args.trace else None
        samples, failures, cpu, ref = measure(decisions, args.seconds, recorder)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed = len(samples), len(failures)
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print("env " + json.dumps(env))
    for f in failures[:5]:
        print(f"FAILED {f['decision']}: observed {f['observed']} expected {f['expected']}",
              file=sys.stderr)
    untraced = [s for s in samples if not s[2]]
    values, tail_s = end_to_end(untraced, cpu, ref, setup_s)
    if not args.trace:
        for name, unit in {**END_TO_END_UNITS, **SECONDS_UNITS}.items():
            print(f"  {name:<22} {values[name]:.6g} {unit}")
        print(f"  {'decisions':<22} {len(untraced)}")
        if tail_s is None:
            print(f"  {'decision_s_tail':<22} not reported: {len(untraced)} decisions, "
                  f"needs {2 * TAIL_BEYOND}")
        else:
            print(f"  {'decision_s_tail':<22} {tail_s['value']:.6g} s  "
                  f"(p{tail_s['percentile']:.1f} of {tail_s['samples']})")
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    else:
        summary = recorder.summary()
        metrics = per_layer(summary, [s[0] for s in untraced])
        OUT.mkdir(exist_ok=True)
        trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({
            "env": env, "workload": args.workload, "summary": summary,
            "spans": recorder.spans,
        }))
        ranked = sorted(summary["functions"].items(), key=lambda kv: -kv[1]["self_s"])
        print(f"  self time per traced decision ({summary['decisions']} decisions):")
        for name, row in ranked[:10]:
            print(f"    {name:<44} {row['self_s'] / summary['decisions']:.6g} s"
                  f"  ({row['calls'] / summary['decisions']:g} calls)")
        print(f"  spans written to {trace_file}")
    print(f"  {'failed_ratio':<22} {failed / attempted:.6g}  ({failed} of {attempted})")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


def run_all(args):
    failing = []
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        sys.stdout.flush()
        if subprocess.run(argv).returncode != 0:
            failing.append(name)
    print("all workloads correct" if not failing else f"failed: {' '.join(failing)}")
    return 1 if failing else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
