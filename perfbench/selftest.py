"""Self-tests of the benchmark.  Run with

    python3 -m pytest -q perfbench/selftest.py

They set no timing bound.  The smoke pass of ``pentagram`` alone takes
about half a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from spans import LAYERS, SpanRecorder  # noqa: E402


@pytest.fixture
def workdir():
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as path:
        yield Path(path)


def _benchmark_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _result(workload, trace, cwd=ROOT):
    argv = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
            "--seed", "7", "--seconds", "0", "--trace", str(trace)]
    out = subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=300)
    return out.returncode, out.stdout.strip().splitlines()


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_smoke_pass(name, workdir):
    decisions = workloads.build(name, 1, workdir)
    samples, failures, _, _ = run.measure(decisions, 0)
    assert len(samples) == len(decisions) > 0
    assert failures == []


def test_workloads_match_spec():
    assert [w["name"] for w in _benchmark_spec()["workloads"]] == list(run.WORKLOADS)


def test_same_seed_same_inputs(workdir):
    first = workloads.build("cli-verify", 3, workdir)
    texts = {p.name: p.read_text() for p in workdir.iterdir()}
    second = workloads.build("cli-verify", 3, workdir)
    assert [d.label for d in first] == [d.label for d in second]
    assert texts == {p.name: p.read_text() for p in workdir.iterdir()}


def test_planted_wrong_expectation_fails(workdir):
    decisions = workloads.build("cli-verify", 1, workdir)
    perturbed = next(d for d in decisions if "perturbed" in d.label)
    perturbed.expect = 0  # as if the perturbed certificate were accepted
    samples, failures, _, _ = run.measure([perturbed, decisions[0]], 0)
    assert len(failures) / len(samples) > 0
    assert [f["decision"] for f in failures] == [perturbed.label]


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("name", ["mermin-demo", "cli-verify"])
def test_prints_every_metric_with_unit(name, trace, kind):
    code, lines = _result(name, trace)
    assert code == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in _benchmark_spec()[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_trace_wraps_every_binding_and_sums_to_decision_time(workdir):
    import qgiso.bcs
    import qgiso.graphs

    original = qgiso.graphs.find_isomorphism
    recorder = SpanRecorder()
    recorder.install()
    try:
        assert qgiso.bcs.find_isomorphism is qgiso.graphs.find_isomorphism
        assert qgiso.graphs.find_isomorphism is not original
    finally:
        recorder.uninstall()
    assert qgiso.graphs.find_isomorphism is original and qgiso.bcs.find_isomorphism is original

    decisions = workloads.build("mermin-demo", 1, workdir)
    samples, failures, _, _ = run.measure(decisions, 0, SpanRecorder())
    assert failures == [] and [traced for _, _, traced in samples] == [False, True]

    recorder = SpanRecorder()
    samples, _, _, _ = run.measure(decisions, 0, recorder)
    summary = recorder.summary()
    total = sum(summary["layers"].values()) + summary["unattributed_s"]
    assert total == pytest.approx(sum(summary["decision_s"]), rel=1e-9)
    assert set(summary["layers"]) == set(LAYERS)
    ranked = sorted(summary["functions"], key=lambda f: -summary["functions"][f]["self_s"])
    assert set(ranked[:2]) == {"graphs.find_isomorphism", "quantum.certificate_correlation"}
    assert summary["counts"]["quantum.certificate_nonzero_blocks"] == 96


def test_fails_without_program_sources():
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as path:
        bare = Path(path)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, lines = _result("mermin-demo", 0, cwd=bare)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)
