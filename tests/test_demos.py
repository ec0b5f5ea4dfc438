"""Each demo runs to completion and prints what it printed when pinned."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qgiso

DEMOS = Path(__file__).resolve().parents[1] / "demos"

# sha256 of each demo's stdout
STDOUT_SHA256 = {
    "01_graph_basics.py": "c7fb0da52a92dc73c093a6ca02fe1a5f99b4d1ff7000f6000a62a129de898901",
    "02_fractional_and_nonsignalling.py":
        "473160d77dd7f6b510886c7bd52a0fcf69a9babe188a7994dbf9b13fcefab34a",
    "03_bcs_reduction.py": "16cac1c613e1de0ec678356c0a727e79c5a2d86f0af8ad4ba7ee38b0840ac6c4",
    "04_quantum_separation.py": "ef06dbf18a662ed75c7ab3667c0f3b3e67daa32696367ebf74639c6720f03667",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("name", sorted(STDOUT_SHA256))
def test_demo_stdout(name):
    src = str(Path(qgiso.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(DEMOS / name)], capture_output=True, env=env,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[name], proc.stdout.decode()
