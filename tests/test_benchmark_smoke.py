"""The benchmark's in-process workloads run their own output checks: a
small run of each must pass them, so a change that breaks a check fails
here, not only in a benchmark run."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src"


@pytest.mark.parametrize("workload", ["burgers-101", "field-20001"])
def test_small_workload_passes_its_checks(tmp_path, workload):
    out = tmp_path / "report.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    command = [
        sys.executable, str(REPO_ROOT / "perfbench" / "worker.py"),
        "--workload", workload, "--seed", "1", "--seconds", "0",
        "--size", "small", "--trace", "0", "--mode", "loop",
        "--src", str(SRC), "--out", str(out),
    ]
    done = subprocess.run(command, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    ops = json.loads(out.read_text())["ops"]
    assert ops
    for op in ops:
        assert op["problems"] == [], op
        assert op["checks"], op
