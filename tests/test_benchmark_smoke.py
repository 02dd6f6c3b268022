"""The benchmark's workloads run their own output checks: a small run of
each must pass them, so a change that breaks a check fails here, not
only in a benchmark run."""

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


def test_small_cli_workload_passes_its_checks():
    # the one workload that runs the CLI children, and so the text formats;
    # it writes under .perfbench_out/ in the checkout
    command = [
        sys.executable, str(REPO_ROOT / "perfbench" / "run.py"),
        "--workload", "cli-2001", "--seed", "1", "--seconds", "0",
        "--trace", "0", "--size", "small",
    ]
    done = subprocess.run(
        command, cwd=REPO_ROOT, capture_output=True, text=True, timeout=600
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, result
