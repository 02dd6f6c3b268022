"""Fast self-check of the benchmark harness (about a minute).

    python3 perfbench/selfcheck.py

Checks BENCHMARK.json against the harness, runs every workload at
reduced size (--size small) with tracing off and on, and asserts that
each declared metric is emitted with its unit, that the correctness
checks ran and passed, and that a directory holding only BENCHMARK.json
and perfbench/ makes the benchmark fail without printing a result.  It
never replaces the full-size runs.
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys

import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# correctness checks every workload must report as run
REQUIRED_CHECKS = {
    "burgers-101": {"report_finite", "selected_rank_in_band", "selected_error_meets_tol"},
    "cli-2001": {"exit_code", "report_parses", "reconstruction_shape", "dominates",
                 "rodtwin_in_checkout"},
    "field-20001": {"report_finite", "kept_rank", "twin_error_bound"},
}


def check_spec(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}, sorted(spec)
    assert 2 <= len(spec["workloads"]) <= 8
    assert [w["name"] for w in spec["workloads"]] == list(REQUIRED_CHECKS)
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names)), "metric names repeat"
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"]), m
        assert m["better"] in ("lower", "higher"), m
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values()), bounds
    assert bounds["setup_s"] == max(bounds.values())
    layers = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert layers == tracer.per_layer_names(), "per_layer differs from tracer.LAYER_METRICS"
    assert len(layers) <= 128


def run_workload(spec, workload, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", "7", "--seconds", "1",
                             "--trace", str(trace), "--size", "small"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    details, result = json.loads(lines[-2]), json.loads(lines[-1])
    assert set(result) == RESULT_KEYS, sorted(result)
    assert result["correct"] is True, details["problems"] + details["harness_problems"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in declared)
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (m, got)
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"]), (m, got)
        if not trace:
            assert got["value"] > 0, (m, got)
    missing = REQUIRED_CHECKS[workload] - set(details["checks"])
    assert not missing, "checks did not run: %s" % sorted(missing)
    if trace:
        assert details["trace"]["accounting_error_s"] < 1e-6
        assert not details["trace"]["absent"], details["trace"]["absent"]
    return details


def check_bare_directory(spec):
    """Without the sources the benchmark must fail and print no result."""
    bare = os.path.join(ROOT, ".perfbench_out", "bare-%d" % os.getpid())
    try:
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        cmd = spec["command"] + ["--workload", "burgers-101", "--seed", "1",
                                 "--seconds", "1", "--trace", "0"]
        proc = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=180)
        assert proc.returncode != 0, "bare directory run exited 0"
        assert '"correct"' not in proc.stdout, "bare directory run printed a result"
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    check_spec(spec)
    print("BENCHMARK.json: ok")
    for workload in REQUIRED_CHECKS:
        for trace in (0, 1):
            details = run_workload(spec, workload, trace)
            print("%s trace %d: ok, %d operations checked, %.1f s"
                  % (workload, trace, details["attempted"], details["run_wall_s"]))
    check_bare_directory(spec)
    print("bare directory: fails without a result, ok")


if __name__ == "__main__":
    sys.exit(main())
