"""rodtwin benchmark: one command, three closed-loop workloads.

    python3 perfbench/run.py --workload {burgers-101,cli-2001,field-20001} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  The checkout's own `src` goes first on
the path of this process and of every child, and the run stops if
`rodtwin` resolves anywhere else.  Workloads (see BENCHMARK.json):

- burgers-101: the paper's 101x301 Burgers matrix in-process; each
  iteration is a rank-10 fit-and-report and a rank 1..20 Pareto sweep.
- cli-2001: the five CLI subcommands on the 2001x301 Burgers case, each a
  fresh `python -m rodtwin.cli` child, one child at a time.
- field-20001: an in-memory 20001x1001 field synthesized from the seed,
  rank-20 fit-and-report in-process.

With --trace 0 the run measures the end-to-end metrics and imports no
tracing code.  With --trace 1 it alternates traced and untraced
iterations and reports the per-layer metrics of tracer.py plus the
tracing overhead.  Every operation's output is checked; failures count
in `failed`.  The last stdout line is the result object; the line before
it holds the environment block, per-metric sample counts and the values
that are not end-to-end metrics (sweep_s, generate_s, evaluate_s,
compare_s, twin_error, error_rate).  `--size small` shrinks every
workload for the self-check in selfcheck.py.
"""

import argparse
import glob
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

now = time.monotonic  # CLOCK_MONOTONIC: comparable across processes on Linux

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("burgers-101", "cli-2001", "field-20001")
END_TO_END = (("setup_s", "s"), ("fit_s", "s"), ("pipeline_s", "s"), ("peak_rss_mb", "MB"))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# fresh set-up children per run: the import-only CLI child and the
# in-process cold operation are cheap enough to repeat; the field's cold
# operation takes ~10 s, so its only set-up sample is the loop worker's
SETUP_CHILDREN = {"burgers-101": 4, "cli-2001": 5, "field-20001": 0}
CLI_GRID = {"full": 2001, "small": 201}
CLI_STEPS = 300  # default --t-final / --dt of `rodtwin generate`
CLI_MIN_PIPELINES = 3
HARD_STOP_S = 170.0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "small"), default="full")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "rodtwin", "__init__.py")):
        sys.exit("perfbench: no rodtwin sources under %s" % SRC)

    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        value = os.environ.get(var, "")
        if not (value.isdigit() and 1 <= int(value) <= nproc):
            os.environ[var] = str(nproc)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    sys.path.insert(0, SRC)
    import rodtwin

    rodtwin_file = os.path.realpath(rodtwin.__file__)
    if not rodtwin_file.startswith(os.path.realpath(SRC) + os.sep):
        sys.exit("perfbench: rodtwin imported from %s, outside %s" % (rodtwin_file, SRC))

    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    work = os.path.join(OUT, "%s-%d" % (tag, os.getpid()))
    os.makedirs(work)
    run = Run(args, work)
    try:
        if args.workload == "cli-2001":
            run.cli_workload()
        else:
            run.inprocess_workload()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    details, result = run.results(environment(args, nproc, rodtwin_file, run.input_info))
    if run.trace_ops:
        details["trace"]["spans_file"] = os.path.join(OUT, tag + "-spans.json")
        with open(details["trace"]["spans_file"], "w") as handle:
            ops = [dict(op, id=i) for i, op in enumerate(run.trace_ops)]
            json.dump({"workload": args.workload, "seed": args.seed, "ops": ops}, handle)
    with open(os.path.join(OUT, tag + "-result.json"), "w") as handle:
        json.dump({"details": details, "result": result}, handle, indent=1)
    print(json.dumps(details))
    print(json.dumps(result))


class Child:
    """One finished child process: exit code, wall interval, peak RSS."""

    def __init__(self, cmd, cwd, log, timeout):
        with open(log + ".out", "wb") as out, open(log + ".err", "wb") as err:
            self.start = now()
            proc = subprocess.Popen(cmd, cwd=cwd, stdout=out, stderr=err)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            self.end = now()
        proc.returncode = self.code = os.waitstatus_to_exitcode(status)
        self.wall = self.end - self.start
        self.rss_mb = usage.ru_maxrss / 1024.0
        with open(log + ".out") as handle:
            self.stdout = handle.read()
        with open(log + ".err") as handle:
            self.stderr = handle.read()

    def failure(self):
        if self.code == 0:
            return []
        return ["exit %d: %s" % (self.code, self.stderr.strip()[-300:])]


class Run:
    """One benchmark run: its children, checks and samples."""

    def __init__(self, args, work):
        self.args = args
        self.work = work
        self.started = now()
        self.setup = []
        self.op_walls = {}  # kind -> measured untraced walls
        self.iterations = {"untraced": [], "traced": []}
        self.rss = []
        self.twin_errors = []
        self.attempted = 0
        self.failed = 0
        self.problems = []  # failed operations
        self.harness = []  # problems of the benchmark itself
        self.checks = {}
        self.trace_ops = []
        self.absent = set()
        self.input_info = {}
        self.children = 0

    def timeout(self):
        return max(5.0, HARD_STOP_S - (now() - self.started))

    def child(self, cmd, cwd=None):
        self.children += 1
        log = os.path.join(self.work, "child%03d" % self.children)
        return Child(cmd, cwd or self.work, log, self.timeout())

    def record(self, kind, problems, checks=()):
        self.attempted += 1
        for name in checks:
            self.checks[name] = self.checks.get(name, 0) + 1
        self.problems += ["%s: %s" % (kind, p) for p in problems]
        self.failed += bool(problems)

    def keep_going(self, start, walls, minimum):
        """Closed loop: start another iteration while one more is expected
        to end within --seconds, after at least `minimum` of them."""
        if now() - self.started > HARD_STOP_S - 2 * max(walls):
            return False
        elapsed = now() - start
        return len(walls) < minimum or elapsed + statistics.median(walls) <= self.args.seconds

    # ---------------------------------------------------------- in-process

    def worker(self, mode):
        out = os.path.join(self.work, "worker%d.json" % (self.children + 1))
        cmd = [
            sys.executable, os.path.join(HERE, "worker.py"),
            "--workload", self.args.workload, "--seed", str(self.args.seed),
            "--seconds", str(self.args.seconds), "--size", self.args.size,
            "--trace", str(self.args.trace if mode == "loop" else 0),
            "--mode", mode, "--src", SRC, "--out", out,
        ]
        child = self.child(cmd)
        if child.code != 0 or not os.path.exists(out):
            self.record("worker", child.failure() or ["no report"])
            return None
        with open(out) as handle:
            report = json.load(handle)
        self.setup.append(report["first_op_end"] - child.start - report["synth_s"])
        for op in report["ops"]:
            self.record(op["kind"], op["problems"], op["checks"])
            if op["twin_error"] is not None:
                self.twin_errors.append(op["twin_error"])
            if not op["warm_up"] and not op["traced"]:
                self.op_walls.setdefault(op["kind"], []).append(op["wall"])
        return report

    def inprocess_workload(self):
        if self.args.trace == 0:
            for _ in range(SETUP_CHILDREN[self.args.workload]):
                self.worker("setup")
        report = self.worker("loop")
        if report is None:
            return
        self.iterations = report["iterations"]
        rss = report["rss_mb"]
        self.rss.append(rss["peak"])
        if rss["after_input"] > rss["before_input"] and rss["peak"] <= rss["after_input"]:
            self.harness.append("peak RSS set by input synthesis: %s" % rss)
        shape = report["input_shape"]
        self.input_info = {
            "shape": shape,
            "bytes_computed": shape[0] * shape[1] * 8,
            "synthesis_s": report["synth_s"],
            "noise_column_norm_avg": report["noise_col_avg"],
            "field_column_norm_avg": report["field_col_avg"],
            "rss_mb": rss,
        }
        if "trace" in report:
            self.trace_ops = report["trace"]["ops"]
            self.absent.update(report["trace"]["absent"])

    # ------------------------------------------------------------------ CLI

    def cli_workload(self):
        grid = CLI_GRID[self.args.size]
        for _ in range(SETUP_CHILDREN["cli-2001"] if self.args.trace == 0 else 1):
            child = self.child(
                [sys.executable, "-c", "import rodtwin, rodtwin.cli; print(rodtwin.__file__)"]
            )
            path = os.path.realpath(child.stdout.strip() or ".")
            bad = [] if path.startswith(os.path.realpath(SRC) + os.sep) else ["imported %s" % path]
            self.record("setup", child.failure() + bad, ["rodtwin_in_checkout"])
            self.setup.append(child.wall)

        seed = str(self.args.seed)
        steps = [
            ("generate", ["generate", "--grid-points", str(grid), "--output", "burgers.csv"]),
            ("fit", ["fit", "--input", "burgers.csv", "--output", "model.txt", "--seed", seed]),
            ("sweep", ["sweep", "--input", "burgers.csv", "--output", "sweep.csv",
                       "--max-rank", "20", "--seed", seed]),
            ("evaluate", ["evaluate", "--input", "burgers.csv", "--model", "model.txt",
                          "--output", "twin"]),
            ("compare", ["compare", "--input", "burgers.csv", "--model", "model.txt"]),
        ]
        pipe_dir = os.path.join(self.work, "pipeline")

        def pipeline(traced):
            shutil.rmtree(pipe_dir, ignore_errors=True)
            os.makedirs(pipe_dir)
            children = []
            for kind, argv in steps:
                spans = os.path.join(self.work, "spans-%s.json" % kind)
                if traced:
                    cmd = [sys.executable, os.path.join(HERE, "cli_child.py"), spans] + argv
                else:
                    cmd = [sys.executable, "-m", "rodtwin.cli"] + argv
                children.append((kind, spans, self.child(cmd, pipe_dir)))
            wall = children[-1][2].end - children[0][2].start
            for kind, spans, child in children:
                self.rss.append(child.rss_mb)
                self.record(kind, *self.check_cli_output(kind, child, grid, pipe_dir))
                if traced:
                    self.merge_child_spans(kind, child, spans)
                else:
                    self.op_walls.setdefault(kind, []).append(child.wall)
            if not self.input_info:
                self.input_info = {
                    "shape": [grid, CLI_STEPS + 1],
                    "bytes_computed": grid * (CLI_STEPS + 1) * 8,
                    "csv_bytes_measured": os.path.getsize(os.path.join(pipe_dir, "burgers.csv")),
                }
            return wall

        start = now()
        while True:
            if self.args.trace:
                self.iterations["traced"].append(pipeline(True))
            self.iterations["untraced"].append(pipeline(False))
            walls = [sum(w) for w in zip(*self.iterations.values())] if self.args.trace else \
                self.iterations["untraced"]
            if not self.keep_going(start, walls, 1 if self.args.trace else CLI_MIN_PIPELINES):
                break

    def check_cli_output(self, kind, child, grid, pipe_dir):
        """(problems, checks run) for one finished CLI child."""
        from rodtwin import io

        problems, checks = child.failure(), ["exit_code"]
        if kind == "generate":
            checks.append("generate_shape")
            if "(%dx%d)" % (grid, CLI_STEPS + 1) not in child.stdout:
                problems.append("unexpected output %r" % child.stdout[:200])
        elif kind in ("fit", "evaluate"):
            checks.append("report_parses")
            try:
                report = io.parse_report_text(child.stdout)
                if kind == "fit":
                    checks.append("twin_error_finite")
                    if not math.isfinite(report.absolute_error):
                        problems.append("non-finite twin_error")
                    self.twin_errors.append(report.absolute_error)
            except ValueError as exc:
                problems.append("report does not parse: %s" % exc)
            if kind == "evaluate":
                checks.append("reconstruction_shape")
                try:
                    shape = io.read_snapshot_csv(
                        os.path.join(pipe_dir, "twin_reconstruction.csv")
                    ).values.shape
                    if shape != (grid, CLI_STEPS + 1):
                        problems.append("reconstruction shape %s" % (shape,))
                except (OSError, ValueError) as exc:
                    problems.append("reconstruction unreadable: %s" % exc)
        elif kind == "sweep":
            checks.append("selected_rank_printed")
            if not child.stdout.startswith("selected_rank = "):
                problems.append("no selected rank in %r" % child.stdout[:200])
        elif kind == "compare":
            checks.append("dominates")
            if "dominates = true" not in child.stdout:
                problems.append("model modes do not dominate: %r" % child.stdout[-200:])
        return problems, checks

    def merge_child_spans(self, kind, child, path):
        try:
            with open(path) as handle:
                data = json.load(handle)
        except (OSError, ValueError) as exc:
            self.harness.append("%s: spans unreadable: %s" % (kind, exc))
            return
        self.absent.update(data["absent"])
        for op in data["ops"]:
            spans = [[0, None, "cli.process", child.start, child.end]]
            spans += [[sid + 1, 0 if parent is None else parent + 1, name, start, end]
                      for sid, parent, name, start, end in op["spans"]]
            self.trace_ops.append({"kind": kind, "spans": spans, "counters": op["counters"]})

    # -------------------------------------------------------------- results

    def results(self, env):
        samples = {"setup_s": self.setup, "pipeline_s": self.iterations["untraced"]}
        for kind, walls in self.op_walls.items():
            samples[kind + "_s"] = walls
        failed = self.failed
        details = {
            "workload": self.args.workload,
            "seed": self.args.seed,
            "trace": self.args.trace,
            "size": self.args.size,
            "seconds": self.args.seconds,
            "run_wall_s": now() - self.started,
            "environment": env,
            "samples": {k: summarize(v) for k, v in samples.items()},
            "peak_rss_mb": max(self.rss) if self.rss else None,
            "twin_error": statistics.median(self.twin_errors) if self.twin_errors else None,
            "twin_error_identical_across_ops": len(set(self.twin_errors)) <= 1,
            "twin_error_over_noise": self.twin_errors[0] / self.input_info["noise_column_norm_avg"]
            if self.twin_errors and self.input_info.get("noise_column_norm_avg") else None,
            "attempted": self.attempted,
            "failed": failed,
            "error_rate": failed / self.attempted if self.attempted else 1.0,
            "checks": self.checks,
            "problems": self.problems[:20],
            "harness_problems": self.harness,
        }
        correct = failed == 0 and not self.harness and self.attempted > 0
        if self.args.trace == 0:
            metrics = {}
            for name, unit in END_TO_END:
                value = details["peak_rss_mb"] if name == "peak_rss_mb" else \
                    details["samples"].get(name, {}).get("median")
                if value is None:
                    correct = False
                    value = float("nan")
                metrics[name] = {"value": value, "unit": unit}
        else:
            import tracer

            values, accounting, dominant = tracer.layer_metrics(self.trace_ops)
            traced, untraced = self.iterations["traced"], self.iterations["untraced"]
            overhead = statistics.median(traced) / statistics.median(untraced) - 1 \
                if traced and untraced else float("nan")
            values["trace.overhead"] = overhead
            details["trace"] = {
                "overhead": overhead,
                "traced_iteration_s": summarize(traced),
                "untraced_iteration_s": summarize(untraced),
                "operations": len(self.trace_ops),
                "spans": sum(len(op["spans"]) for op in self.trace_ops),
                "absent": sorted(self.absent),
                "accounting_error_s": accounting,
                "dominant_self_s": dominant,
            }
            if accounting > 1e-6 or not self.trace_ops:
                self.harness.append("trace accounting error %.3g s" % accounting)
                correct = False
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit, _ in tracer.per_layer_names()}
        result = {"correct": correct, "attempted": self.attempted, "failed": failed,
                  "metrics": metrics}
        return details, result


def summarize(values):
    """Median with sample count, plus the highest percentile that has at
    least ten samples beyond it."""
    if not values:
        return {"n": 0}
    ordered = sorted(values)
    out = {"n": len(ordered), "median": statistics.median(ordered), "min": ordered[0],
           "max": ordered[-1]}
    for p in (99.9, 99, 95, 90):
        if len(ordered) * (100 - p) / 100 >= 10:
            out["p%g" % p] = ordered[math.ceil(p / 100 * len(ordered)) - 1]
            break
    return out


def environment(args, nproc, rodtwin_file, input_info):
    import numpy
    import scipy

    def command(cmd):
        try:
            return subprocess.run(
                cmd, cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout
        except (OSError, subprocess.SubprocessError):
            return ""

    lscpu = {}
    for line in command(["lscpu"]).splitlines():
        key, _, value = line.partition(":")
        if key.strip() in ("Model name", "L1d cache", "L2 cache", "L3 cache"):
            lscpu[key.strip()] = value.strip()
    blas = {}
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: deps.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):  # older numpy: no dict mode
        blas = {"name": "unknown"}
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "rodtwin", "*.py"))):
        with open(path, "rb") as handle:
            digest.update(os.path.basename(path).encode() + b"\0" + handle.read())
    return {
        "nproc": nproc,
        "cpu": lscpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": command(["git", "rev-parse", "HEAD"]).strip() or None,
        "source_sha256": digest.hexdigest(),
        "rodtwin_file": rodtwin_file,
        "workload_seed": args.seed,
        "input": dict(input_info, note="bytes computed from the shape; the input "
                      "is below 4x the LLC, so no bandwidth figure is reported"),
    }


if __name__ == "__main__":
    main()
