"""Span tracing of rodtwin's public functions, for the traced benchmark run.

Only the traced run imports this module; the untraced run that gives the
end-to-end metrics never does, so no wrapper can leak into those numbers.

`Patch` wraps each function named in TRACED at every module attribute
that binds it.  The package binds names at import (`from .linalg import
svd_economy` in rsvd, `from .rod import fit` in rank_select, ...), so a
single function can have several import sites and each one gets the
wrapper.  A named function that no longer exists is listed as absent
and the run goes on.

Spans are (id, parent, name, start, end) in CLOCK_MONOTONIC seconds,
grouped per operation, kept in memory and written out when the run ends.
Per-cell helpers such as `io.fmt` are deliberately not wrapped: they run
~600k times per 2001x301 file and their wrapper cost would swamp the io
layer, which is measured by bytes instead.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import pkgutil
import statistics
import time
import warnings
from collections import Counter

now = time.monotonic

TRACED = {
    "burgers": ("exact_u", "generate_snapshots", "gauss_hermite"),
    "rsvd": ("rsvd", "gaussian_test_matrix"),
    "rod": (
        "fit",
        "propagator",
        "rod_modes",
        "amplitudes",
        "mode_gram_deviation",
        "reconstruct",
    ),
    "linalg": ("svd_economy", "qr_factor", "eig_general", "eig_sym_tridiag", "least_squares"),
    "empirical": ("fourier_decomposition", "mean_projection_norm", "compare_projections"),
    "metrics": ("absolute_error", "correlation", "quality_report"),
    "rank_select": ("pareto_sweep", "select_rank", "objectives"),
    "io": (
        "read_snapshot_csv",
        "write_snapshot_csv",
        "read_model",
        "write_model",
        "write_sweep_csv",
        "report_text",
        "file_sha256",
    ),
}

# Per-layer metrics: (metric, unit, better, operation kinds, the timings it
# should move, workloads where it shows, workloads where it should stay
# flat).  The timings are run.py's per-operation medians; fit_s and
# pipeline_s (which holds sweep_s, generate_s, evaluate_s and compare_s on
# the workloads that run them) are the gated end-to-end metrics.  The
# emitted name is "<kind>.<metric>" for each kind; a kind the workload does
# not run reports 0.  "s" is summed wall time of the calls in one
# operation, "calls" the call count, "self_s" span time minus the part
# covered by child spans.  Values are medians over the traced operations
# of that kind.
FIT, SWEEP, GEN, EVAL, CMP = "fit", "sweep", "generate", "evaluate", "compare"
CLI_KINDS = (GEN, FIT, SWEEP, EVAL, CMP)
B, C, F = "burgers-101", "cli-2001", "field-20001"
BC, BF = B + " " + C, B + " " + F

LAYER_METRICS = (
    ("burgers.exact_u.s", "s", "lower", (GEN,), "generate_s pipeline_s", C, F),
    ("burgers.exact_u.calls", "count", "lower", (GEN, FIT), "generate_s pipeline_s", C, F),
    ("burgers.generate_snapshots.self_s", "s", "lower", (GEN,), "generate_s pipeline_s", C, F),
    ("rsvd.rsvd.s", "s", "lower", (FIT, SWEEP), "sweep_s pipeline_s", BC, F),
    ("rsvd.rsvd.calls", "count", "lower", (FIT, SWEEP), "sweep_s pipeline_s", BC, F),
    ("rsvd.gaussian_test_matrix.s", "s", "lower", (FIT, SWEEP), "sweep_s pipeline_s", BC, F),
    ("rod.fit.s", "s", "lower", (FIT, SWEEP), "fit_s sweep_s", F, ""),
    ("rod.fit.calls", "count", "lower", (FIT, SWEEP), "fit_s sweep_s", F, ""),
    ("rod.fit.self_s", "s", "lower", (FIT, SWEEP), "fit_s sweep_s", F, ""),
    ("rod.propagator.s", "s", "lower", (FIT, SWEEP), "fit_s", F, B),
    ("linalg.eig_general.s", "s", "lower", (FIT, SWEEP), "fit_s", F, B),
    ("rod.amplitudes.s", "s", "lower", (FIT, SWEEP), "fit_s", F, B),
    ("linalg.least_squares.s", "s", "lower", (FIT, SWEEP), "fit_s", F, B),
    ("rod.mode_gram_deviation.s", "s", "lower", (FIT, SWEEP, EVAL, CMP), "fit_s", F, ""),
    ("rod.reconstruct.s", "s", "lower", (FIT, SWEEP, EVAL),
     "fit_s sweep_s evaluate_s", F + " " + C, ""),
    ("rod.reconstruct.calls", "count", "lower", (FIT, SWEEP, EVAL),
     "fit_s sweep_s evaluate_s", F + " " + C, ""),
    ("rod.kept_rank_ratio", "ratio", "higher", (FIT, SWEEP), "twin_error error_rate", "all", ""),
    ("rod.warnings", "count", "lower", CLI_KINDS, "twin_error error_rate", "all", ""),
    ("linalg.svd_economy.under_rsvd.s", "s", "lower", (FIT, SWEEP), "fit_s", F, ""),
    ("linalg.svd_economy.under_empirical.s", "s", "lower", (FIT, EVAL, CMP), "fit_s", F, ""),
    ("linalg.qr_factor.s", "s", "lower", (FIT, SWEEP), "fit_s", F, ""),
    ("empirical.fourier_decomposition.s", "s", "lower", CLI_KINDS,
     "fit_s evaluate_s compare_s", F + " " + C, C + ":generate,sweep"),
    ("empirical.mean_projection_norm.s", "s", "lower", (FIT, EVAL, CMP), "fit_s compare_s", F, ""),
    ("empirical.mean_projection_norm.calls", "count", "lower", (FIT, EVAL, CMP),
     "fit_s compare_s", F, ""),
    ("metrics.correlation.s", "s", "lower", (FIT, SWEEP, EVAL), "sweep_s fit_s",
     C + ":sweep " + F, B),
    ("metrics.correlation.calls", "count", "lower", (FIT, SWEEP, EVAL), "sweep_s fit_s",
     C + ":sweep " + F, B),
    ("metrics.absolute_error.s", "s", "lower", (FIT, SWEEP, EVAL), "sweep_s fit_s",
     C + ":sweep " + F, B),
    ("metrics.quality_report.self_s", "s", "lower", (FIT, EVAL), "fit_s", F, ""),
    ("rank_select.pareto_sweep.self_s", "s", "lower", (SWEEP,), "sweep_s error_rate", BC, F),
    ("rank_select.fits_per_sweep", "count", "lower", (SWEEP,), "sweep_s", BC, F),
    ("rank_select.failed_points", "count", "lower", (SWEEP,), "error_rate", BC, F),
    ("io.read_snapshot_csv.s", "s", "lower", (FIT, SWEEP, EVAL, CMP),
     "fit_s sweep_s evaluate_s compare_s", C, BF),
    ("io.read_model.s", "s", "lower", (EVAL, CMP), "evaluate_s compare_s", C, BF),
    ("io.bytes_read", "bytes", "lower", (FIT, SWEEP, EVAL, CMP),
     "fit_s sweep_s evaluate_s compare_s", C, BF),
    ("io.write_snapshot_csv.s", "s", "lower", (GEN, EVAL), "generate_s evaluate_s", C, BF),
    ("io.write_model.s", "s", "lower", (FIT,), "fit_s", C, BF),
    ("io.bytes_written", "bytes", "lower", (GEN, FIT, SWEEP, EVAL),
     "generate_s evaluate_s fit_s", C, BF),
    ("cli.startup_s", "s", "lower", CLI_KINDS, "setup_s and every cli-2001 metric", C, ""),
    ("cli.main.self_s", "s", "lower", CLI_KINDS, "evaluate_s", C, ""),
)

OVERHEAD = ("trace.overhead", "ratio", "lower")


def per_layer_names():
    """Every per-layer metric as (name, unit, better), in emission order."""
    out = [
        (kind + "." + metric, unit, better)
        for metric, unit, better, kinds, *_ in LAYER_METRICS
        for kind in kinds
    ]
    out.append(OVERHEAD)
    return out


# ----------------------------------------------------------------- recording

class Recorder:
    """Collects spans and counters, one group per operation."""

    def __init__(self):
        self.ops = []
        self._spans = None
        self._stack = []
        self._counters = None

    def count(self, key, amount=1):
        if self._counters is not None:
            self._counters[key] += amount

    @contextlib.contextmanager
    def operation(self, kind, root):
        """Record one operation under a root span; counts RuntimeWarnings."""
        self._spans, self._stack, self._counters = [], [], Counter()
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                with self.span(root):
                    yield
            self.count("warnings", sum(issubclass(w.category, RuntimeWarning) for w in caught))
        finally:
            self.ops.append(
                {"kind": kind, "spans": self._spans, "counters": dict(self._counters)}
            )
            self._spans = self._counters = None

    @contextlib.contextmanager
    def span(self, name):
        if self._spans is None:
            yield
            return
        sid = len(self._spans)
        self._spans.append([sid, self._stack[-1] if self._stack else None, name, now(), None])
        self._stack.append(sid)
        try:
            yield
        finally:
            self._stack.pop()
            self._spans[sid][4] = now()


def _size(path):
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _count_result(rec, name, args, kwargs, result):
    """Counters measured where the work happens, from arguments and results."""
    if name in ("io.read_snapshot_csv", "io.read_model"):
        rec.count("bytes_read", _size(args[0]))
    elif name in ("io.write_model", "io.write_sweep_csv"):
        rec.count("bytes_written", _size(args[0]))
    elif name == "io.write_snapshot_csv":
        meta = args[2] if len(args) > 2 else kwargs.get("meta")
        extra = _size(str(args[0]) + ".meta") if meta is not None else 0
        rec.count("bytes_written", _size(args[0]) + extra)
    elif name == "rod.fit":
        rec.count("rank_requested", int(args[1] if len(args) > 1 else kwargs["rank"]))
        rec.count("rank_kept", int(result.rank))
    elif name == "rank_select.pareto_sweep":
        rec.count("failed_points", sum(1 for p in result if p.failed))


def _wrap(rec, name, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with rec.span(name):
            result = fn(*args, **kwargs)
        try:
            _count_result(rec, name, args, kwargs, result)
        except Exception:  # a changed signature must not stop the run
            rec.count("counter_errors")
        return result

    return traced


class Patch:
    """Wrappers for every TRACED function at every rodtwin import site."""

    def __init__(self, rec):
        import rodtwin

        self.absent = []
        wrappers = {}
        for layer, names in TRACED.items():
            try:
                module = importlib.import_module("rodtwin." + layer)
            except ImportError:
                self.absent += ["%s.%s" % (layer, n) for n in names]
                continue
            for n in names:
                fn = getattr(module, n, None)
                if callable(fn):
                    wrappers[id(fn)] = (fn, _wrap(rec, "%s.%s" % (layer, n), fn))
                else:
                    self.absent.append("%s.%s" % (layer, n))
        sites = [rodtwin] + [
            importlib.import_module("rodtwin." + m.name)
            for m in pkgutil.iter_modules(rodtwin.__path__)
        ]
        self._sites = []
        for module in sites:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._sites.append((module, attr, hit[0], hit[1]))

    def apply(self):
        for module, attr, _, wrapped in self._sites:
            setattr(module, attr, wrapped)

    def restore(self):
        for module, attr, original, _ in self._sites:
            setattr(module, attr, original)


# --------------------------------------------------------------- aggregation

def _union_length(intervals, lo, hi):
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def op_stats(op):
    """Per-name totals and the accounting error of one traced operation.

    Returns ({name: [s, calls, self_s]}, {parent-qualified name: s}, error)
    where error is |root self + sum of root children - root wall|, zero
    when child spans nest inside the root without overlapping.
    """
    spans = op["spans"]
    children = {}
    for sid, parent, *_ in spans:
        children.setdefault(parent, []).append(sid)
    totals, under, error = {}, Counter(), 0.0
    for sid, parent, name, start, end in spans:
        kids = [spans[k] for k in children.get(sid, ())]
        wall = end - start
        self_s = wall - _union_length([(k[3], k[4]) for k in kids], start, end)
        entry = totals.setdefault(name, [0.0, 0, 0.0])
        entry[0] += wall
        entry[1] += 1
        entry[2] += self_s
        if parent is None:
            error = max(error, abs(self_s + sum(k[4] - k[3] for k in kids) - wall))
        else:
            under[name + "<" + spans[parent][2].split(".")[0]] += wall
    return totals, under, error


def _metric_value(metric, totals, under, counters):
    def stat(name, index):
        return totals.get(name, (0.0, 0, 0.0))[index]

    if metric.startswith("linalg.svd_economy.under_"):
        return under["linalg.svd_economy<" + metric.split(".")[2][len("under_"):]]
    if metric == "rod.kept_rank_ratio":
        requested = counters.get("rank_requested", 0)
        return counters.get("rank_kept", 0) / requested if requested else 0.0
    if metric == "rank_select.fits_per_sweep":
        sweeps = stat("rank_select.pareto_sweep", 1)
        return stat("rod.fit", 1) / sweeps if sweeps else 0.0
    if metric == "cli.startup_s":
        return stat("cli.process", 2)
    counter = {
        "rod.warnings": "warnings",
        "rank_select.failed_points": "failed_points",
        "io.bytes_read": "bytes_read",
        "io.bytes_written": "bytes_written",
    }.get(metric)
    if counter:
        return counters.get(counter, 0)
    name, _, field = metric.rpartition(".")
    return stat(name, {"s": 0, "calls": 1, "self_s": 2}[field])


def layer_metrics(ops, top=4):
    """Median per-layer values over the traced operations of each kind.

    Returns (values by per-layer name, worst accounting error in seconds,
    the `top` largest median self times per operation kind).
    """
    per_kind, worst = {}, 0.0
    for op in ops:
        totals, under, error = op_stats(op)
        worst = max(worst, error)
        per_kind.setdefault(op["kind"], []).append((totals, under, op["counters"]))
    values = {}
    for metric, _unit, _better, kinds, *_ in LAYER_METRICS:
        for kind in kinds:
            samples = [_metric_value(metric, *s) for s in per_kind.get(kind, ())]
            values[kind + "." + metric] = statistics.median(samples) if samples else 0
    dominant = {}
    for kind, rows in per_kind.items():
        names = {name for totals, _, _ in rows for name in totals}
        self_s = {
            name: statistics.median([totals.get(name, (0.0, 0, 0.0))[2] for totals, _, _ in rows])
            for name in names
        }
        dominant[kind] = sorted(self_s.items(), key=lambda item: -item[1])[:top]
    return values, worst, dominant
