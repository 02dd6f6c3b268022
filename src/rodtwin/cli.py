"""Command-line front end.

Subcommands: generate (benchmark dataset), fit (twin model), sweep
(Pareto rank sweep), evaluate (reconstruction and plot-data CSVs),
compare (projection scores against the Fourier baseline).

Every run is deterministic for fixed flags and seed.  Exit codes:
0 success (for compare: the model modes dominate), 1 usage error,
2 computation failure (or non-dominance for compare).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import warnings
from typing import Callable, NamedTuple, Optional

from . import burgers, empirical, io, metrics, rank_select, rod, walk

DEFAULT_SEED = 1


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # argparse exits with 2 by default; usage problems are exit 1 here
        self.print_usage(sys.stderr)
        self.exit(1, "%s: error: %s\n" % (self.prog, message))


def _boolean(text):
    lowered = str(text).strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError("needs a boolean, got %r" % text)


def _positive(value):
    return value > 0


def _finite_positive(value):
    return 0 < value < float("inf")


class _Flag(NamedTuple):
    """One subcommand setting: flag --key (dashes for underscores) and config key.

    convert turns flag and config text alike into the value; check, and
    choices when given, then accept or reject it.  A _boolean flag takes
    no argument on the command line.
    """

    key: str
    convert: Callable = str
    default: object = None
    check: Optional[Callable] = None
    help: str = ""
    metavar: Optional[str] = None
    choices: Optional[tuple] = None


def _build_parser():
    parser = _Parser(
        prog="rodtwin",
        description="Twin data models from snapshot matrices, with an exact "
        "viscous-Burgers benchmark generator.",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")
    sub.required = True
    for name, (_, help_text, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag in flags:
            option = "--" + flag.key.replace("_", "-")
            if flag.convert is _boolean:
                p.add_argument(
                    option, action="store_true", default=argparse.SUPPRESS, help=flag.help
                )
            else:
                p.add_argument(
                    option,
                    type=flag.convert,
                    choices=flag.choices,
                    metavar=flag.metavar,
                    default=argparse.SUPPRESS,
                    help="%s (default %s)" % (flag.help, flag.default),
                )
        p.add_argument("--config", metavar="FILE", help="key = value defaults file")
    return parser


def _resolve(args):
    """Merge flag values over config-file values over the declared defaults.

    Every value is checked, wherever it came from.  A config key that no
    subcommand declares is an error; one that another subcommand
    declares is ignored, so one file can configure the whole pipeline.
    """
    flags = {f.key: f for f in _COMMANDS[args.command][2]}
    cfg = {key: f.default for key, f in flags.items()}
    if args.config:
        known = {f.key for _, _, declared in _COMMANDS.values() for f in declared}
        for key, text in io.read_meta(args.config).items():
            if key not in known:
                raise ValueError("%s: unknown config key '%s'" % (args.config, key))
            if key in flags:
                try:
                    cfg[key] = flags[key].convert(text)
                except ValueError as exc:
                    raise ValueError(
                        "%s: config key '%s' %s" % (args.config, key, exc)
                    ) from exc
    cfg.update((key, value) for key, value in vars(args).items() if key in flags)
    for key, f in flags.items():
        value = cfg[key]
        if (f.choices and value not in f.choices) or (f.check and not f.check(value)):
            raise ValueError(
                "invalid value for --%s: %r" % (key.replace("_", "-"), value)
            )
    return cfg


def _load_model_for(dataset, model_path):
    model = io.read_model(model_path)
    shape = (model.x.size, model.t.size)
    if shape != dataset.values.shape:
        raise ValueError(
            "model grid %dx%d does not match dataset %dx%d"
            % (shape + dataset.values.shape)
        )
    for step in ("dx", "dt"):
        # each step within 1e-12 of itself; grid steps are positive
        want = getattr(dataset, step)
        if abs(getattr(model, step) - want) > 1e-12 * want:
            raise ValueError("model spacing does not match the dataset grid")
    # the report and evaluate's CSVs use the dataset's grid points: the
    # saved grids are exact, but a dataset with the same steps may start
    # elsewhere
    return dataclasses.replace(model, x=dataset.x.copy(), t=dataset.t.copy())


def _report_text(dataset, model, variant):
    ip = rod.InnerProduct(dataset.dx)
    fourier = empirical.fourier_decomposition(dataset)
    report = metrics.quality_report(dataset, model, fourier, ip, variant=variant)
    return io.report_text(report)


def cmd_generate(cfg):
    bcfg = burgers.BurgersConfig(**{k: v for k, v in cfg.items() if k != "output"})
    snap = burgers.generate_snapshots(bcfg)
    meta = {
        key: io.fmt(getattr(bcfg, key))
        for key in ("length", "t_final", "nu", "quad_order", "dx", "dt")
    }
    io.write_snapshot_csv(cfg["output"], snap, meta=meta)
    digest = io.file_sha256(cfg["output"])
    # the later commands read the memo's table instead of parsing the CSV
    io.write_snapshot_memo(cfg["output"], snap, digest)
    print("wrote %s (%dx%d)" % ((cfg["output"],) + snap.values.shape))
    print("sha256: %s" % digest)
    return 0


def cmd_fit(cfg):
    dataset = io.read_snapshot_csv(cfg["input"])
    model = rod.fit(
        dataset,
        cfg["rank"],
        cfg["seed"],
        reorthonormalize=cfg["reorthonormalize"],
    )
    # a fit whose report fails leaves no model file behind
    report = _report_text(dataset, model, cfg["correlation_variant"])
    io.write_model(cfg["output"], model)
    sys.stdout.write(report)
    return 0


def cmd_sweep(cfg):
    dataset = io.read_snapshot_csv(cfg["input"])
    points = rank_select.pareto_sweep(dataset, cfg["max_rank"], cfg["seed"])
    io.write_sweep_csv(cfg["output"], points)
    selected = rank_select.select_rank(points, error_tolerance=cfg["tol"])
    print("selected_rank = %d" % selected)
    return 0


def cmd_evaluate(cfg):
    dataset = io.read_snapshot_csv(cfg["input"])
    model = _load_model_for(dataset, cfg["model"])
    twin = rod.reconstruct(model)
    prefix = cfg["output"]
    io.write_snapshot_csv(prefix + "_reconstruction.csv", twin)
    io.write_modal_csv(prefix + "_modes.csv", "x", model.x, "mode", model.modes)
    io.write_modal_csv(
        prefix + "_amplitudes.csv", "t", model.t, "a", model.amplitudes.T
    )
    sys.stdout.write(_report_text(dataset, model, cfg["correlation_variant"]))
    return 0


def cmd_compare(cfg):
    dataset = io.read_snapshot_csv(cfg["input"])
    fourier = empirical.fourier_decomposition(dataset)
    if cfg["self_test"]:
        modes = fourier.psi
    else:
        modes = _load_model_for(dataset, cfg["model"]).modes
    ip = rod.InnerProduct(dataset.dx)
    rho_rod, rho_fourier, dominates = empirical.compare_projections(
        modes, fourier, dataset.values[:, :-1], ip, same_rank=cfg["self_test"]
    )
    print("rho_rod = %s" % io.fmt(rho_rod))
    print("rho_fourier = %s" % io.fmt(rho_fourier))
    print("ratio = %s" % io.fmt(rho_rod / rho_fourier))
    print("dominates = %s" % ("true" if dominates else "false"))
    return 0 if dominates else 2


def _generator_flag(key, check, help_text):
    """A generate flag taking its default, and so its type, from BurgersConfig."""
    default = getattr(burgers.BurgersConfig(), key)
    return _Flag(key, type(default), default, check, help_text)


_INPUT = _Flag("input", default="burgers.csv", help="snapshot CSV", metavar="CSV")
_MODEL = _Flag("model", default="model.txt", help="model file", metavar="MODEL")
_SEED = _Flag("seed", int, DEFAULT_SEED, help="sampling seed")
_VARIANT = _Flag(
    "correlation_variant", default="paper", help="correlation functional", choices=walk.VARIANTS
)

# name: (handler, help, flags); each flag's default, type and check is here only
_COMMANDS = {
    "generate": (
        cmd_generate,
        "write the benchmark snapshot CSV and its metadata sidecar",
        (
            _Flag("output", default="burgers.csv", help="snapshot CSV", metavar="CSV"),
            _generator_flag("nu", _finite_positive, "viscosity"),
            _generator_flag("quad_order", lambda v: 1 <= v <= 500, "quadrature order"),
            _generator_flag("grid_points", lambda v: v >= 2, "spatial points"),
            _generator_flag("dt", _finite_positive, "time step"),
            _generator_flag("t_final", _finite_positive, "final time"),
        ),
    ),
    "fit": (
        cmd_fit,
        "fit a twin model to a snapshot CSV and print its quality report",
        (
            _INPUT,
            _Flag("output", default="model.txt", help="model file", metavar="MODEL"),
            _Flag("rank", int, 10, lambda v: v >= 1, "model rank"),
            _SEED,
            _Flag(
                "reorthonormalize",
                _boolean,
                False,
                help="QR-orthonormalize the mode basis",
            ),
            _VARIANT,
        ),
    ),
    "sweep": (
        cmd_sweep,
        "sweep ranks, write the Pareto CSV, print the selected rank",
        (
            _INPUT,
            _Flag("output", default="sweep.csv", help="sweep CSV", metavar="CSV"),
            _Flag("max_rank", int, 20, lambda v: v >= 1, "largest rank to try"),
            _Flag("tol", float, 1e-5, _positive, "error tolerance for selection"),
            _SEED,
        ),
    ),
    "evaluate": (
        cmd_evaluate,
        "reconstruct a fitted model and emit plot-data CSVs",
        (
            _INPUT,
            _MODEL,
            _Flag("output", default="twin", help="prefix of the CSVs", metavar="PREFIX"),
            _VARIANT,
        ),
    ),
    "compare": (
        cmd_compare,
        "score model modes against the Fourier baseline",
        (
            _INPUT,
            _MODEL,
            _Flag(
                "self_test",
                _boolean,
                False,
                help="compare the Fourier basis against itself",
            ),
        ),
    ),
}


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        cfg = _resolve(args)
    except (ValueError, OSError) as exc:
        sys.stderr.write("rodtwin %s: error: %s\n" % (args.command, exc))
        return 1
    try:
        return _run_reporting_warnings(args.command, cfg)
    except Exception as exc:
        sys.stderr.write("rodtwin %s: error: %s\n" % (args.command, exc))
        return 2


def _run_reporting_warnings(command, cfg):
    """Run a subcommand, printing each distinct RuntimeWarning once as
    'rodtwin <command>: warning: <message>'.

    Under the CLI every frame below main lies inside the package, so the
    usual file:line attribution would name the interpreter's launcher.
    Other warning categories are shown as usual.
    """
    show = warnings.showwarning
    seen = set()

    def show_runtime(message, category, filename, lineno, file=None, line=None):
        if not issubclass(category, RuntimeWarning):
            return show(message, category, filename, lineno, file, line)
        if str(message) not in seen:
            seen.add(str(message))
            sys.stderr.write("rodtwin %s: warning: %s\n" % (command, message))

    with warnings.catch_warnings():
        warnings.showwarning = show_runtime
        return _COMMANDS[command][0](cfg)


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
