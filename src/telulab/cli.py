"""Command-line entry point.

Subcommands: verify, kernels, train, replicate, grid, landscape, fisher.
Each run writes its machine-readable artifacts plus a metadata.json into
the output directory; stdout carries a short human-readable summary.

:func:`main` runs every command the same way, from its entry in
:data:`COMMANDS` (function, help line, flags, each flag one record
``(name, add_argument options, *bounds)``): it checks each bound, a
``(test, message)`` pair, in table order, loads the run spec when the
command takes ``--config`` (applying each ``--set``) and checks its layers
against its dataset (``harness.check_model``), calls the command, and
writes ``metadata.json`` once from the fields the command returns plus,
for config commands, the resolved config.  Only the flag checks that need
a second flag or the config stay in their command, still before any data:
``--hi`` > ``--lo`` and the 10^6-row cap (``kernels``), a model with
parameters and ``--samples`` within the train split (``fisher``),
``harness.check_landscape_args`` (``landscape``) and the required ``grid``
section (``grid``).  ``--out`` is created when the first artifact is
written, so a run that fails before writing anything leaves no output
directory behind.

Each command imports the modules it runs when it starts: ``verify`` adds
only ``properties``, ``kernels`` nothing, and the config commands load
``config`` and the training engine (``harness``, ``autograd``, ``data``,
``optim``).  They call it through the module (``harness.fit``), so a name
replaced on that module is the one called.

Exit codes: 0 success (training divergence counts as success: it is
data), 1 at least one property claim failed, 2 usage or configuration
error, 3 any other error (a one-line ``error:`` message on stderr, never a
traceback), so a crash is never mistaken for a failed claim, and 130 or
143 an interrupt (SIGINT, as from Ctrl-C, or SIGTERM: 128 plus the
signal's number, as a shell reports it), also with one ``error:`` line.
"""

from __future__ import annotations

import argparse
import math
import signal
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, kernels, reporting
from .errors import ConfigError, DataError, DivergenceError, DomainError, FormatError

EXIT_OK = 0
EXIT_CLAIM_FAILED = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3
EXIT_SIGNAL = 128  # plus the interrupting signal's number, as a shell reports it

#: most rows one ``kernels`` table may hold, over all its activations
MAX_KERNEL_ROWS = 10**6


def cmd_verify(args, spec, out: Path) -> tuple[int, dict]:
    from . import properties

    kinds = [kernels.parse_kind(n) for n in args.activations]
    reports = []
    for kind in kinds:
        reports.extend(properties.verify_activation(kind))
    reporting.write_property_report(reports, out / "property_report.json")
    failed = [r for r in reports if r.verdict == "fails"]
    for r in reports:
        line = f"{r.claim_id}: {r.verdict} (measured={r.measured:.6g})"
        if r.verdict == "fails" and r.witness is not None:
            line += f" witness={r.witness}"
        print(line)
    print(f"{len(reports) - len(failed)}/{len(reports)} claims hold")
    code = EXIT_CLAIM_FAILED if failed else EXIT_OK
    return code, {"config": {"activations": [k.spec_string() for k in kinds]}}


def cmd_kernels(args, spec, out: Path) -> tuple[int, dict]:
    kinds = [kernels.parse_kind(n) for n in args.activations]
    if args.hi <= args.lo:
        raise ConfigError("--hi must exceed --lo")
    # the points lo + k*step up to hi; the relative slack keeps hi itself
    # when step divides the span up to rounding
    steps = (args.hi - args.lo) / args.step * (1.0 + 1e-9)
    n = math.floor(steps) + 1 if math.isfinite(steps) else math.inf
    if n * len(kinds) > MAX_KERNEL_ROWS:
        raise ConfigError(
            f"--lo, --hi and --step give {n:.7g} points per activation, more "
            f"than {MAX_KERNEL_ROWS} rows over {len(kinds)} activation(s)"
        )
    xs = args.lo + args.step * np.arange(n)
    rows = []
    for kind in kinds:
        f, d1 = (a.tolist() for a in kernels.value_and_derivative(kind, xs))
        if kernels.has_second_derivative(kind):
            d2 = kernels.second_derivative(kind, xs).tolist()
        else:
            d2 = [""] * n
        rows += zip([kind.spec_string()] * n, xs.tolist(), f, d1, d2)
    reporting.write_kernel_table(rows, out / "kernels.csv")
    print(f"wrote {len(rows)} rows for {len(kinds)} activation(s)")
    config = {
        "activations": [k.spec_string() for k in kinds],
        "lo": args.lo,
        "hi": args.hi,
        "step": args.step,
    }
    return EXIT_OK, {"config": config}


def cmd_train(args, spec, out: Path) -> tuple[int, dict]:
    from . import harness

    result = harness.run_trial(spec.train)
    reporting.write_results_csv([result], out / "results.csv")
    reporting.write_curves_csv([result], out / "curves.csv")
    status = "diverged" if result.diverged else "ok"
    cfg = result.config
    print(
        f"{cfg.activation_label} {cfg.optimizer.kind}: test {result.test_acc:.2f} "
        f"best-valid {result.best_valid_acc:.2f} ({status})"
    )
    return EXIT_OK, {"wall_time_seconds": {str(cfg.seed): result.wall_time}}


def cmd_replicate(args, spec, out: Path) -> tuple[int, dict]:
    from . import harness

    summary, trials = harness.replicate(spec.train, list(spec.seeds), jobs=args.jobs)
    reporting.write_results_csv(trials, out / "results.csv")
    reporting.write_curves_csv(trials, out / "curves.csv")
    reporting.write_summary_json(summary, out / "summary.json")
    print(f"{summary.activation} {summary.optimizer}: {summary.cell()}")
    if summary.divergence_count:
        print(f"divergences: {summary.divergence_count}/{summary.n_trials}")
    return EXIT_OK, {
        "wall_time_seconds": {str(t.config.seed): t.wall_time for t in trials},
        "threads": harness.trial_threads(args.jobs, len(trials)),
    }


def cmd_grid(args, spec, out: Path) -> tuple[int, dict]:
    from . import harness

    if spec.grid is None:
        raise ConfigError("grid: section required for the grid command")
    print(f"grid: {spec.grid.size()} configuration(s) x {len(spec.seeds)} seed(s)")
    t0 = time.perf_counter()
    best, cells = harness.grid_search(spec.grid, list(spec.seeds), jobs=args.jobs)
    all_trials = [t for c in cells for t in c.trials]
    reporting.write_results_csv(all_trials, out / "results.csv")
    reporting.write_grid_cells_csv(cells, out / "grid_cells.csv")
    point = harness.grid_point(best)
    reporting.write_best_config_json(point, out / "best_config.json")
    wall = {"total": time.perf_counter() - t0}
    print("best: " + " ".join(f"{axis}={value:g}" for axis, value in point.items()))
    threads = harness.trial_threads(args.jobs, len(all_trials))
    return EXIT_OK, {"wall_time_seconds": wall, "threads": threads}


def _probe_target(spec, args):
    """The model to probe (trained per config, or a checkpoint loaded into
    an undrawn model, with no training record) and the train split; data
    is loaded once, and only after a checkpoint has loaded."""
    from . import autograd, harness

    model = result = None
    if args.checkpoint:
        model = autograd.Model(spec.train.layers)
        autograd.load_params(model, args.checkpoint)
    splits = harness.materialize_datasets(spec.train.dataset)
    if model is None:
        model, result = harness.fit(spec.train, splits)
    return model, result, splits[0]


def cmd_landscape(args, spec, out: Path) -> tuple[int, dict]:
    from . import autograd, harness

    harness.check_landscape_args(args.grid_n, args.radius, args.direction_seed)
    model, result, train_ds = _probe_target(spec, args)
    surface = harness.landscape_slice(
        model, train_ds, args.grid_n, args.radius, args.direction_seed
    )
    reporting.write_landscape_csv(surface, out / "landscape.csv")
    if args.save_checkpoint:
        autograd.save_params(model, out / "model")
    center = surface.losses[args.grid_n // 2, args.grid_n // 2]
    print(f"landscape {args.grid_n}x{args.grid_n}, center loss {center:.6g}")
    probe = {
        "grid_n": args.grid_n,
        "radius": args.radius,
        "direction_seed": args.direction_seed,
        "checkpoint": args.checkpoint,
    }
    return EXIT_OK, {"probe": probe, "trained": result is not None}


def cmd_fisher(args, spec, out: Path) -> tuple[int, dict]:
    from . import harness

    if not any(layer.shapes for layer in spec.train.layers):
        raise ConfigError("fisher: the model has no parameters to probe")
    # split() makes the train split exactly split.train examples
    n_train = spec.train.dataset.split.train
    if args.samples > n_train:
        raise ConfigError(f"--samples {args.samples} exceeds the train split's {n_train} examples")

    model, result, train_ds = _probe_target(spec, args)
    if result is not None and result.diverged:
        raise ConfigError(
            f"fisher: training diverged in epoch {result.divergence_epoch}, "
            "so there is no trained model to probe"
        )
    n = args.samples or len(train_ds)
    try:
        values = harness.empirical_fisher_diag(model, train_ds, n)
    except DivergenceError as exc:
        raise ConfigError(f"fisher: the probed model overflows on the train split: {exc}") from exc
    reporting.write_fisher_csv(values, out / "fisher.csv")
    print(
        f"fisher diagonal over {n} samples: mean {values.mean():.3e} "
        f"max {values.max():.3e}"
    )
    probe = {"samples": n, "checkpoint": args.checkpoint}
    return EXIT_OK, {"probe": probe, "trained": result is not None}


_FINITE = (math.isfinite, "--lo, --hi and --step must be finite")
_ACTIVATIONS = ("--activations", {"nargs": "+", "required": True})
_JOBS = ("--jobs", {"type": int, "default": 1}, (lambda n: n >= 1, "--jobs must be >= 1, got {}"))
_CHECKPOINT = ("--checkpoint", {"help": "parameter checkpoint stem to load"})
_CONFIG = (("--config", {"required": True, "help": "run-config JSON file"}),
           ("--set", {"action": "append", "metavar": "KEY.PATH=VALUE",
                      "help": "override a config entry (repeatable), e.g. optimizer.lr=0.05"}))

COMMANDS = {
    "verify": (cmd_verify, "run the numeric property claims", [_ACTIVATIONS]),
    "kernels": (cmd_kernels, "tabulate f, f', f'' on a grid", [
        _ACTIVATIONS,
        ("--lo", {"type": float, "default": -4.0}, _FINITE),
        ("--hi", {"type": float, "default": 4.0}, _FINITE),
        ("--step", {"type": float, "default": 0.01},
         _FINITE, (lambda s: s > 0, "--step must be positive")),
    ]),
    "train": (cmd_train, "run a single training trial", [*_CONFIG]),
    "replicate": (cmd_replicate, "run the config across its seeds", [*_CONFIG, _JOBS]),
    "grid": (cmd_grid, "hyperparameter grid search", [*_CONFIG, _JOBS]),
    "landscape": (cmd_landscape, "loss surface around a trained model", [*_CONFIG,
        ("--grid-n", {"type": int, "default": 41}),
        ("--radius", {"type": float, "default": 1.0}),
        ("--direction-seed", {"type": int, "default": 0}),
        _CHECKPOINT,
        ("--save-checkpoint", {"action": "store_true",
                               "help": "also save the probed parameters beside the surface"}),
    ]),
    "fisher": (cmd_fisher, "empirical Fisher diagonal probe", [*_CONFIG,
        ("--samples", {"type": int, "default": 0, "help": "0 = full train split"},
         (lambda n: n >= 0, "--samples must be >= 0 (0 = full train split), got {}")),
        _CHECKPOINT,
    ]),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="telulab",
        description="Activation-function laboratory: property verification "
        "and desk-scale training experiments.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, about, flags) in COMMANDS.items():
        p = sub.add_parser(name, help=about)
        p.set_defaults(out=f"out/{name}")
        for flag, options, *_ in [("--out", {}), *flags]:
            p.add_argument(flag, **options)
    return parser


class _Terminated(KeyboardInterrupt):
    """SIGTERM, raised where SIGINT raises ``KeyboardInterrupt``."""


def _terminate(signum, frame):
    raise _Terminated


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    fn, _, flags = COMMANDS[args.command]
    # SIGTERM ends a run as SIGINT does, until main returns (tests call it)
    previous = signal.signal(signal.SIGTERM, _terminate)
    try:
        for flag, _, *bounds in flags:
            value = getattr(args, flag[2:].replace("-", "_"))
            for test, message in bounds:
                if not test(value):
                    raise ConfigError(message.format(value))
        spec = None
        if "config" in args:
            from . import config, harness

            spec = config.load_run_spec(args.config, args.set)
            harness.check_model(spec.train.layers, spec.train.dataset)
        out = Path(args.out)
        code, meta = fn(args, spec, out)
        if spec is not None:
            meta["config"] = config.run_spec_to_dict(spec)
        reporting.write_metadata(out / "metadata.json", args.command, **meta)
        return code
    except (ConfigError, DomainError, FormatError, DataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except KeyboardInterrupt as exc:
        sig = signal.SIGTERM if isinstance(exc, _Terminated) else signal.SIGINT
        print(f"error: interrupted ({sig.name})", file=sys.stderr)
        return EXIT_SIGNAL + sig
    except Exception as exc:
        message = " ".join(str(exc).split())
        print(f"error: {type(exc).__name__}: {message}", file=sys.stderr)
        return EXIT_INTERNAL
    finally:
        signal.signal(signal.SIGTERM, previous or signal.SIG_DFL)  # None: set outside Python


if __name__ == "__main__":
    sys.exit(main())
