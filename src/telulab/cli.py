"""Command-line entry point.

Subcommands: verify, kernels, train, replicate, grid, landscape, fisher.
Each run writes its machine-readable artifacts plus a metadata.json into
the output directory; stdout carries a short human-readable summary.

Exit codes: 0 success (training divergence counts as success: it is
data), 1 at least one property claim failed, 2 usage or configuration
error, 3 any other error (a one-line ``error:`` message on stderr, never a
traceback), so a crash is never mistaken for a failed claim.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, kernels
from .autograd import build_model, load_params, save_params
from .config import load_run_spec, parse_overrides, run_spec_to_dict
from .errors import ConfigError, DataError, DomainError, FormatError
from .harness import (
    empirical_fisher_diag,
    grid_search,
    landscape_slice,
    materialize_datasets,
    replicate,
    run_trial,
    train_model,
)
from .properties import verify_activation
from . import reporting

EXIT_OK = 0
EXIT_CLAIM_FAILED = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def _parse_kinds(names: list[str]) -> list[kernels.ActivationKind]:
    return [kernels.parse_kind(n) for n in names]


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_verify(args) -> int:
    kinds = _parse_kinds(args.activations)
    out = _out_dir(args)
    reports = []
    for kind in kinds:
        reports.extend(verify_activation(kind))
    reporting.write_property_report(reports, out / "property_report.json")
    reporting.write_metadata(
        out / "metadata.json",
        "verify",
        {"activations": [k.spec_string() for k in kinds]},
    )
    failed = [r for r in reports if r.verdict == "fails"]
    for r in reports:
        line = f"{r.claim_id}: {r.verdict} (measured={r.measured:.6g})"
        if r.verdict == "fails" and r.witness is not None:
            line += f" witness={r.witness}"
        print(line)
    print(f"{len(reports) - len(failed)}/{len(reports)} claims hold")
    return EXIT_CLAIM_FAILED if failed else EXIT_OK


def cmd_kernels(args) -> int:
    kinds = _parse_kinds(args.activations)
    if args.step <= 0:
        raise ConfigError("--step must be positive")
    if args.hi <= args.lo:
        raise ConfigError("--hi must exceed --lo")
    out = _out_dir(args)
    n = int(round((args.hi - args.lo) / args.step)) + 1
    xs = args.lo + args.step * np.arange(n)
    rows = []
    for kind in kinds:
        f = kernels.value(kind, xs)
        d1 = kernels.derivative(kind, xs)
        if kernels.has_second_derivative(kind):
            d2 = [float(v) for v in kernels.second_derivative(kind, xs)]
        else:
            d2 = [""] * n
        for i in range(n):
            rows.append((kind.spec_string(), float(xs[i]), float(f[i]),
                         float(d1[i]), d2[i]))
    reporting.write_kernel_table(rows, out / "kernels.csv")
    reporting.write_metadata(
        out / "metadata.json",
        "kernels",
        {
            "activations": [k.spec_string() for k in kinds],
            "lo": args.lo,
            "hi": args.hi,
            "step": args.step,
        },
    )
    print(f"wrote {len(rows)} rows for {len(kinds)} activation(s)")
    return EXIT_OK


def cmd_train(args) -> int:
    spec = load_run_spec(args.config, parse_overrides(args.set))
    out = _out_dir(args)
    result = run_trial(spec.train)
    reporting.write_results_csv([result], out / "results.csv")
    reporting.write_curves_csv([result], out / "curves.csv")
    reporting.write_metadata(
        out / "metadata.json",
        "train",
        run_spec_to_dict(spec),
        wall_time_seconds={str(result.seed): result.wall_time},
    )
    status = "diverged" if result.diverged else "ok"
    print(
        f"{result.activation} {result.optimizer}: test {result.test_acc:.2f} "
        f"best-valid {result.best_valid_acc:.2f} ({status})"
    )
    return EXIT_OK


def cmd_replicate(args) -> int:
    spec = load_run_spec(args.config, parse_overrides(args.set))
    out = _out_dir(args)
    summary, trials = replicate(spec.train, list(spec.seeds), jobs=args.jobs)
    reporting.write_results_csv(trials, out / "results.csv")
    reporting.write_curves_csv(trials, out / "curves.csv")
    reporting.write_summary_json(summary, out / "summary.json")
    reporting.write_metadata(
        out / "metadata.json",
        "replicate",
        run_spec_to_dict(spec),
        wall_time_seconds={str(t.seed): t.wall_time for t in trials},
    )
    print(f"{summary.activation} {summary.optimizer}: {summary.cell()}")
    if summary.divergence_count:
        print(f"divergences: {summary.divergence_count}/{summary.n_trials}")
    return EXIT_OK


def cmd_grid(args) -> int:
    spec = load_run_spec(args.config, parse_overrides(args.set))
    if spec.grid is None:
        raise ConfigError("grid: section required for the grid command")
    out = _out_dir(args)
    print(f"grid: {spec.grid.size()} configuration(s) x {len(spec.seeds)} seed(s)")
    t0 = time.perf_counter()
    best, cells = grid_search(spec.grid, list(spec.seeds), jobs=args.jobs)
    all_trials = [t for c in cells for t in c.trials]
    reporting.write_results_csv(all_trials, out / "results.csv")
    reporting.write_grid_cells_csv(cells, out / "grid_cells.csv")
    best_dict = {
        "lr": best.optimizer.lr,
        "weight_decay": best.optimizer.weight_decay,
        "gamma": best.schedule.gamma,
    }
    reporting.write_best_config_json(best_dict, out / "best_config.json")
    reporting.write_metadata(
        out / "metadata.json",
        "grid",
        run_spec_to_dict(spec),
        wall_time_seconds={"total": time.perf_counter() - t0},
    )
    print(
        f"best: lr={best.optimizer.lr:g} wd={best.optimizer.weight_decay:g} "
        f"gamma={best.schedule.gamma:g}"
    )
    return EXIT_OK


def _model_for_probe(spec, args):
    """Trained model per config, or a fresh one loaded from a checkpoint."""
    if args.checkpoint:
        model = build_model(spec.train.layers, spec.train.seed)
        load_params(model, args.checkpoint)
        return model, None
    model, result = train_model(spec.train)
    return model, result


def cmd_landscape(args) -> int:
    spec = load_run_spec(args.config, parse_overrides(args.set))
    out = _out_dir(args)
    model, result = _model_for_probe(spec, args)
    train_ds, _, _ = materialize_datasets(spec.train.dataset)
    surface = landscape_slice(
        model, train_ds, args.grid_n, args.radius, args.direction_seed
    )
    reporting.write_landscape_csv(surface, out / "landscape.csv")
    if args.save_checkpoint:
        save_params(model, out / "model")
    reporting.write_metadata(
        out / "metadata.json",
        "landscape",
        run_spec_to_dict(spec),
        probe={
            "grid_n": args.grid_n,
            "radius": args.radius,
            "direction_seed": args.direction_seed,
            "checkpoint": args.checkpoint,
        },
        trained=result is not None,
    )
    center = surface.losses[args.grid_n // 2, args.grid_n // 2]
    print(f"landscape {args.grid_n}x{args.grid_n}, center loss {center:.6f}")
    return EXIT_OK


def cmd_fisher(args) -> int:
    spec = load_run_spec(args.config, parse_overrides(args.set))
    out = _out_dir(args)
    model, result = _model_for_probe(spec, args)
    train_ds, _, _ = materialize_datasets(spec.train.dataset)
    n = args.samples or len(train_ds)
    values = empirical_fisher_diag(model, train_ds, n)
    reporting.write_fisher_csv(values, out / "fisher.csv")
    reporting.write_metadata(
        out / "metadata.json",
        "fisher",
        run_spec_to_dict(spec),
        probe={"samples": n, "checkpoint": args.checkpoint},
        trained=result is not None,
    )
    print(
        f"fisher diagonal over {n} samples: mean {values.mean():.3e} "
        f"max {values.max():.3e}"
    )
    return EXIT_OK


def _add_config_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", required=True, help="run-config JSON file")
    p.add_argument(
        "--set",
        action="append",
        metavar="KEY.PATH=VALUE",
        help="override a config entry (repeatable), e.g. optimizer.lr=0.05",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="telulab",
        description="Activation-function laboratory: property verification "
        "and desk-scale training experiments.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the numeric property claims")
    p.add_argument("--activations", nargs="+", required=True)
    p.add_argument("--out", default="out/verify")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("kernels", help="tabulate f, f', f'' on a grid")
    p.add_argument("--activations", nargs="+", required=True)
    p.add_argument("--lo", type=float, default=-4.0)
    p.add_argument("--hi", type=float, default=4.0)
    p.add_argument("--step", type=float, default=0.01)
    p.add_argument("--out", default="out/kernels")
    p.set_defaults(fn=cmd_kernels)

    p = sub.add_parser("train", help="run a single training trial")
    _add_config_args(p)
    p.add_argument("--out", default="out/train")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("replicate", help="run the config across its seeds")
    _add_config_args(p)
    p.add_argument("--out", default="out/replicate")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(fn=cmd_replicate)

    p = sub.add_parser("grid", help="hyperparameter grid search")
    _add_config_args(p)
    p.add_argument("--out", default="out/grid")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(fn=cmd_grid)

    p = sub.add_parser("landscape", help="loss surface around a trained model")
    _add_config_args(p)
    p.add_argument("--grid-n", "--grid", dest="grid_n", type=int, default=41)
    p.add_argument("--radius", type=float, default=1.0)
    p.add_argument("--direction-seed", type=int, default=0)
    p.add_argument("--checkpoint", help="parameter checkpoint stem to load")
    p.add_argument(
        "--save-checkpoint",
        action="store_true",
        help="also save the probed parameters beside the surface",
    )
    p.add_argument("--out", default="out/landscape")
    p.set_defaults(fn=cmd_landscape)

    p = sub.add_parser("fisher", help="empirical Fisher diagonal probe")
    _add_config_args(p)
    p.add_argument("--samples", type=int, default=0, help="0 = full train split")
    p.add_argument("--checkpoint", help="parameter checkpoint stem to load")
    p.add_argument("--out", default="out/fisher")
    p.set_defaults(fn=cmd_fisher)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, DomainError, FormatError, DataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        message = " ".join(str(exc).split())
        print(f"error: {type(exc).__name__}: {message}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
