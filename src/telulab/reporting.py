"""File outputs: CSV/JSON artifacts and run metadata.

Files are the machine interface of the lab; stdout is for humans.  Every
writer goes through an atomic write-temp-then-rename so readers never see
a half-written artifact.  All emitted values are deterministic functions
of the run configuration; wall-clock timings go only into the metadata
JSON, which is the one non-deterministic artifact.

The module imports no engine code at load time, so the commands that never
train (``verify``, ``kernels``) can write through it: the record types are
named for annotations only, and a writer that needs a helper of the
harness imports it when called.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Optional, Sequence, Union

import numpy as np

from . import __version__

if TYPE_CHECKING:
    from .harness import GridCell, LandscapeSurface, TrialResult, TrialSummary
    from .properties import PropertyReport

__all__ = [
    "atomic_write_bytes",
    "atomic_write_text",
    "write_property_report",
    "write_kernel_table",
    "write_results_csv",
    "write_curves_csv",
    "write_summary_json",
    "write_grid_cells_csv",
    "write_best_config_json",
    "write_landscape_csv",
    "write_fisher_csv",
    "write_metadata",
    "METRIC_DEFINITIONS",
]

METRIC_DEFINITIONS = {
    "conc": "validation accuracy (percent) at the final recorded epoch",
    "cell_format": "mean±std of final test accuracy, two decimals, sample std (n-1)",
    "split_policy": "unstratified shuffle, Philox-keyed by (seed, split-tag)",
    "divergence": "first non-finite value ends the trial; such trials stay in the statistics",
    "wall_time": "seconds, reported only in this metadata file",
    "loss": "mean per-example cross-entropy: the exactly rounded sum (math.fsum) of every "
    "example's loss divided by the split size, independent of eval batching and order",
}


def atomic_write_bytes(path: Union[str, Path], data: bytes) -> None:
    """Write through a temp file beside ``path``, then rename it into place.

    The temp name carries the writer's pid, so concurrent writers of one
    target never share a temp file; a failed write leaves the target as it
    was and removes its temp file.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def atomic_write_text(path: Union[str, Path], text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    atomic_write_text(path, buf.getvalue())


def _write_json(path, payload) -> None:
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_property_report(reports: list[PropertyReport], path) -> None:
    """One object per report, its fields as keys; a tuple witness is a list."""
    _write_json(path, [dataclasses.asdict(r) for r in reports])


def write_kernel_table(rows: Iterable[Sequence], path) -> None:
    """Long-format table: one row per (activation, x) with f, f', f''.

    The second-derivative column is empty where it is undefined (ReLU).
    """
    _write_csv(path, ("activation", "x", "f", "f_prime", "f_second"), rows)


def _write_columns(path, columns: dict[str, Callable], items: Iterable) -> None:
    """A CSV of one row per item and one column per entry of ``columns``:
    its header name, and the function that gives an item's value."""
    _write_csv(path, list(columns), ([value(x) for value in columns.values()] for x in items))


def _grid_columns() -> dict[str, Callable]:
    """One column per grid axis, read from an item's ``config``."""
    from .harness import GRID_AXES, grid_point

    return {axis: (lambda x, axis=axis: grid_point(x.config)[axis]) for axis in GRID_AXES}


def write_results_csv(trials: Iterable[TrialResult], path) -> None:
    """One row per trial.  Per-trial wall time lives in metadata, not here,
    so identical runs produce byte-identical files."""
    columns = {
        "activation": lambda t: t.config.activation_label,
        "optimizer": lambda t: t.config.optimizer.kind,
        "seed": lambda t: t.config.seed,
        **_grid_columns(),
        "final_test_acc": lambda t: t.test_acc,
        "best_valid_acc": lambda t: t.best_valid_acc,
        "conc": lambda t: t.conc,
        "diverged": lambda t: t.diverged,
    }
    _write_columns(path, columns, trials)


def write_curves_csv(trials: Iterable[TrialResult], path) -> None:
    """One row per trial and epoch: seed, epoch index, then the Epoch."""
    from .harness import Epoch

    rows = ((t.config.seed, i, *epoch) for t in trials for i, epoch in enumerate(t.epochs))
    _write_csv(path, ("seed", "epoch", *Epoch._fields), rows)


def write_summary_json(summary: TrialSummary, path) -> None:
    _write_json(path, {**dataclasses.asdict(summary), "cell": summary.cell()})


def write_grid_cells_csv(cells: list[GridCell], path) -> None:
    columns = {
        **_grid_columns(),
        "mean_best_valid": lambda c: c.mean_best_valid,
        "mean_test_acc": lambda c: c.summary.mean_test_acc,
        "std_test_acc": lambda c: c.summary.std_test_acc,
        "divergence_count": lambda c: c.summary.divergence_count,
    }
    _write_columns(path, columns, cells)


def write_best_config_json(config_dict: dict, path) -> None:
    _write_json(path, config_dict)


def write_landscape_csv(surface: LandscapeSurface, path) -> None:
    """Matrix layout: the header and the first column both carry the axis
    (beta across, alpha down), cell (i, j) the loss at (alpha_i, beta_j)."""
    axis = surface.axis.tolist()
    header = ["alpha\\beta"] + [repr(b) for b in axis]
    rows = ([a, *row] for a, row in zip(axis, surface.losses.tolist()))
    _write_csv(path, header, rows)


def write_fisher_csv(values: np.ndarray, path) -> None:
    """The bytes :func:`_write_csv` writes for these rows, joined directly:
    an int and a float repr never need CSV quoting."""
    values = np.asarray(values, float).tolist()
    rows = map(",".join, zip(map(str, range(len(values))), map(repr, values)))
    atomic_write_text(path, "\n".join(["param_index,fisher_diag", *rows, ""]))


def _environment(threads: Optional[tuple[int, int]]) -> dict:
    try:  # numpy < 1.26 has no dict mode
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    usable = len(os.sched_getaffinity(0))
    if threads is None:
        # the engine starts with one prefix thread per usable CPU; a command
        # that loaded it ran on the count it has now
        engine = sys.modules.get(f"{__package__}.autograd")
        threads = (1, usable if engine is None else engine.WORKERS)
    # the variables that set the BLAS library's thread count, as the run saw them
    blas_vars = ("MKL_NUM_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")
    return dict(numpy=np.__version__, blas=blas, cpu_count=os.cpu_count(), usable_cpus=usable,
                jobs=threads[0], engine_workers=threads[1],
                blas_threads={name: os.environ.get(name) for name in blas_vars})


def write_metadata(
    path, command: str, config: dict, threads: Optional[tuple[int, int]] = None, **extra
) -> None:
    """Resolved config plus tool version, metric definitions and the
    environment, written beside every run's outputs.  ``threads`` is
    (processes, engine threads per process) that the run's trials ran on
    (``harness.trial_threads``); without it, this process ran them."""
    payload = {
        "tool": "telulab",
        "version": __version__,
        "command": command,
        "config": config,
        "definitions": METRIC_DEFINITIONS,
        "environment": _environment(threads),
    }
    payload.update(extra)
    _write_json(path, payload)
