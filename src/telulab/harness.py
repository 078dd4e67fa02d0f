"""Experiment orchestration: trials, replication, grid search, probes.

Reproduces the benchmark protocol at desk scale: step-decay schedules,
fixed batch sizes, multi-seed replication with mean +- sample-std cells,
validation-selected grid search, loss-landscape slices with filter-wise
direction normalization, and an empirical Fisher-diagonal probe that sums
squared per-example gradients over fixed batches.  Dataset specs and
loading live in :mod:`telulab.data`; a trial loads through this module's
``materialize_datasets``, imported from there with the two spec classes.

Runs are deterministic end to end: a :class:`TrainConfig` (seed included)
fully determines every number in the outputs, and :func:`check_model`
checks its layers against its dataset before any data is read or any
parameter drawn.  A trial's record, a :class:`TrialResult`, carries its
config and one :class:`Epoch` per completed epoch, and the writers read
every column from it or from a figure it derives.  Divergence (first non-finite value) ends a trial early
and is recorded as data, never raised to the caller.
"""

from __future__ import annotations

import concurrent.futures
import itertools
import math
import time
from dataclasses import dataclass, replace
from typing import NamedTuple, Optional

import numpy as np

from . import autograd
from .autograd import (
    Activation,
    LayerSpec,
    Model,
    build_model,
    backward,
    cross_entropy_rows,
    forward,
    output_shape,
    set_workers,
    softmax_cross_entropy,
    usable_cpus,
)
from .data import BlobsSpec, Dataset, DatasetSpec, batches, materialize_datasets
from .errors import ConfigError, DivergenceError
from .optim import LrSchedule, OptimizerConfig, OptimizerState, lr_at_epoch, step
from .rng import TAG_DIRECTIONS, check_seed, generator

__all__ = [
    "TrainConfig",
    "Epoch",
    "TrialResult",
    "TrialSummary",
    "GRID_AXES",
    "grid_point",
    "GridSpec",
    "GridCell",
    "check_model",
    "run_trial",
    "trial_threads",
    "train_model",
    "fit",
    "replicate",
    "grid_search",
    "format_cell",
    "LandscapeSurface",
    "draw_directions",
    "check_landscape_args",
    "landscape_slice",
    "empirical_fisher_diag",
]

_EVAL_BATCH = 512
# examples per batched pass of the Fisher probe: a constant, so the
# rounding of its sums never depends on the CPU count
_FISHER_BATCH = 32


@dataclass(frozen=True)
class TrainConfig:
    """Everything that determines one training run."""

    layers: tuple[LayerSpec, ...]
    optimizer: OptimizerConfig
    schedule: LrSchedule
    epochs: int
    batch: int
    dataset: DatasetSpec
    seed: int = 0

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.batch < 1:
            raise ConfigError("batch must be >= 1")
        if not self.layers:
            raise ConfigError("model needs at least one layer")

    @property
    def activation_label(self) -> str:
        """The trial's label in results and summaries: each distinct kind of
        its activation layers in layer order, ``/``-joined (a spec string
        may hold ``+``), or ``none`` for a stack without one."""
        kinds = (l.kind.spec_string() for l in self.layers if isinstance(l, Activation))
        return "/".join(dict.fromkeys(kinds)) or "none"


class Epoch(NamedTuple):
    """One completed epoch's figures, in ``curves.csv`` column order."""

    train_acc: float
    train_loss: float
    valid_acc: float
    valid_loss: float


@dataclass(frozen=True)
class TrialResult:
    """Outcome of one training run of ``config``: one :class:`Epoch` per
    completed epoch (a diverged trial stops at its divergence epoch, None
    when it never diverged), with accuracies as percentages in [0, 100].
    ``wall_time`` (seconds, data loading included when the trial loaded its
    data) is the one field that ``config`` does not determine."""

    config: TrainConfig
    epochs: tuple[Epoch, ...]
    test_acc: float
    divergence_epoch: Optional[int]
    wall_time: float

    @property
    def diverged(self) -> bool:
        return self.divergence_epoch is not None

    @property
    def best_valid_acc(self) -> float:
        """Highest validation accuracy over the epochs (0.0 with none)."""
        return max((e.valid_acc for e in self.epochs), default=0.0)

    @property
    def conc(self) -> float:
        """Convergence figure used in summary tables: validation accuracy
        at the final recorded epoch (0.0 when the trial diverged before its
        first evaluation).  This definition travels with the outputs in
        metadata."""
        return self.epochs[-1].valid_acc if self.epochs else 0.0


@dataclass(frozen=True)
class TrialSummary:
    """Per (activation x optimizer) aggregate across seeds; ``activation``
    is the trials' :attr:`TrainConfig.activation_label`."""

    activation: str
    optimizer: str
    mean_test_acc: float
    std_test_acc: float
    mean_conc: float
    divergence_count: int
    n_trials: int

    def cell(self) -> str:
        return format_cell(self.mean_test_acc, self.std_test_acc)


def format_cell(mean: float, std: float) -> str:
    """Summary-table cell, two decimals each side: ``93.20±0.41``."""
    return f"{mean:.2f}±{std:.2f}"


def check_model(layers: tuple[LayerSpec, ...], spec: DatasetSpec) -> None:
    """Raise :class:`ConfigError` unless ``layers`` map an example of
    ``spec`` to one logit per class (:func:`autograd.output_shape`, which
    draws no parameter), or a size is past numpy's array limits."""
    try:
        shape = output_shape(layers, spec.example_shape)
    except ConfigError:
        raise
    except ValueError as exc:  # numpy's: a dimension or an array size past np.intp
        raise ConfigError(f"model: the layer or example sizes are too large for an array ({exc})") from exc
    if shape != (spec.num_classes,):
        raise ConfigError(
            f"model: the layers give each example an output of shape "
            f"{shape}, but the {spec.name} dataset has {spec.num_classes} classes"
        )


def _evaluate(model: Model, ds: Dataset) -> tuple[float, float]:
    """(accuracy percent, mean loss) over a dataset, fixed batching."""
    correct = 0
    loss_sum = 0.0
    for b in batches(ds, _EVAL_BATCH):
        logits, _ = forward(model, b, record=False)
        loss, _ = softmax_cross_entropy(logits, b.labels)
        loss_sum += loss * len(b)
        correct += int(np.sum(np.argmax(logits, axis=1) == b.labels))
    return 100.0 * correct / len(ds), loss_sum / len(ds)


def train_model(cfg: TrainConfig) -> tuple[Model, TrialResult]:
    """Run one trial and return both the trained model and its record;
    the record's ``wall_time`` includes loading the datasets."""
    t0 = time.perf_counter()
    model, result = fit(cfg, materialize_datasets(cfg.dataset))
    return model, replace(result, wall_time=time.perf_counter() - t0)


def fit(
    cfg: TrainConfig, splits: tuple[Dataset, Dataset, Dataset]
) -> tuple[Model, TrialResult]:
    """Train on already loaded (train, valid, test) splits of ``cfg.dataset``
    and return the trained model and its record."""
    t0 = time.perf_counter()
    train, valid, test = splits
    check_model(cfg.layers, cfg.dataset)
    model = build_model(cfg.layers, cfg.seed)
    state = OptimizerState(cfg.optimizer)

    epochs: list[Epoch] = []
    divergence_epoch: Optional[int] = None

    for epoch in range(cfg.epochs):
        lr_now = lr_at_epoch(cfg.schedule, cfg.optimizer.lr, epoch)
        try:
            for b in batches(train, cfg.batch, shuffle=True, seed=cfg.seed, epoch=epoch):
                logits, tape = forward(model, b, record=True)
                _, loss_grad = softmax_cross_entropy(logits, b.labels)
                grads = backward(tape, loss_grad)
                step(state, model.params, grads, lr_now)
            epochs.append(Epoch(*_evaluate(model, train), *_evaluate(model, valid)))
        except DivergenceError:
            divergence_epoch = epoch
            break

    try:
        test_acc, _ = _evaluate(model, test)
    except DivergenceError:
        test_acc = 0.0
        if divergence_epoch is None:
            divergence_epoch = cfg.epochs - 1

    wall_time = time.perf_counter() - t0
    return model, TrialResult(cfg, tuple(epochs), test_acc, divergence_epoch, wall_time)


def run_trial(cfg: TrainConfig) -> TrialResult:
    """Train once; divergence yields a flagged result, not an exception."""
    return train_model(cfg)[1]


def trial_threads(jobs: int, n_trials: int) -> tuple[int, int]:
    """(processes, engine threads per process) that ``n_trials`` trials run
    on at ``jobs``: this process on :data:`autograd.WORKERS` threads when
    either is 1, else a pool of ``min(jobs, n_trials)`` workers, each on its
    share of the usable CPUs.  Under fork the pool starts all its workers at
    the first submit, so more workers than trials would only fork idle
    processes."""
    if jobs <= 1 or n_trials <= 1:
        return 1, autograd.WORKERS
    workers = min(jobs, n_trials)
    return workers, max(1, usable_cpus() // workers)


def _run_trials(configs: list[TrainConfig], jobs: int) -> list[TrialResult]:
    workers, threads = trial_threads(jobs, len(configs))
    if workers == 1:
        return [run_trial(c) for c in configs]
    # imported here, as concurrent.futures imports it: only a pool needs it
    import multiprocessing

    # fork, named rather than left to the platform's default (forkserver on
    # Linux from Python 3.14): its workers inherit this process's modules
    # as they stand, names replaced on them included
    with concurrent.futures.ProcessPoolExecutor(
        workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=set_workers,
        initargs=(threads,),
    ) as pool:
        return list(pool.map(run_trial, configs))


def _seeded(cfg: TrainConfig, seeds: list[int]) -> list[TrainConfig]:
    """One config per seed; seeds must be distinct and non-empty."""
    if len(set(seeds)) != len(seeds):
        raise ConfigError("seeds must be distinct")
    if not seeds:
        raise ConfigError("need at least one seed")
    return [replace(cfg, seed=s) for s in seeds]


def _summarize(cfg: TrainConfig, trials: list[TrialResult]) -> TrialSummary:
    """Aggregate one configuration's trials across seeds."""
    accs = np.array([t.test_acc for t in trials])
    return TrialSummary(
        activation=cfg.activation_label,
        optimizer=cfg.optimizer.kind,
        mean_test_acc=float(np.mean(accs)),
        std_test_acc=float(np.std(accs, ddof=1)) if len(accs) > 1 else 0.0,
        mean_conc=float(np.mean([t.conc for t in trials])),
        divergence_count=sum(t.diverged for t in trials),
        n_trials=len(trials),
    )


def replicate(
    cfg: TrainConfig, seeds: list[int], jobs: int = 1
) -> tuple[TrialSummary, list[TrialResult]]:
    """Run one trial per seed and aggregate.

    Diverged trials enter the statistics like any other: instability is
    part of the measurement.  Sample standard deviation uses the n-1
    denominator (0.0 when n = 1).
    """
    trials = _run_trials(_seeded(cfg, seeds), jobs)
    return _summarize(cfg, trials), trials


#: the hyperparameters a grid searches, in column and tie-break order
GRID_AXES = ("lr", "weight_decay", "gamma")


def grid_point(cfg: TrainConfig) -> dict[str, float]:
    """``cfg``'s value on each of :data:`GRID_AXES`, in that order."""
    values = (cfg.optimizer.lr, cfg.optimizer.weight_decay, cfg.schedule.gamma)
    return dict(zip(GRID_AXES, values, strict=True))


@dataclass(frozen=True)
class GridSpec:
    """Cartesian hyperparameter grid over a fixed base configuration: one
    tuple of values per entry of :data:`GRID_AXES`."""

    base: TrainConfig
    lr: tuple[float, ...]
    weight_decay: tuple[float, ...]
    gamma: tuple[float, ...]

    def __post_init__(self) -> None:
        for axis in GRID_AXES:
            if not getattr(self, axis):
                raise ConfigError(f"grid.{axis} must be non-empty")

    def size(self) -> int:
        return math.prod(len(getattr(self, axis)) for axis in GRID_AXES)

    def configs(self) -> list[TrainConfig]:
        """One config per point of the grid, the last axis varying fastest."""
        base = self.base
        return [
            replace(
                base,
                optimizer=replace(base.optimizer, lr=lr, weight_decay=wd),
                schedule=replace(base.schedule, gamma=gamma),
            )
            for lr, wd, gamma in itertools.product(*(getattr(self, a) for a in GRID_AXES))
        ]


@dataclass(frozen=True)
class GridCell:
    config: TrainConfig
    mean_best_valid: float
    summary: TrialSummary
    trials: tuple[TrialResult, ...]


def grid_search(
    grid: GridSpec, seeds: list[int], jobs: int = 1
) -> tuple[TrainConfig, list[GridCell]]:
    """Evaluate the full grid; select by mean best-validation accuracy.

    Ties break toward the lower :func:`grid_point`, compared axis by axis
    in :data:`GRID_AXES` order, so the selection is deterministic.
    """
    configs = grid.configs()
    # every (cell x seed) trial goes through one pool, in cell-major order
    trials = _run_trials([c for cfg in configs for c in _seeded(cfg, seeds)], jobs)
    cells = []
    for i, cfg in enumerate(configs):
        cell = trials[i * len(seeds) : (i + 1) * len(seeds)]
        mean_best = float(np.mean([t.best_valid_acc for t in cell]))
        cells.append(GridCell(cfg, mean_best, _summarize(cfg, cell), tuple(cell)))
    best = min(cells, key=lambda c: (-c.mean_best_valid, *grid_point(c.config).values()))
    return best.config, cells


# --- loss-landscape slice ------------------------------------------------------


@dataclass(frozen=True)
class LandscapeSurface:
    axis: np.ndarray  # both directions' steps
    losses: np.ndarray  # losses[i, j] at (alpha, beta) = (axis[i], axis[j])


def _filter_normalize(direction: np.ndarray, param: np.ndarray) -> None:
    """Rescale each filter of the direction, in place, to its model
    filter's norm.

    Filters are output channels for conv weights (4-d), per-output-unit
    columns for dense weights (2-d), and the whole vector for biases.
    Zero-norm model filters keep the raw direction (so a probe around an
    all-zero parameter still explores).
    """
    axes = {4: (1, 2, 3), 2: (0,)}.get(param.ndim, tuple(range(param.ndim)))
    with np.errstate(over="ignore"):  # an overflowing norm gives inf losses
        wnorm = np.sqrt(np.sum(param**2, axis=axes, keepdims=True))
    dnorm = np.sqrt(np.sum(direction**2, axis=axes, keepdims=True))
    direction *= np.where(wnorm > 0.0, wnorm / np.maximum(dnorm, 1e-300), 1.0)


def draw_directions(model: Model, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Two seeded random directions in parameter space, as vectors of
    ``model.flat``'s layout, each filter-normalized per parameter."""
    out = []
    for extra in (0, 1):
        d = generator(seed, TAG_DIRECTIONS, extra).standard_normal(model.flat.size)
        for view, p in zip(model.views(d), model.params):
            _filter_normalize(view, p.data)
        out.append(d)
    return out[0], out[1]


# the most cells (grid_n**2) in one landscape slice, each a full loss evaluation
MAX_LANDSCAPE_CELLS = 10**6


def check_landscape_args(grid_n: int, radius: float, seed: int) -> None:
    """:func:`landscape_slice`'s argument checks, to make before training."""
    if grid_n < 3 or grid_n % 2 == 0:
        raise ConfigError(f"grid_n must be odd and >= 3, got {grid_n}")
    if grid_n**2 > MAX_LANDSCAPE_CELLS:
        raise ConfigError(
            f"grid_n={grid_n} gives {grid_n**2} cells, more than {MAX_LANDSCAPE_CELLS}"
        )
    if not (radius > 0 and math.isfinite(2 * radius)):
        raise ConfigError(f"radius must be positive with 2*radius finite, got {radius}")
    check_seed(seed, "direction_seed")


def landscape_slice(
    model: Model,
    dataset: Dataset,
    grid_n: int,
    radius: float,
    seed: int,
) -> LandscapeSurface:
    """Loss surface on the plane spanned by two seeded random directions.

    Evaluates loss(theta + alpha * d1 + beta * d2) on a (grid_n x grid_n)
    grid over [-radius, radius]^2.  ``grid_n`` must be odd so the exact,
    unperturbed model sits at the center cell: its step is exactly 0, and a
    zero step adds no term, so not even an infinite direction moves it.  A
    perturbed evaluation that diverges records ``inf`` for that cell.
    """
    check_landscape_args(grid_n, radius, seed)
    d1, d2 = draw_directions(model, seed)
    axis = np.linspace(-radius, radius, grid_n)
    axis[grid_n // 2] = 0.0  # linspace can leave it about 1e-17 off
    theta = model.flat.copy()
    losses = np.empty((grid_n, grid_n))
    try:
        for i, a in enumerate(axis):
            for j, b in enumerate(axis):
                # only a nonzero step adds its term, so the center is theta even
                # where a direction is inf; a non-finite point fails the
                # forward's checks: an inf cell
                model.flat[:] = theta
                with np.errstate(over="ignore", invalid="ignore"):
                    if a:
                        model.flat += a * d1
                    if b:
                        model.flat += b * d2
                try:
                    losses[i, j] = _evaluate(model, dataset)[1]
                except DivergenceError:
                    losses[i, j] = math.inf
    finally:
        model.flat[:] = theta
    return LandscapeSurface(axis, losses)


# --- empirical Fisher information probe -------------------------------------------


def empirical_fisher_diag(model: Model, dataset: Dataset, n_samples: int) -> np.ndarray:
    """Diagonal of the empirical Fisher information matrix.

    Mean over the first ``n_samples`` examples of the squared
    per-parameter gradient of the true-label log-likelihood; returned as
    one vector of ``model.flat``'s layout.  The examples run in batches of
    :data:`_FISHER_BATCH`, each one recorded forward and one backward that
    returns the batch's sums of squared per-example gradients; the batch
    sums are added in order.  A non-finite value raises
    :class:`DivergenceError`.
    """
    if not 1 <= n_samples <= len(dataset):
        raise ConfigError("n_samples must be in [1, dataset size]")
    accum = np.zeros_like(model.flat)
    views = model.views(accum)
    for b in batches(dataset.take(np.arange(n_samples)), _FISHER_BATCH):
        logits, tape = forward(model, b, record=True)
        # each row's own gradient: d(log p)/d(logits) = -d(CE)/d(logits),
        # and squaring drops the sign
        _, ce_rows = cross_entropy_rows(logits, b.labels)
        squares = backward(tape, ce_rows, squares=True)
        with np.errstate(over="ignore"):  # caught by the finiteness check below
            for view, p in zip(views, model.params):
                view += squares[p]
    if not np.isfinite(accum).all():
        raise DivergenceError("non-finite Fisher diagonal")
    return accum / n_samples
