"""The benchmark's workloads: seeded inputs, CLI arguments and output checks.

Each workload is one ``telulab`` command line, run in a fresh child process
the way users run the lab.  Inputs are generated here from the workload
seed through the package's public API and never committed.  The seed picks
one of ``VARIANTS`` input sets (``seed % VARIANTS``); ``reference.json``
holds the recorded outputs of every variant, so every run is checked
against a recorded reference.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from telulab.autograd import build_model, save_params
from telulab.config import build_run_spec
from telulab.data import DataMeta, Dataset, load_cifar10, write_cifar10

VARIANTS = 16

# Relative tolerance for recorded reference values: admits summation-order
# changes at the 1e-13 level, rejects any change of what is computed.
REL_TOL = 1e-9
ABS_TOL = 1e-12

DEFAULT_KINDS = ("telu", "relu", "gelu", "silu", "mish", "logish", "smish", "elu")

# conv3->16 k3, TeLU, pool, conv16->32 k4, TeLU, pool, dense 1152->64, TeLU,
# dense 64->10: the reference CNN of the roadmap.
REFERENCE_CNN = [
    {"type": "conv2d", "in_ch": 3, "out_ch": 16, "k": 3},
    {"type": "activation"},
    {"type": "maxpool2"},
    {"type": "conv2d", "in_ch": 16, "out_ch": 32, "k": 4},
    {"type": "activation"},
    {"type": "maxpool2"},
    {"type": "flatten"},
    {"type": "dense", "in": 1152, "out": 64},
    {"type": "activation"},
    {"type": "dense", "in": 64, "out": 10},
]
BLOBS_DIM = 32
BLOBS_HIDDEN = 64
BLOBS_BATCH = 32
BLOBS_MLP = [
    {"type": "dense", "in": BLOBS_DIM, "out": BLOBS_HIDDEN},
    {"type": "activation"},
    {"type": "dense", "in": BLOBS_HIDDEN, "out": BLOBS_HIDDEN},
    {"type": "activation"},
    {"type": "dense", "in": BLOBS_HIDDEN, "out": 10},
]

# archive sizes: (records per data_batch file, test records)
CNN_TRAIN_ARCHIVE = (128, 128)
FISHER_ARCHIVE = (2000, 2000)
FISHER_SAMPLES = 200
LEARNED_ACC = 25.0  # percent; chance is 10


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    jobs: int
    prepare: Callable[[Path, int], list[str]]  # (input dir, variant) -> telulab arguments
    summarize: Callable[[Path, Path], dict]  # (output dir, input dir) -> reference summary
    invariants: Callable[[dict], list[str]]  # summary -> problems


# --- input generation ----------------------------------------------------------


def _rng(variant: int, purpose: int) -> np.random.Generator:
    return np.random.default_rng([variant, purpose])


def _class_pixels(rng: np.random.Generator, labels: np.ndarray, templates: np.ndarray) -> np.ndarray:
    noise = rng.integers(-32, 33, size=(len(labels), 3, 32, 32), dtype=np.int16)
    return np.clip(128 + templates[labels] + noise, 0, 255).astype(np.uint8)


def _templates(rng: np.random.Generator) -> np.ndarray:
    """One 3x32x32 pattern in [-70, 70] per class: a random low-frequency
    plane wave per channel."""
    yy, xx = np.mgrid[0:32, 0:32] / 32.0
    out = np.zeros((10, 3, 32, 32))
    for c in range(10):
        for ch in range(3):
            fx, fy = rng.integers(0, 4, size=2)
            phase = rng.uniform(0, 2 * np.pi)
            out[c, ch] = np.sin(2 * np.pi * (fx * xx + fy * yy) + phase)
    return np.rint(70.0 * out).astype(np.int16)


def write_archive(path: Path, variant: int, per_file: int, n_test: int) -> None:
    """CIFAR-10 binary archive (five train files plus the test file) whose
    pixels carry class-dependent structure, written with the package's
    ``write_cifar10`` and checked byte-exactly by a reload."""
    path.mkdir(parents=True, exist_ok=True)
    templates = _templates(_rng(variant, 0))
    files = [(f"data_batch_{i}.bin", per_file) for i in range(1, 6)]
    files.append(("test_batch.bin", n_test))
    for i, (name, n) in enumerate(files):
        rng = _rng(variant, 1 + i)
        labels = rng.permutation(np.arange(n) % 10).astype(np.int64)
        pixels = _class_pixels(rng, labels, templates)
        images = pixels.astype(np.float64) / 255.0
        write_cifar10(Dataset(images, labels, DataMeta("cifar10", 10, "train")), path / name)
        back = load_cifar10(path / name)
        if not (np.array_equal(back.labels, labels) and np.array_equal(back.images, images)):
            raise RuntimeError(f"{path / name}: reload differs from the generated records")


def _write_config(path: Path, config: dict) -> Path:
    path.write_text(json.dumps(config, indent=2))
    return path


def cifar_config(archive: Path, per_file: int, split_seed: int, standardize: bool) -> dict:
    train = 5 * per_file
    valid = train // 5
    return {
        "model": {"layers": REFERENCE_CNN},
        "activation": "telu",
        "optimizer": {"kind": "momentum", "lr": 0.01, "momentum": 0.9, "weight_decay": 0.0005},
        "schedule": {"gamma": 1.0, "milestones": []},
        "epochs": 1,
        "batch": 128,
        "dataset": {
            "name": "cifar10",
            "path": str(archive),
            "split": {"train": train - valid, "valid": valid, "seed": split_seed},
            "standardize": standardize,
        },
        "seeds": [0],
    }


def prepare_cnn_train(work: Path, variant: int) -> list[str]:
    per_file, n_test = CNN_TRAIN_ARCHIVE
    write_archive(work / "cifar", variant, per_file, n_test)
    cfg = _write_config(work / "run.json", cifar_config(work / "cifar", per_file, variant, False))
    return ["train", "--config", str(cfg)]


def blobs_config(variant: int) -> dict:
    return {
        "model": {"layers": BLOBS_MLP},
        "activation": "telu",
        "optimizer": {"kind": "adamw", "lr": 0.001, "weight_decay": 0.01},
        "schedule": {"gamma": 0.5, "milestones": [1]},
        "epochs": 3,
        "batch": BLOBS_BATCH,
        "dataset": {
            "name": "blobs",
            "blobs": {"n": 4000, "classes": 10, "dim": BLOBS_DIM, "spread": 0.6, "seed": variant},
            "split": {"train": 3200, "valid": 800, "test": 800, "seed": variant},
        },
        "seeds": [0, 1],
        "grid": {"lr": [0.001, 0.003], "weight_decay": [0.01], "gamma": [0.5]},
    }


def prepare_blobs_grid(work: Path, variant: int) -> list[str]:
    cfg = _write_config(work / "run.json", blobs_config(variant))
    return ["grid", "--config", str(cfg), "--jobs", "2"]


def model_layers(config: dict) -> tuple:
    """The layer stack of a config, parsed the way the CLI parses it."""
    return build_run_spec(config).train.layers


def prepare_cifar_fisher(work: Path, variant: int) -> list[str]:
    per_file, n_test = FISHER_ARCHIVE
    write_archive(work / "cifar", variant, per_file, n_test)
    config = cifar_config(work / "cifar", per_file, variant, True)
    cfg = _write_config(work / "run.json", config)
    save_params(build_model(model_layers(config), variant), work / "ckpt")
    return [
        "fisher", "--config", str(cfg),
        "--checkpoint", str(work / "ckpt"),
        "--samples", str(FISHER_SAMPLES),
    ]


def prepare_verify(work: Path, variant: int) -> list[str]:
    kinds = [DEFAULT_KINDS[i] for i in _rng(variant, 0).permutation(len(DEFAULT_KINDS))]
    return ["verify", "--activations", *kinds]


# --- output summaries compared against the recorded reference ----------------


def _parse(value: str):
    for conv in (int, float):
        try:
            return conv(value)
        except ValueError:
            pass
    return value


def _csv_rows(path: Path) -> list[dict]:
    with path.open(newline="") as fh:
        return [{k: _parse(v) for k, v in row.items()} for row in csv.DictReader(fh)]


def summarize_cnn_train(out: Path, work: Path) -> dict:
    return {"results": _csv_rows(out / "results.csv")}


def summarize_blobs_grid(out: Path, work: Path) -> dict:
    return {
        "results": _csv_rows(out / "results.csv"),
        "best_config": json.loads((out / "best_config.json").read_text()),
    }


def summarize_cifar_fisher(out: Path, work: Path) -> dict:
    """Row count plus the sum and max of the Fisher diagonal per parameter
    tensor; the full 83k-row file is pinned by byte identity in a run."""
    rows = _csv_rows(out / "fisher.csv")
    values = np.array([r["fisher_diag"] for r in rows])
    if [r["param_index"] for r in rows] != list(range(len(rows))):
        raise ValueError("fisher.csv param_index is not 0..n-1")
    shapes = json.loads((work / "ckpt.json").read_text())["shapes"]
    sums, maxima, start = [], [], 0
    for shape in shapes:
        n = math.prod(shape)
        sums.append(float(values[start : start + n].sum()))
        maxima.append(float(values[start : start + n].max()))
        start += n
    return {"rows": len(rows), "tensor_sums": sums, "tensor_max": maxima}


def summarize_verify(out: Path, work: Path) -> dict:
    report = json.loads((out / "property_report.json").read_text())
    return {
        r["claim_id"]: {"verdict": r["verdict"], "measured": r["measured"]}
        for r in sorted(report, key=lambda r: r["claim_id"])
    }


# Invariants that hold for every variant, checked beside the reference.


def trained_above_chance(summary: dict) -> list[str]:
    problems = []
    for row in summary["results"]:
        if row["diverged"] != "false":
            problems.append(f"trial seed={row['seed']} lr={row['lr']} diverged")
        elif row["final_test_acc"] < LEARNED_ACC:
            problems.append(f"test accuracy {row['final_test_acc']} is near chance")
    return problems


def fisher_nonnegative(summary: dict) -> list[str]:
    values = summary["tensor_sums"] + summary["tensor_max"]
    if all(math.isfinite(v) and v >= 0.0 for v in values) and max(values) > 0.0:
        return []
    return ["fisher diagonal is not finite, non-negative and non-zero"]


def no_claim_fails(summary: dict) -> list[str]:
    return [f"{cid}: {c['verdict']}" for cid, c in summary.items() if c["verdict"] == "fails"]


def differences(got, want, where: str = "") -> list[str]:
    """Where ``got`` differs from ``want``: floats within REL_TOL, all
    else exactly."""
    if isinstance(want, dict) and isinstance(got, dict):
        if set(got) != set(want):
            return [f"{where}: keys {sorted(set(got) ^ set(want))} differ"]
        return [d for k in want for d in differences(got[k], want[k], f"{where}.{k}")]
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return [f"{where}: length {len(got)} != {len(want)}"]
        return [d for i, (g, w) in enumerate(zip(got, want)) for d in differences(g, w, f"{where}[{i}]")]
    if isinstance(want, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        if math.isclose(got, want, rel_tol=REL_TOL, abs_tol=ABS_TOL):
            return []
        return [f"{where}: {got!r} != {want!r}"]
    if got != want or type(got) is not type(want):
        return [f"{where}: {got!r} != {want!r}"]
    return []


# Why each workload is in the benchmark; also written to BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "cnn_train",
            "one epoch of the reference CNN at batch 128: conv forward/backward, "
            "activation kernels on 1.8M-element arrays and batch-512 eval forwards",
            1,
            prepare_cnn_train,
            summarize_cnn_train,
            trained_above_chance,
        ),
        Workload(
            "blobs_grid",
            "grid --jobs 2 of a dense TeLU MLP on blobs: per-step interpreter, tape "
            "and optimizer overhead plus one pool per cell; bypasses conv and im2col",
            2,
            prepare_blobs_grid,
            summarize_blobs_grid,
            trained_above_chance,
        ),
        Workload(
            "cifar_fisher",
            "fisher on a checkpoint over a standardized 12k-record CIFAR archive: "
            "batch-1 forward/backward per sample plus the float64 ingest path",
            1,
            prepare_cifar_fisher,
            summarize_cifar_fisher,
            fisher_nonnegative,
        ),
        Workload(
            "verify",
            "verify over the 8 default kinds: quadrature, bisection and golden "
            "section making scalar kernel calls; no autograd or data code",
            1,
            prepare_verify,
            summarize_verify,
            no_claim_fails,
        ),
    )
}
