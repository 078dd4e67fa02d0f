"""Per-module timings, taken from outside by calling each module's public
functions on inputs shaped like the workloads'.

Figures that need a fresh process (peak RSS, cold caches) come from child
runs of this file, each printing one JSON object:
``python3 perfbench/layers.py data|standardize ARCHIVE N_RECORDS`` and
``python3 perfbench/layers.py battery``.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from telulab import kernels, properties
from telulab.autograd import backward, build_model, forward, softmax_cross_entropy
from telulab.config import load_run_spec
from telulab.data import SplitSpec, batch_iter, load_cifar10, split
from telulab.harness import DatasetSpec, materialize_datasets
from telulab.optim import OPTIMIZER_KINDS, OptimizerConfig, OptimizerState, step
from telulab.properties import Interval

import workloads

# conv1's output at batch 128: the array every activation kernel sees first
KERNEL_SHAPE = (128, 16, 30, 30)

# the models the workloads train, as their configs define them
CNN = workloads.model_layers(workloads.cifar_config(Path("cifar"), 128, 0, False))
MLP = workloads.model_layers(workloads.blobs_config(0))

# single layers of the reference CNN with the input shape each one sees
CNN_LAYERS = {
    "conv1": (CNN[0], (3, 32, 32)),
    "act1": (CNN[1], (16, 30, 30)),
    "pool1": (CNN[2], (16, 30, 30)),
    "conv2": (CNN[3], (16, 15, 15)),
    "dense1": (CNN[7], (1152,)),
}


def _median_time(fn, reps: int) -> float:
    """Median seconds of ``reps`` calls after one untimed call."""
    fn()
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def kernel_metrics(rng: np.random.Generator) -> dict[str, float]:
    x = rng.standard_normal(KERNEL_SHAPE)
    out = {}
    for kind in kernels.ALL_KINDS:
        for fn_name in ("value", "derivative"):
            fn = getattr(kernels, fn_name)
            t = _median_time(lambda: fn(kind, x), 3)
            out[f"kernels.{fn_name}.{kind.tag}.ns_per_elem"] = t / x.size * 1e9
    # one float64 read of the input and one write of the output per element
    out["kernels.computed_bytes_per_call"] = 16.0 * x.size
    return out


def _fwd_bwd_ms(model, x: np.ndarray, reps: int) -> tuple[float, float]:
    fwd, bwd = [], []
    for i in range(reps + 1):
        t0 = time.perf_counter()
        y, tape = forward(model, x, record=True)
        t1 = time.perf_counter()
        backward(tape, np.ones_like(y.data))
        t2 = time.perf_counter()
        if i:
            fwd.append(t1 - t0)
            bwd.append(t2 - t1)
    return statistics.median(fwd) * 1e3, statistics.median(bwd) * 1e3


def _train_step_ms(model, x: np.ndarray, labels: np.ndarray, reps: int) -> float:
    def once():
        logits, tape = forward(model, x, record=True)
        _, g = softmax_cross_entropy(logits, labels)
        backward(tape, g)

    return _median_time(once, reps) * 1e3


def autograd_metrics(rng: np.random.Generator) -> dict[str, float]:
    out = {}
    for batch, reps in ((128, 3), (1, 30)):
        for name, (layer, shape) in CNN_LAYERS.items():
            model = build_model((layer,), 0)
            x = rng.standard_normal((batch, *shape))
            fwd, bwd = _fwd_bwd_ms(model, x, reps)
            out[f"autograd.{name}.fwd_ms.b{batch}"] = fwd
            out[f"autograd.{name}.bwd_ms.b{batch}"] = bwd
    cnn = build_model(CNN, 0)
    for batch, reps in ((128, 3), (1, 30)):
        x = rng.uniform(0.0, 1.0, (batch, 3, 32, 32))
        y = rng.integers(0, 10, batch)
        out[f"autograd.model_step_ms.b{batch}"] = _train_step_ms(cnn, x, y, reps)
    x512 = rng.uniform(0.0, 1.0, (512, 3, 32, 32))
    out["autograd.model_fwd_ms.b512"] = _median_time(lambda: forward(cnn, x512), 3) * 1e3
    mlp = build_model(MLP, 0)
    x = rng.standard_normal((workloads.BLOBS_BATCH, workloads.BLOBS_DIM))
    y = rng.integers(0, 10, workloads.BLOBS_BATCH)
    out["autograd.mlp_step_ms"] = _train_step_ms(mlp, x, y, 50)
    return out


def optim_metrics(rng: np.random.Generator) -> dict[str, float]:
    out = {}
    for model_name, layers in (("cnn", CNN), ("mlp", MLP)):
        model = build_model(layers, 0)
        grads = {p: 1e-3 * rng.standard_normal(p.shape) for p in model.params}
        for kind in OPTIMIZER_KINDS:
            state = OptimizerState(OptimizerConfig(kind, lr=1e-3, weight_decay=1e-4))
            t = _median_time(lambda: step(state, model.params, grads, 1e-3), 20)
            out[f"optim.step_ms.{kind}.{model_name}"] = t * 1e3
    return out


def properties_metrics() -> dict[str, float]:
    telu = kernels.TELU
    calls = {
        "gaussian_mean": lambda: properties.gaussian_mean(telu, 1.0),
        "interval_mean": lambda: properties.interval_mean(telu, 8.0),
        "find_derivative_roots": lambda: properties.find_derivative_roots(
            telu, Interval(-5.0, 0.0, 5001), 1e-10),
        "sup_abs_derivative": lambda: properties.sup_abs_derivative(
            telu, Interval(-10.0, 10.0, 10001)),
        "grad_consistency": lambda: properties.grad_consistency(
            telu, Interval(-5.0, 5.0, 1001), 1e-5),
    }
    return {f"properties.{k}_ms": _median_time(fn, 5) * 1e3 for k, fn in calls.items()}


def config_metrics(config: Path) -> dict[str, float]:
    return {"config.load_run_spec_ms": _median_time(lambda: load_run_spec(config), 50) * 1e3}


# --- child probes -------------------------------------------------------------------


def _split_spec(n_records: int) -> SplitSpec:
    return SplitSpec(train=n_records * 4 // 5, valid=n_records - n_records * 4 // 5, seed=0)


def data_probe(archive: Path, n_records: int) -> dict[str, float]:
    """Load, split, one shuffled epoch of batches and the plain
    materialization of the archive, in a fresh process."""
    t0 = time.perf_counter()
    full = load_cifar10(archive, "train")
    out = {"data.load_cifar10_s": time.perf_counter() - t0, "data.load_peak_rss_mb": _peak_rss_mb()}
    t0 = time.perf_counter()
    train, _ = split(full, _split_spec(n_records))
    out["data.split_s"] = time.perf_counter() - t0
    del full
    t0 = time.perf_counter()
    for xb, _ in batch_iter(train, 128, shuffle=True, seed=0, epoch=0):
        xb.sum()
    out["data.batch_iter_epoch_s"] = time.perf_counter() - t0
    del train
    spec = DatasetSpec(name="cifar10", split=_split_spec(n_records), path=str(archive))
    t0 = time.perf_counter()
    materialize_datasets(spec)
    out["harness.materialize_s.plain"] = time.perf_counter() - t0
    return out


def standardize_probe(archive: Path, n_records: int) -> dict[str, float]:
    """The standardized materialization alone, so its peak RSS is its own."""
    spec = DatasetSpec(name="cifar10", split=_split_spec(n_records), path=str(archive), standardize=True)
    t0 = time.perf_counter()
    materialize_datasets(spec)
    return {
        "harness.materialize_s.standardize": time.perf_counter() - t0,
        "harness.materialize_peak_rss_mb.standardize": _peak_rss_mb(),
    }


def battery_probe() -> dict[str, float]:
    """The verify battery over the default kinds, cold then warm."""
    out = {}
    for key in ("cold", "warm"):
        t0 = time.perf_counter()
        for tag in workloads.DEFAULT_KINDS:
            properties.verify_activation(kernels.parse_kind(tag))
        out[f"properties.battery_ms.{key}"] = (time.perf_counter() - t0) * 1e3
    return out


PROBES = {"data": data_probe, "standardize": standardize_probe, "battery": battery_probe}


if __name__ == "__main__":
    name, *args = sys.argv[1:]
    typed = [Path(args[0]), int(args[1])] if args else []
    print(json.dumps(PROBES[name](*typed)))
