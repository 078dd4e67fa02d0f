"""The benchmark's per-layer probes call the engine and the optimizers
directly (``perfbench/layers.py``): gradients keyed by the parameter
handles, ``step(state, model.params, grads, lr)``.  This runs the optimizer
probe as ``perfbench/run.py`` imports it, so a change that breaks that API
fails here and not only in a traced benchmark run."""

from pathlib import Path

import numpy as np

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_optimizer_probe_reports_every_metric(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers

    metrics = layers.optim_metrics(np.random.default_rng(0))
    kinds = ("sgd", "momentum", "adamw", "rmsprop")
    assert sorted(metrics) == sorted(f"optim.step_ms.{k}.{m}" for k in kinds for m in ("cnn", "mlp"))
    assert all(v > 0 for v in metrics.values())
