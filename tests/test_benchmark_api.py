"""The benchmark calls the program directly in two places, and each is run
here as the benchmark runs it, so a change that breaks one fails here and
not only in a benchmark run:

- The per-layer optimizer probe (``perfbench/layers.py``) calls the engine
  and the optimizers: gradients keyed by the parameter handles,
  ``step(state, model.params, grads, lr)``.
- The tracer (``perfbench/tracing.py``) wraps ``harness`` names in spans
  and sums each trial's ``wall_time`` into its parallel efficiency; a
  forward outside evaluation counts as a training step's.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SRC = PERFBENCH.parent / "src"


def test_optimizer_probe_reports_every_metric(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers

    metrics = layers.optim_metrics(np.random.default_rng(0))
    kinds = ("sgd", "momentum", "adamw", "rmsprop")
    assert sorted(metrics) == sorted(f"optim.step_ms.{k}.{m}" for k in kinds for m in ("cnn", "mlp"))
    assert all(v > 0 for v in metrics.values())


def test_tracer_records_a_pooled_replicate(tmp_path, monkeypatch):
    cfg = {
        "model": {"layers": [{"type": "dense", "in": 4, "out": 8}, {"type": "activation"},
                             {"type": "dense", "in": 8, "out": 2}]},
        "activation": "telu",
        "optimizer": {"kind": "sgd", "lr": 0.1},
        "schedule": {"gamma": 1.0},
        "epochs": 1,
        "batch": 16,
        "dataset": {
            "name": "blobs",
            "blobs": {"n": 40, "classes": 2, "dim": 4},
            "split": {"train": 32, "valid": 8, "test": 8, "seed": 0},
        },
        "seeds": [0, 1],
    }
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(cfg))
    # pool workers write their spans to SPANS.<pid> beside SPANS
    spans, out = tmp_path / "spans" / "SPANS", tmp_path / "out"
    spans.parent.mkdir()
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=f"{SRC}{os.pathsep}{path}" if path else str(SRC))
    argv = ["replicate", "--config", str(config), "--jobs", "2", "--out", str(out)]
    done = subprocess.run(
        [sys.executable, str(PERFBENCH / "tracing.py"), str(spans), *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    for name in ("results.csv", "curves.csv", "summary.json"):
        assert (out / name).is_file()

    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    procs = tracing.load_spans(spans)
    assert len(procs) >= 2  # the main process and at least one worker
    names = {s[tracing.NAME] for spans in procs for s in spans}
    assert {
        "harness.run_trials",
        "harness.pool_created",
        "harness.train_model",
        "harness.materialize_datasets",
        "harness.forward",
        "harness.backward",
        "harness.step",
        "harness.softmax_cross_entropy",
        "harness.evaluate",
    } <= names
    # every traced forward outside evaluation is a training step's, so the
    # zero-row model check stays out of harness.train_fwd_s
    for spans in procs:
        span_names = [s[tracing.NAME] for s in spans]
        train_forwards = sum(
            name == "harness.forward" and not tracing._under(spans, i, "harness.evaluate")
            for i, name in enumerate(span_names)
        )
        assert train_forwards == span_names.count("harness.backward")
    # the trials' wall_time, summed by the tracer, over the pool's capacity
    assert tracing.summarize(procs)["harness.parallel_efficiency"] > 0
