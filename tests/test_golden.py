"""Golden artifact hashes: ``train`` and ``fisher --samples 0`` on two small
setups write byte-identical CSVs from one change of the engine to the next,
and ``verify`` and ``kernels`` over every kind (ELU at alpha 1 and 2) write
byte-identical ``property_report.json`` and ``kernels.csv``.  On the blobs
setup ``fisher --samples 37`` (a partial last batch), ``replicate`` over two
seeds and a two-cell ``grid`` pin a second ``fisher.csv``,
``summary.json``, ``grid_cells.csv`` and ``best_config.json`` too.  On both
setups a 3x3 ``landscape
--save-checkpoint`` pins ``landscape.csv`` and the checkpoint's
``model.bin`` and ``model.json``, and ``fisher --checkpoint`` on that
checkpoint pins the trained model's ``fisher.csv``.  Every hash is the same
with the engine on one worker thread.

The setups are the blobs MLP used across the CLI tests and a tiny generated
CIFAR-10 archive run through every layer type of the reference CNN (conv,
activation, pool, flatten, dense) with ``standardize`` on.

The hashes hold for the numpy/BLAS environment they were recorded in, and
that includes the CPU: a different numpy or BLAS build may legitimately
move the last bits of a matmul, and so do the same wheels on another CPU.
There OpenBLAS picks another GEMM kernel, and numpy another SIMD dispatch
for its transcendental functions.  Pinning ``OPENBLAS_CORETYPE=Haswell``
on an AVX-512 host moves 12 of the 20 hashes (the GEMM-dependent
``curves.csv``, ``fisher.csv``, ``landscape.csv``, ``model.bin`` and
``property_report.json``), and also capping numpy's dispatch at AVX2 moves
``kernels.csv``, a 13th.  A change that moves bits on purpose (a new
summation order, say) re-records them and says so in CHANGES.md.
"""

import hashlib
import json

import numpy as np

from telulab import autograd
from telulab.cli import main

BLOBS = {
    "model": {
        "layers": [
            {"type": "dense", "in": 16, "out": 24},
            {"type": "activation"},
            {"type": "dense", "in": 24, "out": 4},
        ]
    },
    "activation": "telu",
    "optimizer": {"kind": "sgd", "lr": 0.1, "weight_decay": 0.0003},
    "schedule": {"gamma": 0.2, "milestones": [6, 8]},
    "epochs": 4,
    "batch": 64,
    "dataset": {
        "name": "blobs",
        "blobs": {"n": 600, "classes": 4, "dim": 16, "spread": 0.08, "seed": 0},
        "split": {"train": 480, "valid": 120, "test": 120, "seed": 0},
    },
    "seeds": [0],
}

CIFAR = {
    "model": {
        "layers": [
            {"type": "conv2d", "in_ch": 3, "out_ch": 4, "k": 3},
            {"type": "activation"},
            {"type": "maxpool2"},
            {"type": "conv2d", "in_ch": 4, "out_ch": 4, "k": 4},
            {"type": "activation"},
            {"type": "maxpool2"},
            {"type": "flatten"},
            {"type": "dense", "in": 144, "out": 16},
            {"type": "activation"},
            {"type": "dense", "in": 16, "out": 10},
        ]
    },
    "activation": "gelu",
    "optimizer": {"kind": "momentum", "lr": 0.01, "momentum": 0.9, "weight_decay": 0.0005},
    "schedule": {"gamma": 1.0, "milestones": []},
    "epochs": 2,
    "batch": 8,
    "dataset": {
        "name": "cifar10",
        "split": {"train": 24, "valid": 6, "seed": 1},
        "standardize": True,
    },
    "seeds": [0],
}

GOLDEN = {
    "blobs/train/results.csv": (
        "2d09f92e2b67b77055b24397748fc0a5fdfac928092db294f78a5f7f195ff68b"
    ),
    "blobs/train/curves.csv": (
        "b965cc4b3aad4125ce56e3cee56c4b495c7395e5de5bbb1c236e1d13e6e4c742"
    ),
    "blobs/fisher/fisher.csv": (
        "661e0ae753881f85ef1d8af8cb3e41c0be997fdb97d5c210704c11df78e40a08"
    ),
    "blobs/fisher37/fisher.csv": (
        "406d7fa75326f62bc1e1cf139e988c16bfc819c048b8835cc13c6abf3ee0bbc8"
    ),
    "blobs/replicate/summary.json": (
        "b20fe68f35d5a906866ecbcb3c544755138b9085214a619d292f4bf199e528cf"
    ),
    "blobs/grid/grid_cells.csv": (
        "2b0fb24d5a4baa6130576e882d3702d81350d6c5157f3398b3692098a5dbe362"
    ),
    "blobs/grid/best_config.json": (
        "337319b3ba514513b17a82fe7c8aa931490d619a71e3bd3555046f505ce14a3c"
    ),
    "blobs/landscape/landscape.csv": (
        "606d8715d1c2d3ab3974ccf2607953eaf273c6e77a7ecab6e93fcfccb667abe3"
    ),
    "blobs/landscape/model.bin": (
        "6a495b6a71c6dc6bff26b3ef6b00806c4377aa37ac54dd6085ac0611d201a66b"
    ),
    "blobs/landscape/model.json": (
        "9067dae1cb7bd18a4d6a1656ef45c4c2018317ab0b022792153987cb21a72936"
    ),
    # the checkpoint holds the trained model, so its probe is the trained one's
    "blobs/fisher_checkpoint/fisher.csv": (
        "661e0ae753881f85ef1d8af8cb3e41c0be997fdb97d5c210704c11df78e40a08"
    ),
    "cifar/train/results.csv": (
        "4d0debc46e2620517468fade7dd9778de3fcb2639c8946048e213c1f5052490f"
    ),
    "cifar/train/curves.csv": (
        "5cde0c2cf3400f0f705458205a07e1f96eefc06ee4c3c3fb655152d32f8ebcdc"
    ),
    "cifar/fisher/fisher.csv": (
        "07adb072479203075177d822f74350f1b2dd39bb4e2e7d1780faa8d542e2a1e2"
    ),
    "cifar/landscape/landscape.csv": (
        "6765d06182971dc74ac2d3bfbf114eddc750ce7e0baa63db8fd7deb561249473"
    ),
    "cifar/landscape/model.bin": (
        "82c2ae501c6317975bbd48eee0ce462f8988e18e2867233604881243482a2b82"
    ),
    "cifar/landscape/model.json": (
        "a6d6c8fe6d94d652e74a0c43cf4516cddc154711afc8b40794a6e560c1c972ba"
    ),
    "cifar/fisher_checkpoint/fisher.csv": (
        "07adb072479203075177d822f74350f1b2dd39bb4e2e7d1780faa8d542e2a1e2"
    ),
    "verify/property_report.json": (
        "ac6abe3f052d1176914789c72f6525cbf5b93ebebf6c422cf671f2f842d91c5f"
    ),
    "kernels/kernels.csv": (
        "79cabbad2742c71517d9efe84a964bec8da41b6e8f508b9f8df7fb846a72a6d0"
    ),
}

# a 3x3 landscape that saves the trained model, then the Fisher probe of
# that checkpoint ("{setup}" is the setup's run directory)
CHECKPOINT_RUNS = (
    (
        "landscape",
        ["landscape", "--grid-n", "3", "--save-checkpoint"],
        ("landscape.csv", "model.bin", "model.json"),
    ),
    ("fisher_checkpoint", ["fisher", "--checkpoint", "{setup}/landscape/model"], ("fisher.csv",)),
)

# (run name, command and extra argv, artifacts) per setup
RUNS = {
    "blobs": (
        ("train", ["train"], ("results.csv", "curves.csv")),
        ("fisher", ["fisher", "--samples", "0"], ("fisher.csv",)),
        ("fisher37", ["fisher", "--samples", "37"], ("fisher.csv",)),
        ("replicate", ["replicate", "--set", "seeds=[0, 1]"], ("summary.json",)),
        ("grid", ["grid", "--set", "grid.lr=[0.1, 0.05]"], ("grid_cells.csv", "best_config.json")),
        *CHECKPOINT_RUNS,
    ),
    "cifar": (
        ("train", ["train"], ("results.csv", "curves.csv")),
        ("fisher", ["fisher", "--samples", "0"], ("fisher.csv",)),
        *CHECKPOINT_RUNS,
    ),
}

KINDS = ["telu", "relu", "gelu", "silu", "mish", "logish", "smish", "elu", "elu:2"]


def _write_archive(path):
    """CIFAR-10 archive directory of seeded random records: 6 per train
    file, 10 in the test file."""
    rng = np.random.default_rng(2024)
    path.mkdir()
    files = [(f"data_batch_{i}.bin", 6) for i in range(1, 6)] + [("test_batch.bin", 10)]
    for name, n in files:
        records = rng.integers(0, 256, size=(n, 3073), dtype=np.uint8)
        records[:, 0] = rng.integers(0, 10, size=n)
        (path / name).write_bytes(records.tobytes())


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def artifact_hashes(tmp_path):
    """sha256 of every golden artifact, keyed like ``GOLDEN``."""
    _write_archive(tmp_path / "archive")
    cifar = json.loads(json.dumps(CIFAR))
    cifar["dataset"]["path"] = str(tmp_path / "archive")
    out = {}
    # elu:2 fails bounded_output, so verify exits 1 by design
    for command, f, code in (
        ("verify", "property_report.json", 1),
        ("kernels", "kernels.csv", 0),
    ):
        run_dir = tmp_path / command
        argv = [command, "--activations", *KINDS, "--out", str(run_dir)]
        assert main(argv) == code
        out[f"{command}/{f}"] = _sha256(run_dir / f)
    for name, cfg in (("blobs", BLOBS), ("cifar", cifar)):
        config = tmp_path / f"{name}.json"
        config.write_text(json.dumps(cfg))
        for run, (command, *extra), files in RUNS[name]:
            run_dir = tmp_path / name / run
            extra = [a.format(setup=tmp_path / name) for a in extra]
            argv = [command, "--config", str(config), "--out", str(run_dir), *extra]
            assert main(argv) == 0
            for f in files:
                out[f"{name}/{run}/{f}"] = _sha256(run_dir / f)
    return out


def test_artifacts_match_recorded_hashes(tmp_path):
    got = artifact_hashes(tmp_path)
    assert sorted(got) == sorted(GOLDEN)
    for key, want in GOLDEN.items():
        assert got[key] == want, key


def test_one_engine_worker_gives_the_same_hashes(tmp_path, monkeypatch):
    monkeypatch.setattr(autograd, "WORKERS", 1)
    assert artifact_hashes(tmp_path) == GOLDEN
