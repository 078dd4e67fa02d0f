"""CLI contract: exit codes, file artifacts, byte-level determinism."""

import contextlib
import csv
import json
import os
import signal
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from telulab import autograd, config, data, harness, properties
from telulab.cli import main
from telulab.data import BlobsSpec
from telulab.harness import format_cell
from telulab.optim import LrSchedule, OptimizerConfig


@pytest.fixture
def blob_cfg(tmp_path):
    cfg = {
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
        "seeds": [0, 1, 2],
        "grid": {"lr": [0.1, 0.03], "weight_decay": [0.0003], "gamma": [0.2, 0.5]},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


@pytest.fixture
def small_blob_cfg(tmp_path):
    """Dense 4 -> 8 -> 2 on 2-class blobs of dimension 4, one epoch."""
    cfg = {
        "model": {
            "layers": [
                {"type": "dense", "in": 4, "out": 8},
                {"type": "activation"},
                {"type": "dense", "in": 8, "out": 2},
            ]
        },
        "activation": "telu",
        "optimizer": {"kind": "sgd", "lr": 0.1},
        "schedule": {"gamma": 1.0, "milestones": []},
        "epochs": 1,
        "batch": 8,
        "dataset": {
            "name": "blobs",
            "blobs": {"n": 30, "classes": 2, "dim": 4, "spread": 0.1, "seed": 0},
            "split": {"train": 20, "valid": 10, "test": 10, "seed": 0},
        },
    }
    path = tmp_path / "small.json"
    path.write_text(json.dumps(cfg))
    return path


@pytest.fixture
def no_data(monkeypatch):
    """Fail any load of a dataset: the test's error must come first."""

    def no_loading(*args, **kwargs):
        pytest.fail("loaded data before the usage error")

    for module in (harness, data):
        monkeypatch.setattr(module, "materialize_datasets", no_loading)


# restores Python's own SIGINT handler, which a shell leaves ignored for a
# background job, then runs the CLI
INTERRUPTIBLE_CLI = """
import runpy, signal
signal.signal(signal.SIGINT, signal.default_int_handler)
runpy.run_module("telulab.cli", run_name="__main__", alter_sys=True)
"""


def kill_group(child):
    """Kill whatever is left of ``child``'s process group and reap it."""
    with contextlib.suppress(ProcessLookupError):
        os.killpg(child.pid, signal.SIGKILL)
    child.communicate()


# blob_cfg's dataset made a CIFAR-10 one
AS_CIFAR = ["dataset.name=cifar10", "dataset.path=cifar", "dataset.blobs=null"]

# every config command that builds the model, with both checkpoint probes
MODEL_COMMANDS = [
    ["train"],
    ["replicate"],
    ["replicate", "--jobs", "2"],
    ["grid"],
    ["landscape", "--grid-n", "3"],
    ["fisher"],
    ["landscape", "--grid-n", "3", "--checkpoint"],
    ["fisher", "--checkpoint"],
]


# every float field of the optimizer, schedule and blobs sections at the top
# of the float range, and an ELU alpha there
EXTREME_FLOATS = [
    f"{section}.{key}=1e308"
    for section, cls in (
        ("optimizer", OptimizerConfig), ("schedule", LrSchedule), ("dataset.blobs", BlobsSpec)
    )
    for _, key, tp, _ in config._schema(cls)
    if tp is float
] + ["activation=elu:1e308"]


def model_command_id(argv):
    return "-".join(a.strip("-") for a in argv)


def run_with_layers(blob_cfg, tmp_path, argv, overrides):
    """Run ``argv`` on ``blob_cfg`` with ``overrides``; a trailing
    ``--checkpoint`` gets a checkpoint of the overridden model."""
    if argv[-1] == "--checkpoint":
        layers = config.load_run_spec(blob_cfg, overrides).train.layers
        autograd.save_params(autograd.build_model(layers, 0), tmp_path / "model")
        argv = argv + [str(tmp_path / "model")]
    command, *rest = argv
    sets = [a for s in overrides for a in ("--set", s)]
    return main([command, "--config", str(blob_cfg), *sets, *rest, "--out", str(tmp_path / "out")])


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestExitCodes:
    def test_verify_success(self, tmp_path):
        assert main(["verify", "--activations", "telu", "--out", str(tmp_path)]) == 0

    def test_verify_claim_failure(self, tmp_path):
        # ELU with alpha = 2 genuinely violates the output bound
        assert main(["verify", "--activations", "elu:2", "--out", str(tmp_path)]) == 1

    @pytest.mark.parametrize(
        "command, kind", [("verify", "nosuch"), ("verify", "elu:inf"), ("kernels", "elu:inf")]
    )
    def test_unknown_activation_usage_error(self, tmp_path, command, kind):
        out = tmp_path / "out"
        assert main([command, "--activations", kind, "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags",
        [
            ["--step", "0"],
            ["--step", "nan"],
            ["--lo", "nan"],
            ["--hi", "inf"],
            # a span that overflows, and a grid far beyond the row bound
            ["--lo=-1e308", "--hi=1e308"],
            ["--step", "1e-300"],
        ],
    )
    def test_nonpositive_step_usage_error(self, tmp_path, flags):
        out = tmp_path / "out"
        argv = ["kernels", "--activations", "telu", *flags, "--out", str(out)]
        assert main(argv) == 2
        assert not out.exists()

    def test_kernel_grid_stops_at_hi(self, tmp_path):
        # -4 + 3k passes 4 at k = 3: the table ends at 2.0
        argv = ["kernels", "--activations", "telu", "--lo", "-4", "--hi", "4", "--step", "3"]
        assert main(argv + ["--out", str(tmp_path)]) == 0
        xs = [float(r["x"]) for r in read_csv(tmp_path / "kernels.csv")]
        assert xs == [-4.0, -1.0, 2.0]

    @pytest.mark.parametrize(
        "flags", [["--grid-n", "4"], ["--radius", "nan"], ["--radius", "inf"], ["--radius", "1e308"]]
    )
    def test_usage_error_after_training_leaves_no_out(self, blob_cfg, tmp_path, flags):
        # a rejected probe flag leaves no output directory
        out = tmp_path / "out"
        argv = ["landscape", "--config", str(blob_cfg), "--set", "epochs=1", *flags]
        assert main(argv + ["--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["replicate", "--set", "seeds=[0, -1]"], "seeds[1]"),
            (["replicate", "--set", "dataset.split.seed=-1"], "dataset.split: seed"),
            (["train", "--set", "dataset.blobs.seed=18446744073709551616"], "dataset.blobs: seed"),
            (["landscape", "--direction-seed", "-1"], "direction_seed"),
            (["landscape", "--grid-n", "4"], "grid_n"),
            (["landscape", "--grid-n", "1000001"], "grid_n"),
            (["landscape", "--radius", "nan"], "radius"),
        ],
        ids=["seeds", "split-seed", "blobs-seed", "direction-seed", "grid-n", "grid-cells", "radius"],
    )
    def test_bad_seed_or_probe_flag_rejected_before_training(
        self, blob_cfg, tmp_path, capsys, monkeypatch, argv, named
    ):
        def no_training(*args, **kwargs):
            pytest.fail("trained before the usage error")

        monkeypatch.setattr(harness, "fit", no_training)
        out = tmp_path / "out"
        command, *rest = argv
        assert main([command, "--config", str(blob_cfg), *rest, "--out", str(out)]) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["replicate", "grid"])
    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one_rejected_before_loading(
        self, blob_cfg, tmp_path, capsys, monkeypatch, command, jobs
    ):
        def no_loading(*args, **kwargs):
            pytest.fail("loaded data before the usage error")

        monkeypatch.setattr(harness, "materialize_datasets", no_loading)
        out = tmp_path / "out"
        argv = [command, "--config", str(blob_cfg), "--jobs", jobs, "--out", str(out)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: --jobs must be >= 1, got {jobs}\n"
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize(
        "samples, message",
        [
            ("-5", "--samples must be >= 0 (0 = full train split), got -5"),
            # blob_cfg's train split holds 480 examples
            ("481", "--samples 481 exceeds the train split's 480 examples"),
        ],
    )
    def test_fisher_samples_rejected_before_loading(
        self, blob_cfg, tmp_path, capsys, monkeypatch, no_data, samples, message
    ):
        def no_work(*args, **kwargs):
            pytest.fail("worked before the usage error")

        monkeypatch.setattr(harness, "fit", no_work)
        out = tmp_path / "out"
        argv = ["fisher", "--config", str(blob_cfg), "--samples", samples, "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["fisher", "--config", "no/such.json", "--samples", "-5"],
                "--samples must be >= 0 (0 = full train split), got -5",
            ),
            (["kernels", "--activations", "nosuch", "--lo", "nan"], "--lo, --hi and --step must be finite"),
        ],
        ids=["samples-before-config", "lo-before-activations"],
    )
    def test_flag_bounds_checked_first(self, tmp_path, capsys, argv, message):
        # every flag's own bounds come before the config and the activations
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_seeds_beyond_the_key_width_usage_error(self, blob_cfg, tmp_path):
        # -1 and 2**64 - 1 are distinct, but a masked key would make them
        # one stream and two identical trials
        out = tmp_path / "out"
        argv = ["replicate", "--config", str(blob_cfg), "--set", "seeds=[-1, 18446744073709551615]"]
        assert main(argv + ["--out", str(out)]) == 2
        assert not out.exists()

    def test_unexpected_error_exits_three_with_one_line(self, tmp_path, capsys):
        # --out names an existing file: an OSError, neither usage nor claim
        existing = tmp_path / "taken"
        existing.write_text("x")
        code = main(["verify", "--activations", "telu", "--out", str(existing)])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: FileExistsError:")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_quadrature_failure_exits_three_not_claim_failure(
        self, tmp_path, capsys, monkeypatch
    ):
        def unstable(*args, **kwargs):
            raise ArithmeticError("quadrature failed to stabilize")

        monkeypatch.setattr(properties, "_composite_gl", unstable)
        code = main(["verify", "--activations", "telu", "--out", str(tmp_path)])
        assert code == 3
        err = capsys.readouterr().err
        assert err == "error: ArithmeticError: quadrature failed to stabilize\n"

    def test_bad_config_usage_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        out = tmp_path / "out"
        assert main(["train", "--config", str(bad), "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("overrides", [[], ["--set", "a=1"]])
    def test_non_object_config_root_usage_error(self, tmp_path, capsys, overrides):
        listed = tmp_path / "list.json"
        listed.write_text("[]")
        argv = ["train", "--config", str(listed), *overrides]
        assert main(argv + ["--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == "error: config root: expected an object\n"

    @pytest.mark.parametrize(
        "assignment,problem",
        [
            ("seeds.3=1", "seeds has no element 3"),
            ("model.layers.-1.out=8", "model.layers has no element -1"),
            ("epochs.0=1", "epochs is not an object or a list"),
            ("optimizer.lr.x=1", "optimizer.lr is not an object or a list"),
        ],
    )
    def test_override_off_the_config_usage_error(
        self, blob_cfg, tmp_path, capsys, assignment, problem
    ):
        argv = ["train", "--config", str(blob_cfg), "--set", assignment]
        assert main(argv + ["--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: override {assignment!r}: {problem}\n"

    @pytest.mark.parametrize(
        "assignments,problem",
        [
            (["model.layers.0.out=-1"], "model.layers[0]: dense sizes must be >= 1, got in=16, out=-1"),
            (
                ["model.layers.0.out=0", "model.layers.2.in=0"],
                "model.layers[0]: dense sizes must be >= 1, got in=16, out=0",
            ),
            (
                ['model.layers.0={"type": "conv2d", "in_ch": 3, "out_ch": 4, "k": 0}'],
                "model.layers[0]: conv2d sizes must be >= 1, got in_ch=3, out_ch=4, k=0",
            ),
            (
                ["dataset.name=cifar10", "dataset.path=5", "dataset.blobs=null"],
                "dataset.path: expected a string, got 5",
            ),
            (["model.layers.2.in=0"], "model.layers[2]: dense sizes must be >= 1, got in=0, out=4"),
            (["dataset.split.train=0"], "dataset.split: split.train and split.valid must be positive"),
            (["dataset.blobs.spread=-1"], "dataset.blobs: blobs spread must be positive"),
            (
                ["dataset.split.test=0"],
                "dataset: blobs need blobs.dim, blobs.n and split.test each >= blobs.classes, "
                "got dim=16, n=600, test=0, classes=4",
            ),
            (["grid.gamma=[]"], "grid.gamma must be non-empty"),
            (["dataset.blobs.spread=1e308"], "blobs spread 1e+308 overflows the features"),
        ],
    )
    def test_bad_layer_size_or_path_usage_error(
        self, blob_cfg, tmp_path, capsys, assignments, problem
    ):
        argv = ["train", "--config", str(blob_cfg), "--out", str(tmp_path / "out")]
        assert main(argv + [a for s in assignments for a in ("--set", s)]) == 2
        assert capsys.readouterr().err == f"error: {problem}\n"

    @pytest.mark.parametrize(
        "assignment,problem",
        [
            ("optimizer.weight_decay=NaN", "optimizer.weight_decay: expected a finite number, got nan"),
            ("optimizer.lr=1" + "0" * 400, "optimizer.lr: expected a finite number, got inf"),
            ("dataset.blobs.spread=Infinity", "dataset.blobs.spread: expected a finite number, got inf"),
        ],
    )
    def test_non_finite_number_usage_error(self, blob_cfg, tmp_path, capsys, assignment, problem):
        # NaN once trained and was recorded as a divergence; a 401-digit
        # integer raised OverflowError (exit 3)
        out = tmp_path / "out"
        argv = ["train", "--config", str(blob_cfg), "--set", assignment, "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {problem}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "assignments, problem",
        [
            (["dataset.path=/nonexistent/dir"], "blobs take no dataset.path (they are generated)"),
            (AS_CIFAR + ["dataset.split.test=5"], "cifar10 takes no split.test (its test set is the archive's)"),
            (AS_CIFAR[:2] + ["dataset.split.test=0"], "cifar10 takes no dataset.blobs settings"),
        ],
        ids=["blobs-path", "cifar-split-test", "cifar-blobs"],
    )
    def test_dataset_setting_not_read_usage_error(
        self, blob_cfg, tmp_path, capsys, no_data, assignments, problem
    ):
        # each once ran to exit 0 with the setting ignored
        out = tmp_path / "out"
        argv = ["train", "--config", str(blob_cfg), "--out", str(out)]
        assert main(argv + [a for s in assignments for a in ("--set", s)]) == 2
        assert capsys.readouterr().err == f"error: dataset: {problem}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["fisher", "landscape"])
    def test_malformed_checkpoint_usage_error(self, blob_cfg, tmp_path, capsys, command):
        stem = tmp_path / "model"
        stem.with_suffix(".json").write_text('{"shapes": [5]}')
        stem.with_suffix(".bin").write_bytes(b"")
        out = tmp_path / "out"
        argv = [command, "--config", str(blob_cfg), "--checkpoint", str(stem)]
        assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read checkpoint {stem}:")
        assert not out.exists()

    @pytest.mark.parametrize("width", [6, 3], ids=["wide", "narrow"])
    @pytest.mark.parametrize("argv", MODEL_COMMANDS, ids=model_command_id)
    def test_logit_width_other_than_the_class_count_usage_error(
        self, blob_cfg, tmp_path, capsys, monkeypatch, no_data, argv, width
    ):
        # the blobs have 4 classes: a wider and a narrower head are both
        # config errors, each named with both numbers
        def no_training(*args, **kwargs):
            pytest.fail("trained before the usage error")

        monkeypatch.setattr(harness, "step", no_training)
        assert run_with_layers(blob_cfg, tmp_path, argv, [f"model.layers.2.out={width}"]) == 2
        assert capsys.readouterr().err == (
            f"error: model: the layers give each example an output of shape ({width},), "
            "but the blobs dataset has 4 classes\n"
        )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "override, problem",
        [
            # no dense layer: 16 features would be read as 16 logits
            (
                'model.layers=[{"type": "flatten"}, {"type": "activation"}]',
                "model: the layers give each example an output of shape (16,), "
                "but the blobs dataset has 4 classes",
            ),
            ("model.layers.0.in=15", "dense layer expects (batch, 15), got (0, 16)"),
        ],
        ids=["no-dense", "input-width"],
    )
    @pytest.mark.parametrize("argv", MODEL_COMMANDS, ids=model_command_id)
    def test_stack_that_does_not_fit_the_data_exits_before_loading(
        self, blob_cfg, tmp_path, capsys, no_data, argv, override, problem
    ):
        assert run_with_layers(blob_cfg, tmp_path, argv, [override]) == 2
        assert capsys.readouterr().err == f"error: {problem}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("override", EXTREME_FLOATS)
    @pytest.mark.parametrize(
        "argv", [["train"], ["fisher"], ["landscape", "--grid-n", "3"]], ids=model_command_id
    )
    def test_extreme_float_exits_zero_or_two_without_warnings(
        self, blob_cfg, tmp_path, capsys, argv, override
    ):
        # overflowing blobs and a fisher probe of a diverged model exited 3,
        # and the overflows printed numpy's RuntimeWarnings
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_with_layers(blob_cfg, tmp_path, argv, ["epochs=1", override])
        err = capsys.readouterr().err
        assert code in (0, 2), err
        assert err.count("error:") <= 1
        if code == 2:
            assert not (tmp_path / "out").exists()
        assert [str(w.message) for w in caught if w.category is RuntimeWarning] == []

    def test_fisher_after_diverged_training_usage_error(self, blob_cfg, tmp_path, capsys):
        assert run_with_layers(blob_cfg, tmp_path, ["fisher"], ["optimizer.lr=1e308"]) == 2
        assert capsys.readouterr().err == (
            "error: fisher: training diverged in epoch 0, so there is no trained model to probe\n"
        )
        assert not (tmp_path / "out").exists()

    def test_fisher_of_an_overflowing_checkpoint_usage_error(self, blob_cfg, tmp_path, capsys):
        model = autograd.build_model(config.load_run_spec(blob_cfg).train.layers, 0)
        model.flat[:] = 1e200
        autograd.save_params(model, tmp_path / "model")
        argv = ["fisher", "--config", str(blob_cfg), "--checkpoint", str(tmp_path / "model")]
        assert main(argv + ["--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith(
            "error: fisher: the probed model overflows on the train split: non-finite value"
        )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "argv, artifact",
        [(["fisher"], "fisher.csv"), (["landscape", "--grid-n", "3"], "landscape.csv")],
        ids=["fisher", "landscape"],
    )
    def test_checkpoint_probe_draws_no_parameters(
        self, blob_cfg, tmp_path, monkeypatch, argv, artifact
    ):
        # the probe drew a whole initialization only to overwrite it
        model = autograd.build_model(config.load_run_spec(blob_cfg).train.layers, 5)
        autograd.save_params(model, tmp_path / "model")
        command, *flags = argv
        probe = [command, "--config", str(blob_cfg), *flags, "--checkpoint", str(tmp_path / "model")]
        assert main(probe + ["--out", str(tmp_path / "drawn")]) == 0

        def no_draw(*args):
            raise AssertionError("drew parameters")

        monkeypatch.setattr(autograd, "generator", no_draw)
        assert main(probe + ["--out", str(tmp_path / "undrawn")]) == 0
        want = (tmp_path / "drawn" / artifact).read_bytes()
        assert (tmp_path / "undrawn" / artifact).read_bytes() == want

    @pytest.mark.parametrize(
        "overrides, got",
        [
            (["dataset.split.test=1"], "dim=16, n=600, test=1, classes=4"),
            (["dataset.blobs.dim=3", "model.layers.0.in=3"], "dim=3, n=600, test=120, classes=4"),
            (
                ["dataset.blobs.n=3", "dataset.split.train=2", "dataset.split.valid=1"],
                "dim=16, n=3, test=120, classes=4",
            ),
        ],
        ids=["test-split", "dim", "n"],
    )
    def test_blobs_without_an_example_per_class_rejected_at_load(
        self, blob_cfg, tmp_path, capsys, no_data, overrides, got
    ):
        # grid --jobs 2 printed its plan and forked its pool first, then
        # failed naming no field
        sets = [a for o in overrides for a in ("--set", o)]
        argv = ["grid", "--config", str(blob_cfg), "--jobs", "2", *sets]
        assert main(argv + ["--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr() == (
            "",
            "error: dataset: blobs need blobs.dim, blobs.n and split.test each >= blobs.classes, "
            f"got {got}\n",
        )
        assert not (tmp_path / "out").exists()

    def test_divergence_still_exits_zero(self, blob_cfg, tmp_path):
        out = tmp_path / "div"
        code = main(
            [
                "train",
                "--config",
                str(blob_cfg),
                "--set",
                "optimizer.lr=1e10",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        rows = read_csv(out / "results.csv")
        assert rows[0]["diverged"] == "true"

    def test_dead_pool_worker_exits_three_with_one_line(self, blob_cfg, tmp_path, capsys, monkeypatch):
        # a worker killed mid-trial breaks the pool: a crash, never a result.
        # The pool pickles run_trial by reference for each task; this stand-in
        # pickles as a call to os._exit, so the worker dies while loading its
        # task under any start method, not only under fork
        class ExitOnLoad:
            def __reduce__(self):
                return os._exit, (1,)

        monkeypatch.setattr(harness, "run_trial", ExitOnLoad())
        out = tmp_path / "out"
        argv = ["replicate", "--config", str(blob_cfg), "--jobs", "2", "--out", str(out)]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: BrokenProcessPool: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="one CPU starts no engine thread")
    @pytest.mark.parametrize(
        "sig, code", [(signal.SIGINT, 130), (signal.SIGTERM, 143)], ids=["SIGINT", "SIGTERM"]
    )
    def test_sigint_exits_130_with_one_line(self, blob_cfg, tmp_path, request, sig, code):
        # a small CNN for a million epochs, interrupted once the engine's
        # thread exists, so the interrupt lands mid-training
        archive = tmp_path / "cifar"
        archive.mkdir()
        rng = np.random.default_rng(0)
        for name in [f"data_batch_{i}.bin" for i in range(1, 6)] + ["test_batch.bin"]:
            records = rng.integers(0, 256, size=(8, 3073), dtype=np.uint8)
            records[:, 0] %= 10
            (archive / name).write_bytes(records.tobytes())
        cfg = json.loads(Path(blob_cfg).read_text())
        cfg["model"]["layers"] = [
            {"type": "conv2d", "in_ch": 3, "out_ch": 4, "k": 3},
            {"type": "activation"},
            {"type": "maxpool2"},
            {"type": "flatten"},
            {"type": "dense", "in": 900, "out": 10},
        ]
        cfg.update(epochs=10**6, batch=8, schedule={"gamma": 1.0, "milestones": []})
        cfg["dataset"] = {
            "name": "cifar10", "path": str(archive), "split": {"train": 32, "valid": 8, "seed": 0}
        }
        path = tmp_path / "cnn.json"
        path.write_text(json.dumps(cfg))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path), **dict.fromkeys(BLAS_VARS, "1"))
        argv = ["train", "--config", str(path), "--out", str(tmp_path / "out")]
        child = subprocess.Popen(
            [sys.executable, "-c", INTERRUPTIBLE_CLI, *argv], env=env, text=True,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, start_new_session=True,
        )
        request.addfinalizer(lambda: kill_group(child))
        # one BLAS thread each, so the second thread is the engine's
        deadline = time.monotonic() + 60
        while len(os.listdir(f"/proc/{child.pid}/task")) < 2:
            assert child.poll() is None and time.monotonic() < deadline
            time.sleep(0.01)
        child.send_signal(sig)
        _, err = child.communicate(timeout=5)
        assert (child.returncode, err) == (code, f"error: interrupted ({sig.name})\n")
        with pytest.raises(ProcessLookupError):  # nothing is left of its process group
            os.killpg(child.pid, 0)

    def test_sigkill_of_the_parent_ends_its_pool_workers(self, blob_cfg, tmp_path, request):
        # three trials of a million epochs on two workers, so both are busy
        # when the parent dies; without the parent-death signal both were
        # still alive minutes later, holding the parent's stderr
        cfg = json.loads(Path(blob_cfg).read_text())
        cfg["epochs"] = 10**6
        path = tmp_path / "long.json"
        path.write_text(json.dumps(cfg))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        argv = ["replicate", "--config", str(path), "--jobs", "2", "--out", str(tmp_path / "out")]
        child = subprocess.Popen(
            [sys.executable, "-m", "telulab.cli", *argv], env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, start_new_session=True,
        )
        workers = []

        def kill_all():
            for pid in workers:
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
            kill_group(child)

        request.addfinalizer(kill_all)
        children = Path(f"/proc/{child.pid}/task/{child.pid}/children")
        deadline = time.monotonic() + 60
        while len(workers) < 2:
            assert child.poll() is None and time.monotonic() < deadline
            time.sleep(0.01)
            workers = [int(pid) for pid in children.read_text().split()]
        child.kill()

        def running(pid):
            """Neither gone nor a zombie: the state follows the command's ')'."""
            try:
                stat = Path(f"/proc/{pid}/stat").read_text()
            except FileNotFoundError:
                return False
            return stat[stat.rindex(")") + 2] != "Z"

        deadline = time.monotonic() + 5
        while any(map(running, workers)):
            assert time.monotonic() < deadline, f"workers {workers} outlived their parent by 5 s"
            time.sleep(0.05)
        # all gone: their pids may be reused, so the finalizer leaves them
        workers.clear()

    def test_truncated_archive_exits_two(self, blob_cfg, tmp_path, capsys):
        archive = tmp_path / "cifar"
        archive.mkdir()
        records = np.zeros((4, 3073), dtype=np.uint8).tobytes()
        for name in [f"data_batch_{i}.bin" for i in range(1, 6)] + ["test_batch.bin"]:
            (archive / name).write_bytes(records)
        (archive / "data_batch_3.bin").write_bytes(records[:-1])
        cfg = json.loads(Path(blob_cfg).read_text())
        cfg["model"]["layers"] = [{"type": "flatten"}, {"type": "dense", "in": 3072, "out": 10}]
        cfg["dataset"] = {
            "name": "cifar10",
            "path": str(archive),
            "split": {"train": 16, "valid": 4, "seed": 0},
        }
        path = tmp_path / "cifar.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert main(["train", "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: data_batch_3.bin: length {4 * 3073 - 1} is not a positive multiple of 3073\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "source", ["config-bytes", "config-nesting", "set-nesting", "manifest-nesting", "set-digits"]
    )
    def test_json_past_the_parser_exits_two_with_one_line(
        self, blob_cfg, tmp_path, capsys, no_data, source
    ):
        # each ended in a UnicodeDecodeError, RecursionError or ValueError
        # (Python's integer digit limit) and exit 3
        deep = "[" * 100_000
        argv = ["train", "--config", str(blob_cfg)]
        if source == "config-bytes":
            blob_cfg.write_bytes(b'{"dataset": {"name": "donn\xe9es"}}')
        elif source == "config-nesting":
            blob_cfg.write_text(deep)
        elif source == "set-nesting":
            argv += ["--set", "seeds=" + deep]
        elif source == "set-digits":
            argv += ["--set", "optimizer.lr=1" + "0" * 5000]
        else:
            (tmp_path / "model.json").write_text(deep)
            (tmp_path / "model.bin").write_bytes(b"")
            argv = ["fisher", "--config", str(blob_cfg), "--checkpoint", str(tmp_path / "model")]
        assert main(argv + ["--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err[:200]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "override, named",
        [
            ("model.layers.0.out=9223372036854775808", "model: the layer or example sizes"),
            ("model.layers.2.in=" + "1" + "0" * 30, "model: the layer or example sizes"),
            ("dataset.blobs.dim=9223372036854775808", "model: the layer or example sizes"),
            ("dataset.split.test=" + "1" + "0" * 30, "blobs of 1" + "0" * 30 + " x 16 features"),
        ],
        ids=["layer-out", "layer-in", "blobs-dim", "split-test"],
    )
    def test_size_past_numpys_array_limit_exits_two(self, blob_cfg, tmp_path, capsys, override, named):
        # numpy's "Maximum allowed dimension exceeded" ValueError exited 3
        assert run_with_layers(blob_cfg, tmp_path, ["train"], [override]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {named}") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "overrides, named",
        [
            (["dataset.split.test=68719476736"], "blobs of 68719476736 x 4 features"),
            (
                ["dataset.blobs.dim=68719476736", "model.layers.0.in=68719476736"],
                "blobs of 30 x 68719476736 features",
            ),
            (
                ["model.layers.0.out=68719476736", "model.layers.2.in=68719476736"],
                "model: the layer sizes are too large to hold in memory",
            ),
        ],
        ids=["split-test", "blobs-dim", "layer-width"],
    )
    def test_size_past_memory_exits_two(self, small_blob_cfg, tmp_path, capped_cli, overrides, named):
        # each asks for 1-2 TiB; the MemoryError exited 3
        out = tmp_path / "out"
        sets = [a for o in overrides for a in ("--set", o)]
        code, err = capped_cli(["train", "--config", small_blob_cfg, *sets, "--out", out])
        assert code == 2, err
        assert err.startswith(f"error: {named}") and err.count("\n") == 1, err
        assert not out.exists()

    def test_checkpoint_model_past_memory_exits_two(self, small_blob_cfg, tmp_path, capped_cli):
        # the zeroed model a checkpoint loads into is refused as the drawn one is
        out = tmp_path / "out"
        sets = ["--set", "model.layers.0.out=68719476736", "--set", "model.layers.2.in=68719476736"]
        argv = ["fisher", "--config", small_blob_cfg, *sets, "--checkpoint", tmp_path / "model"]
        code, err = capped_cli([*argv, "--out", out])
        assert code == 2, err
        assert err.startswith("error: model: the layer sizes are too large to hold in memory"), err
        assert err.count("\n") == 1 and not out.exists()

    def test_unmodified_small_config_runs_under_the_memory_cap(
        self, small_blob_cfg, tmp_path, capped_cli
    ):
        out = tmp_path / "out"
        code, err = capped_cli(["train", "--config", small_blob_cfg, "--out", out])
        assert (code, err) == (0, "")
        assert (out / "results.csv").is_file()

    def test_misfit_width_rejected_without_drawing_parameters(
        self, small_blob_cfg, tmp_path, capsys, no_data
    ):
        # dense(4, 2000000) before a dense(8, 2): the check drew the 64 MB
        # of weights (and their uniform draw) before its zero-row forward
        argv = ["train", "--config", str(small_blob_cfg), "--set", "model.layers.0.out=2000000"]
        tracemalloc.start()
        try:
            code = main(argv + ["--out", str(tmp_path / "out")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert capsys.readouterr().err == "error: dense layer expects (batch, 8), got (0, 2000000)\n"
        assert peak < 8 * 2**20


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")


@pytest.mark.parametrize("preset", [None, "2"])
def test_blas_threads_default_to_one_unless_set(preset):
    # a fresh interpreter, since the default must be in place before numpy loads
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env["PYTHONPATH"] = os.pathsep.join(sys.path)
    if preset is not None:
        env.update(dict.fromkeys(BLAS_VARS, preset))
    code = f"import os, telulab; print(*(os.environ[v] for v in {BLAS_VARS!r}))"
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.stdout.split() == [preset or "1"] * 3


#: the training engine, the config parser and the property verifiers
HEAVY = {
    "concurrent.futures",
    *(f"telulab.{m}" for m in ("autograd", "harness", "data", "optim", "config", "properties")),
}

# imports the CLI, runs one command through main and reports which modules
# the import and the run left in sys.modules
IMPORT_PROBE = """
import json, sys
from telulab.cli import main
imported = set(sys.modules)
code = main(sys.argv[1:]) if len(sys.argv) > 1 else 0
print(json.dumps({"code": code, "imported": sorted(imported),
                  "added": sorted(set(sys.modules) - imported)}))
"""


class TestImportGraph:
    """Each command loads only the modules it runs, in a fresh interpreter."""

    @staticmethod
    def modules_after(argv):
        """(exit code, modules loaded by the import, modules added by the run)."""
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        run = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, *argv],
            env=env, capture_output=True, text=True, check=True,
        )
        report = json.loads(run.stdout.splitlines()[-1])
        return report["code"], set(report["imported"]), set(report["added"])

    def test_importing_the_cli_loads_no_engine(self):
        _, imported, _ = self.modules_after([])
        assert "telulab.cli" in imported
        assert not imported & HEAVY

    def test_verify_adds_only_the_property_verifiers(self, tmp_path):
        argv = ["verify", "--activations", "telu", "--out", str(tmp_path)]
        code, imported, added = self.modules_after(argv)
        assert code == 0
        assert {m for m in added if m.startswith("telulab")} == {"telulab.properties"}
        assert (imported | added) & HEAVY == {"telulab.properties"}

    def test_kernels_loads_no_engine(self, tmp_path):
        argv = ["kernels", "--activations", "telu", "relu", "--step", "0.5", "--out", str(tmp_path)]
        code, imported, added = self.modules_after(argv)
        assert code == 0
        assert not (imported | added) & HEAVY

    def test_train_loads_the_engine_but_not_the_verifiers(self, blob_cfg, tmp_path):
        argv = ["train", "--config", str(blob_cfg), "--out", str(tmp_path / "out")]
        code, imported, added = self.modules_after(argv)
        assert code == 0
        assert (imported | added) & HEAVY == HEAVY - {"telulab.properties"}


class TestVerifyArtifacts:
    def test_report_schema(self, tmp_path):
        main(["verify", "--activations", "telu", "relu", "--out", str(tmp_path)])
        report = json.loads((tmp_path / "property_report.json").read_text())
        assert all(
            set(r) == {"claim_id", "verdict", "witness", "measured", "tolerance"}
            for r in report
        )
        ids = {r["claim_id"] for r in report}
        assert "telu.lipschitz_constant" in ids
        assert "relu.interval_mean_identity" in ids
        lip = next(r for r in report if r["claim_id"] == "telu.lipschitz_constant")
        assert lip["verdict"] == "holds_with_caveat"
        assert 1.0 < lip["measured"] < 1.1

    def test_metadata_written(self, tmp_path):
        main(["verify", "--activations", "telu", "--out", str(tmp_path)])
        meta = json.loads((tmp_path / "metadata.json").read_text())
        assert meta["tool"] == "telulab"
        assert meta["command"] == "verify"
        assert "conc" in meta["definitions"]
        assert "math.fsum" in meta["definitions"]["loss"]


class TestKernelsCommand:
    def test_row_count_and_zero(self, tmp_path):
        code = main(
            [
                "kernels",
                "--activations",
                "telu",
                "--lo",
                "-3",
                "--hi",
                "3",
                "--step",
                "0.5",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        rows = read_csv(tmp_path / "kernels.csv")
        assert len(rows) == 13
        at_zero = next(r for r in rows if float(r["x"]) == 0.0)
        assert float(at_zero["f"]) == 0.0

    def test_relu_exact_and_second_empty(self, tmp_path):
        main(
            [
                "kernels",
                "--activations",
                "relu",
                "--lo",
                "-2",
                "--hi",
                "2",
                "--step",
                "1",
                "--out",
                str(tmp_path),
            ]
        )
        rows = read_csv(tmp_path / "kernels.csv")
        for r in rows:
            assert float(r["f"]) == max(0.0, float(r["x"]))
            assert r["f_second"] == ""

    def test_derivative_column_consistent_with_value_column(self, tmp_path):
        main(
            [
                "kernels",
                "--activations",
                "telu",
                "--lo",
                "-4",
                "--hi",
                "4",
                "--step",
                "0.01",
                "--out",
                str(tmp_path),
            ]
        )
        rows = read_csv(tmp_path / "kernels.csv")
        xs = np.array([float(r["x"]) for r in rows])
        f = np.array([float(r["f"]) for r in rows])
        d1 = np.array([float(r["f_prime"]) for r in rows])
        fd = (f[2:] - f[:-2]) / (xs[2:] - xs[:-2])
        assert np.max(np.abs(fd - d1[1:-1])) < 1e-4


class TestReplicateCommand:
    def test_train_runs_the_first_seed(self, blob_cfg, tmp_path):
        # train's one trial is replicate's trial of the same seed
        for command, seeds in (("train", "[5, 3]"), ("replicate", "[3, 5]")):
            sets = ["--set", f"seeds={seeds}", "--set", "epochs=1"]
            argv = [command, "--config", str(blob_cfg), *sets, "--out", str(tmp_path / command)]
            assert main(argv) == 0
        (row,) = read_csv(tmp_path / "train" / "results.csv")
        by_seed = {r["seed"]: r for r in read_csv(tmp_path / "replicate" / "results.csv")}
        assert row == by_seed["5"]
        curves = read_csv(tmp_path / "replicate" / "curves.csv")
        assert read_csv(tmp_path / "train" / "curves.csv") == [c for c in curves if c["seed"] == "5"]

    def test_diverged_trials_are_counted_on_stdout(self, blob_cfg, tmp_path, capsys):
        sets = ["--set", "optimizer.lr=1e10", "--set", "seeds=[0, 1]"]
        argv = ["replicate", "--config", str(blob_cfg), *sets, "--out", str(tmp_path / "div")]
        assert main(argv) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "divergences: 2/2"

    def test_artifacts_and_summary_consistency(self, blob_cfg, tmp_path):
        out = tmp_path / "rep"
        assert main(["replicate", "--config", str(blob_cfg), "--out", str(out)]) == 0
        rows = read_csv(out / "results.csv")
        assert len(rows) == 3
        summary = json.loads((out / "summary.json").read_text())
        accs = [float(r["final_test_acc"]) for r in rows]
        mean = float(np.mean(accs))
        std = float(np.std(accs, ddof=1))
        assert summary["cell"] == format_cell(mean, std)

    def test_byte_identical_reruns(self, blob_cfg, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["replicate", "--config", str(blob_cfg), "--out", str(out1)])
        main(["replicate", "--config", str(blob_cfg), "--out", str(out2)])
        for name in ("results.csv", "curves.csv", "summary.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_parallel_jobs_match_sequential(self, blob_cfg, tmp_path):
        out1, out2 = tmp_path / "seq", tmp_path / "par"
        main(["replicate", "--config", str(blob_cfg), "--out", str(out1)])
        main(
            [
                "replicate",
                "--config",
                str(blob_cfg),
                "--jobs",
                "2",
                "--out",
                str(out2),
            ]
        )
        assert (out1 / "results.csv").read_bytes() == (
            out2 / "results.csv"
        ).read_bytes()

    def test_override_changes_artifacts(self, blob_cfg, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["replicate", "--config", str(blob_cfg), "--out", str(out1)])
        main(
            [
                "replicate",
                "--config",
                str(blob_cfg),
                "--set",
                "optimizer.lr=0.03",
                "--out",
                str(out2),
            ]
        )
        assert (out1 / "results.csv").read_bytes() != (
            out2 / "results.csv"
        ).read_bytes()
        meta = json.loads((out2 / "metadata.json").read_text())
        assert meta["config"]["optimizer"]["lr"] == 0.03


# one activation layer, naming ReLU under the fixture's TeLU root
RELU_STACK = (
    'model.layers=[{"type": "dense", "in": 16, "out": 24}, '
    '{"type": "activation", "kind": "relu"}, {"type": "dense", "in": 24, "out": 4}]'
)
# an unnamed activation layer (TeLU, the root's kind), then a ReLU one
MIXED_STACK = (
    'model.layers=[{"type": "dense", "in": 16, "out": 24}, {"type": "activation"}, '
    '{"type": "dense", "in": 24, "out": 24}, {"type": "activation", "kind": "relu"}, '
    '{"type": "dense", "in": 24, "out": 4}]'
)
NO_ACTIVATION_STACK = 'model.layers=[{"type": "dense", "in": 16, "out": 4}]'


class TestActivationLabel:
    """Results, summaries and stdout name the kinds the layers ran, never
    the root ``activation`` alone."""

    @staticmethod
    def run(blob_cfg, out, command, *sets):
        argv = [command, "--config", str(blob_cfg), "--set", "epochs=1"]
        argv += [a for s in sets for a in ("--set", s)]
        return main(argv + ["--out", str(out)])

    def test_named_layer_kind_labels_the_trial(self, blob_cfg, tmp_path, capsys):
        assert self.run(blob_cfg, tmp_path / "named", "train", RELU_STACK) == 0
        assert capsys.readouterr().out.startswith("relu sgd: test ")
        (row,) = read_csv(tmp_path / "named" / "results.csv")
        assert row["activation"] == "relu"
        # it trained ReLU: the same bytes as the unnamed layer under a ReLU root
        assert self.run(blob_cfg, tmp_path / "root", "train", "activation=relu") == 0
        assert (tmp_path / "named" / "results.csv").read_bytes() == (
            tmp_path / "root" / "results.csv"
        ).read_bytes()

    def test_mixed_stack_names_each_kind_in_layer_order(self, blob_cfg, tmp_path, capsys):
        assert self.run(blob_cfg, tmp_path / "train", "train", MIXED_STACK) == 0
        assert capsys.readouterr().out.startswith("telu/relu sgd: test ")
        (row,) = read_csv(tmp_path / "train" / "results.csv")
        assert row["activation"] == "telu/relu"
        assert self.run(blob_cfg, tmp_path / "rep", "replicate", MIXED_STACK) == 0
        assert capsys.readouterr().out.startswith("telu/relu sgd: ")
        rows = read_csv(tmp_path / "rep" / "results.csv")
        assert [r["activation"] for r in rows] == ["telu/relu"] * 3
        summary = json.loads((tmp_path / "rep" / "summary.json").read_text())
        assert summary["activation"] == "telu/relu"

    def test_stack_without_an_activation_layer_is_labelled_none(
        self, blob_cfg, tmp_path, capsys
    ):
        assert self.run(blob_cfg, tmp_path, "train", NO_ACTIVATION_STACK, "activation=gelu") == 0
        assert capsys.readouterr().out.startswith("none sgd: test ")
        (row,) = read_csv(tmp_path / "results.csv")
        assert row["activation"] == "none"

    def test_root_override_retrains_the_unnamed_layers(self, blob_cfg, tmp_path, capsys):
        assert self.run(blob_cfg, tmp_path / "root", "train", "activation=relu") == 0
        assert capsys.readouterr().out.startswith("relu sgd: test ")
        (row,) = read_csv(tmp_path / "root" / "results.csv")
        assert row["activation"] == "relu"
        layer = read_metadata(tmp_path / "root")["config"]["model"]["layers"][1]
        assert layer == {"type": "activation", "kind": "relu"}
        # the same training as naming ReLU in the layer itself, not TeLU's
        assert self.run(blob_cfg, tmp_path / "layer", "train", "model.layers.1.kind=relu") == 0
        assert self.run(blob_cfg, tmp_path / "telu", "train") == 0
        runs = ("root", "layer", "telu")
        curves = {run: (tmp_path / run / "curves.csv").read_bytes() for run in runs}
        assert curves["root"] == curves["layer"] != curves["telu"]


class TestGridCommand:
    def test_row_cardinality_and_best(self, blob_cfg, tmp_path):
        out = tmp_path / "grid"
        assert main(["grid", "--config", str(blob_cfg), "--out", str(out)]) == 0
        rows = read_csv(out / "results.csv")
        assert len(rows) == 4 * 3  # configs x seeds
        cells = read_csv(out / "grid_cells.csv")
        assert len(cells) == 4
        best = json.loads((out / "best_config.json").read_text())
        assert set(best) == {"lr", "weight_decay", "gamma"}

    def test_parallel_jobs_match_sequential(self, blob_cfg, tmp_path):
        out1, out2 = tmp_path / "seq", tmp_path / "par"
        assert main(["grid", "--config", str(blob_cfg), "--out", str(out1)]) == 0
        argv = ["grid", "--config", str(blob_cfg), "--jobs", "2", "--out", str(out2)]
        assert main(argv) == 0
        for name in ("results.csv", "grid_cells.csv", "best_config.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_trials_train_at_the_lr_their_rows_report(self, blob_cfg, tmp_path, monkeypatch):
        # each trial steps at its row's lr, then at lr * gamma from the milestone
        trials = []
        fit, step = harness.fit, harness.step

        def recorded_fit(cfg, splits):
            trials.append([])
            return fit(cfg, splits)

        def recorded_step(state, params, grads, lr_now):
            trials[-1].append(lr_now)
            return step(state, params, grads, lr_now)

        monkeypatch.setattr(harness, "fit", recorded_fit)
        monkeypatch.setattr(harness, "step", recorded_step)
        out = tmp_path / "grid"
        overrides = ["--set", "epochs=2", "--set", "schedule.milestones=[1]"]
        assert main(["grid", "--config", str(blob_cfg), *overrides, "--out", str(out)]) == 0
        rows = read_csv(out / "results.csv")
        assert len(rows) == len(trials) == 4 * 3
        for row, lrs in zip(rows, trials):
            lr, gamma, half = float(row["lr"]), float(row["gamma"]), len(lrs) // 2
            assert lrs == [lr] * half + [lr * gamma] * half

    def test_grid_requires_section(self, blob_cfg, tmp_path):
        cfg = json.loads(Path(blob_cfg).read_text())
        del cfg["grid"]
        path = tmp_path / "nogrid.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert main(["grid", "--config", str(path), "--out", str(out)]) == 2
        assert not out.exists()


class TestLandscapeCommand:
    def test_surface_shape_and_determinism(self, blob_cfg, tmp_path):
        out1, out2 = tmp_path / "l1", tmp_path / "l2"
        args = [
            "landscape",
            "--config",
            str(blob_cfg),
            "--set",
            "epochs=2",
            # argparse's prefix matching takes --grid for --grid-n
            "--grid",
            "5",
            "--radius",
            "0.5",
        ]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert (out1 / "landscape.csv").read_bytes() == (
            out2 / "landscape.csv"
        ).read_bytes()
        with open(out1 / "landscape.csv", newline="") as fh:
            table = list(csv.reader(fh))
        assert table[0][0] == "alpha\\beta"
        assert len(table) == 6 and len(table[0]) == 6

    def test_checkpoint_probe_matches_fresh_training(self, blob_cfg, tmp_path):
        out1 = tmp_path / "train_once"
        main(
            [
                "landscape",
                "--config",
                str(blob_cfg),
                "--set",
                "epochs=2",
                "--grid-n",
                "3",
                "--save-checkpoint",
                "--out",
                str(out1),
            ]
        )
        out2 = tmp_path / "reuse"
        main(
            [
                "landscape",
                "--config",
                str(blob_cfg),
                "--set",
                "epochs=2",
                "--grid-n",
                "3",
                "--checkpoint",
                str(out1 / "model"),
                "--out",
                str(out2),
            ]
        )
        assert (out1 / "landscape.csv").read_bytes() == (
            out2 / "landscape.csv"
        ).read_bytes()

    def test_huge_center_loss_prints_in_exponent_form(self, blob_cfg, tmp_path, capsys):
        # a finite loss near 1e200 printed as a 200-digit fixed-point number
        model = autograd.build_model(config.load_run_spec(blob_cfg).train.layers, 0)
        model.params[-1].data[0] = 1e200
        autograd.save_params(model, tmp_path / "model")
        argv = ["landscape", "--config", str(blob_cfg), "--grid-n", "3"]
        argv += ["--checkpoint", str(tmp_path / "model"), "--out", str(tmp_path / "out")]
        assert main(argv) == 0
        center = float(read_csv(tmp_path / "out" / "landscape.csv")[1]["0.0"])
        assert 1e199 < center < 1e201
        assert capsys.readouterr().out == f"landscape 3x3, center loss {center:.6g}\n"


class TestFisherCommand:
    def test_artifact_and_nonnegativity(self, blob_cfg, tmp_path):
        out = tmp_path / "fish"
        code = main(
            [
                "fisher",
                "--config",
                str(blob_cfg),
                "--set",
                "epochs=2",
                "--samples",
                "40",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        rows = read_csv(out / "fisher.csv")
        assert all(float(r["fisher_diag"]) >= 0.0 for r in rows)
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["probe"]["samples"] == 40


class TestDatasetPath:
    def test_single_cifar_file_is_a_usage_error(self, blob_cfg, tmp_path, capsys):
        # one file would serve as its own test split
        records = np.zeros((10, 3073), dtype=np.uint8)
        records[:, 0] = np.arange(10)
        single = tmp_path / "data_batch_1.bin"
        single.write_bytes(records.tobytes())
        cfg = json.loads(Path(blob_cfg).read_text())
        cfg["model"]["layers"] = [
            {"type": "flatten"},
            {"type": "dense", "in": 3072, "out": 10},
        ]
        cfg["dataset"] = {
            "name": "cifar10",
            "path": str(single),
            "split": {"train": 8, "valid": 2, "seed": 0},
        }
        path = tmp_path / "single.json"
        path.write_text(json.dumps(cfg))
        code = main(["train", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: dataset.path ") and err.count("\n") == 1


# blob_cfg as metadata.json echoes it: every default filled in
BLOB_ECHO = {
    "model": {
        "layers": [
            {"type": "dense", "in": 16, "out": 24},
            {"type": "activation", "kind": "telu"},
            {"type": "dense", "in": 24, "out": 4},
        ]
    },
    "activation": "telu",
    "optimizer": {
        "kind": "sgd",
        "lr": 0.1,
        "weight_decay": 0.0003,
        "momentum": 0.9,
        "betas": [0.9, 0.999],
        "eps": 1e-08,
        "rms_alpha": 0.99,
    },
    "schedule": {"gamma": 0.2, "milestones": [6, 8]},
    "epochs": 4,
    "batch": 64,
    "dataset": {
        "name": "blobs",
        "path": None,
        "blobs": {"n": 600, "classes": 4, "dim": 16, "spread": 0.08, "seed": 0},
        "split": {"train": 480, "valid": 120, "test": 120, "seed": 0},
        "standardize": False,
    },
    "seeds": [0, 1, 2],
    "grid": {"lr": [0.1, 0.03], "weight_decay": [0.0003], "gamma": [0.2, 0.5]},
}


def read_metadata(out):
    return json.loads((out / "metadata.json").read_text())


class TestMetadata:
    def test_train_echoes_the_resolved_config(self, blob_cfg, tmp_path):
        assert main(["train", "--config", str(blob_cfg), "--out", str(tmp_path)]) == 0
        meta = read_metadata(tmp_path)
        assert meta["config"] == BLOB_ECHO
        assert set(meta) == {
            "tool", "version", "command", "config", "definitions", "environment",
            "wall_time_seconds",
        }
        assert meta["command"] == "train" and list(meta["wall_time_seconds"]) == ["0"]

    def test_train_records_the_environment(self, blob_cfg, tmp_path):
        assert main(["train", "--config", str(blob_cfg), "--out", str(tmp_path)]) == 0
        env = read_metadata(tmp_path)["environment"]
        # numpy names its BLAS from 1.26 on
        blas = env.pop("blas")
        assert blas != "unknown" or np.lib.NumpyVersion(np.__version__) < "1.26.0"
        assert env == {
            "numpy": np.__version__,
            "cpu_count": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            "jobs": 1,
            "engine_workers": autograd.WORKERS,
            "blas_threads": {
                name: os.environ.get(name)
                for name in ("MKL_NUM_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")
            },
        }

    def test_pooled_grid_records_its_processes_and_their_threads(self, blob_cfg, tmp_path):
        # each of the 2 pool workers ran its trials on its share of the CPUs,
        # not on the parent's thread count
        argv = ["grid", "--config", str(blob_cfg), "--jobs", "2", "--set", "seeds=[0]"]
        assert main(argv + ["--set", "epochs=1", "--out", str(tmp_path)]) == 0
        env = read_metadata(tmp_path)["environment"]
        assert env["jobs"] == 2
        assert env["engine_workers"] == max(1, len(os.sched_getaffinity(0)) // 2)

    def test_set_indexes_into_lists(self, blob_cfg, tmp_path):
        sets = ["model.layers.0.out=8", "model.layers.2.in=8", "seeds.0=3"]
        argv = ["train", "--config", str(blob_cfg), "--out", str(tmp_path)]
        assert main(argv + [a for s in sets for a in ("--set", s)]) == 0
        first, act, last = BLOB_ECHO["model"]["layers"]
        layers = [dict(first, out=8), act, dict(last, **{"in": 8})]
        want = dict(BLOB_ECHO, model={"layers": layers}, seeds=[3, 1, 2])
        assert read_metadata(tmp_path)["config"] == want

    def test_landscape_probe_fields(self, blob_cfg, tmp_path):
        args = ["landscape", "--config", str(blob_cfg), "--grid-n", "3", "--radius", "0.5"]
        trained, loaded = tmp_path / "trained", tmp_path / "loaded"
        assert main(args + ["--save-checkpoint", "--out", str(trained)]) == 0
        ckpt = str(trained / "model")
        assert main(args + ["--checkpoint", ckpt, "--out", str(loaded)]) == 0
        for out, checkpoint in ((trained, None), (loaded, ckpt)):
            meta = read_metadata(out)
            assert meta["config"] == BLOB_ECHO
            assert meta["probe"] == {
                "grid_n": 3, "radius": 0.5, "direction_seed": 0, "checkpoint": checkpoint
            }
            assert meta["trained"] is (checkpoint is None)

    def test_fisher_probe_fields(self, blob_cfg, tmp_path):
        assert main(["fisher", "--config", str(blob_cfg), "--out", str(tmp_path)]) == 0
        meta = read_metadata(tmp_path)
        assert meta["config"] == BLOB_ECHO
        # --samples 0 means the whole train split
        assert meta["probe"] == {"samples": 480, "checkpoint": None}
        assert meta["trained"] is True

    def test_kernels_echoes_its_arguments(self, tmp_path):
        argv = ["kernels", "--activations", "TeLU", "elu:2.0", "--step", "0.5"]
        assert main(argv + ["--out", str(tmp_path)]) == 0
        meta = read_metadata(tmp_path)
        assert meta["command"] == "kernels"
        assert meta["config"] == {
            "activations": ["telu", "elu:2"], "lo": -4.0, "hi": 4.0, "step": 0.5
        }


class TestProbeDataLoad:
    @pytest.mark.parametrize(
        "probe", [["landscape", "--grid-n", "3"], ["fisher", "--samples", "10"]]
    )
    def test_datasets_load_once_when_training(self, blob_cfg, tmp_path, monkeypatch, probe):
        loads = []
        real = harness.materialize_datasets

        def counted(spec):
            loads.append(spec)
            return real(spec)

        monkeypatch.setattr(harness, "materialize_datasets", counted)
        argv = probe + ["--config", str(blob_cfg), "--set", "epochs=1", "--out", str(tmp_path)]
        assert main(argv) == 0
        assert len(loads) == 1

    @pytest.mark.parametrize("command", ["fisher", "landscape"])
    @pytest.mark.parametrize("checkpoint", ["missing", "mismatched"])
    def test_bad_checkpoint_rejected_before_loading(
        self, blob_cfg, tmp_path, capsys, monkeypatch, command, checkpoint
    ):
        def no_loading(*args, **kwargs):
            pytest.fail("loaded data before checking the checkpoint")

        monkeypatch.setattr(harness, "materialize_datasets", no_loading)
        stem = tmp_path / "model"
        if checkpoint == "mismatched":
            # a well-formed checkpoint of a one-layer 3x2 model
            stem.with_suffix(".json").write_text('{"shapes": [[3, 2]]}')
            stem.with_suffix(".bin").write_bytes(np.zeros(6, "<f8").tobytes())
        out = tmp_path / "out"
        argv = [command, "--config", str(blob_cfg), "--checkpoint", str(stem), "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        if checkpoint == "missing":
            assert err.startswith(f"error: cannot read checkpoint {stem}:")
        else:
            assert err == "error: checkpoint shapes do not match the model\n"
        assert not out.exists()
