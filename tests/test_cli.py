"""CLI contract: exit codes, file artifacts, byte-level determinism."""

import csv
import json
from pathlib import Path

import numpy as np
import pytest

from telulab.cli import main
from telulab.harness import format_cell


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


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestExitCodes:
    def test_verify_success(self, tmp_path):
        assert main(["verify", "--activations", "telu", "--out", str(tmp_path)]) == 0

    def test_verify_claim_failure(self, tmp_path):
        # ELU with alpha = 2 genuinely violates the output bound
        assert main(["verify", "--activations", "elu:2", "--out", str(tmp_path)]) == 1

    def test_unknown_activation_usage_error(self, tmp_path):
        assert main(["verify", "--activations", "nosuch", "--out", str(tmp_path)]) == 2

    def test_unexpected_error_exits_three_with_one_line(self, tmp_path, capsys):
        # --out names an existing file: an OSError, neither usage nor claim
        existing = tmp_path / "taken"
        existing.write_text("x")
        code = main(["verify", "--activations", "telu", "--out", str(existing)])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: FileExistsError:")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_bad_config_usage_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert main(["train", "--config", str(bad), "--out", str(tmp_path)]) == 2

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

    def test_grid_requires_section(self, blob_cfg, tmp_path):
        cfg = json.loads(Path(blob_cfg).read_text())
        del cfg["grid"]
        path = tmp_path / "nogrid.json"
        path.write_text(json.dumps(cfg))
        assert main(["grid", "--config", str(path), "--out", str(tmp_path)]) == 2


class TestLandscapeCommand:
    def test_surface_shape_and_determinism(self, blob_cfg, tmp_path):
        out1, out2 = tmp_path / "l1", tmp_path / "l2"
        args = [
            "landscape",
            "--config",
            str(blob_cfg),
            "--set",
            "epochs=2",
            "--grid-n",
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
