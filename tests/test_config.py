"""Run-config parsing: schema validation, field-path errors, overrides."""

import dataclasses
import json

import pytest

from telulab import config
from telulab.autograd import Activation, Conv2d, Dense
from telulab.config import build_run_spec, load_run_spec, run_spec_to_dict
from telulab.errors import ConfigError
from telulab.harness import TrainConfig
from telulab.optim import lr_at_epoch


def base_config() -> dict:
    return {
        "model": {
            "layers": [
                {"type": "dense", "in": 8, "out": 8},
                {"type": "activation"},
                {"type": "dense", "in": 8, "out": 4},
            ]
        },
        "activation": "telu",
        "optimizer": {"kind": "sgd", "lr": 0.1, "weight_decay": 0.003},
        "schedule": {"gamma": 0.2, "milestones": [6, 12, 16]},
        "epochs": 4,
        "batch": 32,
        "dataset": {
            "name": "blobs",
            "blobs": {"n": 200, "classes": 4, "dim": 8, "spread": 0.1, "seed": 0},
            "split": {"train": 160, "valid": 40, "test": 40, "seed": 0},
        },
        "seeds": [0, 1],
    }


class TestParsing:
    def test_valid_config(self):
        spec = build_run_spec(base_config())
        assert spec.activation.tag == "telu"
        assert spec.train.optimizer.lr == 0.1
        assert lr_at_epoch(spec.train.schedule, spec.train.optimizer.lr, 0) == 0.1
        assert spec.seeds == (0, 1)
        assert spec.grid is None

    def test_activation_layer_inherits_config_activation(self):
        spec = build_run_spec(base_config())
        act = spec.train.layers[1]
        assert isinstance(act, Activation)
        assert act.kind.tag == "telu"

    def test_activation_layer_explicit_kind(self):
        raw = base_config()
        raw["model"]["layers"][1]["kind"] = "relu"
        spec = build_run_spec(raw)
        assert spec.train.layers[1].kind.tag == "relu"

    def test_conv_layers(self):
        raw = base_config()
        raw["model"]["layers"] = [
            {"type": "conv2d", "in_ch": 3, "out_ch": 8, "k": 3},
            {"type": "activation"},
            {"type": "maxpool2"},
            {"type": "flatten"},
            {"type": "dense", "in": 1800, "out": 10},
        ]
        spec = build_run_spec(raw)
        assert isinstance(spec.train.layers[0], Conv2d)
        assert isinstance(spec.train.layers[4], Dense)

    def test_grid_section(self):
        raw = base_config()
        raw["grid"] = {"lr": [0.1, 0.03], "gamma": [0.2]}
        spec = build_run_spec(raw)
        assert spec.grid is not None
        assert spec.grid.lr == (0.1, 0.03)
        # unspecified axis falls back to the base value
        assert spec.grid.weight_decay == (0.003,)

    def test_round_trip_through_dict(self):
        with_grid = base_config()
        with_grid["grid"] = {"lr": [0.1, 0.03], "gamma": [0.2, 0.5]}
        for raw in (base_config(), with_grid):
            spec = build_run_spec(raw)
            echoed = run_spec_to_dict(spec)
            assert set(echoed) | {"grid"} == config._ROOT_KEYS
            assert build_run_spec(echoed) == spec
        # the axis the grid left out is echoed at its base value
        assert echoed["grid"] == {"lr": [0.1, 0.03], "weight_decay": [0.003], "gamma": [0.2, 0.5]}

    def test_mixed_stack_round_trips_through_dict(self):
        # the echo names each layer's kind and the root's own, which the
        # layers no longer hold once parsed
        raw = base_config()
        raw["model"]["layers"][2:2] = [
            {"type": "dense", "in": 8, "out": 8},
            {"type": "activation", "kind": "relu"},
        ]
        raw["activation"] = "elu:1e+06"
        spec = build_run_spec(raw)
        # "/" joins the kinds: a spec string may hold "+"
        assert spec.train.activation_label == "elu:1e+06/relu"
        echoed = run_spec_to_dict(spec)
        assert echoed["activation"] == "elu:1e+06"
        assert build_run_spec(echoed) == spec

    def test_every_train_config_field_but_layers_and_seed_is_a_root_key(self):
        # model.layers and seeds hold the other two; activation (the kind of
        # the layers that name none) and grid are no TrainConfig fields
        names = {f.name for f in dataclasses.fields(TrainConfig)} - {"layers", "seed"}
        assert config._ROOT_KEYS == names | {"activation", "model", "seeds", "grid"}


class TestValidation:
    def test_unknown_top_level_key(self):
        raw = base_config()
        raw["optimiser"] = {}
        with pytest.raises(ConfigError, match="optimiser"):
            build_run_spec(raw)

    def test_unknown_nested_key_carries_path(self):
        raw = base_config()
        raw["dataset"]["frobnicate"] = 1
        with pytest.raises(ConfigError, match="dataset"):
            build_run_spec(raw)

    def test_missing_required_key(self):
        raw = base_config()
        del raw["optimizer"]
        with pytest.raises(ConfigError, match="optimizer"):
            build_run_spec(raw)

    def test_bad_activation_name(self):
        raw = base_config()
        raw["activation"] = "swishish"
        with pytest.raises(ConfigError, match="activation"):
            build_run_spec(raw)

    def test_bad_layer_type(self):
        raw = base_config()
        raw["model"]["layers"][0] = {"type": "residual"}
        with pytest.raises(ConfigError, match=r"layers\[0\]"):
            build_run_spec(raw)

    @pytest.mark.parametrize("kind", [["dense"], {"t": 1}, None, 3])
    def test_non_string_layer_type(self, kind):
        raw = base_config()
        raw["model"]["layers"][0] = {"type": kind, "in": 8, "out": 8}
        with pytest.raises(ConfigError, match=r"layers\[0\]\.type: unknown layer type"):
            build_run_spec(raw)

    def test_layer_key_of_another_type(self):
        raw = base_config()
        raw["model"]["layers"][0]["kind"] = "relu"
        with pytest.raises(ConfigError, match=r"layers\[0\]: unknown key\(s\) \['kind'\]"):
            build_run_spec(raw)

    @pytest.mark.parametrize("axis", ["lr", "weight_decay", "gamma"])
    def test_empty_grid_axis_carries_path(self, axis):
        raw = base_config()
        raw["grid"] = {axis: []}
        with pytest.raises(ConfigError, match=f"grid.{axis} must be non-empty"):
            build_run_spec(raw)

    def test_derived_fields_are_not_keys(self):
        raw = base_config()
        raw["schedule"]["initial_lr"] = 0.5
        with pytest.raises(ConfigError, match="schedule: unknown key"):
            build_run_spec(raw)
        raw = base_config()
        raw["grid"] = {"base": {}}
        with pytest.raises(ConfigError, match="grid: unknown key"):
            build_run_spec(raw)

    def test_lr_type_checked_with_path(self):
        raw = base_config()
        raw["optimizer"]["lr"] = "fast"
        with pytest.raises(ConfigError, match="optimizer.lr"):
            build_run_spec(raw)

    def test_split_counts_must_match_blobs(self):
        raw = base_config()
        raw["dataset"]["split"]["train"] = 100
        with pytest.raises(ConfigError):
            build_run_spec(raw)


class TestOverrides:
    def write(self, tmp_path, raw):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        return path

    def test_dotted_override(self, tmp_path):
        path = self.write(tmp_path, base_config())
        spec = load_run_spec(path, ["optimizer.lr=0.05"])
        assert spec.train.optimizer.lr == 0.05
        assert lr_at_epoch(spec.train.schedule, spec.train.optimizer.lr, 0) == 0.05

    def test_override_json_values(self, tmp_path):
        path = self.write(tmp_path, base_config())
        spec = load_run_spec(path, ["schedule.milestones=[2, 3]", "epochs=2"])
        assert spec.train.schedule.milestones == (2, 3)
        assert spec.train.epochs == 2

    def test_override_string_fallback(self, tmp_path):
        path = self.write(tmp_path, base_config())
        spec = load_run_spec(path, ["activation=relu"])
        assert spec.activation.tag == "relu"

    def test_override_to_unknown_key_fails_validation(self, tmp_path):
        path = self.write(tmp_path, base_config())
        with pytest.raises(ConfigError, match="turbo"):
            load_run_spec(path, ["optimizer.turbo=1"])

    def test_malformed_override(self, tmp_path):
        path = self.write(tmp_path, base_config())
        with pytest.raises(ConfigError):
            load_run_spec(path, ["optimizer.lr"])

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="JSON"):
            load_run_spec(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_run_spec(tmp_path / "absent.json")
