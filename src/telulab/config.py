"""Run-configuration files: parsing, strict validation, overrides.

Configs are JSON.  Every key is checked against the documented schema and
unknown keys are errors, so typos fail loudly with their field path.
Overrides use dotted paths (``optimizer.lr=0.05``); values parse as JSON
literals with a bare-string fallback.

Schema (see README for the full reference):

    model.layers[]        dense{in,out} | conv2d{in_ch,out_ch,k} |
                          maxpool2 | flatten | activation[{kind}]
    activation            "telu" | "relu" | ... | "elu:2.0"
    optimizer             kind, lr, weight_decay, momentum, betas, eps, rms_alpha
    schedule              gamma, milestones[]
    epochs, batch         positive integers
    dataset               name, path, blobs{n,classes,dim,spread,seed},
                          split{train,valid,test,seed}
    seeds[]               trial seeds (replicate/grid)
    grid                  lr[], weight_decay[], gamma[]  (grid command)
"""

from __future__ import annotations

import json
from dataclasses import MISSING, asdict, dataclass, fields
from pathlib import Path
from typing import Optional, Union, get_type_hints

from .autograd import Activation, Conv2d, Dense, Flatten, LayerSpec, MaxPool2
from .data import SplitSpec
from .errors import ConfigError, DomainError
from .harness import BlobsSpec, DatasetSpec, GridSpec, TrainConfig
from .kernels import ActivationKind, parse_kind
from .optim import LrSchedule, OptimizerConfig

__all__ = ["RunSpec", "load_run_spec", "run_spec_to_dict"]


@dataclass(frozen=True)
class RunSpec:
    """A parsed config file: the base training run, seeds, optional grid."""

    train: TrainConfig
    seeds: tuple[int, ...]
    grid: Optional[GridSpec]


def _check_keys(d: dict, allowed: set[str], path: str) -> None:
    unknown = set(d) - allowed
    if unknown:
        raise ConfigError(f"{path}: unknown key(s) {sorted(unknown)}")


def _req(d: dict, key: str, path: str):
    if key not in d:
        raise ConfigError(f"{path}.{key}: required")
    return d[key]


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    return float(value)


def _integer(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    return value


def _pair(value, path: str) -> tuple[float, float]:
    if not (isinstance(value, list) and len(value) == 2):
        raise ConfigError(f"{path}: expected a two-element list")
    return (_number(value[0], f"{path}[0]"), _number(value[1], f"{path}[1]"))


# field type -> value parser; strings are checked by the dataclass itself
_FIELD_PARSERS = {
    int: _integer,
    float: _number,
    str: lambda value, path: value,
    tuple[float, float]: _pair,
}


def _parse_fields(cls, d, path: str):
    """The dataclass ``cls`` built from the object ``d``, whose keys are the
    field names; a field without a default is required."""
    if not isinstance(d, dict):
        raise ConfigError(f"{path}: expected an object")
    _check_keys(d, {f.name for f in fields(cls)}, path)
    types = get_type_hints(cls)
    kwargs = {}
    for f in fields(cls):
        if f.name in d:
            kwargs[f.name] = _FIELD_PARSERS[types[f.name]](d[f.name], f"{path}.{f.name}")
        elif f.default is MISSING:
            raise ConfigError(f"{path}.{f.name}: required")
    return cls(**kwargs)


def _parse_layer(entry, idx: int, default_kind: ActivationKind) -> LayerSpec:
    path = f"model.layers[{idx}]"
    if not isinstance(entry, dict) or "type" not in entry:
        raise ConfigError(f"{path}: expected an object with a 'type' key")
    kind = entry["type"]
    if kind == "dense":
        _check_keys(entry, {"type", "in", "out"}, path)
        return Dense(
            _integer(_req(entry, "in", path), f"{path}.in"),
            _integer(_req(entry, "out", path), f"{path}.out"),
        )
    if kind == "conv2d":
        _check_keys(entry, {"type", "in_ch", "out_ch", "k"}, path)
        return Conv2d(
            _integer(_req(entry, "in_ch", path), f"{path}.in_ch"),
            _integer(_req(entry, "out_ch", path), f"{path}.out_ch"),
            _integer(_req(entry, "k", path), f"{path}.k"),
        )
    if kind == "maxpool2":
        _check_keys(entry, {"type"}, path)
        return MaxPool2()
    if kind == "flatten":
        _check_keys(entry, {"type"}, path)
        return Flatten()
    if kind == "activation":
        _check_keys(entry, {"type", "kind"}, path)
        if "kind" in entry:
            return Activation(_parse_activation(entry["kind"], f"{path}.kind"))
        return Activation(default_kind)
    raise ConfigError(f"{path}.type: unknown layer type {kind!r}")


def _parse_activation(value, path: str) -> ActivationKind:
    if not isinstance(value, str):
        raise ConfigError(f"{path}: expected an activation name string")
    try:
        return parse_kind(value)
    except DomainError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _parse_schedule(d, initial_lr: float, path: str = "schedule") -> LrSchedule:
    if not isinstance(d, dict):
        raise ConfigError(f"{path}: expected an object")
    _check_keys(d, {"gamma", "milestones"}, path)
    milestones = d.get("milestones", [])
    if not isinstance(milestones, list):
        raise ConfigError(f"{path}.milestones: expected a list")
    return LrSchedule(
        initial_lr=initial_lr,
        gamma=_number(_req(d, "gamma", path), f"{path}.gamma"),
        milestones=tuple(
            _integer(m, f"{path}.milestones[{i}]") for i, m in enumerate(milestones)
        ),
    )


def _parse_dataset(d, path: str = "dataset") -> DatasetSpec:
    if not isinstance(d, dict):
        raise ConfigError(f"{path}: expected an object")
    _check_keys(d, {"name", "path", "blobs", "split", "standardize"}, path)
    standardize = d.get("standardize", False)
    if not isinstance(standardize, bool):
        raise ConfigError(f"{path}.standardize: expected true/false")
    name = _req(d, "name", path)
    split = _parse_fields(SplitSpec, _req(d, "split", path), f"{path}.split")
    blobs = None
    if d.get("blobs") is not None:
        blobs = _parse_fields(BlobsSpec, d["blobs"], f"{path}.blobs")
    return DatasetSpec(
        name=name,
        split=split,
        path=d.get("path"),
        blobs=blobs,
        standardize=standardize,
    )


def build_run_spec(raw: dict) -> RunSpec:
    """Validate a parsed config dict and build the run description."""
    if not isinstance(raw, dict):
        raise ConfigError("config root: expected an object")
    _check_keys(
        raw,
        {
            "model",
            "activation",
            "optimizer",
            "schedule",
            "epochs",
            "batch",
            "dataset",
            "seeds",
            "grid",
        },
        "config",
    )
    activation = _parse_activation(_req(raw, "activation", "config"), "activation")
    model_d = _req(raw, "model", "config")
    if not isinstance(model_d, dict):
        raise ConfigError("model: expected an object")
    _check_keys(model_d, {"layers"}, "model")
    layers_raw = _req(model_d, "layers", "model")
    if not isinstance(layers_raw, list) or not layers_raw:
        raise ConfigError("model.layers: expected a non-empty list")
    layers = tuple(
        _parse_layer(entry, i, activation) for i, entry in enumerate(layers_raw)
    )

    optimizer = _parse_fields(OptimizerConfig, _req(raw, "optimizer", "config"), "optimizer")
    schedule = _parse_schedule(_req(raw, "schedule", "config"), optimizer.lr)
    dataset = _parse_dataset(_req(raw, "dataset", "config"))
    train = TrainConfig(
        layers=layers,
        activation=activation,
        optimizer=optimizer,
        schedule=schedule,
        epochs=_integer(_req(raw, "epochs", "config"), "epochs"),
        batch=_integer(_req(raw, "batch", "config"), "batch"),
        dataset=dataset,
    )

    seeds_raw = raw.get("seeds", [0])
    if not isinstance(seeds_raw, list) or not seeds_raw:
        raise ConfigError("seeds: expected a non-empty list")
    seeds = tuple(_integer(s, f"seeds[{i}]") for i, s in enumerate(seeds_raw))

    grid = None
    if "grid" in raw and raw["grid"] is not None:
        g = raw["grid"]
        if not isinstance(g, dict):
            raise ConfigError("grid: expected an object")
        _check_keys(g, {"lr", "weight_decay", "gamma"}, "grid")

        def axis(key: str, default: float) -> tuple[float, ...]:
            if key not in g:
                return (default,)
            if not isinstance(g[key], list) or not g[key]:
                raise ConfigError(f"grid.{key}: expected a non-empty list")
            return tuple(_number(v, f"grid.{key}[{i}]") for i, v in enumerate(g[key]))

        grid = GridSpec(
            base=train,
            lr=axis("lr", optimizer.lr),
            weight_decay=axis("weight_decay", optimizer.weight_decay),
            gamma=axis("gamma", schedule.gamma),
        )
    return RunSpec(train=train, seeds=seeds, grid=grid)


def load_run_spec(
    path: Union[str, Path], overrides: Optional[list[str]] = None
) -> RunSpec:
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    # checked before the overrides, which index into the root
    if not isinstance(raw, dict):
        raise ConfigError("config root: expected an object")
    for assignment in overrides or []:
        raw = _apply_override(raw, assignment)
    return build_run_spec(raw)


def _apply_override(raw: dict, assignment: str) -> dict:
    if "=" not in assignment:
        raise ConfigError(f"override {assignment!r} must look like key.path=value")
    dotted, text = assignment.split("=", 1)
    keys = [k for k in dotted.strip().split(".") if k]
    if not keys:
        raise ConfigError(f"override {assignment!r} has an empty key path")
    try:
        value = json.loads(text)
    except json.JSONDecodeError:
        value = text
    # an integer key indexes a list; a missing or null object is created
    node = raw
    for depth, k in enumerate(keys):
        path = ".".join(keys[:depth])
        if isinstance(node, list):
            if not (k.isdecimal() and int(k) < len(node)):
                raise ConfigError(f"override {assignment!r}: {path} has no element {k}")
            k = int(k)
        elif not isinstance(node, dict):
            raise ConfigError(f"override {assignment!r}: {path} is not an object or a list")
        elif node.get(k) is None:
            node[k] = {}
        if depth < len(keys) - 1:
            node = node[k]
    node[k] = value
    return raw


# --- config echo for metadata -----------------------------------------------


def _layer_to_dict(layer: LayerSpec) -> dict:
    if isinstance(layer, Dense):
        return {"type": "dense", "in": layer.in_dim, "out": layer.out_dim}
    if isinstance(layer, Conv2d):
        return {
            "type": "conv2d",
            "in_ch": layer.in_ch,
            "out_ch": layer.out_ch,
            "k": layer.k,
        }
    if isinstance(layer, MaxPool2):
        return {"type": "maxpool2"}
    if isinstance(layer, Flatten):
        return {"type": "flatten"}
    return {"type": "activation", "kind": layer.kind.spec_string()}


def run_spec_to_dict(spec: RunSpec) -> dict:
    """Fully resolved config (defaults filled in) for run metadata.

    ``optimizer`` and ``dataset`` echo their dataclasses, whose field names
    are the config keys; ``build_run_spec`` parses the result back to
    ``spec``.
    """
    t = spec.train
    optimizer = asdict(t.optimizer)
    optimizer["betas"] = list(t.optimizer.betas)
    out = {
        "model": {"layers": [_layer_to_dict(l) for l in t.layers]},
        "activation": t.activation.spec_string(),
        "optimizer": optimizer,
        "schedule": {
            "gamma": t.schedule.gamma,
            "milestones": list(t.schedule.milestones),
        },
        "epochs": t.epochs,
        "batch": t.batch,
        "dataset": asdict(t.dataset),
        "seeds": list(spec.seeds),
    }
    if spec.grid is not None:
        out["grid"] = {
            "lr": list(spec.grid.lr),
            "weight_decay": list(spec.grid.weight_decay),
            "gamma": list(spec.grid.gamma),
        }
    return out
