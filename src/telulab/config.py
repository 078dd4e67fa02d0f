"""Run-configuration files: parsing, strict validation, overrides.

Configs are JSON, and the spec dataclasses are the schema: each section
is parsed by :func:`_parse` from its dataclass's field types and echoed
for run metadata by the inverse, :func:`_echo`.  A field's name is its key
(but ``in``/``out`` for a dense layer's ``in_dim``/``out_dim``), a field
without a default is required, and unknown keys are errors, so typos fail
loudly with their field path.  The root's keys are the fields of
:class:`~telulab.harness.TrainConfig` but ``layers`` and ``seed``, plus
``activation``, ``model``, ``seeds`` and ``grid``, the four with code of
their own: ``activation`` is the kind of every activation layer that names
none, so a trial's kinds live only in its layers.
Overrides use dotted paths (``optimizer.lr=0.05``); values parse as JSON
literals with a bare-string fallback.

Schema (see README for the full reference):

    model.layers[]        dense{in,out} | conv2d{in_ch,out_ch,k} |
                          maxpool2 | flatten | activation[{kind}]
    activation            "telu" | "relu" | ... | "elu:2.0"  (for activation
                          layers that name no kind)
    optimizer             kind, lr, weight_decay, momentum, betas, eps, rms_alpha
    schedule              gamma, milestones[]  (the decay of optimizer.lr)
    epochs, batch         positive integers
    dataset               name, path, blobs{n,classes,dim,spread,seed},
                          split{train,valid,test,seed}, standardize
    seeds[]               trial seeds (replicate/grid; the first for
                          train/landscape/fisher)
    grid                  lr[], weight_decay[], gamma[]  (harness.GRID_AXES;
                          grid command)
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import MISSING, dataclass, fields, is_dataclass
from pathlib import Path
from typing import Optional, Union, get_args, get_origin, get_type_hints

from .autograd import Activation, Conv2d, Dense, Flatten, LayerSpec, MaxPool2
from .errors import ConfigError, DomainError
from .harness import GridSpec, TrainConfig, grid_point
from .kernels import ActivationKind, parse_kind
from .rng import check_seed

__all__ = ["RunSpec", "load_run_spec", "run_spec_to_dict"]


@dataclass(frozen=True)
class RunSpec:
    """A parsed config file: the base training run, seeds, optional grid.
    ``activation`` is the top-level kind, already given to the activation
    layers that name none; it is kept only for the metadata echo."""

    train: TrainConfig
    activation: ActivationKind
    seeds: tuple[int, ...]
    grid: Optional[GridSpec]


# a layer entry's "type" -> its spec class
_LAYERS = {
    "dense": Dense,
    "conv2d": Conv2d,
    "maxpool2": MaxPool2,
    "flatten": Flatten,
    "activation": Activation,
}
_LAYER_TYPES = {cls: name for name, cls in _LAYERS.items()}
# field name -> config key, where they differ
_KEYS = {"in_dim": "in", "out_dim": "out"}
# fields the caller fills in from elsewhere, never config keys: the root
# reads a TrainConfig's layers from model.layers and its seed from seeds
_DERIVED = {(GridSpec, "base"), (TrainConfig, "layers"), (TrainConfig, "seed")}
# scalar field type -> (accepted JSON values, what the error says)
_SCALARS = {
    int: (int, "an integer"),
    float: ((int, float), "a number"),
    str: (str, "a string"),
    bool: (bool, "true/false"),
}


@functools.cache
def _schema(cls) -> tuple[tuple[str, Optional[str], object, bool], ...]:
    """(field name, config key or None if derived, type, required) per
    field of the dataclass ``cls``; type hints resolve once per class."""
    types = get_type_hints(cls)
    return tuple(
        (
            f.name,
            None if (cls, f.name) in _DERIVED else _KEYS.get(f.name, f.name),
            types[f.name],
            f.default is MISSING,
        )
        for f in fields(cls)
    )


# the root's keys: TrainConfig's own, and those with code of their own
_ROOT_KEYS = {key for _, key, _, _ in _schema(TrainConfig) if key} | {
    "activation", "model", "seeds", "grid"
}


def _check_keys(d: dict, allowed: set[str], path: str) -> None:
    unknown = set(d) - allowed
    if unknown:
        raise ConfigError(f"{path}: unknown key(s) {sorted(unknown)}")


def _req(d: dict, key: str, path: str):
    if key not in d:
        raise ConfigError(f"{path}.{key}: required")
    return d[key]


def _parse(tp, value, path: str):
    """``value`` read from the config as the field type ``tp``."""
    if tp in _SCALARS:
        accepted, noun = _SCALARS[tp]
        # bool is an int subclass: true/false is only a bool
        if isinstance(value, bool) != (tp is bool) or not isinstance(value, accepted):
            raise ConfigError(f"{path}: expected {noun}, got {value!r}")
        if tp is float:
            # NaN and +-Infinity are JSON literals to Python's parser, and an
            # integer may exceed the float range
            try:
                value = float(value)
            except OverflowError:
                value = math.inf if value > 0 else -math.inf
            if not math.isfinite(value):
                raise ConfigError(f"{path}: expected a finite number, got {value!r}")
        return value
    if tp is ActivationKind:
        if not isinstance(value, str):
            raise ConfigError(f"{path}: expected an activation name string")
        try:
            return parse_kind(value)
        except DomainError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
    if is_dataclass(tp):
        return _parse_fields(tp, value, path)
    args = get_args(tp)
    if get_origin(tp) is Union:  # Optional[X]: args are (X, NoneType)
        return None if value is None else _parse(args[0], value, path)
    if not isinstance(value, list):
        raise ConfigError(f"{path}: expected a list")
    if args[-1] is Ellipsis:  # tuple[X, ...]
        args = (args[0],) * len(value)
    elif len(value) != len(args):
        raise ConfigError(f"{path}: expected a {len(args)}-element list")
    return tuple(_parse(t, v, f"{path}[{i}]") for i, (t, v) in enumerate(zip(args, value)))


def _parse_fields(cls, d, path: str, given: Optional[dict] = None):
    """The dataclass ``cls`` built from the object ``d``; a field whose key
    is absent takes its value from ``given`` if there, else its default."""
    if not isinstance(d, dict):
        raise ConfigError(f"{path}: expected an object")
    schema = _schema(cls)
    _check_keys(d, {key for _, key, _, _ in schema if key is not None}, path)
    given = given or {}
    kwargs = {}
    for name, key, tp, required in schema:
        if key in d:  # never true for a derived field, whose key is None
            kwargs[name] = _parse(tp, d[key], f"{path}.{key}")
        elif name in given:
            kwargs[name] = given[name]
        elif required:
            raise ConfigError(f"{path}.{key}: required")
    try:
        return cls(**kwargs)
    except ConfigError as exc:
        # a spec's own check names the field path only if its message
        # starts with it (``grid.lr must be non-empty``)
        if str(exc).startswith(path):
            raise
        raise ConfigError(f"{path}: {exc}") from exc


def _parse_layer(entry, path: str, activation: ActivationKind) -> LayerSpec:
    """A ``model.layers`` entry; an activation layer defaults to the
    config's ``activation``."""
    if not isinstance(entry, dict) or "type" not in entry:
        raise ConfigError(f"{path}: expected an object with a 'type' key")
    kind = entry["type"]
    cls = _LAYERS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ConfigError(f"{path}.type: unknown layer type {kind!r}")
    rest = {k: v for k, v in entry.items() if k != "type"}
    return _parse_fields(cls, rest, path, {"kind": activation})


def build_run_spec(raw: dict) -> RunSpec:
    """Validate a parsed config dict and build the run description."""
    if not isinstance(raw, dict):
        raise ConfigError("config root: expected an object")
    _check_keys(raw, _ROOT_KEYS, "config")
    # the activation, then TrainConfig's own keys, before the layers: an
    # activation layer defaults to the parsed ``activation``
    activation = _parse(ActivationKind, _req(raw, "activation", "config"), "activation")
    root = {
        name: _parse(tp, _req(raw, key, "config"), key)
        for name, key, tp, _ in _schema(TrainConfig)
        if key is not None
    }
    model_d = _req(raw, "model", "config")
    if not isinstance(model_d, dict):
        raise ConfigError("model: expected an object")
    _check_keys(model_d, {"layers"}, "model")
    layers_raw = _req(model_d, "layers", "model")
    if not isinstance(layers_raw, list) or not layers_raw:
        raise ConfigError("model.layers: expected a non-empty list")
    layers = tuple(
        _parse_layer(entry, f"model.layers[{i}]", activation)
        for i, entry in enumerate(layers_raw)
    )
    seeds = _parse(tuple[int, ...], raw.get("seeds", [0]), "seeds")
    if not seeds:
        raise ConfigError("seeds: expected a non-empty list")
    for i, seed in enumerate(seeds):
        check_seed(seed, f"seeds[{i}]")
    # a single trial (train, landscape, fisher) runs the first seed
    train = TrainConfig(layers=layers, seed=seeds[0], **root)

    grid = None
    if raw.get("grid") is not None:
        # an axis the grid leaves out stays at its base value
        point = {axis: (value,) for axis, value in grid_point(train).items()}
        grid = _parse_fields(GridSpec, raw["grid"], "grid", {"base": train, **point})
    return RunSpec(train=train, activation=activation, seeds=seeds, grid=grid)


def load_run_spec(
    path: Union[str, Path], overrides: Optional[list[str]] = None
) -> RunSpec:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # besides a syntax error: a byte that is not UTF-8, nesting past the
        # recursion limit, an integer past Python's digit limit
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
    except (ValueError, RecursionError):
        # not JSON to this parser (nesting past the recursion limit and an
        # integer past the digit limit included): a bare string
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


def _echo(value):
    """The config form of a parsed value: the inverse of :func:`_parse`."""
    if isinstance(value, ActivationKind):
        return value.spec_string()
    if isinstance(value, tuple):
        return [_echo(v) for v in value]
    if is_dataclass(value):
        return {
            key: _echo(getattr(value, name))
            for name, key, _, _ in _schema(type(value))
            if key is not None
        }
    return value


def run_spec_to_dict(spec: RunSpec) -> dict:
    """Fully resolved config (defaults filled in) for run metadata;
    ``build_run_spec`` parses it back to ``spec``."""
    layers = [{"type": _LAYER_TYPES[type(l)], **_echo(l)} for l in spec.train.layers]
    out = {
        "model": {"layers": layers},
        "activation": _echo(spec.activation),
        **_echo(spec.train),
        "seeds": _echo(spec.seeds),
    }
    if spec.grid is not None:
        out["grid"] = _echo(spec.grid)
    return out
