"""Property tests of the config echo and of ``--set`` overrides over
generated configs: the echo in metadata.json parses back to the run it
describes, and an override is the same as editing the file."""

import copy
import json
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from telulab.config import build_run_spec, load_run_spec, run_spec_to_dict
from telulab.errors import ConfigError
from telulab.optim import OPTIMIZER_KINDS

NAMES = ["telu", "relu", "gelu", "silu", "mish", "logish", "smish", "elu"]

positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
non_negative = st.floats(min_value=0.0, allow_infinity=False)
unit = st.floats(min_value=0.0, max_value=1.0, exclude_max=True)
gamma = st.floats(min_value=0.0, max_value=1.0, exclude_min=True)
size = st.integers(min_value=1, max_value=64)
seed = st.integers(min_value=0, max_value=2**32)
activation = st.one_of(
    st.sampled_from(NAMES + ["elu:2"]),
    positive.map(lambda a: f"elu:{a!r}"),
)


@st.composite
def optional_fields(draw, fields: dict) -> dict:
    """Each key of ``fields`` either absent or drawn from its strategy."""
    return {k: draw(s) for k, s in fields.items() if draw(st.booleans())}


def sized_layer(size) -> st.SearchStrategy:
    """A dense or conv2d layer entry with sizes drawn from ``size``."""
    return st.one_of(
        st.fixed_dictionaries({"type": st.just("dense"), "in": size, "out": size}),
        st.fixed_dictionaries(
            {"type": st.just("conv2d"), "in_ch": size, "out_ch": size, "k": size}
        ),
    )


layer = st.one_of(
    sized_layer(size),
    st.just({"type": "maxpool2"}),
    st.just({"type": "flatten"}),
    st.just({"type": "activation"}),
    activation.map(lambda kind: {"type": "activation", "kind": kind}),
)

optimizer = st.builds(
    lambda kind, lr, rest: {"kind": kind, "lr": lr, **rest},
    st.sampled_from(OPTIMIZER_KINDS),
    st.one_of(positive, st.integers(min_value=1, max_value=10)),
    optional_fields(
        {
            "weight_decay": non_negative,
            "momentum": unit,
            "betas": st.lists(unit, min_size=2, max_size=2),
            "eps": positive,
            "rms_alpha": unit,
        }
    ),
)


@st.composite
def dataset(draw) -> dict:
    train, valid = draw(size), draw(size)
    split = {"train": train, "valid": valid, "seed": draw(seed)}
    split.update(draw(optional_fields({"test": st.integers(0, 64)})))
    d = {"name": draw(st.sampled_from(["blobs", "cifar10", "cifar100"])), "split": split}
    if d["name"] == "blobs":
        split["test"] = draw(size)
        blobs = {"n": train + valid, "classes": draw(st.integers(2, 10)), "dim": draw(size)}
        blobs.update(draw(optional_fields({"spread": positive, "seed": seed})))
        d["blobs"] = blobs
    else:
        d["path"] = draw(st.text(min_size=1, max_size=12))
        d.update(draw(optional_fields({"blobs": st.none()})))
    d.update(draw(optional_fields({"standardize": st.booleans()})))
    return d


grid = optional_fields(
    {
        "lr": st.lists(positive, min_size=1, max_size=3),
        "weight_decay": st.lists(non_negative, min_size=1, max_size=3),
        "gamma": st.lists(gamma, min_size=1, max_size=3),
    }
)

config = st.fixed_dictionaries(
    {
        "model": st.fixed_dictionaries({"layers": st.lists(layer, min_size=1, max_size=6)}),
        "activation": activation,
        "optimizer": optimizer,
        "schedule": st.fixed_dictionaries(
            {"gamma": gamma},
            optional={"milestones": st.lists(st.integers(0, 50), unique=True).map(sorted)},
        ),
        "epochs": size,
        "batch": size,
        "dataset": dataset(),
    },
    optional={
        "seeds": st.lists(seed, min_size=1, max_size=4),
        "grid": st.one_of(st.none(), grid),
    },
)

ELU2_CIFAR_GRID = {
    "model": {"layers": [{"type": "activation", "kind": "elu:2"}, {"type": "flatten"}]},
    "activation": "elu:2",
    "optimizer": {"kind": "adamw", "lr": 0.001, "betas": [0.5, 0.25]},
    "schedule": {"gamma": 0.5},
    "epochs": 1,
    "batch": 8,
    "dataset": {"name": "cifar10", "path": "cifar", "split": {"train": 8, "valid": 2, "seed": 0}},
    "grid": {"lr": [0.1]},
}


@settings(deadline=None)
@given(config)
@example(ELU2_CIFAR_GRID)
def test_echo_parses_back_to_the_spec(raw):
    spec = build_run_spec(raw)
    echo = run_spec_to_dict(spec)
    assert build_run_spec(echo) == spec
    # the echo is what metadata.json stores: it survives JSON unchanged
    assert json.loads(json.dumps(echo)) == echo


@settings(deadline=None)
@given(config, st.lists(sized_layer(st.integers(-2, 64)), min_size=1, max_size=3))
def test_layer_sizes_below_one_are_config_errors(raw, sized):
    raw["model"]["layers"] = sized
    if min(v for entry in sized for k, v in entry.items() if k != "type") < 1:
        with pytest.raises(ConfigError, match="sizes must be >= 1"):
            build_run_spec(raw)
    else:
        spec = build_run_spec(raw)
        assert build_run_spec(run_spec_to_dict(spec)) == spec


# never a float field's value: NaN, +-Infinity and integers beyond the float range
not_a_float = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.integers(min_value=2**1024),
    st.integers(max_value=-(2**1024)),
)


def is_not_a_float(value) -> bool:
    if isinstance(value, list):
        return any(map(is_not_a_float, value))
    if isinstance(value, float):
        return not math.isfinite(value)
    return isinstance(value, int) and abs(value) >= 2**1024


OVERRIDES = {
    "optimizer.lr": st.one_of(positive, not_a_float),
    "optimizer.weight_decay": st.one_of(non_negative, not_a_float),
    "optimizer.betas": st.lists(st.one_of(unit, not_a_float), min_size=2, max_size=2),
    "dataset.blobs.spread": st.one_of(positive, not_a_float),
    "activation": activation,
    "epochs": st.integers(-1, 64),
    "schedule.milestones": st.lists(st.integers(0, 50), unique=True).map(sorted),
    "dataset.split.seed": seed,
    "dataset.standardize": st.booleans(),
    "grid.gamma": st.lists(st.one_of(gamma, not_a_float), min_size=1, max_size=3),
    "seeds": st.lists(seed, min_size=1, max_size=4),
}


@st.composite
def override(draw) -> tuple[str, object]:
    key = draw(st.sampled_from(sorted(OVERRIDES)))
    return key, draw(OVERRIDES[key])


def outcome(build):
    try:
        return build()
    except ConfigError as exc:
        return str(exc)


@settings(deadline=None)
@given(config, override())
def test_set_equals_editing_the_file(tmp_path_factory, raw, pair):
    key, value = pair
    edited = copy.deepcopy(raw)
    *parents, leaf = key.split(".")
    node = edited
    for k in parents:
        if not isinstance(node.get(k), dict):
            node[k] = {}
        node = node[k]
    node[leaf] = value
    path = tmp_path_factory.getbasetemp() / "set_invariant.json"
    path.write_text(json.dumps(raw))
    # strings go in bare, everything else as its JSON literal
    text = value if isinstance(value, str) else json.dumps(value)
    got = outcome(lambda: load_run_spec(path, [f"{key}={text}"]))
    assert got == outcome(lambda: build_run_spec(edited))
    if is_not_a_float(value):
        assert isinstance(got, str), "a float field took a non-finite value"
