"""Contract fuzzing of the command line: exit 3 is always a bug.

Each example changes one config field or one flag of a base setup to a
boundary, out-of-range, wrong-typed or non-finite value and runs
``cli.main`` in-process.  The base is drawn per example: the golden blobs
setup (``test_golden.BLOBS`` for one epoch, plus a one-cell grid so that
``grid`` runs), or the same on blobs with ``dim == classes`` through a
lone activation, a stack without parameters.  The contract:

- the exit code is 0, 1 or 2, never 3;
- exit 2 leaves no ``--out``;
- exit 1 comes only from ``verify`` with a ``fails`` verdict.

The config fields come from ``config._schema`` and the flags from
``cli.COMMANDS``, so a field or flag added later is fuzzed with them.  Out
of scope are valid values that only make a run long: a large ``epochs``
(none above 2 is drawn), and a large odd ``--grid-n`` below the cell cap or
a small valid ``kernels --step`` (neither is among the values drawn).  The
integers drawn are small or too large for any numpy array dimension, never
one that would allocate gigabytes.  Two faults injected last must exit 3 with one ``error:`` line:
an ``--out`` that cannot be created, and a kernel that raises in ``verify``.
"""

import contextlib
import io
import json
import math
import tempfile
from dataclasses import is_dataclass
from pathlib import Path
from typing import Union, get_args, get_origin

import pytest
from hypothesis import given, settings, strategies as st

from telulab import cli, config, kernels
from telulab.autograd import Dense
from telulab.harness import GridSpec, TrainConfig
from telulab.kernels import ActivationKind
from test_golden import BLOBS

SETUP = {**BLOBS, "epochs": 1, "grid": {"lr": [0.1]}}
# no parameters: 4-dimensional blobs of 4 classes are their own logits
BARE = {
    **SETUP,
    "model": {"layers": [{"type": "activation"}]},
    "dataset": {**BLOBS["dataset"], "blobs": {**BLOBS["dataset"]["blobs"], "dim": 4}},
}
# the flags each command runs with unchanged; landscape's default 41x41
# grid is a long run
BASE_FLAGS = {"verify": ["--activations", "telu"], "kernels": ["--activations", "telu"],
              "landscape": ["--grid-n", "3"]}

INTS = [-1, 0, 1, 2, 3, 2**63, 10**30]
FLOATS = [0.0, -0.0, -1.0, 1e-300, 0.5, 1.0, 2.0, 1e308, math.nan, math.inf, -math.inf]
KINDS = ["telu", "relu", "elu:2", "elu:0", "elu:-1", "elu:nan", "elu:inf", "elu:1e308",
         "elu:1e-300", "telu:2", "nosuch", ""]
STRINGS = ["", "x", "blobs", "cifar10", "sgd", "adamw"]
WRONG = ["x", [], {}, None, True, 1.5, 7]


def long_run(path: str, value) -> bool:
    """Whether ``value`` at ``path`` is valid but only makes the run long:
    such values are never drawn."""
    return path == "epochs" and type(value) is int and value > 2


def values(tp) -> list:
    """Boundary, out-of-range and non-finite values of the field type ``tp``."""
    if tp is int:
        return INTS
    if tp is float:
        return FLOATS
    if tp is bool:
        return [True, False]
    if tp is str:
        return STRINGS
    if tp is ActivationKind:
        return KINDS
    if is_dataclass(tp):  # a section offered whole: only null and WRONG
        return []
    args = get_args(tp)
    if get_origin(tp) is Union:  # Optional[X]
        return [None, *values(args[0])]
    if args[-1] is Ellipsis:  # tuple[X, ...]
        return [[], *([v] for v in values(args[0])), [1, 1]]
    return [[], *([v] * len(args) for v in values(args[0])), [0.5] * (len(args) + 1)]


def fields(cls, prefix: str):
    """(config path, field type) of each key of the dataclass ``cls``,
    nested sections expanded (and an optional one also offered whole)."""
    for _, key, tp, _ in config._schema(cls):
        if key is None:
            continue
        inner = get_args(tp)[0] if get_origin(tp) is Union else tp
        if is_dataclass(inner):
            if inner is not tp:
                yield prefix + key, tp
            yield from fields(inner, f"{prefix}{key}.")
        else:
            yield prefix + key, tp


FIELDS = [
    *fields(TrainConfig, ""),
    ("activation", ActivationKind),
    ("seeds", tuple[int, ...]),
    ("model.layers.1.kind", ActivationKind),
    *(f for i in (0, 2) for f in fields(Dense, f"model.layers.{i}.")),
    *fields(GridSpec, "grid."),
]


def flag_values(options: dict) -> list:
    """Values for a flag from its ``add_argument`` options, as argv text."""
    tp = options.get("type")
    if tp in (int, float):
        return [repr(v) if tp is float else str(v) for v in values(tp)] + ["x", "1.5", ""]
    return KINDS


@st.composite
def change(draw) -> tuple[dict, str, list[str]]:
    """A base setup, a command and its argv with one field or one flag
    changed."""
    setup = draw(st.sampled_from([SETUP, BARE]))
    command = draw(st.sampled_from(sorted(cli.COMMANDS)))
    _, _, flags = cli.COMMANDS[command]
    argv = list(BASE_FLAGS.get(command, []))
    own = [f for f in flags if f[0] not in ("--config", "--set", "--out")]
    takes_config = len(own) < len(flags)
    if own and (not takes_config or draw(st.booleans())):
        name, options, *_ = draw(st.sampled_from(own))
        if name in argv:
            del argv[argv.index(name) : argv.index(name) + 2]
        if options.get("action") == "store_true":
            argv.append(name)
        elif name == "--checkpoint":
            argv += [name, "no/such/stem"]
        else:
            argv.append(f"{name}={draw(st.sampled_from(flag_values(options)))}")
    else:
        path, tp = draw(st.sampled_from(FIELDS))
        value = draw(st.sampled_from([v for v in values(tp) + WRONG if not long_run(path, v)]))
        argv += ["--set", f"{path}={json.dumps(value)}"]
    return setup, command, argv


def run(setup: dict, command: str, argv: list[str], work: Path) -> int:
    """``cli.main``'s exit code (argparse's too) for ``command`` on ``setup``."""
    if command not in ("verify", "kernels"):
        cfg = work / "cfg.json"
        cfg.write_text(json.dumps(setup))
        argv = ["--config", str(cfg), *argv]
    try:
        return cli.main([command, *argv, "--out", str(work / "out")])
    except SystemExit as exc:
        return exc.code


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(change())
def test_one_change_exits_zero_one_or_two(case):
    setup, command, argv = case
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err):
        work = Path(tmp)
        code = run(setup, command, argv, work)
        assert code in (0, 1, 2), err.getvalue()
        if code == 2:
            assert not (work / "out").exists()
        if code == 1:
            assert command == "verify"
            report = json.loads((work / "out" / "property_report.json").read_text())
            assert "fails" in [claim["verdict"] for claim in report]


@pytest.mark.parametrize(
    "argv", [["train"], ["replicate"], ["grid"], ["landscape", "--grid-n", "3"]],
    ids=lambda argv: argv[0],
)
def test_stack_without_parameters_runs(tmp_path, argv):
    command, *flags = argv
    assert run(BARE, command, flags, tmp_path) == 0
    assert (tmp_path / "out" / "metadata.json").is_file()


@pytest.mark.parametrize("checkpoint", [False, True], ids=["trained", "checkpoint"])
def test_fisher_of_a_stack_without_parameters_exits_two(tmp_path, capsys, checkpoint):
    # fisher exited 3 on numpy's zero-size max, leaving fisher.csv behind
    flags = []
    if checkpoint:
        (tmp_path / "saved").mkdir()
        save = ["--grid-n", "3", "--save-checkpoint"]
        assert run(BARE, "landscape", save, tmp_path / "saved") == 0
        flags = ["--checkpoint", str(tmp_path / "saved" / "out" / "model")]
    capsys.readouterr()
    assert run(BARE, "fisher", flags, tmp_path) == 2
    assert capsys.readouterr().err == "error: fisher: the model has no parameters to probe\n"
    assert not (tmp_path / "out").exists()


def test_out_that_cannot_be_created_exits_three_with_one_line(tmp_path, capsys):
    (tmp_path / "file").write_text("")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(SETUP))
    argv = ["train", "--config", str(cfg), "--out", str(tmp_path / "file" / "out")]
    assert cli.main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: NotADirectoryError: ") and err.count("\n") == 1


def test_kernel_raising_in_verify_exits_three_with_one_line(tmp_path, capsys, monkeypatch):
    def broken(kind, x):
        raise RuntimeError("kernel\nfailed")

    monkeypatch.setattr(kernels, "derivative", broken)
    out = tmp_path / "out"
    assert cli.main(["verify", "--activations", "telu", "--out", str(out)]) == 3
    assert capsys.readouterr().err == "error: RuntimeError: kernel failed\n"
    assert not out.exists()
