"""Minimal dense-tensor engine with reverse-mode automatic differentiation.

Supports exactly what the desk-scale experiments need: dense layers,
valid-padding stride-1 conv2d, 2x2 max pooling, flatten, and pointwise
activations from :mod:`telulab.kernels`, trained with softmax
cross-entropy.  Forward passes optionally record a tape; each recorded
primitive keeps what its vector-Jacobian product needs (conv its im2col
column matrix, an activation its f' from the fused kernel, max pooling
its winner masks), and replaying the products in reverse yields gradients
for every parameter.  Nothing reads the input batch's gradient, so layers
before the first parametric one are not recorded and that layer computes
no input gradient.

Everything is float64 and deterministic: no RNG in forward/backward, and
a fixed summation order.  The first non-finite value anywhere raises
:class:`DivergenceError`; the training harness records that as data.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Union

import numpy as np

from . import kernels
from .errors import ConfigError, DataError, DivergenceError, FormatError
from .kernels import ActivationKind
from .rng import TAG_INIT, generator

__all__ = [
    "Tensor",
    "Tape",
    "Dense",
    "Conv2d",
    "MaxPool2",
    "Flatten",
    "Activation",
    "LayerSpec",
    "Model",
    "build_model",
    "forward",
    "backward",
    "softmax_cross_entropy",
    "finite_difference_check",
    "save_params",
    "load_params",
]


class Tensor:
    """A dense float64 array; parameters and intermediate values alike."""

    __slots__ = ("data",)

    def __init__(self, data):
        self.data = np.ascontiguousarray(data, dtype=np.float64)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape})"


@dataclass
class Node:
    """One recorded primitive: inputs, output, and its VJP."""

    inputs: tuple[Tensor, ...]
    output: Tensor
    vjp: Callable[[np.ndarray], tuple[Optional[np.ndarray], ...]]


class Tape:
    """Ordered record of primitives from one forward pass.

    Nodes are appended in execution order, so the list is topologically
    sorted by construction; backward walks it once in reverse.  A tape is
    single-use.
    """

    def __init__(self, params: tuple[Tensor, ...]):
        self.nodes: list[Node] = []
        self.params = params
        self.output: Optional[Tensor] = None
        self.consumed = False

    def record(self, node: Node) -> None:
        self.nodes.append(node)


# --- layer descriptors -------------------------------------------------------


@dataclass(frozen=True)
class Dense:
    in_dim: int
    out_dim: int


@dataclass(frozen=True)
class Conv2d:
    in_ch: int
    out_ch: int
    k: int


@dataclass(frozen=True)
class MaxPool2:
    pass


@dataclass(frozen=True)
class Flatten:
    pass


@dataclass(frozen=True)
class Activation:
    kind: ActivationKind


LayerSpec = Union[Dense, Conv2d, MaxPool2, Flatten, Activation]


class Model:
    """An ordered stack of layers plus their parameter tensors.

    Parameters are stored in layer order as (weight, bias) pairs for the
    parametric layers; ``param_of`` maps a layer index to its slice.
    """

    def __init__(self, layers: tuple[LayerSpec, ...], params: list[Tensor]):
        self.layers = layers
        self.params = params

    def param_count(self) -> int:
        return sum(p.size for p in self.params)

    def copy_param_values(self) -> list[np.ndarray]:
        return [p.data.copy() for p in self.params]

    def set_param_values(self, values: list[np.ndarray]) -> None:
        if len(values) != len(self.params):
            raise ConfigError("parameter count mismatch")
        for p, v in zip(self.params, values):
            if p.data.shape != v.shape:
                raise ConfigError("parameter shape mismatch")
            p.data = np.ascontiguousarray(v, dtype=np.float64)


def _kaiming_uniform(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


def build_model(layers: list[LayerSpec] | tuple[LayerSpec, ...], seed: int) -> Model:
    """Instantiate parameters for the layer stack.

    Weights are Kaiming-uniform with fan-in scaling, biases zero, drawn
    from the Philox stream keyed by (seed, init-tag, layer index).
    """
    params: list[Tensor] = []
    for i, layer in enumerate(layers):
        if isinstance(layer, Dense):
            rng = generator(seed, TAG_INIT, i)
            w = _kaiming_uniform(rng, (layer.in_dim, layer.out_dim), layer.in_dim)
            params.append(Tensor(w))
            params.append(Tensor(np.zeros(layer.out_dim)))
        elif isinstance(layer, Conv2d):
            rng = generator(seed, TAG_INIT, i)
            fan_in = layer.in_ch * layer.k * layer.k
            w = _kaiming_uniform(
                rng, (layer.out_ch, layer.in_ch, layer.k, layer.k), fan_in
            )
            params.append(Tensor(w))
            params.append(Tensor(np.zeros(layer.out_ch)))
        elif not isinstance(layer, (MaxPool2, Flatten, Activation)):
            raise ConfigError(f"unknown layer descriptor {layer!r}")
    return Model(tuple(layers), params)


# --- primitive forward/backward ----------------------------------------------


def _require_finite(arr: np.ndarray, context: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise DivergenceError(f"non-finite value in {context}")


def _dense_forward(
    x: Tensor, w: Tensor, b: Tensor, tape: Optional[Tape], grad_x: bool
) -> Tensor:
    if x.data.ndim != 2 or x.data.shape[1] != w.data.shape[0]:
        raise ConfigError(
            f"dense layer expects (batch, {w.data.shape[0]}), got {x.shape}"
        )
    out = Tensor(x.data @ w.data + b.data)
    if tape is not None:
        x_data, w_data = x.data, w.data

        def vjp(g: np.ndarray):
            gx = g @ w_data.T if grad_x else None
            return gx, x_data.T @ g, g.sum(axis=0)

        tape.record(Node((x, w, b), out, vjp))
    return out


def _conv2d_forward(
    x: Tensor, w: Tensor, b: Tensor, spec: Conv2d, tape: Optional[Tape], grad_x: bool
) -> Tensor:
    """Valid stride-1 convolution as one matmul per image on a column matrix.

    ``cols[n, (c, i, j), (p, q)] = x[n, c, p + i, q + j]``, so the output is
    ``W2 @ cols`` with ``W2`` the weight flattened to (out_ch, in_ch*k*k).
    """
    if x.data.ndim != 4 or x.data.shape[1] != spec.in_ch:
        raise ConfigError(
            f"conv2d expects (batch, {spec.in_ch}, H, W), got {x.shape}"
        )
    k = spec.k
    n, c, h, wd = x.data.shape
    if h < k or wd < k:
        raise ConfigError(f"conv2d kernel {k} larger than input {x.shape}")
    ho, wo = h - k + 1, wd - k + 1
    cols6 = np.empty((n, c, k, k, ho, wo))
    for i in range(k):
        for j in range(k):
            cols6[:, :, i, j] = x.data[:, :, i : i + ho, j : j + wo]
    cols = cols6.reshape(n, c * k * k, ho * wo)
    w2 = w.data.reshape(spec.out_ch, c * k * k)
    out_data = np.matmul(w2, cols).reshape(n, spec.out_ch, ho, wo)
    out_data += b.data[None, :, None, None]
    out = Tensor(out_data)
    if tape is not None:

        def vjp(g: np.ndarray):
            g3 = g.reshape(n, spec.out_ch, ho * wo)
            gw = np.matmul(g3, cols.transpose(0, 2, 1)).sum(axis=0)
            gx = None
            if grad_x:
                # col2im: scatter-add each kernel offset's slab back onto x
                gcols = np.matmul(w2.T, g3).reshape(n, c, k, k, ho, wo)
                gx = np.zeros((n, c, h, wd))
                for i in range(k):
                    for j in range(k):
                        gx[:, :, i : i + ho, j : j + wo] += gcols[:, :, i, j]
            return gx, gw.reshape(spec.out_ch, c, k, k), g.sum(axis=(0, 2, 3))

        tape.record(Node((x, w, b), out, vjp))
    return out


def _maxpool2_forward(x: Tensor, tape: Optional[Tape]) -> Tensor:
    if x.data.ndim != 4 or x.data.shape[2] % 2 or x.data.shape[3] % 2:
        raise ConfigError(f"maxpool2 expects (N, C, even, even), got {x.shape}")
    # the four corners of every 2x2 window, in window order
    a, b = x.data[:, :, 0::2, 0::2], x.data[:, :, 0::2, 1::2]
    c, d = x.data[:, :, 1::2, 0::2], x.data[:, :, 1::2, 1::2]
    top, bottom = np.maximum(a, b), np.maximum(c, d)
    out = Tensor(np.maximum(top, bottom))
    if tape is not None:
        # the first maximum in window order takes the gradient: the top row
        # wins ties with the bottom one, the left column with the right one
        in_top = top >= bottom
        a_wins, c_wins = a >= b, c >= d
        masks = (
            in_top & a_wins,
            in_top & ~a_wins,
            ~in_top & c_wins,
            ~in_top & ~c_wins,
        )
        shape = x.data.shape

        def vjp(g: np.ndarray):
            gx = np.zeros(shape)
            for (di, dj), mask in zip(((0, 0), (0, 1), (1, 0), (1, 1)), masks):
                np.copyto(gx[:, :, di::2, dj::2], g, where=mask)
            return (gx,)

        tape.record(Node((x,), out, vjp))
    return out


def _flatten_forward(x: Tensor, tape: Optional[Tape]) -> Tensor:
    if x.data.ndim < 2:
        raise ConfigError(f"flatten expects a batch dimension, got {x.shape}")
    shape = x.data.shape
    out = Tensor(x.data.reshape(shape[0], -1))
    if tape is not None:

        def vjp(g: np.ndarray):
            return (g.reshape(shape),)

        tape.record(Node((x,), out, vjp))
    return out


def _activation_forward(
    x: Tensor, kind: ActivationKind, tape: Optional[Tape]
) -> Tensor:
    if tape is None:
        return Tensor(kernels.value(kind, x.data))
    f, d = kernels.value_and_derivative(kind, x.data)
    out = Tensor(f)

    def vjp(g: np.ndarray):
        # the tape is single-use, so f' can take the product in place
        return (np.multiply(g, d, out=d),)

    tape.record(Node((x,), out, vjp))
    return out


# --- model-level operations -----------------------------------------------------


def forward(
    model: Model, batch: np.ndarray, record: bool = False
) -> tuple[Tensor, Optional[Tape]]:
    """Run the layer stack on ``batch``; optionally record a tape.

    Shape mismatches raise :class:`ConfigError` before any arithmetic;
    any non-finite output raises :class:`DivergenceError`.
    """
    batch = np.asarray(batch, dtype=np.float64)
    _require_finite(batch, "input batch")
    tape = Tape(tuple(model.params)) if record else None
    x = Tensor(batch)
    p = 0
    # nothing reads the input batch's gradient, so layers before the first
    # parameter are not recorded and the first parametric layer skips its gx
    grad_x = False
    # overflow is detected by the explicit finiteness checks, not by warnings
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        for layer in model.layers:
            rec = tape if grad_x else None
            if isinstance(layer, Dense):
                x = _dense_forward(
                    x, model.params[p], model.params[p + 1], tape, grad_x
                )
                p += 2
                grad_x = True
            elif isinstance(layer, Conv2d):
                x = _conv2d_forward(
                    x, model.params[p], model.params[p + 1], layer, tape, grad_x
                )
                p += 2
                grad_x = True
            elif isinstance(layer, MaxPool2):
                x = _maxpool2_forward(x, rec)
            elif isinstance(layer, Flatten):
                x = _flatten_forward(x, rec)
            elif isinstance(layer, Activation):
                x = _activation_forward(x, layer.kind, rec)
            else:
                raise ConfigError(f"unknown layer {layer!r}")
            _require_finite(x.data, f"output of {type(layer).__name__}")
    if tape is not None:
        tape.output = x
    return x, tape


def backward(tape: Tape, loss_grad: np.ndarray) -> dict[Tensor, np.ndarray]:
    """Replay the tape's VJPs in reverse; returns gradient per parameter.

    The tape is single-use: a second call raises.
    """
    if tape.consumed:
        raise RuntimeError("tape already consumed by a previous backward pass")
    if tape.output is None:
        raise RuntimeError("tape has no recorded output")
    loss_grad = np.asarray(loss_grad, dtype=np.float64)
    if loss_grad.shape != tape.output.data.shape:
        raise ConfigError(
            f"loss gradient shape {loss_grad.shape} does not match output "
            f"{tape.output.data.shape}"
        )
    tape.consumed = True

    grads: dict[int, np.ndarray] = {id(tape.output): loss_grad}
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        for node in reversed(tape.nodes):
            g_out = grads.pop(id(node.output), None)
            if g_out is None:
                continue
            for tensor, g_in in zip(node.inputs, node.vjp(g_out)):
                if g_in is None:
                    continue
                key = id(tensor)
                if key in grads:
                    grads[key] = grads[key] + g_in
                else:
                    grads[key] = g_in

    out: dict[Tensor, np.ndarray] = {}
    for p in tape.params:
        g = grads.get(id(p))
        out[p] = np.zeros_like(p.data) if g is None else g
        _require_finite(out[p], "parameter gradient")
    return out


def softmax_cross_entropy(
    logits: Union[Tensor, np.ndarray], labels: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over the batch and its gradient w.r.t. logits.

    Stabilized by row-max subtraction; the gradient is
    (softmax - onehot) / batch_size.
    """
    z = logits.data if isinstance(logits, Tensor) else np.asarray(logits, float)
    if z.ndim != 2:
        raise ConfigError(f"logits must be (batch, classes), got {z.shape}")
    labels = np.asarray(labels)
    if labels.shape != (z.shape[0],):
        raise ConfigError("labels must be a vector matching the batch size")
    if labels.min() < 0 or labels.max() >= z.shape[1]:
        raise DataError("label out of range for the logit width")

    shifted = z - z.max(axis=1, keepdims=True)
    logsumexp = np.log(np.sum(np.exp(shifted), axis=1))
    rows = np.arange(z.shape[0])
    loss = float(np.mean(logsumexp - shifted[rows, labels]))

    softmax = np.exp(shifted)
    softmax /= softmax.sum(axis=1, keepdims=True)
    grad = softmax
    grad[rows, labels] -= 1.0
    grad /= z.shape[0]
    _require_finite(grad, "loss gradient")
    return loss, grad


def finite_difference_check(
    model: Model, batch: np.ndarray, labels: np.ndarray, h: float = 1e-6
) -> float:
    """Worst relative disagreement between backprop and central differences.

    Perturbs every parameter entry by +-h (two forward passes each), so
    cost scales with the parameter count; intended for models of at most
    a few thousand parameters.  Entries where both gradients are below
    1e-8 in magnitude are compared absolutely.
    """
    logits, tape = forward(model, batch, record=True)
    _, loss_grad = softmax_cross_entropy(logits, labels)
    analytic = backward(tape, loss_grad)

    def loss_at() -> float:
        out, _ = forward(model, batch, record=False)
        return softmax_cross_entropy(out, labels)[0]

    worst = 0.0
    for p in model.params:
        ga = analytic[p]
        flat = p.data.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            lp = loss_at()
            flat[i] = orig - h
            lm = loss_at()
            flat[i] = orig
            fd = (lp - lm) / (2.0 * h)
            a = ga.reshape(-1)[i]
            denom = max(abs(a), abs(fd))
            err = abs(a - fd) if denom < 1e-8 else abs(a - fd) / denom
            worst = max(worst, err)
    return worst


# --- checkpoints -------------------------------------------------------------------


def save_params(model: Model, stem: Union[str, Path]) -> None:
    """Write parameters as ``<stem>.bin`` (flat little-endian float64) plus
    ``<stem>.json`` shape manifest, each atomically."""
    # imported here: reporting imports the harness, which imports this module
    from .reporting import atomic_write_bytes, atomic_write_text

    stem = Path(stem)
    if model.params:
        flat = np.concatenate([p.data.reshape(-1) for p in model.params])
    else:
        flat = np.empty(0)
    atomic_write_bytes(stem.with_suffix(".bin"), flat.astype("<f8").tobytes())
    manifest = {"shapes": [list(p.shape) for p in model.params]}
    atomic_write_text(stem.with_suffix(".json"), json.dumps(manifest, indent=2))


def load_params(model: Model, stem: Union[str, Path]) -> None:
    """Load a checkpoint written by :func:`save_params` into ``model``."""
    stem = Path(stem)
    try:
        manifest = json.loads(stem.with_suffix(".json").read_text())
        shapes = [tuple(s) for s in manifest["shapes"]]
        raw = stem.with_suffix(".bin").read_bytes()
    except (OSError, KeyError, ValueError) as exc:
        raise FormatError(f"cannot read checkpoint {stem}: {exc}") from exc
    if shapes != [p.shape for p in model.params]:
        raise FormatError("checkpoint shapes do not match the model")
    blob = np.frombuffer(raw, dtype="<f8")
    expected = sum(int(np.prod(s)) for s in shapes)
    if blob.size != expected:
        raise FormatError(
            f"checkpoint blob has {blob.size} values, expected {expected}"
        )
    if not np.all(np.isfinite(blob)):
        raise FormatError(f"checkpoint {stem} holds non-finite values")
    offset = 0
    values = []
    for s in shapes:
        n = int(np.prod(s))
        values.append(blob[offset : offset + n].reshape(s).copy())
        offset += n
    model.set_param_values(values)
