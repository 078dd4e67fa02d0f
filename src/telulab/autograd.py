"""Minimal float64 engine for a sequential layer stack, with backprop.

Supports exactly what the desk-scale experiments need: dense layers,
valid-padding stride-1 conv2d, 2x2 max pooling, flatten, and pointwise
activations from :mod:`telulab.kernels`, trained with softmax
cross-entropy.  A model is a strict stack, so each layer descriptor owns
its math: ``shapes`` states its parameters' shapes, and
``forward(x, params, record, grad_x)`` returns its output plus, when
recording, a backward step that maps the output gradient to the input
gradient (``None`` unless ``grad_x``) and the parameter gradients.  A step
keeps only what its product needs: conv its input, from which it rebuilds
the im2col columns; an activation its f' from the fused kernel; max
pooling each window's winner, one byte per window.  An activation directly
followed by max pooling records one step for the pair, which keeps f' only
at the winners, the one position in four that gets a gradient: 9 bytes per
window instead of 36 (four f' values and four mask bytes).  A
:class:`Model` keeps all its parameters in one float64 vector,
``model.flat``, in checkpoint order; each parameter :class:`Tensor` is a
view of it, so checkpoints, probes and finite differences read and write
``flat`` while the layers see their arrays.

:func:`forward` runs the per-example prefix of the stack (every layer
before the first :class:`Dense`: conv, activation, pooling, flatten) on
chunks of :data:`CHUNK` images, so a chunk's column matrix, activation
temporaries and pool winners are still in cache when the next layer reads
them and no layer ever holds a whole batch of them.  Its input is a
float64 array or a :class:`~telulab.data.Dataset` batch, which builds each
chunk's float64 features when the chunk runs, so no whole batch of them
exists either (a stack with no prefix builds the batch once).  The prefix
outputs are joined, and the dense layers and the loss run on the full
batch.  It returns the logits array plus, when recording, a :class:`Tape`:
the recorded steps of every chunk and of the full-batch suffix, with their
parameter tensors and the output shape.  :func:`backward` passes one
gradient back through the suffix, splits it into the same chunks and
passes each back through its prefix steps, dropping each step as it goes,
so no cache outlives its backward.  Nothing reads the input batch's
gradient, so layers before the first parametric one are not recorded and
that layer computes no input gradient.

The chunks run on :data:`WORKERS` threads, each taking one contiguous part
of the chunk list (the calling thread the last), and their results are
joined in batch order.  No chunk size or worker count moves a bit: every
prefix layer computes each image on its own (features, activations and
pooling are elementwise; conv's im2col, col2im and ``np.matmul`` run one
GEMM per image), and :func:`backward` adds conv's per-example weight and
bias gradients into a zero-filled buffer in example order, the sequential
sum the unchunked conv took.  That sum also turns every zero into +0.0, so
the pooled activation's step, which leaves +0.0 at a losing position where
the separate steps left ``(+0.0) * f'`` (-0.0 for a negative f'), gives
the same parameter gradients bit for bit.  If several parts fail, the
earliest part's error is raised, as a sequential loop would.

``backward(tape, g, squares=True)`` returns, per parameter, the sum over
the batch of every example's squared gradient instead of the sum of the
gradients, for a ``g`` whose rows are each one example's own loss gradient
(as :func:`cross_entropy_rows` gives them).  Each parametric step then
squares its own gradients: conv its per-example rows, before they are
added in example order, and dense, whose weight gradient is a sum of outer
products ``x_i g_i^T``, returns ``(x*x).T @ (g*g)`` and ``(g*g).sum(0)``.
One batched pass gives what one backward per example would, up to rounding.

Everything is float64 and deterministic: no RNG in forward/backward, and
a fixed summation order.  The first non-finite value anywhere raises
:class:`DivergenceError`; the training harness records that as data.
"""

from __future__ import annotations

import concurrent.futures
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, ClassVar, Optional, Union

import numpy as np
from numpy.lib.stride_tricks import as_strided

from . import kernels, reporting
from .data import Dataset
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
    "cross_entropy_rows",
    "finite_difference_check",
    "save_params",
    "load_params",
]


class Tensor:
    """A hashable handle on one parameter: optimizers and gradient dicts key
    on it.  ``data`` is read-only, so a handle cannot be rebound away from
    the array it was made with (in a :class:`Model`, a view of ``flat``);
    an update writes into it, ``p.data[...] = new``."""

    __slots__ = ("_data",)

    def __init__(self, data):
        self._data = np.ascontiguousarray(data, dtype=np.float64)

    @property
    def data(self) -> np.ndarray:
        return self._data

    @property
    def shape(self) -> tuple[int, ...]:
        return self._data.shape

    def __repr__(self) -> str:
        return f"Tensor(shape={self._data.shape})"


# A backward step maps the output gradient, and optionally ``squares`` (see
# the module docstring), to (input gradient or None, parameter gradients in
# parameter order).
Step = Callable[..., tuple[Optional[np.ndarray], tuple[np.ndarray, ...]]]
Steps = list[tuple[Step, tuple[Tensor, ...]]]

# Images per chunk of the per-example prefix (see the module docstring); on
# the reference CNN, 2, 4 and 8 measured within noise of each other.
CHUNK = 4


def usable_cpus() -> int:
    """The CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


# prefix threads per batch: every usable CPU, or a trial worker's share
WORKERS = usable_cpus()
# ((pid, WORKERS), pool), made on first use: a fork inherits no threads
_pool: Optional[tuple[tuple[int, int], concurrent.futures.ThreadPoolExecutor]] = None
# overflow is caught by the finiteness checks; errstate is per thread
_QUIET = dict(over="ignore", invalid="ignore", under="ignore")


def set_workers(n: int) -> None:
    """Run the prefix chunks of each batch on ``n`` threads."""
    global WORKERS
    WORKERS = n


def _map_parts(fn: Callable[[list], list], items: list) -> list:
    """``fn`` over one contiguous part of ``items`` per worker, the results
    joined in order: the pool runs all parts but the last, the calling
    thread the last.  All parts finish before the earliest error is raised."""
    k = min(WORKERS, len(items))
    if k <= 1:
        return fn(items)
    global _pool
    if _pool is None or _pool[0] != (os.getpid(), WORKERS):
        _pool = ((os.getpid(), WORKERS), concurrent.futures.ThreadPoolExecutor(WORKERS - 1))
    cuts = [len(items) * i // k for i in range(k + 1)]
    futures = [_pool[1].submit(fn, items[a:b]) for a, b in zip(cuts[:-2], cuts[1:-1])]
    try:
        last = fn(items[cuts[-2] :])
    finally:
        concurrent.futures.wait(futures)
        joined = [r for f in futures for r in f.result()]
    return joined + last


@dataclass
class Tape:
    """The backward steps of one recorded forward pass, in execution order,
    each with its layer's parameters: per chunk of the per-example prefix
    (with the batch rows of the chunk) and for the full-batch suffix; plus
    the output shape.  Single-use: backward consumes the steps."""

    chunks: list[tuple[slice, Steps]]
    steps: Steps
    output_shape: tuple[int, ...]
    consumed: bool = False


# --- layers ---------------------------------------------------------------------


class _Parameterless:
    """Base of the layers without parameters: their backward step only
    carries the input gradient, so they record only when it is needed."""

    shapes: ClassVar[tuple] = ()


@dataclass(frozen=True)
class Dense:
    in_dim: int
    out_dim: int

    def __post_init__(self) -> None:
        if min(self.in_dim, self.out_dim) < 1:
            raise ConfigError(f"dense sizes must be >= 1, got in={self.in_dim}, out={self.out_dim}")

    @property
    def shapes(self) -> tuple[tuple[int, ...], ...]:
        """The shapes of its parameters, weight then bias."""
        return (self.in_dim, self.out_dim), (self.out_dim,)

    def forward(self, x, params, record, grad_x):
        w, b = params
        if x.ndim != 2 or x.shape[1] != w.shape[0]:
            raise ConfigError(f"dense layer expects (batch, {w.shape[0]}), got {x.shape}")
        y = x @ w + b
        if not record:
            return y, None

        def step(g, squares=False):
            gx = g @ w.T if grad_x else None
            if squares:
                g2 = g * g
                return gx, ((x * x).T @ g2, g2.sum(axis=0))
            return gx, (x.T @ g, g.sum(axis=0))

        return y, step


@dataclass(frozen=True)
class Conv2d:
    """Valid stride-1 convolution as one matmul per image on a column matrix.

    ``cols[n, (c, i, j), (p, q)] = x[n, c, p + i, q + j]``, so the output is
    ``W2 @ cols`` with ``W2`` the weight flattened to (out_ch, in_ch*k*k).
    Its backward step keeps ``x``, not the 9-16x larger ``cols``, which it
    rebuilds; it returns the weight and bias gradients per example (leading
    batch axis), squared with ``squares``, which :func:`backward` sums over
    the batch.
    """

    in_ch: int
    out_ch: int
    k: int

    def __post_init__(self) -> None:
        if min(self.in_ch, self.out_ch, self.k) < 1:
            raise ConfigError(
                f"conv2d sizes must be >= 1, got in_ch={self.in_ch}, out_ch={self.out_ch}, k={self.k}"
            )

    @property
    def shapes(self) -> tuple[tuple[int, ...], ...]:
        """The shapes of its parameters, weight then bias."""
        return (self.out_ch, self.in_ch, self.k, self.k), (self.out_ch,)

    def forward(self, x, params, record, grad_x):
        w, b = params
        if x.ndim != 4 or x.shape[1] != self.in_ch:
            raise ConfigError(f"conv2d expects (batch, {self.in_ch}, H, W), got {x.shape}")
        k = self.k
        n, c, h, wd = x.shape
        if h < k or wd < k:
            raise ConfigError(f"conv2d kernel {k} larger than input {x.shape}")
        ho, wo = h - k + 1, wd - k + 1

        def im2col():
            # x's (n, c, k, k, ho, wo) windows as a read-only view, which the
            # reshape copies (unless k == 1)
            sn, sc, sh, sw = x.strides
            windows = as_strided(x, (n, c, k, k, ho, wo), (sn, sc, sh, sw, sh, sw), writeable=False)
            return windows.reshape(n, c * k * k, ho * wo)

        w2 = w.reshape(self.out_ch, c * k * k)
        y = np.matmul(w2, im2col()).reshape(n, self.out_ch, ho, wo)
        y += b[None, :, None, None]
        if not record:
            return y, None

        def step(g, squares=False):
            g3 = g.reshape(n, self.out_ch, ho * wo)
            gw = np.matmul(g3, im2col().transpose(0, 2, 1))
            gx = None
            if grad_x:
                # col2im: scatter-add each kernel offset's slab back onto x
                gcols = np.matmul(w2.T, g3).reshape(n, c, k, k, ho, wo)
                gx = np.zeros((n, c, h, wd))
                for i in range(k):
                    for j in range(k):
                        gx[:, :, i : i + ho, j : j + wo] += gcols[:, :, i, j]
            gb = g.sum(axis=(2, 3))
            if squares:
                gw *= gw
                gb *= gb
            return gx, (gw.reshape((n,) + w.shape), gb)

        return y, step


def _window_positions(shape: tuple[int, ...], corner: np.ndarray) -> np.ndarray:
    """Flat index into an (n, c, h, w) array of one corner of each 2x2
    window, numbered 0-3 in window order (2 * row + column)."""
    n, c, h, w = shape
    starts = (np.arange(n * c * (h // 2)) * (2 * w)).reshape(n, c, h // 2, 1) + np.arange(0, w, 2)
    return starts + np.array([0, 1, w, w + 1]).take(corner)


@dataclass(frozen=True)
class MaxPool2(_Parameterless):
    """2x2 max pooling, stride 2.  Its step keeps each window's winner, the
    first maximum in window order, as one corner number.  Given ``d``, the
    f' of the :class:`Activation` whose output ``x`` is, the step stands for
    that activation's too: it keeps f' at the winners only and returns
    ``(g + 0.0) * f'`` there, +0.0 everywhere else."""

    def forward(self, x, params, record, grad_x, d=None):
        if x.ndim != 4 or x.shape[2] % 2 or x.shape[3] % 2:
            raise ConfigError(f"maxpool2 expects (N, C, even, even), got {x.shape}")
        # the four corners of every 2x2 window, in window order
        a, b = x[:, :, 0::2, 0::2], x[:, :, 0::2, 1::2]
        c, e = x[:, :, 1::2, 0::2], x[:, :, 1::2, 1::2]
        top, bottom = np.maximum(a, b), np.maximum(c, e)
        y = np.maximum(top, bottom)
        if not (record and grad_x):
            return y, None
        # the first maximum in window order takes the gradient: the top row
        # wins ties with the bottom one, the left column with the right one
        in_top = top >= bottom
        right = (in_top & (a < b)) | (~in_top & (c < e))
        corner = (~in_top).view(np.uint8) * np.uint8(2) + right.view(np.uint8)
        shape = x.shape
        fw = None if d is None else d.reshape(-1)[_window_positions(shape, corner)]

        def step(g, squares=False):
            # adding +0.0 makes a -0.0 gradient +0.0, the zero every loser holds
            gw = g + 0.0
            if fw is not None:
                gw *= fw
            gx = np.zeros(shape)
            gx.reshape(-1)[_window_positions(shape, corner)] = gw
            return gx, ()

        return y, step


@dataclass(frozen=True)
class Flatten(_Parameterless):
    def forward(self, x, params, record, grad_x):
        if x.ndim < 2:
            raise ConfigError(f"flatten expects a batch dimension, got {x.shape}")
        shape = x.shape
        y = x.reshape(shape[0], math.prod(shape[1:]))  # -1 fails on zero rows
        if not (record and grad_x):
            return y, None
        return y, lambda g, squares=False: (g.reshape(shape), ())


@dataclass(frozen=True)
class Activation(_Parameterless):
    kind: ActivationKind

    def forward(self, x, params, record, grad_x):
        if not (record and grad_x):
            return kernels.value(self.kind, x), None
        y, d = kernels.value_and_derivative(self.kind, x)
        # the tape is single-use, so f' can take the product in place
        return y, lambda g, squares=False: (np.multiply(g, d, out=d), ())


LayerSpec = Union[Dense, Conv2d, MaxPool2, Flatten, Activation]


class Model:
    """An ordered stack of layers plus one parameter vector.

    ``flat`` is every parameter in layer order, each layer's ``shapes``
    ((weight, bias) for the parametric layers, none for the others), each
    C-ordered: the checkpoint layout, with ``shapes`` its manifest.  It
    starts zeroed; layer sizes past memory raise :class:`ConfigError`.
    ``params`` holds one :class:`Tensor` per parameter whose data is a
    reshaped view of ``flat``, so a write to either is a write to both.
    ``plan`` holds (index, layer, parameters, grad_x, pools) per layer (see
    :func:`_run`), and ``cut`` is the first :class:`Dense`'s index.
    """

    def __init__(self, layers: tuple[LayerSpec, ...]):
        self.layers = layers
        self.shapes = [s for layer in layers for s in layer.shapes]
        try:
            self.flat = np.zeros(sum(math.prod(s) for s in self.shapes))
        except MemoryError as exc:
            raise ConfigError(f"model: the layer sizes are too large to hold in memory ({exc})") from exc
        self.params = [Tensor(v) for v in self.views(self.flat)]
        tensors = iter(self.params)
        self.plan = []
        for i, (layer, after) in enumerate(zip(layers, [*layers[1:], None])):
            # nothing reads the input batch's gradient, so layers before the
            # first parameter are not recorded and the first parametric
            # layer skips its gx
            grad_x = any(params for _, _, params, _, _ in self.plan)
            pools = isinstance(layer, Activation) and isinstance(after, MaxPool2)
            self.plan.append((i, layer, tuple(next(tensors) for _ in layer.shapes), grad_x, pools))
        self.cut = next((i for i, layer, *_ in self.plan if isinstance(layer, Dense)), len(layers))

    def views(self, vec: np.ndarray) -> list[np.ndarray]:
        """``vec``, a vector of ``flat``'s layout, as one view per parameter."""
        cuts = np.cumsum([math.prod(s) for s in self.shapes], dtype=int)
        return [part.reshape(s) for part, s in zip(np.split(vec, cuts[:-1]), self.shapes)]


def build_model(layers: list[LayerSpec] | tuple[LayerSpec, ...], seed: int) -> Model:
    """A :class:`Model` of the layer stack with its weights drawn.

    Weights are Kaiming-uniform with fan-in the weight's size over the
    bias's (``in`` for dense, ``in_ch*k*k`` for conv), drawn into their
    views of the zeroed ``flat`` from the Philox stream keyed by (seed,
    init-tag, layer index), with ``uniform``'s two roundings; biases stay
    zero.  Layer sizes past memory raise :class:`ConfigError`.
    """
    model = Model(tuple(layers))
    for i, _, params, _, _ in model.plan:
        if params:
            w, b = (t.data for t in params)
            bound = np.sqrt(6.0 / (w.size // b.size))
            generator(seed, TAG_INIT, i).random(out=w)
            w *= 2 * bound
            w -= bound
    return model


# --- model-level operations -----------------------------------------------------


def _require_finite(arr: np.ndarray, context: str) -> None:
    if not np.isfinite(arr).all():
        raise DivergenceError(f"non-finite value in {context}")


def _run(
    plan: list[tuple[int, LayerSpec, tuple[Tensor, ...], bool, bool]], x: np.ndarray, record: bool
) -> tuple[np.ndarray, Steps]:
    """Run ``plan``, a slice of :attr:`Model.plan`, on ``x``; return the
    output and the recorded steps.  A layer computes its input gradient
    only if ``grad_x``; a recorded :class:`Activation` that ``pools`` records
    no step of its own but hands its f' to the :class:`MaxPool2` after it."""
    steps: Steps = []
    d = None  # f' of the Activation just run, for the MaxPool2 after it
    for i, layer, params, grad_x, pools in plan:
        if d is not None:
            x, step = layer.forward(x, (), record, grad_x, d)
            d = None
        elif record and grad_x and pools:
            x, d = kernels.value_and_derivative(layer.kind, x)
            step = None
        else:
            x, step = layer.forward(x, [t.data for t in params], record, grad_x)
        if step is not None:
            steps.append((step, params))
        _require_finite(x, f"output of layer {i} ({type(layer).__name__})")
    return x, steps


def _unwind(
    steps: Steps, g: np.ndarray, squares: bool
) -> tuple[np.ndarray, list[tuple[Tensor, np.ndarray]]]:
    """Pop ``steps`` back to front through ``g``: the input gradient and the
    (parameter, gradient) pairs."""
    pairs = []
    while steps:
        step, params = steps.pop()
        g, param_grads = step(g, squares)
        pairs.extend(zip(params, param_grads))
    return g, pairs


def forward(
    model: Model, batch: Union[np.ndarray, Dataset], record: bool = False
) -> tuple[np.ndarray, Optional[Tape]]:
    """Run the layer stack on ``batch``, a float64 array or a dataset batch;
    return the logits and, when ``record``, the tape.

    The layers before the first :class:`Dense` run on chunks of
    :data:`CHUNK` images spread over :data:`WORKERS` threads, each chunk of
    a dataset batch on features built from its own rows, the rest on the
    joined batch.  Shape mismatches raise :class:`ConfigError` before any
    arithmetic; any non-finite input or output raises
    :class:`DivergenceError` naming the input batch or the layer.
    """
    if isinstance(batch, Dataset):
        n = len(batch)

        def inputs(rows: slice) -> np.ndarray:
            x = batch.features(batch.rows[rows])
            _require_finite(x, "input batch")
            return x

    else:
        x = np.ascontiguousarray(batch, dtype=np.float64)
        if x.ndim == 0:
            raise ConfigError("the input needs a batch dimension")
        _require_finite(x, "input batch")
        n = len(x)
        inputs = x.__getitem__
    # an empty prefix (an MLP) is one chunk
    size = CHUNK if model.cut else max(n, 1)

    def run_part(part: list[slice]) -> list[tuple[slice, np.ndarray, Steps]]:
        with np.errstate(**_QUIET):
            return [(rows, *_run(model.plan[: model.cut], inputs(rows), record)) for rows in part]

    ran = _map_parts(run_part, [slice(s, s + size) for s in range(0, max(n, 1), size)])
    joined = np.concatenate([y for _, y, _ in ran])
    chunks = [(rows, steps) for rows, _, steps in ran if steps]
    with np.errstate(**_QUIET):
        y, steps = _run(model.plan[model.cut :], joined, record)
    return y, (Tape(chunks, steps, y.shape) if record else None)


def backward(
    tape: Tape, loss_grad: np.ndarray, squares: bool = False
) -> dict[Tensor, np.ndarray]:
    """Pass ``loss_grad`` back through the tape's steps in reverse, the
    suffix on the full batch and then each prefix chunk on its rows (on
    :data:`WORKERS` threads); returns the gradient per parameter.

    With ``squares``, each row of ``loss_grad`` is taken as one example's
    own loss gradient, and the result per parameter is the sum over the
    batch of the examples' squared gradients (see the module docstring).
    Any non-finite result raises :class:`DivergenceError`.  The tape is
    single-use: a second call raises.
    """
    if tape.consumed:
        raise RuntimeError("tape already consumed by a previous backward pass")
    g = np.asarray(loss_grad, dtype=np.float64)
    if g.shape != tape.output_shape:
        raise ConfigError(
            f"loss gradient shape {g.shape} does not match output {tape.output_shape}"
        )
    steps, chunks = tape.steps, tape.chunks
    tape.steps, tape.chunks, tape.consumed = [], [], True
    with np.errstate(**_QUIET):
        g, pairs = _unwind(steps, g, squares)
    grads = dict(pairs)

    def run_part(part: list[tuple[slice, Steps]]) -> list[list[tuple[Tensor, np.ndarray]]]:
        with np.errstate(**_QUIET):
            return [_unwind(chunk_steps, g[rows], squares)[1] for rows, chunk_steps in part]

    with np.errstate(**_QUIET):
        # conv's per-example gradients, added in example order from +0.0:
        # the sequential sum over the batch the unchunked conv took
        for chunk_pairs in _map_parts(run_part, chunks):
            for p, pg in chunk_pairs:
                total = grads.setdefault(p, np.zeros(pg.shape[1:]))
                for row in pg:
                    total += row
    for pg in grads.values():
        _require_finite(pg, "parameter gradient")
    return grads


def softmax_cross_entropy(
    logits: np.ndarray, labels: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over the batch and its gradient w.r.t. logits,
    the mean of :func:`cross_entropy_rows`: the gradient is
    (softmax - onehot) / batch_size.  A non-finite loss or gradient raises
    :class:`DivergenceError`.
    """
    losses, grad = cross_entropy_rows(logits, labels)
    with np.errstate(over="ignore"):  # caught by the finite-loss check below
        loss = float(np.mean(losses))
    grad /= len(grad)
    if not math.isfinite(loss):
        raise DivergenceError("non-finite loss")
    return loss, grad


def cross_entropy_rows(
    logits: np.ndarray, labels: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Each example's cross-entropy and its gradient w.r.t. its own logits
    row, softmax - onehot.

    Stabilized by row-max subtraction.  A non-finite loss (finite logits
    whose row spread exceeds the float range) or gradient raises
    :class:`DivergenceError`.
    """
    z = np.asarray(logits, float)
    if z.ndim != 2:
        raise ConfigError(f"logits must be (batch, classes), got {z.shape}")
    labels = np.asarray(labels)
    if labels.shape != (z.shape[0],):
        raise ConfigError("labels must be a vector matching the batch size")
    if labels.min() < 0 or labels.max() >= z.shape[1]:
        raise DataError("label out of range for the logit width")

    with np.errstate(over="ignore"):  # caught by the finite-loss check below
        shifted = z - z.max(axis=1, keepdims=True)
    grad = np.exp(shifted)  # the softmax once divided by its row sums below
    sums = grad.sum(axis=1)
    rows = np.arange(z.shape[0])
    losses = np.log(sums) - shifted[rows, labels]

    grad /= sums[:, None]
    grad[rows, labels] -= 1.0
    _require_finite(grad, "loss gradient")
    if not np.isfinite(losses).all():
        raise DivergenceError("non-finite loss")
    return losses, grad


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
    grads = backward(tape, loss_grad)
    analytic = np.zeros_like(model.flat)
    for view, p in zip(model.views(analytic), model.params):
        view[...] = grads[p]

    def loss_at() -> float:
        out, _ = forward(model, batch, record=False)
        return softmax_cross_entropy(out, labels)[0]

    worst = 0.0
    flat = model.flat
    for i, a in enumerate(analytic):
        orig = flat[i]
        flat[i] = orig + h
        lp = loss_at()
        flat[i] = orig - h
        lm = loss_at()
        flat[i] = orig
        fd = (lp - lm) / (2.0 * h)
        denom = max(abs(a), abs(fd))
        err = abs(a - fd) if denom < 1e-8 else abs(a - fd) / denom
        worst = max(worst, err)
    return worst


# --- checkpoints -------------------------------------------------------------------


def save_params(model: Model, stem: Union[str, Path]) -> None:
    """Write ``model.flat`` as ``<stem>.bin`` (little-endian float64) plus a
    ``<stem>.json`` shape manifest, each atomically."""
    stem = Path(stem)
    reporting.atomic_write_bytes(stem.with_suffix(".bin"), model.flat.astype("<f8").tobytes())
    manifest = {"shapes": [list(s) for s in model.shapes]}
    reporting.atomic_write_text(stem.with_suffix(".json"), json.dumps(manifest, indent=2))


def load_params(model: Model, stem: Union[str, Path]) -> None:
    """Load a checkpoint written by :func:`save_params` into ``model.flat``."""
    stem = Path(stem)
    try:
        manifest = json.loads(stem.with_suffix(".json").read_text())
        shapes = [tuple(s) for s in manifest["shapes"]]
        raw = stem.with_suffix(".bin").read_bytes()
    except (OSError, KeyError, TypeError, ValueError, RecursionError) as exc:
        raise FormatError(f"cannot read checkpoint {stem}: {exc}") from exc
    if shapes != model.shapes:
        raise FormatError("checkpoint shapes do not match the model")
    if len(raw) != 8 * model.flat.size:
        raise FormatError(f"checkpoint blob has {len(raw)} bytes, expected {8 * model.flat.size}")
    blob = np.frombuffer(raw, dtype="<f8")
    if not np.isfinite(blob).all():
        raise FormatError(f"checkpoint {stem} holds non-finite values")
    model.flat[:] = blob
