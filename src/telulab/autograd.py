"""Minimal float64 engine for a sequential layer stack, with backprop.

Supports exactly what the desk-scale experiments need: dense layers,
valid-padding stride-1 conv2d, 2x2 max pooling, flatten, and pointwise
activations from :mod:`telulab.kernels`, trained with softmax
cross-entropy.  A model is a strict stack, so each layer descriptor owns
its math: ``shapes`` states its parameters' shapes, and
``forward(x, params, record, grad_x)`` returns its output plus, when
recording, a backward step that maps the output gradient to the input
gradient (``None`` unless ``grad_x``) and the parameter gradients.  To
record, ``record`` is the source of ``x``: a callable that returns ``x``
bit for bit.  A step keeps only what its product needs and cannot rebuild:
conv nothing, as it rebuilds ``x`` from its source and the im2col columns
from ``x``; an activation its f' from the fused kernel; max pooling each
window's winner, one byte per window.  A :class:`Model` compiles its
layers once into a plan of entries, where an activation directly followed
by max pooling is one entry.  It computes f alone and records one step,
which keeps the activation's input only at the winners, the one position
in four that gets a gradient: 9 bytes per window instead of 36 (four f'
values and four mask bytes).  From those inputs backward computes f', and
the pool output f as the source of the next entry's input.  Each rebuilt
value comes from the same elementwise code on the same floats as in the
forward, so no bit moves: the one difference, the sign of a pool output's
zero where a -0.0 ties a +0.0 (the first winner against ``np.maximum``),
reaches only conv's zero weight-gradient sums, which :func:`backward` adds
from +0.0.  The model keeps all its parameters in one float64 vector,
``model.flat``, in checkpoint order; each parameter :class:`Tensor` is a
view of it, so checkpoints, probes and finite differences read and write
``flat`` while the layers see their arrays.

:func:`forward` runs the plan's per-example prefix (every entry before the
first :class:`Dense`: conv, activation, pooling, flatten) on chunks of
:data:`CHUNK` images, so a chunk's column matrix, activation temporaries
and pool winners are still in cache when the next layer reads them and no
layer ever holds a whole batch of them.  Each chunk's first source reads
and checks its rows of the input, a float64 array or a
:class:`~telulab.data.Dataset` batch whose features are built then, so no
whole batch of them exists either.  The chunks write their outputs into
one batch array, shaped by :func:`output_shape`, on which the dense layers
and the loss run.  :func:`backward` passes one gradient back through the
suffix's steps, splits it into the same chunks and passes each back
through its prefix steps, dropping each step as it goes, so no cache
outlives its backward.  Nothing reads the input batch's gradient, so
entries before the first parametric one are not recorded and that one
computes no input gradient.

The chunks run on :data:`WORKERS` threads, chunk ``i`` on thread ``i mod
WORKERS`` (the calling thread the last), and their results are joined in
batch order.  No chunk size or worker count moves a bit: every prefix
layer computes each image on its own (features, activations and pooling
are elementwise; conv's im2col, col2im and ``np.matmul`` run one GEMM per
image), and :func:`backward` adds conv's per-example weight and bias
gradients into a zero-filled buffer in example order, the sequential sum
the unchunked conv took.  It adds each chunk's as soon as every earlier
chunk's are in, so each thread holds about one chunk of per-example
gradients, not a batch.  That sum also turns every zero into +0.0, so
the pooled activation's step, which leaves +0.0 at a losing position where
the separate steps left ``(+0.0) * f'`` (-0.0 for a negative f'), gives
the same parameter gradients bit for bit.  If several chunks fail, the
earliest chunk's error is raised, as a sequential loop would.

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
import functools
import json
import math
import os
import threading
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
    "output_shape",
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

# Images per chunk of the per-example prefix (see the module docstring).  On
# a warm reference-CNN fit of cnn_train's archive (1 BLAS thread, 2 workers,
# a 2-vCPU host), 2 took 0.96-1.00 s against 0.69-0.75 s for 4; 8 and 16
# matched 4's time within noise but raised cnn_train's peak RSS from 61.4 MB
# to 67.2 and 72.7 MB.
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


def _map_parts(fn: Callable, items: list) -> list:
    """``fn`` over ``items``, item ``i`` on worker ``i mod k`` of ``k`` (the
    pool the first ``k - 1``, the calling thread the last), the results in
    item order.  Each worker stops at its first error; once all have
    stopped, the lowest-index item's error is raised, as a sequential loop
    would.  No worker waits for another, so none can be left blocked."""
    k = min(WORKERS, len(items))
    if k <= 1:
        return [fn(item) for item in items]
    global _pool
    if _pool is None or _pool[0] != (os.getpid(), WORKERS):
        _pool = ((os.getpid(), WORKERS), concurrent.futures.ThreadPoolExecutor(WORKERS - 1))
    results = [None] * len(items)

    def part(j: int) -> tuple[int, Optional[Exception]]:
        for i in range(j, len(items), k):
            try:
                results[i] = fn(items[i])
            except Exception as exc:
                return i, exc
        return len(items), None

    try:
        futures = [_pool[1].submit(part, j) for j in range(k - 1)]
    except BaseException:
        # an interrupt in submit can start a thread the exit hook never wakes,
        # which exit would wait on for good; shutdown wakes all of them
        _pool[1].shutdown(wait=False)
        _pool = None
        raise
    try:
        stops = [part(k - 1)]
    finally:
        concurrent.futures.wait(futures)
    _, exc = min(stops + [f.result() for f in futures], key=lambda stop: stop[0])
    if exc is not None:
        raise exc
    return results


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
    Its backward step keeps neither ``x``, which it rebuilds with its
    source ``record``, nor the 9-16x larger ``cols``; it returns the weight
    and bias gradients per example (leading batch axis), squared with
    ``squares``, which :func:`backward` sums over the batch.
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
        w2 = w.reshape(self.out_ch, c * k * k)
        y = np.matmul(w2, _im2col(x, k)).reshape(n, self.out_ch, ho, wo)
        y += b[None, :, None, None]
        if not record:
            return y, None

        def step(g, squares=False):
            g3 = g.reshape(n, self.out_ch, ho * wo)
            gw = np.matmul(g3, _im2col(record(), k).transpose(0, 2, 1))
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


def _im2col(x: np.ndarray, k: int) -> np.ndarray:
    """The (n, c*k*k, ho*wo) column matrix of ``x``'s k x k windows: a
    read-only strided view of them, which the reshape copies (unless k == 1)."""
    n, c, h, w = x.shape
    ho, wo = h - k + 1, w - k + 1
    sn, sc, sh, sw = x.strides
    windows = as_strided(x, (n, c, k, k, ho, wo), (sn, sc, sh, sw, sh, sw), writeable=False)
    return windows.reshape(n, c * k * k, ho * wo)


@functools.lru_cache(maxsize=16)
def _window_starts(shape: tuple[int, ...]) -> np.ndarray:
    """Flat index into an (n, c, h, w) array of each 2x2 window's top-left
    corner; read-only, as it is shared by every step of that shape."""
    n, c, h, w = shape
    starts = (np.arange(n * c * (h // 2)) * (2 * w)).reshape(n, c, h // 2, 1) + np.arange(0, w, 2)
    starts.flags.writeable = False
    return starts


def _window_positions(shape: tuple[int, ...], corner: np.ndarray) -> np.ndarray:
    """Flat index into an (n, c, h, w) array of one corner of each 2x2
    window, numbered 0-3 in window order (2 * row + column)."""
    w = shape[3]
    return _window_starts(shape) + np.array([0, 1, w, w + 1]).take(corner)


class _PoolStep:
    """The backward step of a :class:`MaxPool2`: it keeps each window's
    winner as one corner number and returns the gradient there, +0.0
    everywhere else."""

    def __init__(self, shape, corner):
        self.shape, self.corner = shape, corner

    def __call__(self, g, squares=False):
        gx = np.zeros(self.shape)
        # adding +0.0 makes a -0.0 gradient +0.0, the zero every loser holds
        gx.reshape(-1)[_window_positions(self.shape, self.corner)] = self.at_winners(g + 0.0)
        return gx, ()

    def at_winners(self, g):
        return g


class _PooledStep(_PoolStep):
    """A pool step that stands for the step of the activation before the
    pool too: it keeps the activation's input ``z`` at the winners only,
    and returns ``(g + 0.0) * f'(z)`` there."""

    def __init__(self, shape, corner, kind, z):
        super().__init__(shape, corner)
        self.kind, self.z = kind, z.reshape(-1)[_window_positions(shape, corner)]
        self.d = None  # f'(z), when output() computed it

    def output(self) -> np.ndarray:
        """The pool output f(z), rebuilt; the same fused pass keeps f'(z)."""
        f, self.d = kernels.value_and_derivative(self.kind, self.z)
        return f

    def at_winners(self, g):
        g *= kernels.derivative(self.kind, self.z) if self.d is None else self.d
        return g


@dataclass(frozen=True)
class MaxPool2(_Parameterless):
    """2x2 max pooling, stride 2.  Its step (see :class:`_PoolStep`) keeps
    each window's winner, the first maximum in window order."""

    def forward(self, x, params, record, grad_x):
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
        return y, _PoolStep(x.shape, corner)


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


@dataclass(frozen=True)
class _PooledActivation(_Parameterless):
    """An :class:`Activation` directly followed by a :class:`MaxPool2`, one
    plan entry: f alone, checked under the activation's entry ``name``."""

    kind: ActivationKind
    name: str

    def forward(self, x, params, record, grad_x):
        f = kernels.value(self.kind, x)
        _require_finite(f, f"output of {self.name}")
        y, step = MaxPool2().forward(f, params, record, grad_x)
        return y, step and _PooledStep(step.shape, step.corner, self.kind, x)


LayerSpec = Union[Dense, Conv2d, MaxPool2, Flatten, Activation]
# (name, layer, parameters, whether the entry computes its input gradient)
Plan = list[tuple[str, LayerSpec, tuple[Tensor, ...], bool]]


class Model:
    """An ordered stack of layers plus one parameter vector.

    ``flat`` is every parameter in layer order, each layer's ``shapes``
    ((weight, bias) for the parametric layers, none for the others), each
    C-ordered: the checkpoint layout, with ``shapes`` its manifest.  It
    starts zeroed; layer sizes past memory raise :class:`ConfigError`.
    ``params`` holds one :class:`Tensor` per parameter whose data is a
    reshaped view of ``flat``, so a write to either is a write to both.
    ``plan`` holds (name, layer, parameters, grad_x) per layer, but one
    :class:`_PooledActivation`, named after the pool, per :class:`Activation`
    directly followed by a :class:`MaxPool2` (see :func:`_run`).  ``split``
    is the first :class:`Dense`'s index in ``plan``.
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
        # nothing reads the input batch's gradient, so entries before the
        # first parameter are not recorded and the first with one skips its gx
        self.plan, grad_x = [], False
        for i, layer in enumerate(layers):
            name = f"layer {i} ({type(layer).__name__})"
            if isinstance(layer, MaxPool2) and self.plan and isinstance(self.plan[-1][1], Activation):
                act_name, act, *_ = self.plan.pop()
                layer = _PooledActivation(act.kind, act_name)
            params = tuple(next(tensors) for _ in layer.shapes)
            self.plan.append((name, layer, params, grad_x))
            grad_x = grad_x or bool(params)
        self.split = next((j for j, e in enumerate(self.plan) if isinstance(e[1], Dense)), len(self.plan))

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
    tensors = iter(model.params)
    for i, layer in enumerate(model.layers):
        if layer.shapes:
            w, b = (next(tensors).data for _ in layer.shapes)
            bound = np.sqrt(6.0 / (w.size // b.size))
            generator(seed, TAG_INIT, i).random(out=w)
            w *= 2 * bound
            w -= bound
    return model


# --- model-level operations -----------------------------------------------------


def _require_finite(arr: np.ndarray, context: str) -> None:
    if not np.isfinite(arr).all():
        raise DivergenceError(f"non-finite value in {context}")


def output_shape(layers, example: tuple[int, ...]) -> tuple[int, ...]:
    """The output shape per example of ``layers`` on ``example``-shaped
    inputs: each layer's forward of zero examples on zero-stride parameters
    runs its shape check, raising :class:`ConfigError`, and no arithmetic."""
    x = np.zeros((0, *example))
    for layer in layers:
        x, _ = layer.forward(x, [np.broadcast_to(0.0, s) for s in layer.shapes], False, False)
    return x.shape[1:]


def _run(plan: Plan, source: Callable[[], np.ndarray], record: bool) -> tuple[np.ndarray, Steps]:
    """Run ``plan``, a slice of :attr:`Model.plan`, on ``source()``; return
    the output and the recorded steps.  When recording, each entry gets as
    ``record`` the source of its input: ``source`` for the first, the
    step's ``output`` after a :class:`_PooledActivation`, else the array."""
    x, steps = source(), []
    for name, layer, params, grad_x in plan:
        x, step = layer.forward(x, [t.data for t in params], record and source, grad_x)
        source = getattr(step, "output", None) or (lambda y=x: y)
        if step is not None:
            steps.append((step, params))
        _require_finite(x, f"output of {name}")
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
    :data:`CHUNK` images spread over :data:`WORKERS` threads, each chunk on
    its own rows of ``batch``, read when it runs, the rest on the batch
    array the chunks write their outputs into.  Shape mismatches
    raise :class:`ConfigError` before any arithmetic; any non-finite input
    or output raises :class:`DivergenceError` naming the input batch or the
    layer.
    """
    if isinstance(batch, Dataset):
        n, example = len(batch), batch.store.shape[1:]
        read = lambda rows: batch.features(batch.rows[rows])  # noqa: E731
    else:
        x = np.ascontiguousarray(batch, dtype=np.float64)
        if x.ndim == 0:
            raise ConfigError("the input needs a batch dimension")
        n, example, read = len(x), x.shape[1:], x.__getitem__

    def source(rows: slice) -> np.ndarray:
        chunk = read(rows)
        _require_finite(chunk, "input batch")
        return chunk

    # every shape is checked before any arithmetic; the prefix's output
    # shape sizes the array that each chunk writes its output into
    prefix, suffix = model.plan[: model.split], model.plan[model.split :]
    shape = output_shape([layer for _, layer, *_ in prefix], example)
    if prefix:
        output_shape([layer for _, layer, *_ in suffix], shape)
    joined = np.empty((n, *shape))
    # an empty prefix (an MLP) is one chunk
    size = CHUNK if prefix else max(n, 1)

    def run_chunk(rows: slice) -> tuple[slice, Steps]:
        with np.errstate(**_QUIET):
            joined[rows], steps = _run(prefix, functools.partial(source, rows), record)
        return rows, steps

    ran = _map_parts(run_chunk, [slice(s, s + size) for s in range(0, max(n, 1), size)])
    chunks = [(rows, steps) for rows, steps in ran if steps]
    with np.errstate(**_QUIET):
        y, steps = _run(suffix, lambda: joined, record)
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

    # conv's per-example gradients, added in example order from +0.0: the
    # sequential sum over the batch the unchunked conv took.  A chunk waits
    # in ``ready`` until every earlier one is added; the thread that
    # finishes the next chunk adds it and the ready ones after it.
    ready, lock, turn = {}, threading.Lock(), 0

    def run_chunk(job: tuple[int, tuple[slice, Steps]]) -> None:
        nonlocal turn
        i, (rows, chunk_steps) = job
        with np.errstate(**_QUIET):
            pairs = _unwind(chunk_steps, g[rows], squares)[1]
            with lock:
                ready[i] = pairs
                while turn in ready:
                    for p, pg in ready.pop(turn):
                        total = grads.setdefault(p, np.zeros(pg.shape[1:]))
                        for row in pg:
                            total += row
                    turn += 1

    _map_parts(run_chunk, list(enumerate(chunks)))
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
