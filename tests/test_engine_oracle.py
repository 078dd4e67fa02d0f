"""Differential oracle for the engine: random layer stacks against a slow
reference, and bit for bit against the engine itself.

The reference runs one example at a time in plain float64 loops, with no
chunks, tape, threads or flat parameter vector: a direct-sum conv, a
per-window max that keeps the first maximum in window order,
``kernels.value``/``derivative`` elementwise, dense layers as sums of
products, and softmax cross-entropy; its backward is the chain rule
written out per layer.  A derandomized Hypothesis strategy draws stacks
that fit their input: conv, activation and max-pool layers in any order
that fits (activation->pool pairs and a conv right after them included),
any kind in ``ALL_KINDS`` or ``elu:2``, then flatten and dense layers, on
batches of 0-13 rows, at input scales up to 30, where TeLU's exponent and
GELU's cubic are clamped.  The logits and every parameter gradient, plain
and ``squares``, must match the reference to :data:`RTOL` of each array's
largest magnitude plus :data:`ATOL` (summation order differs, so the last
bits do).  Across ``WORKERS`` in {1, 2}, ``CHUNK`` in {1, 4}, a dataset
batch against its float64 array, and a recorded against an unrecorded
forward, they must be bitwise equal.
"""

import contextlib
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

import telulab.autograd as autograd
from telulab import kernels
from telulab.autograd import (
    Activation,
    Conv2d,
    Dense,
    Flatten,
    MaxPool2,
    backward,
    build_model,
    cross_entropy_rows,
    forward,
    softmax_cross_entropy,
)
from telulab.data import Dataset, DataMeta
from telulab.kernels import ALL_KINDS, elu

# largest |engine - reference| allowed: RTOL of the reference array's
# largest magnitude, plus ATOL.  Each row of the loss gradient is at most 1
# in each entry, so its rounding is absolute, about 1e-16, and stays so
# where cancellation leaves a whole gradient array tiny.
RTOL, ATOL = 1e-10, 1e-13

WINDOW = ((0, 0), (0, 1), (1, 0), (1, 1))


# --- the reference: one example at a time --------------------------------------


def ref_conv(x, w, b):
    out_ch, _, k, _ = w.shape
    y = np.empty((out_ch, x.shape[1] - k + 1, x.shape[2] - k + 1))
    for o, p, q in np.ndindex(y.shape):
        y[o, p, q] = b[o] + np.sum(w[o] * x[:, p : p + k, q : q + k])
    return y


def ref_conv_back(x, w, g):
    k = w.shape[2]
    gx, gw = np.zeros(x.shape), np.zeros(w.shape)
    for o, p, q in np.ndindex(g.shape):
        gw[o] += g[o, p, q] * x[:, p : p + k, q : q + k]
        gx[:, p : p + k, q : q + k] += g[o, p, q] * w[o]
    return gx, (gw, g.sum(axis=(1, 2)))


def ref_pool(x):
    """The pooled values and each window's winner, the first maximum in
    window order."""
    y = np.empty((x.shape[0], x.shape[1] // 2, x.shape[2] // 2))
    winners = {}
    for c, i, j in np.ndindex(y.shape):
        best = None
        for di, dj in WINDOW:
            at = (c, 2 * i + di, 2 * j + dj)
            if best is None or x[at] > x[best]:
                best = at
        y[c, i, j], winners[c, i, j] = x[best], best
    return y, winners


def ref_forward(layers, params, x):
    """One example through ``layers``; returns the output and, per layer,
    what its backward needs."""
    saved = []
    for layer, p in zip(layers, params):
        if isinstance(layer, Conv2d):
            saved.append(x)
            x = ref_conv(x, *p)
        elif isinstance(layer, Activation):
            saved.append(x)
            x = kernels.value(layer.kind, x)
        elif isinstance(layer, MaxPool2):
            x, winners = ref_pool(x)
            saved.append((x.shape, winners))
        elif isinstance(layer, Flatten):
            saved.append(x.shape)
            x = x.reshape(-1)
        else:
            w, b = p
            saved.append(x)
            x = np.array([b[j] + np.sum(x * w[:, j]) for j in range(w.shape[1])])
    return x, saved


def ref_backward(layers, params, saved, g):
    """The parameter gradients of one example, per layer."""
    grads = [()] * len(layers)
    for i in reversed(range(len(layers))):
        layer, keep = layers[i], saved[i]
        if isinstance(layer, Conv2d):
            g, grads[i] = ref_conv_back(keep, params[i][0], g)
        elif isinstance(layer, Activation):
            g = g * kernels.derivative(layer.kind, keep)
        elif isinstance(layer, MaxPool2):
            shape, winners = keep
            gx = np.zeros((shape[0], 2 * shape[1], 2 * shape[2]))
            for at, winner in winners.items():
                gx[winner] = g[at]
            g = gx
        elif isinstance(layer, Flatten):
            g = g.reshape(keep)
        else:
            w = params[i][0]
            grads[i] = (np.outer(keep, g), g)
            g = np.array([np.sum(w[r] * g) for r in range(w.shape[0])])
    return grads


def reference(layers, params, x, labels):
    """Logits, mean loss, and per parameter the sum over the batch of the
    mean loss's gradients and of the squared per-example gradients."""
    n, logits = len(x), []
    sums = [np.zeros(p.shape) for ps in params for p in ps]
    squares = [np.zeros(p.shape) for ps in params for p in ps]
    losses = []
    for xi, label in zip(x, labels):
        z, saved = ref_forward(layers, params, xi)
        shifted = z - z.max()
        total = np.sum(np.exp(shifted))
        losses.append(np.log(total) - shifted[label])
        g = np.exp(shifted) / total
        g[label] -= 1.0
        grads = [pg for layer_grads in ref_backward(layers, params, saved, g) for pg in layer_grads]
        for s, q, pg in zip(sums, squares, grads):
            s += pg / n
            q += pg * pg
        logits.append(z)
    return np.reshape(logits, (n, layers[-1].out_dim)), (np.mean(losses) if n else None), sums, squares


# --- the engine under test -------------------------------------------------------


@contextlib.contextmanager
def engine(workers, chunk):
    with mock.patch.object(autograd, "WORKERS", workers), mock.patch.object(autograd, "CHUNK", chunk):
        yield


def engine_step(model, batch, labels, classes):
    """Logits, loss, and the plain and squared parameter gradients."""
    logits, tape = forward(model, batch, record=True)
    unrecorded, _ = forward(model, batch)
    assert unrecorded.tobytes() == logits.tobytes()
    if len(labels):
        loss, g = softmax_cross_entropy(logits, labels)
        rows = cross_entropy_rows(logits, labels)[1]
    else:  # no rows, no loss: the gradients are the zero sums
        loss, g, rows = None, np.zeros((0, classes)), np.zeros((0, classes))
    plain = backward(tape, g)
    _, tape = forward(model, batch, record=True)
    squared = backward(tape, rows, squares=True)
    return logits, loss, [plain[p] for p in model.params], [squared[p] for p in model.params]


def assert_close(got, want):
    assert got.shape == want.shape
    scale = np.max(np.abs(want), initial=0.0)
    err = np.max(np.abs(got - want), initial=0.0)
    assert err <= RTOL * scale + ATOL, f"|error| {err:.3g} against largest |value| {scale:.3g}"


def same_bits(a, b):
    return type(a) is type(b) and (
        a.tobytes() == b.tobytes() if isinstance(a, np.ndarray) else a == b
    )


# --- the strategy ------------------------------------------------------------------


@st.composite
def stacks(draw):
    """(layers, example shape, classes): a tower of conv blocks on images,
    or dense layers alone on vectors, then dense layers to the logits.  A
    block is a conv (the first may be left out) and then, as they fit, an
    activation, a max-pool, both, or neither."""
    kinds = st.sampled_from([*ALL_KINDS, elu(2.0)])
    layers = []
    if draw(st.sampled_from([True, True, True, False])):
        # even sizes, which an odd k keeps even, so most pools fit
        c, h, w = draw(st.integers(1, 3)), 2 * draw(st.integers(1, 6)), 2 * draw(st.integers(1, 6))
        example = (c, h, w)
        for block in range(draw(st.integers(1, 3))):
            k = draw(st.sampled_from([1, 3, 3, 2]))
            if k <= min(h, w) and (block or draw(st.sampled_from([True, True, False]))):
                out = draw(st.integers(1, 3))
                layers.append(Conv2d(c, out, k))
                c, h, w = out, h - k + 1, w - k + 1
            after = draw(st.sampled_from(["", "act", "pool", "act+pool", "act+pool"]))
            if after.startswith("act"):
                layers.append(Activation(draw(kinds)))
            if after.endswith("pool") and h % 2 == 0 and w % 2 == 0:
                layers.append(MaxPool2())
                h, w = h // 2, w // 2
        layers.append(Flatten())
        width = c * h * w
    else:
        width = draw(st.integers(1, 6))
        example = (width,)
    for _ in range(draw(st.integers(0, 2))):
        out = draw(st.integers(1, 5))
        layers.append(Dense(width, out))
        width = out
        if draw(st.booleans()):
            layers.append(Activation(draw(kinds)))
    classes = draw(st.integers(2, 4))
    layers.append(Dense(width, classes))
    return layers, example, classes


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(stack=stacks(), n=st.integers(0, 13), seed=st.integers(0, 2**32 - 1),
       scale=st.sampled_from([0.5, 2.0, 8.0, 30.0, 0.0]))
def test_engine_matches_the_reference_and_itself(stack, n, seed, scale):
    layers, example, classes = stack
    rng = np.random.default_rng(seed)
    model = build_model(layers, seed=seed % 1000)
    views = model.views(model.flat)
    for view in views:
        if view.ndim == 1:  # biases start at zero; give them weight
            view[:] = 0.1 * rng.standard_normal(view.shape)
    if scale:
        x = scale * rng.standard_normal((n, *example))
    else:
        # whole numbers into the first parametric layer, which sums them
        # exactly in any order: the windows of a pool after it tie exactly
        x = rng.integers(-2, 3, size=(n, *example)).astype(float)
        for view in views[:2]:
            view[...] = rng.integers(-2, 3, size=view.shape)
    labels = rng.integers(0, classes, size=n)

    runs = []
    for workers in (1, 2):
        for chunk in (1, 4):
            with engine(workers, chunk):
                runs.append(engine_step(model, x, labels, classes))
                if n:
                    store = Dataset(x, labels, DataMeta("oracle", classes, "train"))
                    runs.append(engine_step(model, store.take(np.arange(n)), labels, classes))
    first = runs[0]
    for run in runs[1:]:
        assert same_bits(run[0], first[0]) and same_bits(run[1], first[1])
        for got, want in zip(run[2] + run[3], first[2] + first[3]):
            assert same_bits(got, want)

    tensors = iter(model.params)
    per_layer = [[next(tensors).data for _ in layer.shapes] for layer in layers]
    logits, loss, sums, squares = reference(layers, per_layer, x, labels)
    assert_close(first[0], logits)
    if n:
        assert abs(first[1] - loss) <= RTOL * abs(loss) + ATOL
    for got, want in zip(first[2] + first[3], sums + squares):
        assert_close(got, want)
