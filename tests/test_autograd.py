"""Autograd engine checks: hand-computed chains, finite-difference oracle,
shape validation, determinism, divergence detection, and the chunked
per-example prefix against a frozen copy of the unchunked engine."""

import gc
import hashlib
import json
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import telulab.autograd as autograd
from telulab import kernels
from telulab.autograd import (
    Activation,
    Conv2d,
    Dense,
    Flatten,
    MaxPool2,
    Model,
    backward,
    build_model,
    cross_entropy_rows,
    forward,
    load_params,
    save_params,
    softmax_cross_entropy,
)
from telulab.data import Dataset, DataMeta, channel_statistics
from telulab.errors import ConfigError, DataError, DivergenceError, FormatError
from telulab.kernels import ALL_KINDS, GELU, RELU, TELU, elu

from oracles import finite_difference_check

TANH_E = 0.9913289158005998378
TANH_1 = 0.76159415595576488812


def dense_model(w, b, kind=None):
    w = np.asarray(w, dtype=float)
    layers = [Dense(w.shape[0], w.shape[1])]
    if kind is not None:
        layers.append(Activation(kind))
    model = build_model(layers, seed=0)
    model.flat[:] = np.concatenate([w.ravel(), np.ravel(b)])
    return model


class TestForward:
    def test_identity_weights_relu(self):
        model = dense_model(np.eye(2), [0.0, 0.0], RELU)
        logits, _ = forward(model, np.array([[1.0, -1.0]]))
        np.testing.assert_array_equal(logits, [[1.0, 0.0]])

    def test_telu_zero_input(self):
        model = dense_model(np.eye(2), [0.0, 0.0], TELU)
        logits, _ = forward(model, np.array([[0.0, 0.0]]))
        np.testing.assert_array_equal(logits, [[0.0, 0.0]])

    def test_telu_sum_chain(self):
        model = dense_model([[1.0], [1.0]], [0.0], TELU)
        logits, _ = forward(model, np.array([[1.0, 0.0]]))
        assert logits[0, 0] == pytest.approx(TANH_E, rel=1e-15, abs=0)

    def test_shape_mismatch_rejected(self):
        model = dense_model(np.eye(2), [0.0, 0.0])
        with pytest.raises(ConfigError):
            forward(model, np.ones((1, 3)))

    @pytest.mark.parametrize("kind", [*ALL_KINDS, elu(2.0)], ids=lambda k: k.spec_string())
    def test_zero_row_batch_runs_every_layer(self, kind):
        # the model check before any data is one forward of no examples
        model = build_model(
            [Conv2d(3, 4, 3), Activation(kind), MaxPool2(), Flatten(), Dense(4 * 15 * 15, 10),
             Activation(kind)],
            seed=0,
        )
        logits, _ = forward(model, np.zeros((0, 3, 32, 32)))
        assert logits.shape == (0, 10)

    def test_input_without_batch_dimension_rejected(self):
        model = build_model([Conv2d(1, 1, 1), Flatten(), Dense(1, 2)], seed=0)
        with pytest.raises(ConfigError):
            forward(model, np.float64(1.0))

    def test_nonfinite_input_is_divergence(self):
        model = dense_model(np.eye(2), [0.0, 0.0])
        with pytest.raises(DivergenceError):
            forward(model, np.array([[np.nan, 0.0]]))

    def test_huge_weights_diverge(self):
        model = dense_model(np.full((2, 2), 1e308), [0.0, 0.0])
        with pytest.raises(DivergenceError):
            forward(model, np.full((1, 2), 1e6))


class TestRequireFinite:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("at", [0, 5, 11])
    def test_nonfinite_rejected_anywhere(self, bad, at):
        arr = np.ones((3, 4))
        arr.flat[at] = bad
        with pytest.raises(DivergenceError, match="non-finite value in probe"):
            autograd._require_finite(arr, "probe")

    def test_empty_and_zero_dimensional_accepted(self):
        autograd._require_finite(np.empty((0, 4)), "probe")
        autograd._require_finite(np.array(-2.5), "probe")


class TestBackward:
    def test_telu_chain_rule_at_zero_weight(self):
        # y = telu(w * x), x = 1, w = 0: dy/dw = x * f'(0) = tanh(1)
        model = dense_model([[0.0]], [0.0], TELU)
        logits, tape = forward(model, np.array([[1.0]]), record=True)
        grads = backward(tape, np.ones_like(logits))
        assert grads[model.params[0]][0, 0] == pytest.approx(TANH_1, rel=1e-15, abs=0)

    def test_relu_inactive_region_zero_grad(self):
        model = dense_model([[-1.0]], [0.0], RELU)
        logits, tape = forward(model, np.array([[2.0]]), record=True)
        grads = backward(tape, np.ones_like(logits))
        assert grads[model.params[0]][0, 0] == 0.0

    def test_tape_single_use(self):
        model = dense_model(np.eye(2), [0.0, 0.0])
        logits, tape = forward(model, np.ones((1, 2)), record=True)
        backward(tape, np.ones_like(logits))
        with pytest.raises(RuntimeError):
            backward(tape, np.ones_like(logits))

    def test_loss_grad_shape_checked(self):
        model = dense_model(np.eye(2), [0.0, 0.0])
        _, tape = forward(model, np.ones((1, 2)), record=True)
        with pytest.raises(ConfigError):
            backward(tape, np.ones((2, 2)))


class TestSoftmaxCrossEntropy:
    def test_uniform_two_class(self):
        loss, _ = softmax_cross_entropy(np.array([[0.0, 0.0]]), np.array([0]))
        assert loss == pytest.approx(math.log(2.0), rel=1e-15, abs=0)

    def test_saturated_correct_prediction(self):
        loss, _ = softmax_cross_entropy(np.array([[10.0, -10.0]]), np.array([0]))
        assert loss < 1e-8

    def test_grad_rows_sum_to_zero(self):
        rng = np.random.default_rng(7)
        logits = rng.normal(size=(4, 10))
        _, grad = softmax_cross_entropy(logits, rng.integers(0, 10, size=4))
        np.testing.assert_allclose(grad.sum(axis=1), 0.0, atol=1e-12)

    def test_probabilities_normalized(self):
        rng = np.random.default_rng(8)
        logits = rng.normal(scale=30, size=(16, 5))
        labels = rng.integers(0, 5, size=16)
        _, grad = softmax_cross_entropy(logits, labels)
        # grad + onehot/N recovers softmax/N, whose rows sum to 1/N
        rows = np.arange(16)
        softmax = grad * 16
        softmax[rows, labels] += 1.0
        np.testing.assert_allclose(softmax.sum(axis=1), 1.0, atol=1e-12)

    def test_label_out_of_range(self):
        with pytest.raises(DataError):
            softmax_cross_entropy(np.zeros((1, 3)), np.array([3]))

    def test_overflowing_loss_is_divergence(self):
        # finite logits whose spread exceeds the float range: the gradient
        # stays finite, the loss does not
        with pytest.raises(DivergenceError, match="loss"):
            softmax_cross_entropy(np.array([[1e308, -1e308]]), np.array([1]))

    def test_mean_of_the_per_example_rows(self):
        rng = np.random.default_rng(9)
        logits = rng.normal(scale=5, size=(7, 4))
        labels = rng.integers(0, 4, size=7)
        loss, grad = softmax_cross_entropy(logits, labels)
        losses, rows = cross_entropy_rows(logits, labels)
        assert loss == float(np.mean(losses))
        np.testing.assert_array_equal(grad, rows / 7)
        # each row is its own example's gradient at batch 1
        for i in range(7):
            _, alone = softmax_cross_entropy(logits[i : i + 1], labels[i : i + 1])
            np.testing.assert_array_equal(alone[0], rows[i])

    def test_overflowing_row_loss_is_divergence(self):
        logits = np.array([[0.0, 0.0], [1e308, -1e308]])
        with pytest.raises(DivergenceError, match="loss"):
            cross_entropy_rows(logits, np.array([0, 1]))


class TestSquaredBackward:
    """``backward(..., squares=True)`` sums each example's squared
    gradient; the dense step does so as (x*x).T @ (g*g)."""

    def test_dense_squares_match_per_example_outer_products(self):
        rng = np.random.default_rng(10)
        x, g = rng.normal(size=(5, 3)), rng.normal(size=(5, 2))
        _, step = Dense(3, 2).forward(x, [rng.normal(size=(3, 2)), np.zeros(2)], True, False)
        _, (gw, gb) = step(g, squares=True)
        want_w = sum(np.outer(x[i], g[i]) ** 2 for i in range(5))
        np.testing.assert_allclose(gw, want_w, rtol=1e-13)
        np.testing.assert_allclose(gb, (g**2).sum(axis=0), rtol=1e-13)

    def test_conv_squares_its_per_example_rows(self):
        rng = np.random.default_rng(11)
        x, w = rng.normal(size=(3, 2, 5, 5)), rng.normal(size=(4, 2, 3, 3))
        g = rng.normal(size=(3, 4, 3, 3))
        # a recording conv is given its input's source, not a flag
        _, plain = Conv2d(2, 4, 3).forward(x, [w, np.zeros(4)], lambda: x, False)
        _, squared = Conv2d(2, 4, 3).forward(x, [w, np.zeros(4)], lambda: x, False)
        _, (gw, gb) = plain(g)
        _, (gw2, gb2) = squared(g, squares=True)
        np.testing.assert_array_equal(gw2, gw * gw)
        np.testing.assert_array_equal(gb2, gb * gb)


class TestFiniteDifferenceOracle:
    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.spec_string())
    def test_mlp_gradients_match(self, kind):
        model = build_model(
            [Dense(2, 16), Activation(kind), Dense(16, 2)], seed=3
        )
        rng = np.random.default_rng(11)
        batch = rng.normal(size=(8, 2))
        labels = rng.integers(0, 2, size=8)
        assert finite_difference_check(model, batch, labels, h=1e-6) < 1e-4

    def test_cnn_gradients_match(self):
        model = build_model(
            [
                Conv2d(1, 2, 3),
                Activation(TELU),
                MaxPool2(),
                Flatten(),
                Dense(2 * 3 * 3, 3),
            ],
            seed=5,
        )
        rng = np.random.default_rng(12)
        batch = rng.normal(size=(4, 1, 8, 8))
        labels = rng.integers(0, 3, size=4)
        assert finite_difference_check(model, batch, labels, h=1e-6) < 1e-4

    def test_two_conv_gradients_match(self):
        # the second conv is not the first layer, so its input gradient runs
        # through col2im into the first conv's weight gradient
        model = build_model(
            [
                Conv2d(2, 3, 3),
                Activation(GELU),
                Conv2d(3, 2, 4),
                Activation(TELU),
                MaxPool2(),
                Flatten(),
                Dense(2 * 2 * 2, 3),
            ],
            seed=6,
        )
        rng = np.random.default_rng(13)
        batch = rng.normal(size=(3, 2, 9, 9))
        labels = rng.integers(0, 3, size=3)
        assert finite_difference_check(model, batch, labels, h=1e-6) < 1e-4

    def test_randomized_small_models(self):
        # 20 seeds x random hidden widths, all under 200 parameters
        for seed in range(20):
            rng = np.random.default_rng(1000 + seed)
            hidden = int(rng.integers(4, 16))
            model = build_model(
                [Dense(3, hidden), Activation(TELU), Dense(hidden, 3)], seed=seed
            )
            assert model.flat.size <= 200
            batch = rng.normal(size=(5, 3))
            labels = rng.integers(0, 3, size=5)
            assert finite_difference_check(model, batch, labels, h=1e-6) < 1e-4

    def test_zero_parameter_model(self):
        model = Model((Flatten(),))
        batch = np.zeros((2, 3))
        labels = np.array([0, 1])
        assert finite_difference_check(model, batch, labels) == 0.0


class TestDeterminismAndInit:
    def test_same_seed_same_params(self):
        a = build_model([Dense(4, 8), Activation(TELU), Dense(8, 2)], seed=9)
        b = build_model([Dense(4, 8), Activation(TELU), Dense(8, 2)], seed=9)
        for pa, pb in zip(a.params, b.params):
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_different_seed_different_params(self):
        a = build_model([Dense(4, 8)], seed=0)
        b = build_model([Dense(4, 8)], seed=1)
        assert not np.array_equal(a.params[0].data, b.params[0].data)

    def test_forward_bitwise_reproducible(self):
        model = build_model([Dense(4, 8), Activation(TELU), Dense(8, 2)], seed=9)
        batch = np.linspace(-1, 1, 8).reshape(2, 4)
        out1, _ = forward(model, batch)
        out2, _ = forward(model, batch)
        np.testing.assert_array_equal(out1, out2)

    def test_bias_starts_zero(self):
        model = build_model([Dense(4, 8)], seed=0)
        np.testing.assert_array_equal(model.params[1].data, 0.0)

    @pytest.mark.parametrize(
        "layers, seed, want",
        [
            ("cnn", 0, "027c3a4bf5d5f5e4f9fdf72d1d97cd60b4e66dee09746f2e2334f91d82b10a05"),
            ("cnn", 2026, "15dca08320391a7650edc2be4f6d5ac0e337801ad1a902d3ea285d114d350c66"),
            ("mlp", 0, "c2ad6ae0bf74efc1774e1552ed6fbd6ab69b829a082ee2c2d1df584738c6aeba"),
            ("mlp", 2026, "3a50cf523ca80344cf699d3151ea762d425477c4199f25864b74d36a08f0d5e4"),
        ],
    )
    def test_initial_parameters_keep_their_bits(self, layers, seed, want):
        # the reference CNN and the golden blobs MLP; a change to the draws
        # (their order, stream, fan-in or bound) moves these hashes
        stacks = {
            "cnn": [
                Conv2d(3, 16, 3), Activation(TELU), MaxPool2(),
                Conv2d(16, 32, 4), Activation(TELU), MaxPool2(),
                Flatten(), Dense(1152, 64), Activation(TELU), Dense(64, 10),
            ],
            "mlp": [Dense(16, 24), Activation(TELU), Dense(24, 4)],
        }
        flat = build_model(stacks[layers], seed).flat
        assert hashlib.sha256(flat.tobytes()).hexdigest() == want


class TestConvAgainstDirectSum:
    def test_forward_matches_naive_loops(self):
        rng = np.random.default_rng(21)
        x = rng.normal(size=(2, 3, 5, 5))
        model = build_model([Conv2d(3, 4, 3)], seed=2)
        w, b = model.params[0].data, model.params[1].data
        out, _ = forward(model, x)
        expected = np.zeros((2, 4, 3, 3))
        for n in range(2):
            for o in range(4):
                for p in range(3):
                    for q in range(3):
                        expected[n, o, p, q] = (
                            np.sum(x[n, :, p : p + 3, q : q + 3] * w[o]) + b[o]
                        )
        np.testing.assert_allclose(out, expected, rtol=1e-12)

    def test_maxpool_forward(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        model = Model((MaxPool2(),))
        out, _ = forward(model, x)
        np.testing.assert_array_equal(out, [[[[5.0, 7.0], [13.0, 15.0]]]])

    def test_backward_matches_naive_loops(self):
        rng = np.random.default_rng(22)
        n, c, o, k, hw = 2, 3, 4, 3, 6
        x = rng.normal(size=(n, c, hw, hw))
        w = rng.normal(size=(o, c, k, k))
        g = rng.normal(size=(n, o, hw - k + 1, hw - k + 1))
        _, step = Conv2d(c, o, k).forward(x, [w, np.zeros(o)], lambda: x, True)
        # the step returns per-example parameter gradients
        gx, (gw, gb) = step(g)
        want_gx, want_gw = np.zeros_like(x), np.zeros((n,) + w.shape)
        for i in range(n):
            for p in range(hw - k + 1):
                for q in range(hw - k + 1):
                    for oc in range(o):
                        gval = g[i, oc, p, q]
                        want_gw[i, oc] += gval * x[i, :, p : p + k, q : q + k]
                        want_gx[i, :, p : p + k, q : q + k] += gval * w[oc]
        np.testing.assert_allclose(gw, want_gw, rtol=1e-12)
        np.testing.assert_allclose(gw.sum(axis=0), want_gw.sum(axis=0), rtol=1e-12)
        np.testing.assert_allclose(gx, want_gx, rtol=1e-12)
        np.testing.assert_allclose(gb, g.sum(axis=(2, 3)), rtol=1e-12)
        np.testing.assert_allclose(gb.sum(axis=0), g.sum(axis=(0, 2, 3)), rtol=1e-12)

    def test_first_layer_computes_no_input_gradient(self):
        model = build_model([Conv2d(1, 2, 3), Flatten(), Dense(8, 2)], seed=1)
        out, tape = forward(model, np.ones((1, 1, 4, 4)), record=True)
        # one chunk holds the conv and flatten steps, the suffix the dense one
        [(rows, [(step, params), _])] = tape.chunks
        assert rows == slice(0, autograd.CHUNK) and len(tape.steps) == 1
        assert params == tuple(model.params[:2])
        gx, (gw, _) = step(np.ones((1, 2, 2, 2)))
        assert gx is None and gw.shape == (1, 2, 1, 3, 3)

    def test_maxpool_backward_ties_go_to_first_in_window_order(self):
        # windows, in order (0,0) (0,1) (1,0) (1,1): all tied; the top-right
        # ties the bottom row; the bottom row ties; only the last is largest
        windows = [
            [[2.0, 2.0], [2.0, 2.0]],
            [[1.0, 3.0], [3.0, 3.0]],
            [[1.0, 2.0], [3.0, 3.0]],
            [[0.0, 0.0], [0.0, 1.0]],
        ]
        x = np.block([[np.array(windows[0]), np.array(windows[1])],
                      [np.array(windows[2]), np.array(windows[3])]])
        out, step = MaxPool2().forward(x[None, None], [], True, True)
        np.testing.assert_array_equal(out[0, 0], [[2.0, 3.0], [3.0, 1.0]])
        gx, param_grads = step(np.array([[[[10.0, 20.0], [30.0, 40.0]]]]))
        assert param_grads == ()
        np.testing.assert_array_equal(
            gx[0, 0],
            [
                [10.0, 0.0, 0.0, 20.0],
                [0.0, 0.0, 0.0, 0.0],
                [0.0, 0.0, 0.0, 0.0],
                [30.0, 0.0, 0.0, 40.0],
            ],
        )

    def test_maxpool_backward_bits_match_the_four_mask_rule(self):
        # windows drawn from 3 values tie often; every window's four corners
        # are checked against the rule written out corner by corner
        rng = np.random.default_rng(5)
        x = rng.integers(0, 3, size=(3, 2, 6, 8)).astype(np.float64)
        g = rng.normal(size=(3, 2, 3, 4))
        _, step = MaxPool2().forward(x, [], True, True)
        gx, _ = step(g)
        a, b = x[:, :, 0::2, 0::2], x[:, :, 0::2, 1::2]
        c, d = x[:, :, 1::2, 0::2], x[:, :, 1::2, 1::2]
        in_top = np.maximum(a, b) >= np.maximum(c, d)
        masks = (in_top & (a >= b), in_top & (a < b), ~in_top & (c >= d), ~in_top & (c < d))
        want = np.zeros(x.shape)
        for (di, dj), mask in zip(((0, 0), (0, 1), (1, 0), (1, 1)), masks):
            np.copyto(want[:, :, di::2, dj::2], g, where=mask)
        assert (masks[0] & (a == b)).any() and (~in_top & (c == d)).any()
        np.testing.assert_array_equal(gx.view(np.int64), want.view(np.int64))
        assert not np.signbit(gx[gx == 0.0]).any()

    def test_maxpool_odd_size_rejected(self):
        model = Model((MaxPool2(),))
        with pytest.raises(ConfigError):
            forward(model, np.zeros((1, 1, 3, 4)))


# --- frozen copy of the unchunked engine ---------------------------------------
# Every layer runs on the whole batch and conv sums its parameter gradients
# over the batch itself; the other layers' steps are today's.


def _frozen_conv(layer, x, w, b, record, grad_x):
    k = layer.k
    n, c, h, wd = x.shape
    ho, wo = h - k + 1, wd - k + 1
    cols6 = np.empty((n, c, k, k, ho, wo))
    for i in range(k):
        for j in range(k):
            cols6[:, :, i, j] = x[:, :, i : i + ho, j : j + wo]
    cols = cols6.reshape(n, c * k * k, ho * wo)
    w2 = w.reshape(layer.out_ch, c * k * k)
    y = np.matmul(w2, cols).reshape(n, layer.out_ch, ho, wo)
    y += b[None, :, None, None]
    if not record:
        return y, None

    def step(g):
        g3 = g.reshape(n, layer.out_ch, ho * wo)
        gw = np.matmul(g3, cols.transpose(0, 2, 1)).sum(axis=0)
        gx = None
        if grad_x:
            gcols = np.matmul(w2.T, g3).reshape(n, c, k, k, ho, wo)
            gx = np.zeros((n, c, h, wd))
            for i in range(k):
                for j in range(k):
                    gx[:, :, i : i + ho, j : j + wo] += gcols[:, :, i, j]
        return gx, (gw.reshape(w.shape), g.sum(axis=(0, 2, 3)))

    return y, step


def layer_params(model):
    """Each of ``model``'s layers with its parameter tensors."""
    tensors = iter(model.params)
    return [(layer, tuple(next(tensors) for _ in layer.shapes)) for layer in model.layers]


def frozen_forward(model, batch, record=False):
    x = np.ascontiguousarray(batch, dtype=np.float64)
    steps, grad_x = [], False
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        for layer, params in layer_params(model):
            data = [t.data for t in params]
            if isinstance(layer, Conv2d):
                x, step = _frozen_conv(layer, x, *data, record, grad_x)
            else:
                x, step = layer.forward(x, data, record, grad_x)
            if step is not None:
                steps.append((step, params))
            grad_x = grad_x or bool(params)
    return x, steps


def frozen_backward(steps, g):
    grads = {}
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        while steps:
            step, params = steps.pop()
            g, param_grads = step(g)
            grads.update(zip(params, param_grads))
    return grads


def reference_cnn(kind, seed=0):
    return build_model(
        [
            Conv2d(3, 16, 3),
            Activation(kind),
            MaxPool2(),
            Conv2d(16, 32, 4),
            Activation(kind),
            MaxPool2(),
            Flatten(),
            Dense(1152, 64),
            Activation(kind),
            Dense(64, 10),
        ],
        seed=seed,
    )


def train_step(engine_forward, engine_backward, model, x, labels):
    logits, tape = engine_forward(model, x, record=True)
    _, loss_grad = softmax_cross_entropy(logits, labels)
    return logits, engine_backward(tape, loss_grad)


def assert_same_bits(a, b):
    assert a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_same_step(model, got, want):
    (logits, grads), (want_logits, want_grads) = got, want
    assert_same_bits(logits, want_logits)
    assert list(grads) == list(want_grads)
    for p in model.params:
        assert_same_bits(grads[p], want_grads[p])


def wide_cnn(kind, seed=0):
    """Convs of 64 and 128 output channels, on 10x10 images."""
    return build_model(
        [
            Conv2d(3, 64, 3),
            Activation(kind),
            MaxPool2(),
            Conv2d(64, 128, 3),
            Activation(kind),
            Flatten(),
            Dense(512, 10),
        ],
        seed=seed,
    )


def cifar_batch(n, seed, size=32):
    rng = np.random.default_rng(seed)
    # whole-byte pixels, so ReLU and the pools see exact ties
    x = rng.integers(0, 256, size=(n, 3, size, size)) / 255.0 - 0.5
    return x, rng.integers(0, 10, size=n)


def assert_matches_frozen_engine(kind, n, cnn=reference_cnn, size=32):
    model = cnn(kind, seed=n)
    x, labels = cifar_batch(n, seed=100 + n, size=size)
    got = train_step(forward, backward, model, x, labels)
    want = train_step(frozen_forward, frozen_backward, model, x, labels)
    assert_same_step(model, got, want)
    assert_same_bits(forward(model, x)[0], want[0])


class TestChunkedPrefix:
    C = autograd.CHUNK

    @pytest.mark.parametrize("kind", [TELU, RELU], ids=lambda k: k.spec_string())
    @pytest.mark.parametrize("n", [1, C - 1, C, C + 1, 2 * C + 1, 128])
    def test_matches_unchunked_engine_bit_for_bit(self, kind, n):
        assert_matches_frozen_engine(kind, n)

    @pytest.mark.parametrize("kind", [TELU, RELU], ids=lambda k: k.spec_string())
    @pytest.mark.parametrize("n", [1, C + 1, 2 * C + 1, 128])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_worker_count_moves_no_bits(self, monkeypatch, workers, n, kind):
        monkeypatch.setattr(autograd, "WORKERS", workers)
        # thread switches between nearly every bytecode, so a part that
        # read or wrote another part's rows would show
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            assert_matches_frozen_engine(kind, n)
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("kind", [TELU, RELU], ids=lambda k: k.spec_string())
    @pytest.mark.parametrize("n", [1, 5, 9])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_wide_convs_match_unchunked_engine_bit_for_bit(self, monkeypatch, workers, n, kind):
        # the reference CNN's convs are at most 32 wide; a conv variant that
        # moves bits only from 64 output channels on shows only here
        monkeypatch.setattr(autograd, "WORKERS", workers)
        assert_matches_frozen_engine(kind, n, cnn=wide_cnn, size=10)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_divergence_names_the_earliest_failing_layer(self, monkeypatch, workers):
        monkeypatch.setattr(autograd, "WORKERS", workers)
        model = reference_cnn(TELU)
        conv1_w, _, conv2_w, *_ = model.views(model.flat)
        conv1_w[...], conv2_w[...] = 1.0, 10.0
        # conv1 sums 27 inputs, conv2 256: images of 1e304 overflow conv2
        # (layer 3), images of 1e307 already conv1 (layer 0); with two
        # workers the pool runs chunks 0 and 2 and stops at chunk 0
        x = np.zeros((3 * self.C, 3, 32, 32))
        x[: self.C], x[-self.C :] = 1e304, 1e307
        for record in (False, True):
            with pytest.raises(DivergenceError) as err:
                forward(model, x, record=record)
            assert str(err.value) == "non-finite value in output of layer 3 (Conv2d)"
        with pytest.raises(DivergenceError, match=r"output of layer 0 \(Conv2d\)$"):
            forward(model, x[-self.C :])

    @pytest.mark.parametrize("workers, failing", [(2, (1, 2)), (3, (1, 2)), (3, (2, 3))])
    def test_the_earliest_failing_chunk_wins_on_any_worker(self, monkeypatch, workers, failing):
        # chunk i runs on worker i mod workers, the calling thread the last,
        # so the two failing chunks run on different workers, and the later
        # one fails first, at conv1; the earlier one's conv2 error is raised
        monkeypatch.setattr(autograd, "WORKERS", workers)
        model = reference_cnn(TELU)
        conv1_w, _, conv2_w, *_ = model.views(model.flat)
        conv1_w[...], conv2_w[...] = 1.0, 10.0
        x = np.zeros(((workers + 1) * self.C, 3, 32, 32))
        early, late = (slice(i * self.C, (i + 1) * self.C) for i in failing)
        x[early], x[late] = 1e304, 1e307
        for record in (False, True):
            with pytest.raises(DivergenceError, match=r"output of layer 3 \(Conv2d\)$"):
                forward(model, x, record=record)

    def test_an_interrupted_backward_leaves_no_worker_blocked(self, monkeypatch):
        monkeypatch.setattr(autograd, "WORKERS", 2)
        model = reference_cnn(TELU)
        x, labels = cifar_batch(8 * self.C, seed=12)
        want = train_step(forward, backward, model, x, labels)
        calls, unwind = [], autograd._unwind

        def interrupt(steps, g, squares):
            # the suffix is the calling thread's first call, its chunks the rest
            if threading.current_thread() is threading.main_thread():
                calls.append(len(g))
                if len(calls) == 3:
                    raise KeyboardInterrupt
            return unwind(steps, g, squares)

        monkeypatch.setattr(autograd, "_unwind", interrupt)
        with pytest.raises(KeyboardInterrupt):
            train_step(forward, backward, model, x, labels)
        monkeypatch.setattr(autograd, "_unwind", unwind)
        # every pool thread is free, and the next step gives the same bits
        assert autograd._pool[1].submit(lambda: "free").result(timeout=5) == "free"
        assert_same_step(model, train_step(forward, backward, model, x, labels), want)

    def test_an_interrupt_while_the_pool_starts_leaves_no_thread_behind(self, monkeypatch):
        # the interrupt lands in Thread.start, inside the pool's submit, once
        # the thread runs but before the pool's exit hook records it: that
        # thread must end all the same, or interpreter exit waits on it
        started, start = [], threading.Thread.start

        def start_then_interrupt(thread):
            start(thread)
            started.append(thread)
            raise KeyboardInterrupt

        monkeypatch.setattr(autograd, "WORKERS", 2)
        monkeypatch.setattr(autograd, "_pool", None)
        monkeypatch.setattr(threading.Thread, "start", start_then_interrupt)
        with pytest.raises(KeyboardInterrupt):
            autograd._map_parts(abs, [-1, -2])
        monkeypatch.setattr(threading.Thread, "start", start)
        try:
            started[0].join(timeout=5)
            assert not started[0].is_alive()
        finally:
            if autograd._pool is not None:  # wake a stuck thread, so this run can exit
                autograd._pool[1].shutdown(wait=False)

    @staticmethod
    def backward_peak(model, n, squares):
        """Least traced peak above its entry, in bytes, of three backwards
        of an ``n``-image batch."""
        x, labels = cifar_batch(n, seed=n)
        x = x[:, :, :8, :8]
        peaks = []
        for _ in range(3):
            logits, tape = forward(model, x, record=True)
            g = (cross_entropy_rows if squares else softmax_cross_entropy)(logits, labels)[1]
            tracemalloc.start()
            try:
                entry = tracemalloc.get_traced_memory()[0]
                backward(tape, g, squares=squares)
                peaks.append(tracemalloc.get_traced_memory()[1] - entry)
            finally:
                tracemalloc.stop()
        return min(peaks)

    @staticmethod
    def conv_stack():
        """Conv 3->32->64 on 8x8 images: 155 136 B of conv gradients per
        example, against a 512 B gradient at the prefix's output."""
        return build_model(
            [Conv2d(3, 32, 3), Activation(TELU), MaxPool2(), Conv2d(32, 64, 3), Activation(TELU),
             Flatten(), Dense(64, 10)],
            seed=0,
        )

    @pytest.mark.parametrize("squares", [False, True])
    @pytest.mark.parametrize("workers, bound", [(1, 4_000_000), (2, 10_000_000)])
    def test_b128_backward_holds_no_batch_of_per_example_gradients(
        self, monkeypatch, workers, bound, squares
    ):
        # a batch of the conv gradients is 19.9 MB at b128: adding them only
        # once every chunk was in peaked at 20.3 MB above backward's entry
        monkeypatch.setattr(autograd, "WORKERS", workers)
        peak = self.backward_peak(self.conv_stack(), 128, squares)
        assert peak < bound, f"peak {peak} B"

    @pytest.mark.parametrize("squares", [False, True])
    def test_backward_grows_with_the_batch_only_by_the_suffix_gradient(self, monkeypatch, squares):
        # on one worker, from b32 to b128 backward's peak grows by the
        # gradient at the prefix's output, plus less than one example's conv
        # gradients; it grew by a batch of them, 15.0 MB
        monkeypatch.setattr(autograd, "WORKERS", 1)
        model = self.conv_stack()
        per_example = sum(p.data.nbytes for p in model.params[:4])
        suffix = (128 - 32) * 64 * 8
        growth = self.backward_peak(model, 128, squares) - self.backward_peak(model, 32, squares)
        assert growth < suffix + per_example, f"growth {growth} B"

    @pytest.mark.parametrize("record", [False, True])
    def test_suffix_misfit_is_raised_before_any_chunk_runs(self, monkeypatch, record):
        # the suffix's shapes are checked from the prefix's output shape, so
        # a first Dense that does not fit the tower costs no conv chunk
        rows, conv = [], Conv2d.forward

        def spy(layer, x, *args):
            if len(x):
                rows.append(len(x))
            return conv(layer, x, *args)

        monkeypatch.setattr(Conv2d, "forward", spy)
        model = build_model([Conv2d(3, 4, 3), Activation(TELU), MaxPool2(), Flatten(), Dense(99, 2)], 0)
        with pytest.raises(ConfigError, match=r"^dense layer expects \(batch, 99\), got \(0, 36\)$"):
            forward(model, np.ones((16 * self.C, 3, 8, 8)), record=record)
        assert rows == []

    def test_one_chunk_never_starts_the_pool(self, monkeypatch):
        monkeypatch.setattr(autograd, "WORKERS", 2)
        monkeypatch.setattr(autograd, "_pool", None)
        mlp = build_model([Dense(3, 4), Activation(TELU), Dense(4, 2)], seed=0)
        x, labels = cifar_batch(self.C, seed=8)
        for model, batch in ((mlp, np.ones((300, 3))), (reference_cnn(TELU), x)):
            train_step(forward, backward, model, batch, labels[:1].repeat(len(batch)))
        assert autograd._pool is None

    def test_forked_process_makes_its_own_pool(self, monkeypatch):
        monkeypatch.setattr(autograd, "WORKERS", 2)
        monkeypatch.setattr(autograd, "_pool", None)
        model = reference_cnn(TELU)
        x, _ = cifar_batch(2 * self.C, seed=8)
        forward(model, x)
        first = autograd._pool[1]
        forward(model, x)
        assert autograd._pool[1] is first
        monkeypatch.setattr(autograd.os, "getpid", lambda: -1)
        forward(model, x)
        assert autograd._pool[1] is not first

    def test_b128_tape_holds_no_column_matrices(self):
        # the tape keeps each conv's input, about 27 MB at b128; with the
        # 9-16x larger im2col columns it held 86 MB
        model = reference_cnn(TELU)
        x, _ = cifar_batch(128, seed=10)
        tracemalloc.start()
        try:
            _, tape = forward(model, x, record=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40_000_000, f"peak {peak} B"

    def test_b128_tape_keeps_f_prime_only_at_pool_winners(self):
        # act1's full-size f' alone is 14 745 600 B at b128, and the tape
        # held about 28 MB with it; at the pool winners it is a quarter
        model = reference_cnn(TELU)
        x, _ = cifar_batch(128, seed=10)
        tracemalloc.start()
        try:
            _, tape = forward(model, x, record=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16_000_000, f"peak {peak} B"

    def test_b128_dataset_tape_keeps_no_rebuildable_input(self):
        # conv1 rebuilds its features from the batch rows and conv2 its
        # input from the pool1 winners, so neither keeps a float64 copy:
        # the tape held 13.75 MB with them
        model = reference_cnn(TELU)
        batch = cifar_dataset(128, False, seed=10)
        tracemalloc.start()
        try:
            _, tape = forward(model, batch, record=True)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < 8_000_000, f"held {held} B"

    def test_b512_forward_writes_its_chunks_into_one_array(self):
        # holding every chunk's output and then joining them peaked at
        # 10.1 MB
        model = reference_cnn(TELU)
        x, _ = cifar_batch(512, seed=9)
        tracemalloc.start()
        try:
            forward(model, x, record=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 9_000_000, f"peak {peak} B"

    def test_relu_pool_ties_occur(self):
        # the ReLU case above exercises tied pool windows
        x, _ = cifar_batch(8, seed=101)
        model = reference_cnn(RELU, seed=1)
        h, _ = frozen_forward(build_model(model.layers[:2], seed=1), x)
        a, b = h[:, :, 0::2, 0::2], h[:, :, 0::2, 1::2]
        assert np.count_nonzero(a == b) > 1000

    @pytest.mark.parametrize("chunk", [1, 2, 9, 64])
    def test_chunk_size_moves_no_bits(self, monkeypatch, chunk):
        model = reference_cnn(TELU, seed=3)
        x, labels = cifar_batch(9, seed=7)
        want = train_step(forward, backward, model, x, labels)
        monkeypatch.setattr(autograd, "CHUNK", chunk)
        got = train_step(forward, backward, model, x, labels)
        assert_same_step(model, got, want)
        _, tape = forward(model, x, record=True)
        assert len(tape.chunks) == -(-9 // chunk)

    def test_conv_only_stack_is_all_prefix(self, monkeypatch):
        monkeypatch.setattr(autograd, "CHUNK", 2)
        model = build_model([Conv2d(2, 3, 3), Activation(GELU), MaxPool2()], seed=4)
        x = np.random.default_rng(5).normal(size=(5, 2, 8, 8))
        logits, tape = forward(model, x, record=True)
        assert tape.steps == [] and len(tape.chunks) == 3
        g = np.random.default_rng(6).normal(size=logits.shape)
        want_logits, steps = frozen_forward(model, x, record=True)
        want = (want_logits, frozen_backward(steps, g))
        assert_same_step(model, (logits, backward(tape, g)), want)

    def test_mlp_prefix_is_empty(self):
        model = build_model([Dense(3, 4), Activation(TELU), Dense(4, 2)], seed=0)
        _, tape = forward(model, np.ones((9, 3)), record=True)
        assert tape.chunks == [] and len(tape.steps) == 3

    def test_b512_forward_never_holds_a_batch_of_conv1_output(self):
        # conv1's float64 output at batch 512 is 58 982 400 B; the unchunked
        # engine also built a 100 MB column matrix for it
        model = reference_cnn(TELU)
        x, _ = cifar_batch(512, seed=9)
        tracemalloc.start()
        try:
            forward(model, x, record=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 512 * 16 * 30 * 30 * 8, f"peak {peak} B"


def separate_steps(model, x, g, squares):
    """Each layer's own recorded step on the whole batch, the Activation
    and the MaxPool2 apart; returns the parameter gradients, conv's
    per-example ones added in example order from +0.0 as :func:`backward`
    adds them, and the gradient that reached the first layer's output."""
    steps, grad_x = [], False
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        for layer, params in layer_params(model):
            x, step = layer.forward(x, [t.data for t in params], lambda x=x: x, grad_x)
            if step is not None:
                steps.append((step, params))
            grad_x = grad_x or bool(params)
        grads = {}
        while steps:
            step, params = steps.pop()
            reached = g
            g, param_grads = step(g, squares)
            for t, pg in zip(params, param_grads):
                if pg.shape == t.shape:
                    grads[t] = pg
                else:
                    grads[t] = np.zeros(t.shape)
                    for row in pg:
                        grads[t] += row
    return grads, reached


def window_ties(h):
    """How many 2x2 windows of ``h`` hold their maximum more than once."""
    corners = [h[:, :, i::2, j::2] for i in (0, 1) for j in (0, 1)]
    top = np.maximum(np.maximum(corners[0], corners[1]), np.maximum(corners[2], corners[3]))
    return int(np.count_nonzero(sum((c == top).astype(int) for c in corners) > 1))


class TestPooledActivation:
    """An Activation directly followed by a MaxPool2 records one step that
    keeps f' at the pool winners only."""

    @pytest.mark.parametrize("squares", [False, True], ids=["sums", "squares"])
    @pytest.mark.parametrize("kind", [TELU, RELU], ids=lambda k: k.spec_string())
    def test_parameter_gradients_match_the_separate_steps(self, kind, squares):
        model = build_model(
            [Conv2d(3, 6, 3), Activation(kind), MaxPool2(), Flatten(), Dense(6 * 15 * 15, 10)],
            seed=5,
        )
        x, labels = cifar_batch(2 * autograd.CHUNK + 1, seed=40)
        # flat patches tie every window on them, whatever the kind
        x[1], x[6, :, :12] = 0.25, -0.5
        logits, tape = forward(model, x, record=True)
        # per chunk: conv, the pooled activation and flatten
        assert [len(steps) for _, steps in tape.chunks] == [3, 3, 3]
        if squares:
            g = cross_entropy_rows(logits, labels)[1]
        else:
            g = softmax_cross_entropy(logits, labels)[1]
        got = backward(tape, g, squares=squares)
        want, reached = separate_steps(model, x, g, squares)
        for p in model.params:
            np.testing.assert_array_equal(got[p].view(np.int64), want[p].view(np.int64))
        # the inputs tie windows and, for TeLU, give negative f': the
        # separate steps then leave -0.0 at some losing positions
        z, _ = model.layers[0].forward(x, [t.data for t in model.params[:2]], False, False)
        assert window_ties(kernels.value(kind, z)) > 100
        if kind == TELU:
            assert np.count_nonzero(kernels.derivative(kind, z) < 0.0) > 100
            assert np.signbit(reached[reached == 0.0]).any()

    def test_step_keeps_f_prime_only_at_the_winners(self):
        # the windows of the tie test above, whose winners are (0, 0),
        # (0, 3), (3, 0) and (3, 3); the pre-activations z give TeLU a
        # negative f' in the top half
        windows = [
            [[2.0, 2.0], [2.0, 2.0]],
            [[1.0, 3.0], [3.0, 3.0]],
            [[1.0, 2.0], [3.0, 3.0]],
            [[0.0, 0.0], [0.0, 1.0]],
        ]
        x = np.block([[np.array(windows[0]), np.array(windows[1])],
                      [np.array(windows[2]), np.array(windows[3])]])
        z = np.arange(16.0).reshape(4, 4) - 7.5
        g = np.array([[[[10.0, -0.0], [30.0, -40.0]]]])
        winners = (np.array([0, 0, 3, 3]), np.array([0, 3, 0, 3]))
        d = kernels.derivative(TELU, z[winners])
        assert (d[:2] < 0.0).all() and (d[2:] > 0.0).all()
        want = np.zeros((4, 4))
        # -0.0 + 0.0 is +0.0, and +0.0 times a negative f' is -0.0
        want[winners] = (g.ravel() + 0.0) * d
        assert np.signbit(want[0, 3])
        # f' from its own pass, and from the pass that rebuilt the output
        for rebuilt in (False, True):
            out, plain = MaxPool2().forward(x[None, None], [], True, True)
            step = autograd._PooledStep(plain.shape, plain.corner, TELU, z[None, None])
            np.testing.assert_array_equal(out[0, 0], [[2.0, 3.0], [3.0, 1.0]])
            if rebuilt:
                f = step.output()
                assert_same_bits(f, kernels.value(TELU, z[winners]).reshape(1, 1, 2, 2))
            gx, param_grads = step(g)
            assert param_grads == ()
            np.testing.assert_array_equal(gx[0, 0].view(np.int64), want.view(np.int64))

    def test_signed_zero_winners_give_the_same_gradients(self):
        # TeLU gives -0.0 where exp underflows and +0.0 at +0.0: in windows
        # where the two tie, the first wins, so the rebuilt pool output is
        # -0.0 where np.maximum gave +0.0; that zero's sign only reaches
        # conv2's zero weight-gradient sums, which add from +0.0
        model = build_model(
            [Conv2d(1, 1, 1), Activation(TELU), MaxPool2(), Conv2d(1, 2, 1), Flatten(), Dense(8, 2)],
            seed=3,
        )
        model.flat[:2] = 1.0, 0.0
        x = np.zeros((2, 1, 4, 4))
        x[:, :, 0::2] = -1000.0
        x[1, 0, 2:] = -1.0
        logits, tape = forward(model, x, record=True)
        g = softmax_cross_entropy(logits, np.array([0, 1]))[1]
        got = backward(tape, g)
        want, _ = separate_steps(model, x, g, False)
        for p in model.params:
            np.testing.assert_array_equal(got[p].view(np.int64), want[p].view(np.int64))
        z, _ = model.layers[0].forward(x, [t.data for t in model.params[:2]], False, False)
        pooled, plain = MaxPool2().forward(kernels.value(TELU, z), [], True, True)
        step = autograd._PooledStep(plain.shape, plain.corner, TELU, z)
        zeros = pooled == 0.0
        assert not np.signbit(pooled[zeros]).any() and np.signbit(step.output()[zeros]).any()

    @pytest.mark.parametrize("record", [False, True])
    def test_each_layer_output_is_still_checked_by_name(self, monkeypatch, record):
        seen = []
        check = autograd._require_finite

        def spy(arr, context):
            # the zero-row shape check before any data checks nothing
            if arr.size:
                seen.append(context)
            check(arr, context)

        monkeypatch.setattr(autograd, "_require_finite", spy)
        model = build_model([Conv2d(1, 2, 3), Activation(TELU), MaxPool2(), Flatten(), Dense(8, 2)], 0)
        forward(model, np.ones((1, 1, 6, 6)), record=record)
        assert seen == [
            "input batch",
            "output of layer 0 (Conv2d)",
            "output of layer 1 (Activation)",
            "output of layer 2 (MaxPool2)",
            "output of layer 3 (Flatten)",
            "output of layer 4 (Dense)",
        ]

    def test_non_finite_activation_names_the_activation(self, monkeypatch):
        # a recorded activation that pools computes f alone
        monkeypatch.setattr(autograd.kernels, "value", lambda kind, x: np.full_like(x, np.inf))
        model = build_model([Conv2d(1, 2, 3), Activation(TELU), MaxPool2(), Flatten(), Dense(8, 2)], 0)
        with pytest.raises(DivergenceError, match=r"output of layer 1 \(Activation\)$"):
            forward(model, np.ones((1, 1, 6, 6)), record=True)

    def test_odd_size_after_the_activation_still_rejected(self):
        model = build_model([Conv2d(1, 1, 2), Activation(TELU), MaxPool2()], seed=0)
        with pytest.raises(ConfigError, match="maxpool2 expects"):
            forward(model, np.ones((1, 1, 4, 4)), record=True)


def cifar_dataset(n, standardize, seed):
    """A shuffled batch view of a CIFAR-shaped byte store of ``n + 2``
    images, standardized by its own channel statistics when asked."""
    rng = np.random.default_rng(seed)
    store = rng.integers(0, 256, size=(n + 2, 3, 32, 32), dtype=np.uint8)
    ds = Dataset(store, rng.integers(0, 10, size=n + 2), DataMeta("cifar10", 10, "train"))
    if standardize:
        ds = ds.standardized(*channel_statistics(ds))
    return ds.take(rng.permutation(n + 2)[:n])


class TestDatasetBatch:
    """``forward`` on a dataset batch builds each chunk's features itself."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("standardize", [False, True], ids=["plain", "standardized"])
    @pytest.mark.parametrize("squares", [False, True], ids=["sums", "squares"])
    # TeLU, and GELU, the kind the golden CNN trains
    @pytest.mark.parametrize("kind", [TELU, GELU], ids=lambda k: k.spec_string())
    def test_matches_forward_on_its_images(self, monkeypatch, kind, squares, standardize, workers):
        # a recorded dataset batch rebuilds conv1's features from its rows
        monkeypatch.setattr(autograd, "WORKERS", workers)
        model = reference_cnn(kind, seed=2)
        batch = cifar_dataset(2 * autograd.CHUNK + 3, standardize, seed=3)

        def step(x):
            logits, tape = forward(model, x, record=True)
            if squares:  # the Fisher probe's backward
                g = cross_entropy_rows(logits, batch.labels)[1]
            else:
                g = softmax_cross_entropy(logits, batch.labels)[1]
            return logits, backward(tape, g, squares=squares)

        want = step(batch.images)
        assert_same_step(model, step(batch), want)
        assert_same_bits(forward(model, batch)[0], want[0])

    def test_features_are_built_per_chunk_or_once_without_a_prefix(self, monkeypatch):
        calls = []
        features = Dataset.features

        def counted(ds, rows):
            calls.append(len(rows))
            return features(ds, rows)

        monkeypatch.setattr(Dataset, "features", counted)
        batch = cifar_dataset(2 * autograd.CHUNK + 3, False, seed=4)
        forward(reference_cnn(TELU), batch)
        assert sorted(calls) == [3, autograd.CHUNK, autograd.CHUNK]
        calls.clear()
        rows = np.random.default_rng(5).normal(size=(2 * autograd.CHUNK + 3, 6))
        batch = Dataset(rows, np.zeros(len(rows), dtype=int), DataMeta("blobs", 2, "train"))
        forward(build_model([Dense(6, 4), Activation(TELU), Dense(4, 2)], seed=0), batch, record=True)
        assert calls == [len(batch)]

    def test_recorded_steps_leave_no_reference_cycles(self):
        # a step that reaches itself is freed only by the cyclic collector:
        # a conv step that read its input through an attribute of its own
        # function left it 655 objects here
        model = reference_cnn(TELU)
        batch = cifar_dataset(2 * autograd.CHUNK + 1, False, seed=11)
        forward(model, batch)  # the worker pool starts outside the count
        gc.collect()
        gc.disable()
        try:
            for x in (batch, batch.images):
                for _ in range(3):
                    logits, tape = forward(model, x, record=True)
                    backward(tape, softmax_cross_entropy(logits, batch.labels)[1])
            found = gc.collect()
        finally:
            gc.enable()
        assert found == 0

    @pytest.mark.parametrize("as_array", [False, True], ids=["dataset", "array"])
    @pytest.mark.parametrize("record", [False, True])
    def test_non_finite_feature_names_the_input_batch(self, monkeypatch, record, as_array):
        seen = []
        check = autograd._require_finite

        def spy(arr, context):
            seen.append(context)
            check(arr, context)

        monkeypatch.setattr(autograd, "_require_finite", spy)
        images = np.zeros((3 * autograd.CHUNK, 3, 8, 8))
        images[-1, 0, 0, 0] = np.inf
        batch = Dataset(images, np.zeros(len(images), dtype=int), DataMeta("x", 2, "train"))
        model = build_model([Conv2d(3, 2, 3), Flatten(), Dense(72, 2)], seed=0)
        with pytest.raises(DivergenceError, match="non-finite value in input batch$"):
            forward(model, images if as_array else batch, record=record)
        # either batch is checked per chunk, as each chunk reads its rows
        assert seen.count("input batch") == 3

    @pytest.mark.parametrize("as_array", [False, True], ids=["dataset", "array"])
    def test_misfit_shape_is_raised_before_a_non_finite_input(self, as_array):
        # the shape pass runs before any chunk reads its rows, so a batch
        # both misfit and non-finite raises ConfigError, an array too
        images = np.full((2, 3, 8, 8), np.inf)
        batch = Dataset(images, np.zeros(2, dtype=int), DataMeta("x", 2, "train"))
        model = build_model([Conv2d(2, 2, 3), Flatten(), Dense(72, 2)], seed=0)
        with pytest.raises(ConfigError, match="conv2d expects"):
            forward(model, images if as_array else batch, record=True)


def assert_params_view_flat(model):
    """Every parameter's data is a view of ``model.flat``, in checkpoint
    order: a write to ``flat`` shows in every parameter."""
    for p in model.params:
        assert np.shares_memory(p.data, model.flat)
    saved = model.flat.copy()
    marker = np.arange(model.flat.size, dtype=float)
    model.flat[:] = marker
    seen = np.concatenate([np.empty(0), *(p.data.ravel() for p in model.params)])
    model.flat[:] = saved
    np.testing.assert_array_equal(seen, marker)


class TestFlatParameters:
    def test_params_view_flat_after_build(self):
        model = build_model([Conv2d(2, 3, 2), Flatten(), Dense(12, 4)], seed=0)
        assert [p.shape for p in model.params] == [(3, 2, 2, 2), (3,), (12, 4), (4,)]
        assert model.flat.shape == (24 + 3 + 48 + 4,)
        assert_params_view_flat(model)

    def test_flat_holds_the_initial_values_in_layer_order(self):
        model = build_model([Dense(3, 5), Activation(TELU), Dense(5, 2)], seed=4)
        w1 = model.flat[:15].reshape(3, 5)
        np.testing.assert_array_equal(w1, model.params[0].data)
        np.testing.assert_array_equal(model.flat[15:20], 0.0)  # first bias

    def test_data_cannot_be_rebound(self):
        model = build_model([Dense(2, 2)], seed=0)
        with pytest.raises(AttributeError):
            model.params[0].data = np.zeros((2, 2))
        assert_params_view_flat(model)

    def test_model_starts_zeroed(self):
        model = Model((Conv2d(2, 3, 2), Activation(TELU), Flatten(), Dense(12, 4)))
        assert model.flat.shape == (24 + 3 + 48 + 4,)
        np.testing.assert_array_equal(model.flat, 0.0)
        assert_params_view_flat(model)

    def test_building_holds_its_parameters_once(self):
        # drawing each weight into its own array and concatenating them
        # into flat peaked at 2.0x flat's bytes
        tracemalloc.start()
        try:
            model = build_model([Dense(4, 10**6), Activation(TELU), Dense(10**6, 2)], seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * model.flat.nbytes, f"peak {peak} B for {model.flat.nbytes} B"

    def test_plan_fixes_each_layers_recording(self):
        model = Model((
            Activation(TELU), MaxPool2(), Conv2d(1, 2, 3), Activation(TELU), MaxPool2(),
            Flatten(), Dense(2, 2), Activation(TELU),
        ))
        # each Activation directly before a MaxPool2 is one entry with it,
        # named after the pool; every other entry is its own layer
        assert [(name, type(layer).__name__) for name, layer, *_ in model.plan] == [
            ("layer 1 (MaxPool2)", "_PooledActivation"), ("layer 2 (Conv2d)", "Conv2d"),
            ("layer 4 (MaxPool2)", "_PooledActivation"), ("layer 5 (Flatten)", "Flatten"),
            ("layer 6 (Dense)", "Dense"), ("layer 7 (Activation)", "Activation"),
        ]
        # the pair checks f under the Activation's name
        assert [layer.name for _, layer, *_ in model.plan if hasattr(layer, "name")] == [
            "layer 0 (Activation)", "layer 3 (Activation)",
        ]
        # nothing before the first parameter computes its input gradient
        assert [grad_x for *_, grad_x in model.plan] == [False, False, True, True, True, True]
        assert model.split == 4
        model = Model((
            Conv2d(1, 2, 3), Activation(TELU), MaxPool2(), Conv2d(2, 2, 1), MaxPool2(),
            Conv2d(2, 2, 1), Activation(TELU), Activation(TELU), MaxPool2(), MaxPool2(),
        ))
        # no other pair is fused: a MaxPool2 after a conv, a second
        # Activation before the pair, a second MaxPool2 after it
        assert [name for name, *_ in model.plan] == [
            "layer 0 (Conv2d)", "layer 2 (MaxPool2)", "layer 3 (Conv2d)", "layer 4 (MaxPool2)",
            "layer 5 (Conv2d)", "layer 6 (Activation)", "layer 8 (MaxPool2)", "layer 9 (MaxPool2)",
        ]
        assert [type(layer).__name__ for _, layer, *_ in model.plan] == [
            "Conv2d", "_PooledActivation", "Conv2d", "MaxPool2",
            "Conv2d", "Activation", "_PooledActivation", "MaxPool2",
        ]
        assert model.split == 8

    def test_views_of_another_vector(self):
        model = build_model([Dense(2, 3), Dense(3, 2)], seed=0)
        vec = np.arange(model.flat.size, dtype=float)
        views = model.views(vec)
        assert [v.shape for v in views] == [p.shape for p in model.params]
        assert all(np.shares_memory(v, vec) for v in views)
        np.testing.assert_array_equal(views[2], vec[9:15].reshape(3, 2))
        with pytest.raises(ValueError):
            model.views(vec[1:])

    def test_parameterless_model(self):
        model = Model((Flatten(),))
        assert model.flat.shape == (0,) and model.params == []
        assert model.views(np.empty(0)) == []

    def test_optimizer_step_writes_into_flat(self):
        from telulab.optim import OptimizerConfig, OptimizerState, step

        model = build_model([Dense(3, 2), Activation(TELU), Dense(2, 2)], seed=1)
        before = model.flat.copy()
        grads = {p: np.ones(p.shape) for p in model.params}
        step(OptimizerState(OptimizerConfig("sgd", lr=0.5)), model.params, grads, 0.5)
        np.testing.assert_array_equal(model.flat, before - 0.5)
        assert_params_view_flat(model)


class TestCheckpoints:
    def test_round_trip(self, tmp_path):
        model = build_model([Dense(3, 5), Activation(TELU), Dense(5, 2)], seed=4)
        stem = tmp_path / "ckpt"
        save_params(model, stem)
        clone = build_model([Dense(3, 5), Activation(TELU), Dense(5, 2)], seed=99)
        load_params(clone, stem)
        for pa, pb in zip(model.params, clone.params):
            np.testing.assert_array_equal(pa.data, pb.data)
        assert_params_view_flat(clone)

    def test_blob_is_flat_little_endian(self, tmp_path):
        model = build_model([Conv2d(1, 2, 2), Flatten(), Dense(2, 3)], seed=4)
        save_params(model, tmp_path / "ckpt")
        blob = (tmp_path / "ckpt.bin").read_bytes()
        assert blob == model.flat.astype("<f8").tobytes()
        manifest = json.loads((tmp_path / "ckpt.json").read_text())
        assert manifest == {"shapes": [[2, 1, 2, 2], [2], [2, 3], [3]]}

    def test_parameterless_round_trip(self, tmp_path):
        model = Model((Flatten(),))
        save_params(model, tmp_path / "ckpt")
        assert (tmp_path / "ckpt.bin").read_bytes() == b""
        clone = Model((Flatten(),))
        load_params(clone, tmp_path / "ckpt")
        assert clone.flat.shape == (0,)

    def test_shape_mismatch_rejected(self, tmp_path):
        model = build_model([Dense(3, 5)], seed=4)
        save_params(model, tmp_path / "ckpt")
        other = build_model([Dense(5, 3)], seed=4)
        with pytest.raises(FormatError):
            load_params(other, tmp_path / "ckpt")

    @pytest.mark.parametrize("cut", [8, 3])
    def test_truncated_blob_rejected(self, tmp_path, cut):
        # a cut inside a value leaves a blob numpy cannot decode as float64
        model = build_model([Dense(3, 5)], seed=4)
        stem = tmp_path / "ckpt"
        save_params(model, stem)
        blob = stem.with_suffix(".bin").read_bytes()
        stem.with_suffix(".bin").write_bytes(blob[:-cut])
        with pytest.raises(FormatError):
            load_params(model, stem)

    @pytest.mark.parametrize("manifest", ['{"shapes": 5}', '{"shapes": [5]}', "[]"])
    def test_malformed_manifest_rejected(self, tmp_path, manifest):
        model = build_model([Dense(3, 5)], seed=4)
        stem = tmp_path / "ckpt"
        save_params(model, stem)
        stem.with_suffix(".json").write_text(manifest)
        with pytest.raises(FormatError, match="cannot read checkpoint"):
            load_params(model, stem)

    def test_nonfinite_values_rejected(self, tmp_path):
        model = build_model([Dense(3, 5)], seed=4)
        stem = tmp_path / "ckpt"
        save_params(model, stem)
        blob = np.frombuffer(stem.with_suffix(".bin").read_bytes(), dtype="<f8").copy()
        for bad in (np.nan, np.inf):
            blob[3] = bad
            stem.with_suffix(".bin").write_bytes(blob.tobytes())
            with pytest.raises(FormatError):
                load_params(model, stem)

    def test_failed_save_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        import telulab.reporting as reporting

        model = build_model([Dense(3, 5)], seed=4)
        stem = tmp_path / "ckpt"
        save_params(model, stem)

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(reporting.os, "replace", fail)
        with pytest.raises(OSError):
            save_params(build_model([Dense(3, 5)], seed=5), stem)
        monkeypatch.undo()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt.bin", "ckpt.json"]
        clone = build_model([Dense(3, 5)], seed=99)
        load_params(clone, stem)
        np.testing.assert_array_equal(clone.params[0].data, model.params[0].data)
