"""Autograd engine checks: hand-computed chains, finite-difference oracle,
shape validation, determinism, divergence detection."""

import math

import numpy as np
import pytest

from telulab.autograd import (
    Activation,
    Conv2d,
    Dense,
    Flatten,
    MaxPool2,
    Model,
    backward,
    build_model,
    finite_difference_check,
    forward,
    load_params,
    save_params,
    softmax_cross_entropy,
)
from telulab.errors import ConfigError, DataError, DivergenceError, FormatError
from telulab.kernels import ALL_KINDS, GELU, RELU, TELU

TANH_E = 0.9913289158005998378
TANH_1 = 0.76159415595576488812


def dense_model(w, b, kind=None):
    w = np.asarray(w, dtype=float)
    layers = [Dense(w.shape[0], w.shape[1])]
    if kind is not None:
        layers.append(Activation(kind))
    model = build_model(layers, seed=0)
    model.set_param_values([w, np.asarray(b, dtype=float)])
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
        assert logits[0, 0] == pytest.approx(TANH_E, rel=1e-15)

    def test_shape_mismatch_rejected(self):
        model = dense_model(np.eye(2), [0.0, 0.0])
        with pytest.raises(ConfigError):
            forward(model, np.ones((1, 3)))

    def test_nonfinite_input_is_divergence(self):
        model = dense_model(np.eye(2), [0.0, 0.0])
        with pytest.raises(DivergenceError):
            forward(model, np.array([[np.nan, 0.0]]))

    def test_huge_weights_diverge(self):
        model = dense_model(np.full((2, 2), 1e308), [0.0, 0.0])
        with pytest.raises(DivergenceError):
            forward(model, np.full((1, 2), 1e6))


class TestBackward:
    def test_telu_chain_rule_at_zero_weight(self):
        # y = telu(w * x), x = 1, w = 0: dy/dw = x * f'(0) = tanh(1)
        model = dense_model([[0.0]], [0.0], TELU)
        logits, tape = forward(model, np.array([[1.0]]), record=True)
        grads = backward(tape, np.ones_like(logits))
        assert grads[model.params[0]][0, 0] == pytest.approx(TANH_1, rel=1e-15)

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
        assert loss == pytest.approx(math.log(2.0), rel=1e-15)

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
            assert model.param_count() <= 200
            batch = rng.normal(size=(5, 3))
            labels = rng.integers(0, 3, size=5)
            assert finite_difference_check(model, batch, labels, h=1e-6) < 1e-4

    def test_zero_parameter_model(self):
        model = Model((Flatten(),), [])
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
        model = Model((MaxPool2(),), [])
        out, _ = forward(model, x)
        np.testing.assert_array_equal(out, [[[[5.0, 7.0], [13.0, 15.0]]]])

    def test_backward_matches_naive_loops(self):
        rng = np.random.default_rng(22)
        n, c, o, k, hw = 2, 3, 4, 3, 6
        x = rng.normal(size=(n, c, hw, hw))
        w = rng.normal(size=(o, c, k, k))
        g = rng.normal(size=(n, o, hw - k + 1, hw - k + 1))
        _, step = Conv2d(c, o, k).forward(x, [w, np.zeros(o)], True, True)
        gx, (gw, gb) = step(g)
        want_gx, want_gw = np.zeros_like(x), np.zeros_like(w)
        for i in range(n):
            for p in range(hw - k + 1):
                for q in range(hw - k + 1):
                    for oc in range(o):
                        gval = g[i, oc, p, q]
                        want_gw[oc] += gval * x[i, :, p : p + k, q : q + k]
                        want_gx[i, :, p : p + k, q : q + k] += gval * w[oc]
        np.testing.assert_allclose(gw, want_gw, rtol=1e-12)
        np.testing.assert_allclose(gx, want_gx, rtol=1e-12)
        np.testing.assert_allclose(gb, g.sum(axis=(0, 2, 3)), rtol=1e-12)

    def test_first_layer_computes_no_input_gradient(self):
        model = build_model([Conv2d(1, 2, 3), Flatten(), Dense(8, 2)], seed=1)
        out, tape = forward(model, np.ones((1, 1, 4, 4)), record=True)
        (step, params), _, _ = tape.steps
        assert params == tuple(model.params[:2])
        gx, (gw, _) = step(np.ones((1, 2, 2, 2)))
        assert gx is None and gw.shape == (2, 1, 3, 3)

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

    def test_maxpool_odd_size_rejected(self):
        model = Model((MaxPool2(),), [])
        with pytest.raises(ConfigError):
            forward(model, np.zeros((1, 1, 3, 4)))


class TestCheckpoints:
    def test_round_trip(self, tmp_path):
        model = build_model([Dense(3, 5), Activation(TELU), Dense(5, 2)], seed=4)
        stem = tmp_path / "ckpt"
        save_params(model, stem)
        clone = build_model([Dense(3, 5), Activation(TELU), Dense(5, 2)], seed=99)
        load_params(clone, stem)
        for pa, pb in zip(model.params, clone.params):
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_shape_mismatch_rejected(self, tmp_path):
        model = build_model([Dense(3, 5)], seed=4)
        save_params(model, tmp_path / "ckpt")
        other = build_model([Dense(5, 3)], seed=4)
        with pytest.raises(FormatError):
            load_params(other, tmp_path / "ckpt")

    def test_truncated_blob_rejected(self, tmp_path):
        model = build_model([Dense(3, 5)], seed=4)
        stem = tmp_path / "ckpt"
        save_params(model, stem)
        blob = stem.with_suffix(".bin").read_bytes()
        stem.with_suffix(".bin").write_bytes(blob[:-8])
        with pytest.raises(FormatError):
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
