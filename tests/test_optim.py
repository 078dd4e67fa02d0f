"""Optimizer unit identities, the flat pass against a frozen per-tensor loop,
and schedule arithmetic."""

import numpy as np
import pytest

from telulab.autograd import Tensor
from telulab.errors import ConfigError, DivergenceError
from telulab.optim import (
    OPTIMIZER_KINDS,
    LrSchedule,
    OptimizerConfig,
    OptimizerState,
    lr_at_epoch,
    step,
)


def one_param(value=1.0):
    return [Tensor(np.array([value]))]


def run_step(cfg, p, g, state=None):
    params = one_param(p)
    state = state or OptimizerState(cfg)
    step(state, params, {params[0]: np.array([g])}, lr_now=cfg.lr)
    return float(params[0].data[0]), state


class TestSgd:
    def test_plain_update(self):
        p, _ = run_step(OptimizerConfig("sgd", lr=0.1), 1.0, 0.5)
        assert p == pytest.approx(0.95, abs=1e-15)

    def test_coupled_weight_decay(self):
        # zero gradient, wd 0.003 at lr 0.1: p <- p * (1 - 0.1 * 0.003)
        p, _ = run_step(OptimizerConfig("sgd", lr=0.1, weight_decay=0.003), 1.0, 0.0)
        assert p == pytest.approx(0.9997, abs=1e-15)

    def test_quadratic_descent_monotone(self):
        cfg = OptimizerConfig("sgd", lr=0.1)
        params = one_param(1.0)
        state = OptimizerState(cfg)
        prev = 1.0
        for _ in range(100):
            g = params[0].data.copy()  # d/dp of p^2/2
            step(state, params, {params[0]: g}, lr_now=cfg.lr)
            cur = abs(float(params[0].data[0]))
            assert cur < prev
            prev = cur
        assert prev < 1e-4


class TestMomentum:
    def test_accumulates_velocity(self):
        cfg = OptimizerConfig("momentum", lr=0.1, momentum=0.9)
        params = one_param(0.0)
        state = OptimizerState(cfg)
        step(state, params, {params[0]: np.array([1.0])}, lr_now=0.1)
        assert float(params[0].data[0]) == pytest.approx(-0.1)
        step(state, params, {params[0]: np.array([1.0])}, lr_now=0.1)
        # buf = 0.9 * 1 + 1 = 1.9; p = -0.1 - 0.19
        assert float(params[0].data[0]) == pytest.approx(-0.29)


class TestAdamw:
    def test_first_step_hand_value(self):
        # bias correction makes m_hat = 1 and sqrt(v_hat) = 1 at t = 1
        cfg = OptimizerConfig("adamw", lr=0.001)
        p, state = run_step(cfg, 0.0, 1.0)
        assert state.t == 1
        assert p == pytest.approx(-0.001, abs=1e-6)
        assert p == pytest.approx(-0.001 / (1.0 + 1e-8), abs=1e-15)

    def test_decoupled_decay_geometric(self):
        cfg = OptimizerConfig("adamw", lr=0.01, weight_decay=0.1)
        params = one_param(1.0)
        state = OptimizerState(cfg)
        expected = 1.0
        for _ in range(5):
            step(state, params, {params[0]: np.array([0.0])}, lr_now=0.01)
            expected *= 1.0 - 0.01 * 0.1
            assert float(params[0].data[0]) == pytest.approx(expected, rel=1e-12, abs=0)

    def test_step_counter_increments_once(self):
        cfg = OptimizerConfig("adamw", lr=0.001)
        params = [Tensor(np.zeros(3)), Tensor(np.zeros(2))]
        state = OptimizerState(cfg)
        grads = {p: np.ones_like(p.data) for p in params}
        step(state, params, grads, lr_now=0.001)
        assert state.t == 1


class TestRmsprop:
    def test_first_step(self):
        # s = 0.01 * g^2 = 0.01; update = g / (0.1 + eps)
        cfg = OptimizerConfig("rmsprop", lr=0.001, rms_alpha=0.99)
        p, _ = run_step(cfg, 0.0, 1.0)
        assert p == pytest.approx(-0.001 / (0.1 + 1e-8), rel=1e-9, abs=0)


class TestSharedBehavior:
    @pytest.mark.parametrize("kind", ["sgd", "momentum", "adamw", "rmsprop"])
    def test_zero_grad_zero_decay_fixpoint(self, kind):
        # warm = buffers allocated (one zero-grad step); with zero momentum
        # history, further zero-grad zero-decay steps are exact fixpoints
        cfg = OptimizerConfig(kind, lr=0.05)
        params = one_param(0.7310585786300049)
        state = OptimizerState(cfg)
        zero = {params[0]: np.array([0.0])}
        step(state, params, zero, lr_now=0.05)
        before = params[0].data.copy()
        for _ in range(3):
            step(state, params, zero, lr_now=0.05)
            np.testing.assert_array_equal(params[0].data, before)

    @pytest.mark.parametrize("kind", ["sgd", "momentum", "adamw", "rmsprop"])
    def test_nonfinite_grad_rejected_without_update(self, kind):
        cfg = OptimizerConfig(kind, lr=0.05)
        params = one_param(1.0)
        state = OptimizerState(cfg)
        with pytest.raises(DivergenceError):
            step(state, params, {params[0]: np.array([np.nan])}, lr_now=0.05)
        assert float(params[0].data[0]) == 1.0

    def test_bad_configs_rejected(self):
        with pytest.raises(ConfigError):
            OptimizerConfig("nesterov", lr=0.1)
        with pytest.raises(ConfigError):
            OptimizerConfig("sgd", lr=0.0)
        with pytest.raises(ConfigError):
            OptimizerConfig("sgd", lr=0.1, weight_decay=-1.0)
        with pytest.raises(ConfigError):
            OptimizerConfig("momentum", lr=0.1, momentum=1.0)


class TestSchedule:
    def test_step_decay_sequence(self):
        sched = LrSchedule(gamma=0.2, milestones=(60, 120, 160))
        assert lr_at_epoch(sched, 0.1, 0) == 0.1
        assert lr_at_epoch(sched, 0.1, 59) == 0.1
        assert lr_at_epoch(sched, 0.1, 60) == pytest.approx(0.02)
        assert lr_at_epoch(sched, 0.1, 120) == pytest.approx(0.004)
        assert lr_at_epoch(sched, 0.1, 200) == pytest.approx(8e-4)

    def test_non_increasing_piecewise_constant(self):
        sched = LrSchedule(gamma=0.5, milestones=(3, 7))
        lrs = [lr_at_epoch(sched, 0.1, e) for e in range(12)]
        assert all(a >= b for a, b in zip(lrs, lrs[1:]))
        assert len(set(lrs)) == len(sched.milestones) + 1

    def test_milestones_must_increase(self):
        with pytest.raises(ConfigError):
            LrSchedule(0.5, milestones=(5, 5))
        with pytest.raises(ConfigError):
            LrSchedule(0.5, milestones=(7, 3))


class FrozenState:
    """The per-parameter buffers :func:`frozen_step` keeps."""

    def __init__(self, cfg):
        self.cfg = cfg
        self.buffers = {}
        self.t = 0

    def _buf(self, p, name):
        slot = self.buffers.setdefault(p, {})
        if name not in slot:
            slot[name] = np.zeros_like(p.data)
        return slot[name]


def frozen_step(state, params, grads, lr_now):
    """The update as a loop over the parameters, one tensor at a time:
    the reference the flat pass must match bit for bit."""
    cfg = state.cfg
    if not all(np.all(np.isfinite(grads[p])) for p in params):
        raise DivergenceError("non-finite gradient in optimizer step")
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        updates = []
        if cfg.kind == "adamw":
            state.t += 1
        for p in params:
            g = grads[p]
            if cfg.kind == "sgd":
                direction = g + cfg.weight_decay * p.data
            elif cfg.kind == "momentum":
                direction = state._buf(p, "momentum")
                direction *= cfg.momentum
                direction += g + cfg.weight_decay * p.data
            elif cfg.kind == "adamw":
                b1, b2 = cfg.betas
                m = state._buf(p, "m")
                v = state._buf(p, "v")
                m *= b1
                m += (1.0 - b1) * g
                v *= b2
                v += (1.0 - b2) * g * g
                m_hat = m / (1.0 - b1**state.t)
                v_hat = v / (1.0 - b2**state.t)
                direction = m_hat / (np.sqrt(v_hat) + cfg.eps) + cfg.weight_decay * p.data
            else:
                s = state._buf(p, "s")
                s *= cfg.rms_alpha
                s += (1.0 - cfg.rms_alpha) * g * g
                direction = g / (np.sqrt(s) + cfg.eps) + cfg.weight_decay * p.data
            updates.append(p.data - lr_now * direction)
    if not all(np.all(np.isfinite(new)) for new in updates):
        raise DivergenceError("non-finite parameter after optimizer step")
    for p, new in zip(params, updates):
        p.data[...] = new


SHAPES = [(16, 3, 3, 3), (16,), (64, 10), (10,)]


def random_params(rng):
    return [Tensor(rng.standard_normal(s)) for s in SHAPES]


def random_grads(rng, params, scale=1.0):
    return {p: scale * rng.standard_normal(p.shape) for p in params}


def snapshot(params):
    return [p.data.copy() for p in params]


def assert_unchanged(params, before):
    for p, b in zip(params, before):
        np.testing.assert_array_equal(p.data.view(np.uint64), b.view(np.uint64))


class TestFlatPass:
    @pytest.mark.parametrize("kind", OPTIMIZER_KINDS)
    def test_matches_the_per_tensor_loop_bit_for_bit(self, kind):
        cfg = OptimizerConfig(kind, lr=0.01, weight_decay=3e-3)
        rng = np.random.default_rng(11)
        flat = random_params(rng)
        loop = [Tensor(p.data.copy()) for p in flat]
        state, frozen = OptimizerState(cfg), FrozenState(cfg)
        for k, lr in enumerate([0.01, 0.01, 0.004, 0.05, 0.0007]):
            grads = random_grads(rng, flat, scale=10.0 ** (k - 2))
            step(state, flat, grads, lr)
            frozen_step(frozen, loop, {q: grads[p] for p, q in zip(flat, loop)}, lr)
            assert_unchanged(flat, snapshot(loop))
        assert state.t == frozen.t

    @pytest.mark.parametrize("kind", OPTIMIZER_KINDS)
    def test_nan_in_the_last_gradient_leaves_every_parameter(self, kind):
        rng = np.random.default_rng(12)
        params = random_params(rng)
        state = OptimizerState(OptimizerConfig(kind, lr=0.01, weight_decay=1e-3))
        step(state, params, random_grads(rng, params), 0.01)
        grads = random_grads(rng, params)
        grads[params[-1]][-1] = np.nan
        before = snapshot(params)
        with pytest.raises(DivergenceError, match="non-finite gradient"):
            step(state, params, grads, 0.01)
        assert_unchanged(params, before)

    @pytest.mark.parametrize("kind", OPTIMIZER_KINDS)
    def test_overflow_in_one_tensor_leaves_every_parameter(self, kind):
        # weight decay 3 at lr 1 takes 1.7e308 to -2 * 1.7e308 = -inf,
        # in the third tensor only; the gradients are all finite
        rng = np.random.default_rng(13)
        params = random_params(rng)
        params[2].data[5, 5] = 1.7e308
        state = OptimizerState(OptimizerConfig(kind, lr=1.0, weight_decay=3.0))
        before = snapshot(params)
        with pytest.raises(DivergenceError, match="non-finite parameter"):
            step(state, params, random_grads(rng, params), 1.0)
        assert_unchanged(params, before)

    @pytest.mark.parametrize("kind", OPTIMIZER_KINDS)
    @pytest.mark.parametrize("sizes", [(3, 1), (1, 3)])
    def test_state_of_another_size_raises(self, kind, sizes):
        first, second = sizes
        state = OptimizerState(OptimizerConfig(kind, lr=0.1))
        params = [Tensor(np.ones(first))]
        step(state, params, {params[0]: np.ones(first)}, 0.1)
        others = [Tensor(np.ones(second))]
        with pytest.raises(ValueError):
            step(state, others, {others[0]: np.ones(second)}, 0.1)
        np.testing.assert_array_equal(others[0].data, np.ones(second))

    @pytest.mark.parametrize("kind", OPTIMIZER_KINDS)
    def test_no_parameters_is_a_no_op(self, kind):
        step(OptimizerState(OptimizerConfig(kind, lr=0.1)), [], {}, 0.1)
