"""The four optimizers under study (SGD, SGD+Momentum, AdamW, RMSprop)
and the step-decay learning-rate schedule.

Update rules, written out exactly since implementations differ:

    SGD       p <- p - lr * (g + wd * p)
    Momentum  buf <- m * buf + g + wd * p;  p <- p - lr * buf
    AdamW     m <- b1*m + (1-b1)*g;  v <- b2*v + (1-b2)*g^2
              p <- p - lr * (m_hat / (sqrt(v_hat) + eps) + wd * p)
              with bias-corrected m_hat, v_hat (t starts at 1)
    RMSprop   s <- a*s + (1-a)*g^2;  p <- p - lr * (g / (sqrt(s) + eps) + wd * p)

Weight decay is coupled (added to the gradient) for SGD, Momentum and
RMSprop, and decoupled for AdamW, matching mainstream framework defaults.
RMSprop is the plain variant: no momentum, uncentered, eps added outside
the square root.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autograd import Tensor
from .errors import ConfigError, DivergenceError

__all__ = [
    "OPTIMIZER_KINDS",
    "OptimizerConfig",
    "LrSchedule",
    "OptimizerState",
    "step",
    "lr_at_epoch",
]

OPTIMIZER_KINDS = ("sgd", "momentum", "adamw", "rmsprop")


@dataclass(frozen=True)
class OptimizerConfig:
    kind: str
    lr: float
    weight_decay: float = 0.0
    momentum: float = 0.9
    betas: tuple[float, float] = (0.9, 0.999)
    eps: float = 1e-8
    rms_alpha: float = 0.99

    def __post_init__(self) -> None:
        if self.kind not in OPTIMIZER_KINDS:
            raise ConfigError(
                f"optimizer.kind must be one of {OPTIMIZER_KINDS}, got {self.kind!r}"
            )
        if not self.lr > 0:
            raise ConfigError("optimizer.lr must be > 0")
        if self.weight_decay < 0:
            raise ConfigError("optimizer.weight_decay must be >= 0")
        if not 0 <= self.momentum < 1:
            raise ConfigError("optimizer.momentum must be in [0, 1)")
        if not all(0 <= b < 1 for b in self.betas):
            raise ConfigError("optimizer.betas must be in [0, 1)")
        if not self.eps > 0:
            raise ConfigError("optimizer.eps must be > 0")
        if not 0 <= self.rms_alpha < 1:
            raise ConfigError("optimizer.rms_alpha must be in [0, 1)")


@dataclass(frozen=True)
class LrSchedule:
    """Step decay: lr(e) = initial_lr * gamma ** (#milestones <= e)."""

    initial_lr: float
    gamma: float
    milestones: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if not self.initial_lr > 0:
            raise ConfigError("schedule initial_lr must be > 0")
        if not 0 < self.gamma <= 1:
            raise ConfigError("schedule gamma must be in (0, 1]")
        if list(self.milestones) != sorted(set(self.milestones)):
            raise ConfigError("schedule milestones must be strictly increasing")
        if any(m < 0 for m in self.milestones):
            raise ConfigError("schedule milestones must be non-negative")


def lr_at_epoch(schedule: LrSchedule, epoch: int) -> float:
    if epoch < 0:
        raise ConfigError("epoch must be non-negative")
    k = sum(1 for m in schedule.milestones if m <= epoch)
    return schedule.initial_lr * schedule.gamma**k


@dataclass
class OptimizerState:
    """Per-parameter auxiliary buffers, keyed by the parameter, plus the
    AdamW step counter."""

    cfg: OptimizerConfig
    buffers: dict[Tensor, dict[str, np.ndarray]] = field(default_factory=dict)
    t: int = 0

    def _buf(self, p: Tensor, name: str) -> np.ndarray:
        slot = self.buffers.setdefault(p, {})
        if name not in slot:
            slot[name] = np.zeros_like(p.data)
        return slot[name]


def step(
    state: OptimizerState,
    params: list[Tensor],
    grads: dict[Tensor, np.ndarray],
    lr_now: float,
) -> None:
    """Apply one update in place: every new value is computed and checked
    before any is copied into its parameter's array.

    A non-finite gradient (or a non-finite updated parameter) raises
    :class:`DivergenceError` before any parameter is modified, so a
    diverging trial never commits a partial parameter update.
    """
    cfg = state.cfg
    if not all(np.all(np.isfinite(grads[p])) for p in params):
        raise DivergenceError("non-finite gradient in optimizer step")

    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        updates: list[np.ndarray] = []
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
            else:  # rmsprop
                s = state._buf(p, "s")
                s *= cfg.rms_alpha
                s += (1.0 - cfg.rms_alpha) * g * g
                direction = g / (np.sqrt(s) + cfg.eps) + cfg.weight_decay * p.data
            updates.append(p.data - lr_now * direction)

    if not all(np.all(np.isfinite(new)) for new in updates):
        raise DivergenceError("non-finite parameter after optimizer step")
    for p, new in zip(params, updates):
        p.data[...] = new
