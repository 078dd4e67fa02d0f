"""The four optimizers under study (SGD, SGD+Momentum, AdamW, RMSprop)
and the step-decay schedule of ``OptimizerConfig.lr``.

Update rules, written out exactly since implementations differ; :func:`step`
applies one to the whole parameter list at once, with values, gradients and
buffers flat vectors in list order (elementwise, so the same bits).  Between
calls only the kind's buffers are kept; the gradient and value vectors and
one scratch vector are made by each call and freed with it:

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
from typing import Optional

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

#: the flat buffers each kind keeps between steps
_BUFFERS = {"sgd": (), "momentum": ("momentum",), "adamw": ("m", "v"), "rmsprop": ("s",)}
OPTIMIZER_KINDS = tuple(_BUFFERS)


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
    """Step decay of ``OptimizerConfig.lr``: lr(e) = lr * gamma ** (#milestones <= e)."""

    gamma: float
    milestones: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if not 0 < self.gamma <= 1:
            raise ConfigError("schedule gamma must be in (0, 1]")
        if list(self.milestones) != sorted(set(self.milestones)):
            raise ConfigError("schedule milestones must be strictly increasing")
        if any(m < 0 for m in self.milestones):
            raise ConfigError("schedule milestones must be non-negative")


def lr_at_epoch(schedule: LrSchedule, lr: float, epoch: int) -> float:
    if epoch < 0:
        raise ConfigError("epoch must be non-negative")
    k = sum(1 for m in schedule.milestones if m <= epoch)
    return lr * schedule.gamma**k


@dataclass
class OptimizerState:
    """What :func:`step` keeps between calls, all made at its first call:
    the kind's flat buffers over the concatenated ``params`` (``momentum``,
    ``m``, ``v``, ``s``, zero at first; none for SGD) and ``size``, the
    parameters' total size then; plus AdamW's step count."""

    cfg: OptimizerConfig
    buffers: dict[str, np.ndarray] = field(default_factory=dict)
    t: int = 0
    size: Optional[int] = None


def step(
    state: OptimizerState,
    params: list[Tensor],
    grads: dict[Tensor, np.ndarray],
    lr_now: float,
) -> None:
    """Apply one update in place: the new values are computed and checked
    before any is copied into its parameter's array.

    A non-finite gradient (or a non-finite updated parameter) raises
    :class:`DivergenceError` before any parameter is modified, so a
    diverging trial never commits a partial parameter update.  Parameters
    (or gradients) of another total size than at the state's first step
    raise ``ValueError`` before anything is modified.
    """
    cfg = state.cfg
    bufs = state.buffers
    size = sum(p.data.size for p in params)
    if state.size is None:
        state.size = size
        bufs.update((name, np.zeros(size)) for name in _BUFFERS[cfg.kind])
    g = np.concatenate([np.empty(0), *(grads[p] for p in params)], axis=None)
    if size != state.size or g.size != size:
        raise ValueError(
            f"optimizer state made for {state.size} parameter values, "
            f"stepped with {size} and {g.size} gradient values"
        )
    if not np.isfinite(g).all():
        raise DivergenceError("non-finite gradient in optimizer step")
    x = np.concatenate([np.empty(0), *(p.data for p in params)], axis=None)

    # the rules above, op for op, in place on g, x and one scratch vector
    tmp = np.empty_like(x)
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        if cfg.kind == "sgd":
            direction = g
            direction += np.multiply(x, cfg.weight_decay, out=tmp)
        elif cfg.kind == "momentum":
            direction = bufs["momentum"]
            direction *= cfg.momentum
            direction += np.add(g, np.multiply(x, cfg.weight_decay, out=tmp), out=tmp)
        elif cfg.kind == "adamw":
            b1, b2 = cfg.betas
            m, v = bufs["m"], bufs["v"]
            state.t += 1
            m *= b1
            m += np.multiply(g, 1.0 - b1, out=tmp)
            v *= b2
            v += np.multiply(np.multiply(g, 1.0 - b2, out=tmp), g, out=tmp)
            direction = np.divide(m, 1.0 - b1**state.t, out=tmp)  # m_hat
            v_hat = np.divide(v, 1.0 - b2**state.t, out=g)
            direction /= np.add(np.sqrt(v_hat, out=g), cfg.eps, out=g)
            direction += np.multiply(x, cfg.weight_decay, out=g)
        else:  # rmsprop
            s = bufs["s"]
            s *= cfg.rms_alpha
            s += np.multiply(np.multiply(g, 1.0 - cfg.rms_alpha, out=tmp), g, out=tmp)
            direction = g
            direction /= np.add(np.sqrt(s, out=tmp), cfg.eps, out=tmp)
            direction += np.multiply(x, cfg.weight_decay, out=tmp)
        new = x
        new -= np.multiply(direction, lr_now, out=tmp)

    if not np.isfinite(new).all():
        raise DivergenceError("non-finite parameter after optimizer step")
    start = 0
    for p in params:
        p.data[...] = new[start : start + p.data.size].reshape(p.shape)
        start += p.data.size
