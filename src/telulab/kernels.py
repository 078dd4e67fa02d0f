"""Closed-form activation kernels: f, f' and f'' for eight scalar activations.

This module is the single source of truth for activation values and
derivatives; everything else (property scans, autograd, the CLI kernel
tables) calls into it.  All arithmetic is 64-bit float.  Functions accept
a scalar or an ndarray and return the matching type.

Formula sources: TeLU is x*tanh(exp(x)); GELU uses the cubic tanh
approximation (0.044715 x^3 term), not the exact erf form; Logish and
Smish follow their original definitions, Logish(x) = x*ln(1 + sigmoid(x))
and Smish(x) = x*tanh(ln(1 + sigmoid(x))).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, UnsupportedOperationError

__all__ = [
    "ActivationKind",
    "ScalarEval",
    "TELU",
    "RELU",
    "GELU",
    "SILU",
    "MISH",
    "LOGISH",
    "SMISH",
    "elu",
    "ALL_KINDS",
    "parse_kind",
    "value",
    "derivative",
    "value_and_derivative",
    "second_derivative",
    "scalar_eval",
    "derivative_kinks",
    "second_derivative_kinks",
    "has_second_derivative",
    "is_smooth",
]

_TAGS = ("telu", "relu", "gelu", "silu", "mish", "logish", "smish", "elu")

_DISPLAY = {
    "telu": "TeLU",
    "relu": "ReLU",
    "gelu": "GELU",
    "silu": "SiLU",
    "mish": "Mish",
    "logish": "Logish",
    "smish": "Smish",
    "elu": "ELU",
}

# exp(x) saturates tanh to exactly 1.0 in float64 well before x = 20, so
# clamping the exponent there keeps every evaluation overflow-free while
# agreeing with the direct formula to the last bit.
_TELU_HI = 20.0

_GELU_C = float(np.sqrt(2.0 / np.pi))
_GELU_A = 0.044715
# tanh(t) is exactly +-1 in float64 once |x| >= 10, so t and t' are taken at
# x clamped there: no result changes, and x**3 cannot overflow
_GELU_SAT = 10.0


@dataclass(frozen=True)
class ActivationKind:
    """Tagged activation identifier; ``alpha`` is meaningful for ELU only."""

    tag: str
    alpha: float = 1.0

    def __post_init__(self) -> None:
        if self.tag not in _TAGS:
            raise DomainError(
                f"unknown activation {self.tag!r}; expected one of {', '.join(_TAGS)}"
            )
        if self.tag == "elu" and not self.alpha > 0:
            raise DomainError(f"elu alpha must be > 0, got {self.alpha}")

    @property
    def display_name(self) -> str:
        if self.tag == "elu" and self.alpha != 1.0:
            return f"ELU(alpha={self.alpha:g})"
        return _DISPLAY[self.tag]

    def spec_string(self) -> str:
        """Round-trippable form accepted by :func:`parse_kind`."""
        if self.tag == "elu" and self.alpha != 1.0:
            return f"elu:{self.alpha:g}"
        return self.tag


TELU = ActivationKind("telu")
RELU = ActivationKind("relu")
GELU = ActivationKind("gelu")
SILU = ActivationKind("silu")
MISH = ActivationKind("mish")
LOGISH = ActivationKind("logish")
SMISH = ActivationKind("smish")


def elu(alpha: float = 1.0) -> ActivationKind:
    return ActivationKind("elu", alpha=float(alpha))


ALL_KINDS = (TELU, RELU, GELU, SILU, MISH, LOGISH, SMISH, elu())


def parse_kind(text: str) -> ActivationKind:
    """Parse ``"telu"``, ``"relu"``, ... or ``"elu:2.0"`` into a kind."""
    name, _, arg = text.strip().lower().partition(":")
    if name == "elu" and arg:
        try:
            return elu(float(arg))
        except ValueError as exc:
            raise DomainError(f"bad elu alpha {arg!r}") from exc
    if arg:
        raise DomainError(f"activation {name!r} takes no parameter")
    return ActivationKind(name)


@dataclass(frozen=True)
class ScalarEval:
    """One activation evaluated at one point: value plus both derivatives.

    ``nonsmooth`` is set when x sits on a kink of f' (ReLU at 0, ELU at 0
    for alpha != 1); the ``first`` field then carries the subgradient
    convention value rather than a true derivative.
    """

    x: float
    value: float
    first: float
    second: float
    nonsmooth: bool = False


# --- stable scalar building blocks (array-native) --------------------------


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def _softplus(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def _masked(x: np.ndarray, mask: np.ndarray) -> np.ndarray:
    # zero out the entries we will not use so np.exp never overflows there
    return np.where(mask, x, 0.0)


# --- per-kind closed forms --------------------------------------------------


def _telu_value(x):
    # x*tanh(exp(min(x, 20))) in one buffer; tanh(exp(20)) is exactly 1.0
    th = np.minimum(x, _TELU_HI, out=np.empty_like(x))
    np.exp(th, out=th)
    np.tanh(th, out=th)
    return np.multiply(x, th, out=th)


def _telu_value_d1(x):
    m = np.minimum(x, _TELU_HI, out=np.empty_like(x))
    u = np.exp(m, out=np.empty_like(x))
    th = np.tanh(u, out=np.empty_like(x))
    # f' = th + m*u*(1 - th*th); at x >= 20 th is exactly 1.0, the product
    # vanishes and f' is 1.0 with no branch
    d = np.multiply(m, u, out=m)
    np.multiply(th, th, out=u)
    np.subtract(1.0, u, out=u)
    d *= u
    d += th
    return np.multiply(x, th, out=th), d


def _telu_d1(x):
    return _telu_value_d1(x)[1]


def _telu_d2(x):
    mid = x < _TELU_HI
    xm = _masked(x, mid)
    u = np.exp(xm)
    th = np.tanh(u)
    sech2 = 1.0 - th * th
    return np.where(mid, u * sech2 * (2.0 + xm - 2.0 * xm * u * th), 0.0)


def _relu_value(x):
    return np.maximum(x, 0.0)


def _relu_d1(x):
    # x == 0 deliberately falls in the zero branch: subgradient convention
    return np.where(x > 0.0, 1.0, 0.0)


def _gelu_clamp(x):
    return np.clip(x, -_GELU_SAT, _GELU_SAT, out=np.empty_like(x))


def _gelu_t(xc):
    return _GELU_C * (xc + _GELU_A * xc**3)


def _gelu_value(x):
    return 0.5 * x * (1.0 + np.tanh(_gelu_t(_gelu_clamp(x))))


def _gelu_d1(x):
    xc = _gelu_clamp(x)
    t = _gelu_t(xc)
    tp = _GELU_C * (1.0 + 3.0 * _GELU_A * xc * xc)
    th = np.tanh(t)
    return 0.5 * (1.0 + th) + 0.5 * x * (1.0 - th * th) * tp


def _gelu_d2(x):
    # beyond the clamp the leading (1 - th*th) is exactly 0 and the other
    # factor stays negative, so every term may use the clamped x
    x = _gelu_clamp(x)
    t = _gelu_t(x)
    tp = _GELU_C * (1.0 + 3.0 * _GELU_A * x * x)
    tpp = 6.0 * _GELU_C * _GELU_A * x
    th = np.tanh(t)
    return (1.0 - th * th) * (tp + 0.5 * x * (tpp - 2.0 * th * tp * tp))


def _silu_value(x):
    return x * _sigmoid(x)


def _silu_d1(x):
    s = _sigmoid(x)
    return s * (1.0 + x * (1.0 - s))


def _silu_d2(x):
    s = _sigmoid(x)
    return s * (1.0 - s) * (2.0 + x * (1.0 - 2.0 * s))


def _mish_value(x):
    return x * np.tanh(_softplus(x))


def _mish_d1(x):
    w = np.tanh(_softplus(x))
    s = _sigmoid(x)
    return w + x * s * (1.0 - w * w)


def _mish_d2(x):
    w = np.tanh(_softplus(x))
    s = _sigmoid(x)
    sp = s * (1.0 - s)
    return (1.0 - w * w) * (2.0 * s + x * (sp - 2.0 * w * s * s))


def _logish_value(x):
    return x * np.log1p(_sigmoid(x))


def _logish_d1(x):
    s = _sigmoid(x)
    return np.log1p(s) + x * s * (1.0 - s) / (1.0 + s)


def _logish_d2(x):
    s = _sigmoid(x)
    sp = s * (1.0 - s)
    spp = sp * (1.0 - 2.0 * s)
    return 2.0 * sp / (1.0 + s) + x * (spp * (1.0 + s) - sp * sp) / (1.0 + s) ** 2


def _smish_value(x):
    return x * np.tanh(np.log1p(_sigmoid(x)))


def _smish_d1(x):
    s = _sigmoid(x)
    w = np.tanh(np.log1p(s))
    vp = s * (1.0 - s) / (1.0 + s)
    return w + x * (1.0 - w * w) * vp


def _smish_d2(x):
    s = _sigmoid(x)
    sp = s * (1.0 - s)
    spp = sp * (1.0 - 2.0 * s)
    w = np.tanh(np.log1p(s))
    vp = sp / (1.0 + s)
    vpp = (spp * (1.0 + s) - sp * sp) / (1.0 + s) ** 2
    return (1.0 - w * w) * (2.0 * vp + x * (vpp - 2.0 * w * vp * vp))


def _elu_value(x, alpha):
    neg = x <= 0.0
    return np.where(neg, alpha * np.expm1(_masked(x, neg)), x)


def _elu_d1(x, alpha):
    # piecewise convention: alpha * exp(x) on x <= 0, so d1(0) == alpha
    neg = x <= 0.0
    return np.where(neg, alpha * np.exp(_masked(x, neg)), 1.0)


def _elu_d2(x, alpha):
    neg = x <= 0.0
    return np.where(neg, alpha * np.exp(_masked(x, neg)), 0.0)


@dataclass(frozen=True)
class _Forms:
    """The closed forms of one kind, each called as ``fn(x, alpha)``.

    ``d2`` is None where f'' is not provided; ``value_d1`` returns (f, f')
    from one shared pass, and defaults to calling ``value`` then ``d1``.
    """

    value: Callable
    d1: Callable
    d2: Optional[Callable]
    value_d1: Optional[Callable] = None


def _plain(fn):
    """Adapt a form of a kind without parameters to the ``(x, alpha)`` call."""
    return None if fn is None else lambda x, alpha: fn(x)


def _forms(value, d1, d2=None, value_d1=None) -> _Forms:
    return _Forms(_plain(value), _plain(d1), _plain(d2), _plain(value_d1))


_FORMS = {
    "telu": _forms(_telu_value, _telu_d1, _telu_d2, _telu_value_d1),
    "relu": _forms(_relu_value, _relu_d1),
    "gelu": _forms(_gelu_value, _gelu_d1, _gelu_d2),
    "silu": _forms(_silu_value, _silu_d1, _silu_d2),
    "mish": _forms(_mish_value, _mish_d1, _mish_d2),
    "logish": _forms(_logish_value, _logish_d1, _logish_d2),
    "smish": _forms(_smish_value, _smish_d1, _smish_d2),
    "elu": _Forms(_elu_value, _elu_d1, _elu_d2),
}


def _prepare(x) -> tuple[np.ndarray, bool]:
    arr = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise DomainError("activation input must be finite")
    return arr, arr.ndim == 0


def _finish(out: np.ndarray, scalar: bool):
    return float(out) if scalar else out


def value(kind: ActivationKind, x):
    """f(x) for the given kind; overflow-safe over at least [-500, 500]."""
    arr, scalar = _prepare(x)
    return _finish(_FORMS[kind.tag].value(arr, kind.alpha), scalar)


def derivative(kind: ActivationKind, x):
    """Closed-form f'(x).

    ReLU at exactly 0 returns the subgradient convention value 0.0; use
    :func:`scalar_eval` or :func:`derivative_kinks` to detect that case.
    """
    arr, scalar = _prepare(x)
    return _finish(_FORMS[kind.tag].d1(arr, kind.alpha), scalar)


def value_and_derivative(kind: ActivationKind, x):
    """(f(x), f'(x)), bit-identical to :func:`value` and :func:`derivative`
    but sharing one pass where the kind has a fused form (TeLU)."""
    arr, scalar = _prepare(x)
    forms = _FORMS[kind.tag]
    if forms.value_d1 is not None:
        f, d = forms.value_d1(arr, kind.alpha)
    else:
        f, d = forms.value(arr, kind.alpha), forms.d1(arr, kind.alpha)
    return _finish(f, scalar), _finish(d, scalar)


def second_derivative(kind: ActivationKind, x):
    """Closed-form f''(x); undefined for ReLU (raises)."""
    arr, scalar = _prepare(x)
    d2 = _FORMS[kind.tag].d2
    if d2 is None:
        raise UnsupportedOperationError(
            "second derivative of ReLU is not provided (distributional at 0)"
        )
    return _finish(d2(arr, kind.alpha), scalar)


def scalar_eval(kind: ActivationKind, x: float) -> ScalarEval:
    """Evaluate f, f' and f'' at one point, flagging nonsmooth locations."""
    v = value(kind, float(x))
    d1 = derivative(kind, float(x))
    if has_second_derivative(kind):
        d2 = second_derivative(kind, float(x))
    else:
        d2 = float("nan") if float(x) == 0.0 else 0.0
    kinked = float(x) in derivative_kinks(kind)
    return ScalarEval(x=float(x), value=v, first=d1, second=d2, nonsmooth=kinked)


def has_second_derivative(kind: ActivationKind) -> bool:
    return _FORMS[kind.tag].d2 is not None


def derivative_kinks(kind: ActivationKind) -> tuple[float, ...]:
    """Points where f' jumps (so finite-difference checks must skip them)."""
    if kind.tag == "relu":
        return (0.0,)
    if kind.tag == "elu" and kind.alpha != 1.0:
        return (0.0,)
    return ()


def second_derivative_kinks(kind: ActivationKind) -> tuple[float, ...]:
    """Points where f'' jumps; ELU's second derivative is discontinuous at 0
    for every alpha."""
    if kind.tag in ("relu", "elu"):
        return (0.0,)
    return ()


def is_smooth(kind: ActivationKind) -> bool:
    """True when f is infinitely differentiable on all of R."""
    return kind.tag not in ("relu", "elu")
