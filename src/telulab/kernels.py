"""Closed-form activation kernels: f, f' and f'' for eight scalar activations.

This module is the single source of truth for activation values and
derivatives; everything else (property scans, autograd, the CLI kernel
tables) calls into it.  All arithmetic is 64-bit float.  Functions accept
a scalar or an ndarray and return the matching type.

One table, ``_KINDS``, holds a record per kind: its display name, its
closed forms (f alone, f and f' from one shared pass, and f'' where
provided), the points where f'' jumps, and whether it takes ``alpha``
(only ELU does).  Every per-kind question reads that record; the points
where f' jumps are derived from it, as the f'' kinks at which f' differs
between the two neighbouring floats.

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
    "derivative_kinks",
    "second_derivative_kinks",
    "has_second_derivative",
]

# exp(x) saturates tanh to exactly 1.0 in float64 well before x = 20, so
# clamping the exponent there keeps every evaluation overflow-free while
# agreeing with the direct formula to the last bit.
_TELU_HI = 20.0

_GELU_C = float(np.sqrt(2.0 / np.pi))
_GELU_A = 0.044715
# tanh(t) is exactly +-1 in float64 once |x| >= 10, so t and t' are taken at
# x clamped there: no result changes, and x**3 cannot overflow
_GELU_SAT = 10.0
# tanh(softplus(x)) is exactly 1.0 once x >= 20, so Mish f'' takes x clamped
# there: the leading (1 - w*w) is 0 and the other factor stays negative
_MISH_SAT = 20.0


@dataclass(frozen=True)
class ActivationKind:
    """Tagged activation identifier; ``alpha`` is 1.0 unless the kind takes
    it (ELU only), so ``alpha != 1`` marks a parameterised kind."""

    tag: str
    alpha: float = 1.0

    def __post_init__(self) -> None:
        kind = _KINDS.get(self.tag)
        if kind is None:
            raise DomainError(
                f"unknown activation {self.tag!r}; expected one of {', '.join(_KINDS)}"
            )
        if not kind.takes_alpha:
            if self.alpha != 1.0:
                raise DomainError(f"activation {self.tag!r} takes no parameter")
        elif not 0 < self.alpha < np.inf:
            raise DomainError(f"{self.tag} alpha must be finite and > 0, got {self.alpha}")

    @property
    def display_name(self) -> str:
        name = _KINDS[self.tag].display
        return f"{name}(alpha={self.alpha:g})" if self.alpha != 1.0 else name

    def spec_string(self) -> str:
        """Round-trippable form accepted by :func:`parse_kind`."""
        if self.alpha != 1.0:
            short = f"{self.alpha:g}"
            # %g keeps six significant digits; repr keeps every bit
            arg = short if float(short) == self.alpha else repr(self.alpha)
            return f"{self.tag}:{arg}"
        return self.tag


# --- stable scalar building blocks (array-native) --------------------------


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # exp(-|x|) never overflows: 1/(1+e) for x >= 0, e/(1+e) below
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


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


def _telu_d2(x):
    # sech(u)^2 as 4e/(1+e)^2, e = exp(-2u): 1 - th*th cancels once th rounds
    # to 1 (x >~ 2.9).  Not 2*xm*u*th: 2*xm overflows below -9e307, u*th is 0.
    xm = np.minimum(x, _TELU_HI)
    u = np.exp(xm)
    th = np.tanh(u)
    e = np.exp(-2.0 * u)
    sech2 = 4.0 * e / (1.0 + e) ** 2
    return u * sech2 * (2.0 + xm - xm * (2.0 * u * th))


def _relu_value(x):
    return np.maximum(x, 0.0)


def _relu_value_d1(x):
    # x == 0 deliberately falls in the zero branch: subgradient convention
    return _relu_value(x), np.where(x > 0.0, 1.0, 0.0)


def _gelu_clamp(x):
    return np.clip(x, -_GELU_SAT, _GELU_SAT, out=np.empty_like(x))


def _gelu_t(xc):
    return _GELU_C * (xc + _GELU_A * xc**3)


def _gelu_value(x):
    return 0.5 * x * (1.0 + np.tanh(_gelu_t(_gelu_clamp(x))))


def _gelu_value_d1(x):
    xc = _gelu_clamp(x)
    th = np.tanh(_gelu_t(xc))
    tp = _GELU_C * (1.0 + 3.0 * _GELU_A * xc * xc)
    return 0.5 * x * (1.0 + th), 0.5 * (1.0 + th) + 0.5 * x * (1.0 - th * th) * tp


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


def _silu_value_d1(x):
    s = _sigmoid(x)
    return x * s, s * (1.0 + x * (1.0 - s))


def _silu_d2(x):
    s = _sigmoid(x)
    return s * (1.0 - s) * (2.0 + x * (1.0 - 2.0 * s))


def _mish_value(x):
    return x * np.tanh(_softplus(x))


def _mish_value_d1(x):
    w = np.tanh(_softplus(x))
    return x * w, w + x * _sigmoid(x) * (1.0 - w * w)


def _mish_d2(x):
    x = np.minimum(x, _MISH_SAT)
    w = np.tanh(_softplus(x))
    s = _sigmoid(x)
    sp = s * (1.0 - s)
    return (1.0 - w * w) * (2.0 * s + x * (sp - 2.0 * w * s * s))


def _logish_value(x):
    return x * np.log1p(_sigmoid(x))


def _logish_value_d1(x):
    s = _sigmoid(x)
    v = np.log1p(s)
    return x * v, v + x * s * (1.0 - s) / (1.0 + s)


def _logish_d2(x):
    s = _sigmoid(x)
    sp = s * (1.0 - s)
    spp = sp * (1.0 - 2.0 * s)
    return 2.0 * sp / (1.0 + s) + x * (spp * (1.0 + s) - sp * sp) / (1.0 + s) ** 2


def _smish_value(x):
    return x * np.tanh(np.log1p(_sigmoid(x)))


def _smish_value_d1(x):
    s = _sigmoid(x)
    w = np.tanh(np.log1p(s))
    vp = s * (1.0 - s) / (1.0 + s)
    return x * w, w + x * (1.0 - w * w) * vp


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


def _elu_value_d1(x, alpha):
    # piecewise convention: alpha * exp(x) on x <= 0, so f'(0) == alpha
    neg = x <= 0.0
    xm = _masked(x, neg)
    return np.where(neg, alpha * np.expm1(xm), x), np.where(neg, alpha * np.exp(xm), 1.0)


def _elu_d2(x, alpha):
    neg = x <= 0.0
    return np.where(neg, alpha * np.exp(_masked(x, neg)), 0.0)


@dataclass(frozen=True)
class _Kind:
    """Everything specific to one activation kind.

    The closed forms are called as ``fn(x)``, or as ``fn(x, alpha)`` when
    ``takes_alpha``.  ``value_d1`` returns (f, f') from one shared pass, its
    f by the same float operations as ``value``, which value-only callers
    use so as not to pay for f'.  ``d2`` is None where f'' is not provided.
    ``d2_kinks`` are the points where f'' jumps.
    """

    display: str
    value: Callable
    value_d1: Callable
    d2: Optional[Callable]
    d2_kinks: tuple[float, ...] = ()
    takes_alpha: bool = False


_KINDS = {
    "telu": _Kind("TeLU", _telu_value, _telu_value_d1, _telu_d2),
    "relu": _Kind("ReLU", _relu_value, _relu_value_d1, None, (0.0,)),
    "gelu": _Kind("GELU", _gelu_value, _gelu_value_d1, _gelu_d2),
    "silu": _Kind("SiLU", _silu_value, _silu_value_d1, _silu_d2),
    "mish": _Kind("Mish", _mish_value, _mish_value_d1, _mish_d2),
    "logish": _Kind("Logish", _logish_value, _logish_value_d1, _logish_d2),
    "smish": _Kind("Smish", _smish_value, _smish_value_d1, _smish_d2),
    # f'' is alpha*exp(x) on x <= 0 and 0 above: it jumps at 0 for every alpha
    "elu": _Kind("ELU", _elu_value, _elu_value_d1, _elu_d2, (0.0,), takes_alpha=True),
}


TELU = ActivationKind("telu")
RELU = ActivationKind("relu")
GELU = ActivationKind("gelu")
SILU = ActivationKind("silu")
MISH = ActivationKind("mish")
LOGISH = ActivationKind("logish")
SMISH = ActivationKind("smish")


def elu(alpha: float = 1.0) -> ActivationKind:
    return ActivationKind("elu", alpha=float(alpha))


#: one kind per record of ``_KINDS``, in its order (ELU at alpha 1)
ALL_KINDS = tuple(ActivationKind(tag) for tag in _KINDS)


def parse_kind(text: str) -> ActivationKind:
    """Parse ``"telu"``, ``"relu"``, ... or ``"elu:2.0"`` into a kind."""
    name, _, arg = text.strip().lower().partition(":")
    if not arg:
        return ActivationKind(name)
    if name not in _KINDS or not _KINDS[name].takes_alpha:
        raise DomainError(f"activation {name!r} takes no parameter")
    try:
        alpha = float(arg)
    except ValueError as exc:
        raise DomainError(f"bad {name} alpha {arg!r}") from exc
    return ActivationKind(name, alpha)


def _prepare(kind: ActivationKind, x) -> tuple[_Kind, tuple, bool]:
    """The kind's record, the arguments its closed forms take for ``x``,
    and whether ``x`` is a scalar."""
    arr = np.asarray(x, dtype=np.float64)
    if not np.isfinite(arr).all():
        raise DomainError("activation input must be finite")
    rec = _KINDS[kind.tag]
    return rec, ((arr, kind.alpha) if rec.takes_alpha else (arr,)), arr.ndim == 0


def _finish(out: np.ndarray, scalar: bool):
    return float(out) if scalar else out


def value(kind: ActivationKind, x):
    """f(x) for the given kind; overflow-safe over at least [-500, 500]."""
    rec, args, scalar = _prepare(kind, x)
    return _finish(rec.value(*args), scalar)


def derivative(kind: ActivationKind, x):
    """Closed-form f'(x), the second half of :func:`value_and_derivative`,
    which computes f as well.

    ReLU at exactly 0 returns the subgradient convention value 0.0; use
    :func:`derivative_kinks` to detect that case.
    """
    rec, args, scalar = _prepare(kind, x)
    return _finish(rec.value_d1(*args)[1], scalar)


def value_and_derivative(kind: ActivationKind, x):
    """(f(x), f'(x)) from one pass that shares the work common to both,
    bit-identical to :func:`value` and :func:`derivative`."""
    rec, args, scalar = _prepare(kind, x)
    f, d = rec.value_d1(*args)
    return _finish(f, scalar), _finish(d, scalar)


def second_derivative(kind: ActivationKind, x):
    """Closed-form f''(x); undefined for ReLU (raises)."""
    rec, args, scalar = _prepare(kind, x)
    if rec.d2 is None:
        raise UnsupportedOperationError(
            f"second derivative of {rec.display} is not provided (distributional at 0)"
        )
    return _finish(rec.d2(*args), scalar)


def has_second_derivative(kind: ActivationKind) -> bool:
    return _KINDS[kind.tag].d2 is not None


def derivative_kinks(kind: ActivationKind) -> tuple[float, ...]:
    """Points where f' jumps (so finite-difference checks must skip them):
    the kinks of f'' at which f' differs between the two neighbouring
    floats."""
    kinks = []
    for k in second_derivative_kinks(kind):
        left, right = derivative(kind, np.nextafter(k, [-np.inf, np.inf]))
        if left != right:
            kinks.append(k)
    return tuple(kinks)


def second_derivative_kinks(kind: ActivationKind) -> tuple[float, ...]:
    """Points where f'' jumps."""
    return _KINDS[kind.tag].d2_kinks
